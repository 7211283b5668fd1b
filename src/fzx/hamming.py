"""Secure sketches for the Hamming metric over fixed-length bit words.

Words are plain ints; bit i of the word is position i.  Three sketch
variants are provided: the syndrome sketch (store syn(w)), the code-offset
sketch (store w XOR c for a random codeword c), and the permuted variant
(store a fresh random permutation pi together with syn(pi(w))), which maps
any fixed error pattern to a uniformly random pattern of the same weight.

The code is the binary BCH code of length 2^m - 1 from `bch_params`: bit
i of a word is the field element i+1, and the syndrome map packs the odd
power sums s_1, s_3, ..., s_{2t-1} of a word's support.  That map is held
once, as its t*m parity rows (`_parity_rows`, n-bit masks): a syndrome is
t*m parities of w AND row, codeword sampling eliminates the same rows, and
decoding solves the key equation on the syndrome.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .bitpack import unpack_fields
from .codec import BchCode, support_from_syndrome
from .gf2m import PRIMITIVE_POLYS, field_of


@dataclass(frozen=True)
class HammingParams:
    """The BCH code whose syndrome map sketches words of length n = 2^m - 1."""

    code: BchCode

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def syndrome_bits(self) -> int:
        """Sketch payload width in bits: t*m, which exceeds n - k when the
        t*m parity rows are linearly dependent."""
        return self.code.t * self.code.field.m

    @property
    def k(self) -> int:
        """Code dimension.  n - k is the size of the union of the
        cyclotomic cosets of 1, 3, ..., 2t-1 mod n (the exponents of the
        generator polynomial's roots)."""
        code = self.code
        roots: set[int] = set()
        for i in range(1, 2 * code.t, 2):
            while i not in roots:
                roots.add(i)
                i = 2 * i % code.n
        return code.n - len(roots)

    @property
    def t(self) -> int:
        """Correction radius: every pattern of at most t flips decodes."""
        return self.code.t


@dataclass(frozen=True)
class SyndromeSketch:
    """Packed t*m-bit syndrome: the odd power sums s_1 first, each an
    m-bit big-endian field."""

    syn_bits: int
    n_bits: int

    def __post_init__(self):
        if self.n_bits < 0 or self.syn_bits < 0 or self.syn_bits >> self.n_bits:
            raise ValueError("syndrome wider than stated bit length")


@dataclass(frozen=True)
class CodeOffsetSketch:
    """The n-bit shift w XOR c from a random codeword c to the input."""

    shift: int
    n_bits: int

    def __post_init__(self):
        if self.n_bits < 0 or self.shift < 0 or self.shift >> self.n_bits:
            raise ValueError("shift wider than stated bit length")


@dataclass(frozen=True)
class PermutedSketch:
    """A permutation of the n positions plus the permuted word's syndrome."""

    perm: tuple[int, ...]
    syn: SyndromeSketch

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a permutation of 0..n-1")


# Codes whose parameters, parity rows and reduced rows stay cached; each
# further (m, t), say from a stream of envelopes, evicts the oldest.
_CACHED_CODES = 8


@lru_cache(maxsize=_CACHED_CODES)
def bch_params(m: int, t: int) -> HammingParams:
    """Hamming-sketch parameters over the length-(2^m - 1) BCH code with
    designed distance 2t + 1, over the shared `field_of(m)`.  Only degrees
    with a pinned primitive polynomial qualify, so a hostile m never
    searches for a modulus."""
    if m not in PRIMITIVE_POLYS:
        raise ValueError(f"no pinned primitive polynomial for m={m}")
    return HammingParams(BchCode(field_of(m), 2 * t + 1))


def _check_word(p: HammingParams, w: int) -> int:
    if not isinstance(w, int) or w < 0 or w >> p.n:
        raise ValueError(f"word does not fit in {p.n} bits")
    return w


@lru_cache(maxsize=_CACHED_CODES)
def _parity_rows(code: BchCode) -> tuple[int, ...]:
    """H: the t*m parity rows as n-bit masks, row j for bit j of the packed
    syndrome, so bit i of row m*(t-1-j) + b is bit b of (i+1)^(2j+1).

    Built bit-sliced: plane b of the elements x = i+1 is one periodic
    n-bit int, a product of two plane sets is m^2 ANDs, and plane k >= m
    of a product folds into the low planes through alpha^k mod f.
    """
    f = code.field
    m = f.m
    fold = [f.pow(2, k) for k in range(2 * m - 1)]  # alpha^k mod f

    def reduce(planes: list[int]) -> list[int]:
        for k in range(m, 2 * m - 1):
            for c in range(m):
                if fold[k] >> c & 1:
                    planes[c] ^= planes[k]
        return planes[:m]

    x = []
    for b in range(m):
        plane, width = ((1 << (1 << b)) - 1) << (1 << b), 2 << b
        while width >> m == 0:
            plane, width = plane | plane << width, 2 * width
        x.append(plane >> 1)  # the pattern's bit v is element v, at position v-1
    x2 = reduce([0 if k & 1 else x[k >> 1] for k in range(2 * m - 1)])
    rows, y = list(x), x
    for _ in range(code.t - 1):  # y: x^3, x^5, ..., each in front of the last
        prod = [0] * (2 * m - 1)
        for a, ya in enumerate(y):
            for b, xb in enumerate(x2):
                prod[a + b] ^= ya & xb
        y = reduce(prod)
        rows[:0] = y
    return tuple(rows)


def _bch_word_syndrome(code: BchCode, w: int) -> int:
    syn = 0
    for row in reversed(_parity_rows(code)):
        syn = syn << 1 | (w & row).bit_count() & 1
    return syn


def ss_syndrome(p: HammingParams, w: int) -> SyndromeSketch:
    """Sketch w as its syndrome under the code's parity map."""
    _check_word(p, w)
    return SyndromeSketch(_bch_word_syndrome(p.code, w), p.syndrome_bits)


def rec_syndrome(p: HammingParams, w_prime: int, s: SyndromeSketch) -> int:
    """Recover the sketched word from w_prime: decode the syndrome of the
    difference to an error pattern e with weight(e) <= t and return
    w_prime XOR e.  Equals the original w whenever dis(w, w') <= t;
    raises DecodeFailure when no within-capacity pattern verifies."""
    _check_word(p, w_prime)
    if s.n_bits != p.syndrome_bits:
        raise ValueError("sketch length does not match code parameters")
    code = p.code
    diff = _bch_word_syndrome(code, w_prime) ^ s.syn_bits
    e = 0
    for x in support_from_syndrome(code, unpack_fields(diff, s.n_bits, code.field.m)):
        e |= 1 << (x - 1)
    return w_prime ^ e


@lru_cache(maxsize=_CACHED_CODES)
def _reduced_parity(code: BchCode) -> tuple[tuple[int, int], ...]:
    """A basis of the parity rows in reduced row echelon form, as (pivot
    bit, mask) pairs; dependent rows are dropped, so its length is n - k.

    Precomputed once per code so uniform-codeword sampling is a handful
    of mask operations per draw rather than a fresh elimination.
    """
    reduced: list[tuple[int, int]] = []
    for mask in _parity_rows(code):
        for pb, pm in reduced:
            if (mask >> pb) & 1:
                mask ^= pm
        if mask == 0:
            continue
        pb = (mask & -mask).bit_length() - 1
        reduced = [
            (opb, om ^ mask) if (om >> pb) & 1 else (opb, om)
            for opb, om in reduced
        ]
        reduced.append((pb, mask))
    return tuple(reduced)


def random_codeword(p: HammingParams, rng: random.Random) -> int:
    """Uniformly random codeword: free positions take fresh random bits,
    pivot positions are forced by back-substitution."""
    reduced = _reduced_parity(p.code)
    v = rng.getrandbits(p.n)
    for pb, _ in reduced:
        v &= ~(1 << pb)
    for pb, mask in reduced:
        if (v & mask).bit_count() & 1:
            v |= 1 << pb
    return v


def ss_code_offset(p: HammingParams, w: int, rng: random.Random) -> CodeOffsetSketch:
    """Sketch w as the shift w XOR c for a uniformly random codeword c."""
    _check_word(p, w)
    return CodeOffsetSketch(w ^ random_codeword(p, rng), p.n)


def rec_code_offset(p: HammingParams, w_prime: int, sk: CodeOffsetSketch) -> int:
    """Subtract the shift, decode to the nearest codeword, re-shift."""
    _check_word(p, w_prime)
    if sk.n_bits != p.n:
        raise ValueError("sketch length does not match code parameters")
    v = w_prime ^ sk.shift
    c = rec_syndrome(p, v, SyndromeSketch(0, p.syndrome_bits))
    return c ^ sk.shift


def permute_word(w: int, perm) -> int:
    """Apply a permutation: bit i of the result is bit perm[i] of w.

    One pass over strings: character k of w's reversed binary string is
    bit k, `itemgetter` gathers the characters in the order of perm, and
    the gathered string, reversed back, parses as the result."""
    bits = format(w, f"0{len(perm)}b")[::-1]
    return int("".join(itemgetter(*perm)(bits))[::-1], 2)


def invert_permutation(perm) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, src in enumerate(perm):
        inv[src] = i
    return tuple(inv)


def ss_permuted(p: HammingParams, w: int, rng: random.Random) -> PermutedSketch:
    """Draw a fresh uniform permutation pi (Fisher-Yates) and sketch the
    permuted word's syndrome; pi travels inside the sketch."""
    _check_word(p, w)
    perm = list(range(p.n))
    rng.shuffle(perm)
    perm = tuple(perm)
    return PermutedSketch(perm, ss_syndrome(p, permute_word(w, perm)))


def rec_permuted(p: HammingParams, w_prime: int, sk: PermutedSketch) -> int:
    """Permute w_prime by the sketch's pi, recover in the permuted domain,
    then undo the permutation."""
    _check_word(p, w_prime)
    if len(sk.perm) != p.n:
        raise ValueError("permutation length does not match word length")
    pw = rec_syndrome(p, permute_word(w_prime, sk.perm), sk.syn)
    return permute_word(pw, invert_permutation(sk.perm))


def hamming_entropy_loss(n: int, k: int) -> float:
    """Entropy loss of the linear-code constructions: n - k bits, the
    rank of the syndrome map.  For BCH, n - k <= t*m."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return float(n - k)
