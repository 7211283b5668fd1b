"""Secure sketches for the Hamming metric over fixed-length bit words.

Words are plain ints; bit i of the word is position i.  Three sketch
variants are provided: the syndrome sketch (store syn(w)), the code-offset
sketch (store w XOR c for a random codeword c), and the permuted variant
(store a fresh random permutation pi together with syn(pi(w))), which maps
any fixed error pattern to a uniformly random pattern of the same weight.

The code is the length-(2^m - 1) BCH code correcting t errors that
`bch_params` interns: bit i of a word is the field element i+1, and the
syndrome map packs the odd power sums s_1, s_3, ..., s_{2t-1} of a word's
support, held as the code's t*m parity rows (`BchCode.parity_rows`).  A
syndrome is t*m parities of w AND row, codeword sampling eliminates the
same rows, and every recovery decodes one syndrome difference to at most
t error positions and flips those bits of w'.
"""

from __future__ import annotations

import functools
import random
from collections import namedtuple
from operator import itemgetter

from .bitpack import unpack_fields
from .codec import BchCode, _check_capacity, support_from_syndrome
from .gf2m import PRIMITIVE_POLYS, field_of


class SyndromeSketch(namedtuple("SyndromeSketch", "syn_bits n_bits")):
    """Packed t*m-bit syndrome: the odd power sums s_1 first, each an
    m-bit big-endian field."""

    __slots__ = ()

    def __new__(cls, syn_bits: int, n_bits: int):
        if n_bits < 0 or syn_bits < 0 or syn_bits >> n_bits:
            raise ValueError("syndrome wider than stated bit length")
        return super().__new__(cls, syn_bits, n_bits)


class CodeOffsetSketch(namedtuple("CodeOffsetSketch", "shift n_bits")):
    """The n-bit shift w XOR c from a random codeword c to the input."""

    __slots__ = ()

    def __new__(cls, shift: int, n_bits: int):
        if n_bits < 0 or shift < 0 or shift >> n_bits:
            raise ValueError("shift wider than stated bit length")
        return super().__new__(cls, shift, n_bits)


class PermutedSketch(namedtuple("PermutedSketch", "perm syn")):
    """A permutation of the n positions (a tuple) plus the permuted word's
    `SyndromeSketch`."""

    __slots__ = ()

    def __new__(cls, perm: tuple[int, ...], syn: SyndromeSketch):
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("perm is not a permutation of 0..n-1")
        return super().__new__(cls, perm, syn)


# Codes that stay cached, each with its parity rows and reduced rows; each
# further (m, t), say from a stream of envelopes, evicts the oldest.
_CACHED_CODES = 8


def _check_word_shape(m: int, t: int) -> None:
    """ValueError unless m has a pinned primitive polynomial, so a hostile m
    never makes a code of more than 2^32 bits, and t is within capacity."""
    if m not in PRIMITIVE_POLYS:
        raise ValueError(f"no pinned primitive polynomial for m={m}")
    _check_capacity(m, t)


@functools.lru_cache(maxsize=_CACHED_CODES)
def bch_params(m: int, t: int) -> BchCode:
    """The length-(2^m - 1) BCH code correcting t errors over the shared
    `field_of(m)`, one instance per (m, t) while cached."""
    _check_word_shape(m, t)
    return BchCode(field_of(m), t)


def _check_word(p: BchCode, w: int) -> int:
    if not isinstance(w, int) or w < 0 or w >> p.n:
        raise ValueError(f"word does not fit in {p.n} bits")
    return w


def _bch_word_syndrome(code: BchCode, w: int) -> int:
    syn = 0
    for row in reversed(code.parity_rows):
        syn = syn << 1 | (w & row).bit_count() & 1
    return syn


def ss_syndrome(p: BchCode, w: int) -> SyndromeSketch:
    """Sketch w as its syndrome under the code's parity map."""
    _check_word(p, w)
    return SyndromeSketch(_bch_word_syndrome(p, w), p.syndrome_bits)


def _errors(p: BchCode, v: int, syn_bits: int) -> list[int]:
    """The at most t bit positions that, flipped in v, give the nearest word
    of syndrome syn_bits, or DecodeFailure when none within capacity
    verifies."""
    diff = unpack_fields(_bch_word_syndrome(p, v) ^ syn_bits, p.syndrome_bits, p.field.m)
    return [x - 1 for x in support_from_syndrome(p, diff)]


def rec_syndrome(p: BchCode, w_prime: int, s: SyndromeSketch) -> int:
    """Recover the sketched word from w_prime by flipping the at most t
    positions that the syndrome difference decodes to.  Equals the
    original w whenever dis(w, w') <= t; raises DecodeFailure when no
    within-capacity pattern verifies."""
    _check_word(p, w_prime)
    if s.n_bits != p.syndrome_bits:
        raise ValueError("sketch length does not match code parameters")
    for i in _errors(p, w_prime, s.syn_bits):
        w_prime ^= 1 << i
    return w_prime


def random_codeword(p: BchCode, rng: random.Random) -> int:
    """Uniformly random codeword: free positions take fresh random bits,
    pivot positions are forced by back-substitution."""
    reduced = p.reduced_rows
    v = rng.getrandbits(p.n)
    for pb, _ in reduced:
        v &= ~(1 << pb)
    for pb, mask in reduced:
        if (v & mask).bit_count() & 1:
            v |= 1 << pb
    return v


def ss_code_offset(p: BchCode, w: int, rng: random.Random) -> CodeOffsetSketch:
    """Sketch w as the shift w XOR c for a uniformly random codeword c."""
    _check_word(p, w)
    return CodeOffsetSketch(w ^ random_codeword(p, rng), p.n)


def rec_code_offset(p: BchCode, w_prime: int, sk: CodeOffsetSketch) -> int:
    """Recover w from w_prime: w_prime XOR shift is the codeword c plus
    the errors w XOR w_prime, so the positions that decode it to c are
    the ones to flip in w_prime.  DecodeFailure as for `rec_syndrome`."""
    _check_word(p, w_prime)
    if sk.n_bits != p.n:
        raise ValueError("sketch length does not match code parameters")
    for i in _errors(p, w_prime ^ sk.shift, 0):
        w_prime ^= 1 << i
    return w_prime


def permute_word(w: int, perm) -> int:
    """Apply a permutation: bit i of the result is bit perm[i] of w.

    One pass over strings: character k of w's reversed binary string is
    bit k, `itemgetter` gathers the characters in the order of perm, and
    the gathered string, reversed back, parses as the result."""
    bits = format(w, f"0{len(perm)}b")[::-1]
    return int("".join(itemgetter(*perm)(bits))[::-1], 2)


def ss_permuted(p: BchCode, w: int, rng: random.Random) -> PermutedSketch:
    """Draw a fresh uniform permutation pi (Fisher-Yates) and sketch the
    permuted word's syndrome; pi travels inside the sketch."""
    _check_word(p, w)
    perm = list(range(p.n))
    rng.shuffle(perm)
    perm = tuple(perm)
    return PermutedSketch(perm, ss_syndrome(p, permute_word(w, perm)))


def rec_permuted(p: BchCode, w_prime: int, sk: PermutedSketch) -> int:
    """Decode the permuted word pi(w_prime) against the sketched syndrome;
    its error at position i is an error at bit pi[i] of w_prime, so that
    bit is flipped."""
    _check_word(p, w_prime)
    perm, syn = sk
    if len(perm) != p.n or syn.n_bits != p.syndrome_bits:
        raise ValueError("sketch shape does not match code parameters")
    for i in _errors(p, permute_word(w_prime, perm), syn.syn_bits):
        w_prime ^= 1 << perm[i]
    return w_prime


def hamming_entropy_loss(n: int, k: int) -> float:
    """Entropy loss of the linear-code constructions: n - k bits, the
    rank of the syndrome map.  For BCH, n - k <= t*m."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return float(n - k)
