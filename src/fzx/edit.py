"""Edit-distance sketches via c-shingling into set difference.

A string is shingled into its set of length-c windows; set-difference
machinery (PinSketch) then absorbs insertions and deletions, each of
which moves the shingle set by at most 2c-1 elements.  The shingle set
alone does not determine the string, so the sketch also records which
sorted shingle sits at each position of the disjoint c-partition of w
(the last two partition blocks may overlap).  The sketch carries c and
t_edit, its shape is checked once, when it is built, and recovery reads
c off it.  A w' shorter than c has an empty shingle set and recovers
like any other w' within t_edit edits.
"""

import math
import random
from collections import namedtuple

from .bitpack import pack_fields
from .codec import DecodeFailure, _check_capacity
from .entropy import ExtractedKey, UHashParams, extract, parse_helper, reproduce
from .gf2m import field_of
from .setdiff import ElementSet, PinSketchData, pinsketch_rec, pinsketch_ss

__all__ = [
    "RecoveryInfo",
    "EditSketch",
    "shingle",
    "recovery_info",
    "unshingle",
    "edit_capacity",
    "edit_ss",
    "edit_rec",
    "edit_gen",
    "edit_rep",
    "shingle_encoding",
    "optimal_shingle_len",
    "edit_entropy_loss",
    "approx_edit_entropy_loss",
]


class RecoveryInfo(namedtuple("RecoveryInfo", "n indices")):
    """Positions of the disjoint-partition shingles in the sorted shingle set.

    indices are 1-based; together with the shingle set they pin down the
    original string of length n.
    """

    __slots__ = ()

    def __new__(cls, n: int, indices: tuple[int, ...]):
        if n < 1:
            raise ValueError("string length must be >= 1")
        if not indices:
            raise ValueError("at least one index required")
        if any(i < 1 for i in indices):
            raise ValueError("indices are 1-based")
        return super().__new__(cls, n, indices)


class EditSketch(namedtuple("EditSketch", "s1 s2 c t_edit")):
    """The `PinSketchData` s1 of the embedded c-shingle set of a string,
    and the `RecoveryInfo` s2 that orders it back into the string.  The
    shingle length c and the edits tolerated, t_edit, fix the rest of
    the shape: m = c * bits + 1 for bits-bit characters, t = (2c-1) *
    t_edit and ceil(n/c) recovery indices."""

    __slots__ = ()

    def __new__(cls, s1: PinSketchData, s2: RecoveryInfo, c: int, t_edit: int):
        _check_shape(s1.field.m, s1.t, s2.n, c, t_edit)
        if len(s2.indices) != -(-s2.n // c):
            raise ValueError("index count does not match ceil(n/c)")
        return super().__new__(cls, s1, s2, c, t_edit)

    @property
    def bits(self) -> int:
        """Bits per character of the sketched string: 1 or 8."""
        return (self.s1.field.m - 1) // self.c


def shingle(w, c: int) -> frozenset:
    """The set of all length-c windows of w, duplicates removed: |w|-c+1
    windows, or none when |w| < c."""
    if c < 1:
        raise ValueError("shingle length must be >= 1")
    return frozenset(w[i : i + c] for i in range(len(w) - c + 1))


def _partition(w, c: int) -> list:
    # ceil(n/c) blocks, disjoint except the last, which is the final c chars
    n = len(w)
    k = -(-n // c)
    blocks = [w[j * c : (j + 1) * c] for j in range(k - 1)]
    blocks.append(w[n - c :])
    return blocks


def recovery_info(w, c: int) -> RecoveryInfo:
    """1-based sorted-set indices of the disjoint-partition shingles of w."""
    if c > len(w):
        raise ValueError("need c <= |w|")
    pos = {s: i + 1 for i, s in enumerate(sorted(shingle(w, c)))}
    return RecoveryInfo(len(w), tuple(pos[b] for b in _partition(w, c)))


def unshingle(shingles: frozenset, g: RecoveryInfo):
    """Rebuild the string from its nonempty set of length-c windows and
    its recovery indices."""
    if not shingles:
        raise ValueError("shingle set cannot be empty")
    c = len(next(iter(shingles)))
    if c < 1 or any(len(s) != c for s in shingles):
        raise ValueError("shingles must be nonempty windows of one length")
    if c > g.n:
        raise ValueError("shingle length exceeds string length")
    ordered = sorted(shingles)
    k = -(-g.n // c)
    if len(g.indices) != k:
        raise ValueError("index count does not match ceil(n/c)")
    if any(i > len(ordered) for i in g.indices):
        raise ValueError("index out of range for shingle set")
    parts = [ordered[i - 1] for i in g.indices]
    overlap = c * k - g.n
    joiner = "" if isinstance(parts[0], str) else b""
    return joiner.join(parts[:-1]) + parts[-1][overlap:]


# ---------------------------------------------------------------------------
# Embedding shingles into a field universe


def _alphabet_bits(w) -> int:
    if isinstance(w, (bytes, bytearray)):
        return 8
    if isinstance(w, str):
        if set(w) <= {"0", "1"}:
            return 1
        raise ValueError("string input must be binary ('0'/'1')")
    raise ValueError("input must be a binary string or bytes")


def _embed_one(s, c: int, bits: int) -> int:
    value = int.from_bytes(s, "big") if bits == 8 else int(s, 2)
    return (1 << (c * bits)) + value


def _embedded_set(w, c: int, bits: int) -> ElementSet:
    """The c-shingles of w in GF(2^(c*bits+1))*; the one extra bit keeps
    every embedded shingle nonzero."""
    elems = [_embed_one(s, c, bits) for s in shingle(w, c)]
    return ElementSet.of(field_of(c * bits + 1), elems)


def _unembed_one(e: int, c: int, bits: int):
    base = 1 << (c * bits)
    value = e - base
    if not 0 <= value < base:
        raise DecodeFailure("recovered element is not an embedded shingle")
    if bits == 8:
        return value.to_bytes(c, "big")
    return format(value, f"0{c}b")


# ---------------------------------------------------------------------------
# Secure sketch


def edit_capacity(n: int, c: int, t_edit: int, bits: int) -> int:
    """Set-difference capacity (2c-1)*t_edit of the sketch of an
    n-character string over bits-bit characters, or ValueError for a
    sketch that could not be read back: it needs 1 <= c < n (c = n leaves
    no recovery index), a capacity and field degree c*bits+1 that fit the
    envelope header (u16 t, u8 m), and the BCH capacity of the shingle
    universe GF(2^(c*bits+1))*, `codec._check_capacity`."""
    if t_edit < 1:
        raise ValueError("capacity must be >= 1")
    if not 1 <= c < n:
        raise ValueError("need 1 <= c < |w|")
    t_set = (2 * c - 1) * t_edit
    if t_set > 0xFFFF or c * bits + 1 > 0xFF:
        raise ValueError("capacity or shingle length out of envelope range")
    _check_capacity(c * bits + 1, t_set)
    return t_set


def _check_shape(m: int, t: int, n: int, c: int, t_edit: int) -> None:
    """ValueError unless (m, t, n, c, t_edit) heads the edit sketch of an
    n-character string over GF(2^m), m = c * bits + 1 for a 1- or 8-bit
    alphabet, with the capacity t = (2c-1) * t_edit `edit_ss` gives it."""
    if c < 1 or (m - 1) % c or (m - 1) // c not in (1, 8):
        raise ValueError("m does not match a supported alphabet")
    if edit_capacity(n, c, t_edit, (m - 1) // c) != t:
        raise ValueError("t must equal (2c-1) * t_edit")


def edit_ss(w, c: int, t_edit: int) -> EditSketch:
    """Sketch tolerating t_edit character insertions/deletions in w."""
    bits = _alphabet_bits(w)
    t_set = edit_capacity(len(w), c, t_edit, bits)
    s1 = pinsketch_ss(_embedded_set(w, c, bits), t_set)
    return EditSketch(s1, recovery_info(w, c), c, t_edit)


def edit_rec(w_prime, sk: EditSketch):
    """Recover w from any w' within t_edit edits of it, of whatever
    length; ValueError when the sketch was made over the other
    alphabet."""
    bits, c = _alphabet_bits(w_prime), sk.c
    if bits != sk.bits:
        raise ValueError("sketch universe does not match the input alphabet")
    got = pinsketch_rec(_embedded_set(w_prime, c, bits), sk.s1)
    try:
        w = unshingle(frozenset(_unembed_one(e, c, bits) for e in got.elems), sk.s2)
    except ValueError as exc:
        raise DecodeFailure(f"recovered shingle set is inconsistent: {exc}") from exc
    # the output must explain both sketch components: unshingle can build a
    # string whose shingle set, or whose partition, is not the sketched one
    if pinsketch_ss(_embedded_set(w, c, bits), sk.s1.t) != sk.s1:
        raise DecodeFailure("recovered string fails sketch re-check")
    if recovery_info(w, c) != sk.s2:
        raise DecodeFailure("recovered string fails recovery-info re-check")
    return w


# ---------------------------------------------------------------------------
# Fuzzy extractor (hashes the shingle set, not the raw string)


def shingle_encoding(w, c: int) -> tuple[int, int]:
    """The hash input of an edit key, as (value, n_bits): the embedded
    shingle set of w, one field element per shingle, first element in the
    most significant bits."""
    es = _embedded_set(w, c, _alphabet_bits(w))
    return pack_fields(es.elems, es.field.m)


def edit_gen(w, c: int, t_edit: int, l_bits: int, rng: random.Random) -> ExtractedKey:
    """Extract an l_bits key; the helper carries the full edit sketch."""
    from .envelope import serialize_edit

    env = serialize_edit(edit_ss(w, c, t_edit))
    value, n_bits = shingle_encoding(w, c)
    return extract(env, value, UHashParams(n_bits, l_bits), rng)


def edit_rep(w_prime, p: bytes, l_bits: int) -> bytes:
    """Reproduce the key from w' and the helper string."""
    from .envelope import SCHEME_EDIT, MalformedEnvelope, deserialize

    env_bytes, seed = parse_helper(p)
    env = deserialize(env_bytes)
    if env.scheme != SCHEME_EDIT:
        raise MalformedEnvelope("bad-scheme", "helper does not hold an edit sketch")
    w = edit_rec(w_prime, env.sketch)
    return reproduce(seed, *shingle_encoding(w, env.sketch.c), l_bits)


# ---------------------------------------------------------------------------
# Parameter selection


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def edit_entropy_loss(n: int, c: int, t: int, F: int) -> float:
    """ceil(n/c) log2(n-c+1) + (2c-1) t ceil(log2(F^c+1))."""
    if not 1 <= c < n or t < 1 or F < 2:
        raise ValueError("bad parameters")
    return -(-n // c) * math.log2(n - c + 1) + (2 * c - 1) * t * _ceil_log2(F**c + 1)


def optimal_shingle_len(n: int, t: int, F: int) -> int:
    """Integer c in {2..n-1} minimizing the exact sketch entropy loss, the
    least such c on a tie."""
    if n < 3 or t < 1 or F < 2:
        raise ValueError("bad parameters")
    best = (math.inf, 0)
    for c in range(2, n):
        # the first term of the loss is >= 0 and the second grows with c
        if (2 * c - 1) * t * _ceil_log2(F**c + 1) >= best[0]:
            break
        best = min(best, (edit_entropy_loss(n, c, t, F), c))
    return best[1]


def approx_edit_entropy_loss(n: int, t: int, F: int) -> float:
    """Closed-form minimum-loss estimate (coefficient cbrt(4) + 1/cbrt(2))."""
    if n < 2 or t < 1 or F < 2:
        raise ValueError("bad parameters")
    coeff = 4 ** (1 / 3) + 2 ** (-1 / 3)
    return coeff * (t * math.log2(F)) ** (1 / 3) * (n * math.log2(n)) ** (2 / 3)
