"""The strong extractor of a fuzzy extractor, and its helper framing.

The hash family is pinned to truncated GF(2^n) multiplication, n <= 256:
H_x(w) = low l bits of x*w, which is XOR-universal for any irreducible
modulus, so test vectors replay across implementations.  Gen frames the
sketch and the hash seed x into the public helper P; Rep parses P, and
checks x, before recovery runs.  Entropies are in bits, log base 2.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .gf2m import GF2m, field_of


class MalformedPayload(ValueError):
    """Helper payload fails structural validation."""


class UHashParams(namedtuple("UHashParams", "n_bits l_bits")):
    """Parameters of the truncated-product hash family over GF(2^n)."""

    __slots__ = ()

    def __new__(cls, n_bits: int, l_bits: int):
        if n_bits > 256:
            raise ValueError(f"hash input of {n_bits} bits exceeds the 256-bit limit")
        if not 1 <= l_bits <= n_bits:
            raise ValueError("need 1 <= l_bits <= n_bits")
        return super().__new__(cls, n_bits, l_bits)

    @property
    def field(self) -> GF2m:
        return field_of(self.n_bits)


def uhash(u: UHashParams, x: int, w: int) -> int:
    """Low l_bits of the GF(2^n) product x*w."""
    if x >> u.n_bits or x < 0 or w >> u.n_bits or w < 0:
        raise ValueError("inputs wider than n_bits")
    return u.field.mul(x, w) & ((1 << u.l_bits) - 1)


def max_extractable_bits(m_res: float, eps: float) -> int:
    """floor(m_res - 2*log2(1/eps) + 2), clamped at 0."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    return max(0, math.floor(m_res - 2 * math.log2(1 / eps) + 2))


def extractor_loss(eps: float) -> float:
    """2*log2(1/eps) - 2: the entropy a key eps-close to uniform gives up
    beyond what the sketch reveals."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    return 2 * math.log2(1 / eps) - 2


class ExtractedKey(namedtuple("ExtractedKey", "r p")):
    """An extracted key r plus the public helper payload p, both bytes."""

    __slots__ = ()


def _to_bytes(value: int, n_bits: int) -> bytes:
    return value.to_bytes((n_bits + 7) // 8, "big")


def parse_helper(p: bytes) -> tuple[bytes, bytes]:
    """Split a helper payload into (sketch bytes, hash seed bytes).

    Layout: [2-byte big-endian sketch length][sketch][seed].
    """
    if len(p) < 2:
        raise MalformedPayload("helper payload shorter than its length field")
    sketch_len = int.from_bytes(p[:2], "big")
    if len(p) < 2 + sketch_len:
        raise MalformedPayload("helper payload truncated")
    return p[2 : 2 + sketch_len], p[2 + sketch_len :]


def _seed(seed: bytes, n_bits: int) -> int:
    """The hash seed x read off a helper, checked against the width n_bits
    of the value it hashes."""
    if len(seed) != (n_bits + 7) // 8:
        raise MalformedPayload("hash seed length does not match parameters")
    x = int.from_bytes(seed, "big")
    if x >> n_bits:
        raise MalformedPayload("hash seed wider than n_bits")
    return x


def extract(sketch: bytes, value: int, u: UHashParams, rng: random.Random) -> ExtractedKey:
    """Gen once the sketch s = SS(w) is made: draw the hash seed x, and
    return R = H_x(value) with the helper P = (s, x).  `value` is the
    injective u.n_bits-wide encoding of w."""
    if len(sketch) > 0xFFFF:
        raise ValueError("sketch too long for helper framing")
    x = rng.getrandbits(u.n_bits)
    p = len(sketch).to_bytes(2, "big") + sketch + _to_bytes(x, u.n_bits)
    return ExtractedKey(r=_to_bytes(uhash(u, x, value), u.l_bits), p=p)


def reproduce(seed: bytes, value: int, n_bits: int, l_bits: int) -> bytes:
    """Rep once w = Rec(w', s) is recovered: R = H_x(value), with x the
    seed bytes of the helper and value the n_bits-wide encoding of w.  The
    seed is checked before the hash parameters are, so a helper whose
    recovered value has the wrong width is malformed, not a bad parameter."""
    x = _seed(seed, n_bits)
    return _to_bytes(uhash(UHashParams(n_bits, l_bits), x, value), l_bits)


def _encoded(encode, w, u: UHashParams) -> int:
    val, nb = encode(w)
    if nb != u.n_bits:
        raise ValueError("encoded length does not match hash parameters")
    return val


def compose_gen(sketcher, w, encode, u: UHashParams, rng: random.Random) -> ExtractedKey:
    """Fuzzy-extractor generation: P = (SS(w; r), x), R = H_x(encode(w)).

    `sketcher` provides sketch(w, rng) -> bytes and recover(w', bytes);
    `encode` maps a metric-space element to (value, n_bits) and must be
    injective with n_bits = u.n_bits.
    """
    return extract(sketcher.sketch(w, rng), _encoded(encode, w, u), u, rng)


def compose_rep(sketcher, w_prime, p: bytes, encode, u: UHashParams) -> bytes:
    """Fuzzy-extractor reproduction: w = Rec(w', s), R = H_x(encode(w))."""
    sketch, seed = parse_helper(p)
    _seed(seed, u.n_bits)  # a bad seed fails before recovery runs
    w = sketcher.recover(w_prime, sketch)
    return reproduce(seed, _encoded(encode, w, u), u.n_bits, u.l_bits)

