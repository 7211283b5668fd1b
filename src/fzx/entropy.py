"""Probability toolkit and the universal-hash extractor.

Distributions are explicit maps from byte-string outcomes to probabilities,
sized for desk-scale enumeration (supports up to 2^24 outcomes).  Entropies
are in bits, log base 2 throughout.  The extractor family is pinned to
truncated GF(2^n) multiplication: H_x(w) = low l bits of x*w, which is
XOR-universal for any irreducible modulus, so test vectors replay across
implementations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .gf2m import GF2m, field_of

_MAX_SUPPORT = 1 << 24


class MalformedPayload(ValueError):
    """Helper payload fails structural validation."""


class FiniteDistribution:
    """Immutable distribution over byte-string outcomes."""

    __slots__ = ("probs",)

    def __init__(self, probs: dict[bytes, float]):
        if len(probs) > _MAX_SUPPORT:
            raise ValueError("support larger than 2^24 outcomes")
        total = 0.0
        for k, p in probs.items():
            if not isinstance(k, bytes):
                raise ValueError("outcomes must be byte strings")
            if p < 0:
                raise ValueError(f"negative probability for {k!r}")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", dict(probs))

    def __setattr__(self, *a):
        raise AttributeError("FiniteDistribution is immutable")

    @classmethod
    def uniform(cls, n_bits: int) -> "FiniteDistribution":
        if not 0 <= n_bits <= 24:
            raise ValueError("uniform distribution limited to 24 bits")
        width = max(1, (n_bits + 7) // 8)
        p = 1.0 / (1 << n_bits)
        return cls({v.to_bytes(width, "big"): p for v in range(1 << n_bits)})

    @classmethod
    def point(cls, outcome: bytes) -> "FiniteDistribution":
        return cls({outcome: 1.0})


class JointDistribution:
    """Immutable distribution over pairs of byte-string outcomes."""

    __slots__ = ("probs",)

    def __init__(self, probs: dict[tuple[bytes, bytes], float]):
        if len(probs) > _MAX_SUPPORT:
            raise ValueError("support larger than 2^24 outcomes")
        total = 0.0
        for k, p in probs.items():
            if not (isinstance(k, tuple) and len(k) == 2):
                raise ValueError("outcomes must be pairs")
            if p < 0:
                raise ValueError("negative probability")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", dict(probs))

    def __setattr__(self, *a):
        raise AttributeError("JointDistribution is immutable")


def statistical_distance(a: FiniteDistribution, b: FiniteDistribution) -> float:
    """SD(A, B) = 1/2 sum over outcomes of |Pr[A=v] - Pr[B=v]|."""
    keys = set(a.probs) | set(b.probs)
    return 0.5 * sum(abs(a.probs.get(k, 0.0) - b.probs.get(k, 0.0)) for k in keys)


def min_entropy(a: FiniteDistribution) -> float:
    """H_inf(A) = -log2 max_a Pr[A=a]."""
    return -math.log2(max(a.probs.values()))


def avg_min_entropy(j: JointDistribution) -> float:
    """H~_inf(A|B) = -log2 E_b [max_a Pr[A=a|B=b]], log taken after the
    average.  Computed as -log2 sum_b max_a Pr[A=a, B=b]."""
    best: dict[bytes, float] = {}
    for (a, b), p in j.probs.items():
        if p > best.get(b, 0.0):
            best[b] = p
    return -math.log2(sum(best.values()))


@dataclass(frozen=True)
class UHashParams:
    """Parameters of the truncated-product hash family over GF(2^n)."""

    n_bits: int
    l_bits: int

    def __post_init__(self):
        if not 1 <= self.l_bits <= self.n_bits <= 256:
            raise ValueError("need 1 <= l_bits <= n_bits <= 256")

    @property
    def field(self) -> GF2m:
        return field_of(self.n_bits)


def uhash(u: UHashParams, x: int, w: int) -> int:
    """Low l_bits of the GF(2^n) product x*w."""
    if x >> u.n_bits or x < 0 or w >> u.n_bits or w < 0:
        raise ValueError("inputs wider than n_bits")
    return u.field.mul(x, w) & ((1 << u.l_bits) - 1)


def extractor_distance(u: UHashParams, w_dist: FiniteDistribution) -> float:
    """Exact SD(<H_X(W), X>, <U_l, X>) over a uniform hash seed X.

    Enumerates every seed, so it is guarded to n_bits <= 16.  Outcomes of
    w_dist are read as big-endian n_bits-wide integers.
    """
    if u.n_bits > 16:
        raise ValueError("exhaustive extractor SD limited to n_bits <= 16")
    width = max(1, (u.n_bits + 7) // 8)
    support = []
    for outcome, prob in w_dist.probs.items():
        if len(outcome) != width:
            raise ValueError("outcome width does not match n_bits")
        support.append((int.from_bytes(outcome, "big"), prob))
    mul = u.field.mul
    mask = (1 << u.l_bits) - 1
    target = 1.0 / (1 << u.l_bits)
    n_keys = 1 << u.n_bits
    total = 0.0
    buckets = [0.0] * (mask + 1)
    for x in range(n_keys):
        for h in range(mask + 1):
            buckets[h] = 0.0
        for w, prob in support:
            buckets[mul(x, w) & mask] += prob
        total += 0.5 * sum(abs(p - target) for p in buckets)
    return total / n_keys


def max_extractable_bits(m_res: float, eps: float) -> int:
    """floor(m_res - 2*log2(1/eps) + 2), clamped at 0."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    return max(0, math.floor(m_res - 2 * math.log2(1 / eps) + 2))


@dataclass(frozen=True)
class ExtractedKey:
    """An extracted key R plus the public helper payload P."""

    r: bytes
    p: bytes


def _key_bytes(value: int, l_bits: int) -> bytes:
    return value.to_bytes((l_bits + 7) // 8, "big")


def _x_bytes(x: int, n_bits: int) -> bytes:
    return x.to_bytes((n_bits + 7) // 8, "big")


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
    p = len(sketch).to_bytes(2, "big") + sketch + _x_bytes(x, u.n_bits)
    return ExtractedKey(r=_key_bytes(uhash(u, x, value), u.l_bits), p=p)


def reproduce(seed: bytes, value: int, n_bits: int, l_bits: int) -> bytes:
    """Rep once w = Rec(w', s) is recovered: R = H_x(value), with x the
    seed bytes of the helper and value the n_bits-wide encoding of w.  The
    seed is checked before the hash parameters are, so a helper whose
    recovered value has the wrong width is malformed, not a bad parameter."""
    x = _seed(seed, n_bits)
    return _key_bytes(uhash(UHashParams(n_bits, l_bits), x, value), l_bits)


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

