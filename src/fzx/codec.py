"""BCH syndromes and decoding in support representation.

A length-(2^m - 1) binary word is handled through the set of field elements
indexing its nonzero positions: position i (0-based bit i) corresponds to
the nonzero element i+1 of GF(2^m).  Syndromes are the odd power sums
s_j = sum_{x in supp} x^j for j = 1, 3, ..., 2t-1; the even entries are
recovered from the Frobenius identity s_{2j} = s_j^2, so they are never
stored.  All decoding work is polynomial in t and m, never in 2^m.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .gf2m import (
    GF2m,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_monic,
    poly_mul,
    poly_norm,
    poly_roots,
    poly_scale,
)


class DecodeFailure(Exception):
    """Raised when a sketch or syndrome does not decode within capacity."""


@dataclass(frozen=True)
class BchCode:
    """Binary BCH code of length 2^m - 1 with designed distance delta = 2t+1."""

    field: GF2m
    delta: int

    def __post_init__(self):
        if self.delta < 3 or self.delta % 2 == 0:
            raise ValueError("designed distance must be odd and >= 3")
        if self.delta > (1 << self.field.m) - 1:
            raise ValueError("designed distance exceeds code length")

    @property
    def t(self) -> int:
        return (self.delta - 1) // 2

    @property
    def n(self) -> int:
        return (1 << self.field.m) - 1


def syndrome_from_support(code: BchCode, support) -> list[int]:
    """Odd power sums s_1, s_3, ..., s_{2t-1} of a set of nonzero elements."""
    f = code.field
    t = code.t
    sums = [0] * t
    mul, sqr = f.mul, f.sqr
    for x in support:
        if not 0 < x <= f.order:
            raise ValueError(f"support element {x} outside GF(2^m)*")
        x2 = sqr(x)
        y = x
        for j in range(t):
            sums[j] ^= y
            y = mul(y, x2)
    return sums


def expand_syndrome(code: BchCode, odd_sums: list[int]) -> list[int]:
    """Full syndrome vector (s_1, ..., s_{delta-1}) from the odd entries."""
    t = code.t
    if len(odd_sums) != t:
        raise ValueError("expected t odd power sums")
    full = [0] * (code.delta - 1)
    sqr = code.field.sqr
    for j in range(t):
        full[2 * j] = odd_sums[j]
    for i in range(2, code.delta, 2):
        full[i - 1] = sqr(full[i // 2 - 1])
    return full


def support_from_syndrome(
    code: BchCode, odd_sums: list[int], rng: random.Random | None = None
) -> set[int]:
    """Recover the support set (size <= t) whose odd power sums equal the
    input, or raise DecodeFailure.

    Solves the key equation S(z)*sigma(z) = omega(z) mod z^delta by a
    partial extended Euclidean run on (z^(delta-1), S(z)/z), takes the
    error locator from the Bezout coefficient, finds its roots, inverts
    them into positions, and re-verifies the syndrome unconditionally.
    """
    f = code.field
    t = code.t
    if len(odd_sums) != t:
        raise ValueError("expected t odd power sums")
    if all(s == 0 for s in odd_sums):
        return set()

    full = expand_syndrome(code, odd_sums)
    s_over_z = poly_norm(list(full))  # S(z)/z: coefficient of z^i is s_{i+1}

    z_delta = [0] * (code.delta - 1) + [1]  # z^(delta-1)
    r_cur, v_cur = _partial_euclid(f, z_delta, s_over_z, (code.delta - 1) // 2)

    c = poly_eval(f, v_cur, 0)
    if c == 0:
        raise DecodeFailure("locator has zero constant term")
    c_inv = f.inv(c)
    sigma = poly_scale(f, v_cur, c_inv)

    if __debug__:
        # key equation: S(z)*sigma(z) = omega(z) mod z^delta with
        # omega = z*R_cur/c of degree < (delta+1)/2
        omega = poly_scale(f, [0] + r_cur, c_inv)
        prod = poly_mul(f, [0] + full, sigma)
        assert poly_add(prod[: code.delta], omega[: code.delta]) == []

    roots = poly_roots(f, sigma, rng)
    if roots is None or len(roots) != poly_deg(sigma):
        raise DecodeFailure("locator does not split into distinct roots")
    support = {f.inv(r) for r in roots}
    if syndrome_from_support(code, support) != odd_sums:
        raise DecodeFailure("recovered support fails syndrome re-check")
    return support


def _partial_euclid(
    field: GF2m, a: list[int], b: list[int], stop: int
) -> tuple[list[int], list[int]]:
    """Extended Euclid on (a, b), halted at the first remainder r with
    deg r < stop.  Returns r and its Bezout coefficient v of b, so that
    r = u*a + v*b for some u."""
    r_old, r_cur = a, b
    v_old: list[int] = []
    v_cur: list[int] = [1]
    while poly_deg(r_cur) >= stop:
        q, r_new = poly_divmod(field, r_old, r_cur)
        v_old, v_cur = v_cur, poly_add(v_old, poly_mul(field, q, v_cur))
        r_old, r_cur = r_cur, r_new
    return r_cur, v_cur


def rs_decode(
    field: GF2m,
    points: list[tuple[int, int]],
    deg_bound: int,
    max_wrong: int,
) -> list[int]:
    """Unique polynomial of degree <= deg_bound agreeing with all but at
    most max_wrong of the (x, y) pairs, by Gao's algorithm (2003).

    Interpolates g1 through all n points, with g1(x_i) = y_i and
    deg g1 < n, next to g0 = prod (z - x_i), and runs the extended Euclid
    on (g0, g1) until the remainder r has degree < (n + deg_bound + 1)/2;
    with Bezout coefficient v of g1, the answer is r / v.  O(n^2) field
    multiplications.  Requires the unique-decoding regime
    len(points) - max_wrong > deg_bound + max_wrong; raises DecodeFailure
    when no polynomial meets the agreement bound, which is checked on the
    result itself.
    """
    n = len(points)
    xs = [p[0] for p in points]
    if len(set(xs)) != n:
        raise ValueError("duplicate x coordinates")
    if deg_bound < 0 or max_wrong < 0:
        raise ValueError("negative degree bound or error bound")
    if n - max_wrong <= deg_bound + max_wrong:
        raise ValueError("parameters outside the unique-decoding regime")

    mul = field.mul
    g0 = [1]
    for x in xs:  # g0 *= z + x
        g0 = [mul(x, c) ^ d for c, d in zip(g0 + [0], [0] + g0)]
    # g1 = sum y_i / g0'(x_i) * g0 / (z - x_i).  In characteristic 2 the
    # derivative g0' keeps only the odd coefficients of g0, so g0'(x) is a
    # polynomial in x^2 with about n/2 terms.
    odd = g0[1::2]
    g1 = [0] * n
    for x, y in points:
        if y:
            w = mul(y, field.inv(poly_eval(field, odd, field.sqr(x))))
            c = 0
            for k in range(n, 0, -1):  # g0 / (z - x) by synthetic division
                c = mul(c, x) ^ g0[k]
                g1[k - 1] ^= mul(w, c)
    r, v = _partial_euclid(field, g0, poly_norm(g1), (n + deg_bound + 2) // 2)
    fpoly, rem = poly_divmod(field, r, v)
    if rem:
        raise DecodeFailure("Bezout coefficient does not divide the remainder")
    if poly_deg(fpoly) > deg_bound:
        raise DecodeFailure("quotient exceeds degree bound")
    agree = sum(1 for x, y in points if poly_eval(field, fpoly, x) == y)
    if agree < n - max_wrong:
        raise DecodeFailure("no polynomial meets the agreement bound")
    return fpoly


def syndrome_to_bytes(code: BchCode, odd_sums: list[int]) -> bytes:
    """t field elements concatenated, each big-endian ceil(m/8) bytes, s_1 first."""
    if len(odd_sums) != code.t:
        raise ValueError("expected t odd power sums")
    width = (code.field.m + 7) // 8
    return b"".join(code.field.check(s).to_bytes(width, "big") for s in odd_sums)


def syndrome_from_bytes(code: BchCode, data: bytes) -> list[int]:
    width = (code.field.m + 7) // 8
    if len(data) != code.t * width:
        raise ValueError("wrong syndrome byte length")
    out = []
    for i in range(code.t):
        out.append(code.field.check(int.from_bytes(data[i * width : (i + 1) * width], "big")))
    return out


# ---------------------------------------------------------------------------
# small explicit linear codes (test oracle regime)


@dataclass(frozen=True)
class SmallLinearCode:
    """Binary [n, k] code given by n-k independent parity rows (bit masks).

    Parity row j contributes bit j of the syndrome.  Enumeration-based
    decoding restricts n to 24.
    """

    n: int
    rows: tuple[int, ...] = dc_field(default=())

    def __post_init__(self):
        if not 1 <= self.n <= 24:
            raise ValueError("SmallLinearCode limited to 1 <= n <= 24")
        mask = (1 << self.n) - 1
        basis: dict[int, int] = {}
        for row in self.rows:
            if row & ~mask:
                raise ValueError("parity row wider than n")
            v = row
            while v:
                h = v.bit_length() - 1
                if h in basis:
                    v ^= basis[h]
                else:
                    basis[h] = v
                    break
            if v == 0:
                raise ValueError("parity rows not linearly independent")

    @property
    def k(self) -> int:
        return self.n - len(self.rows)


def hamming_7_4() -> SmallLinearCode:
    """The [7,4,3] Hamming code with parity columns = binary position index."""
    rows = []
    for j in range(3):
        mask = 0
        for i in range(1, 8):
            if (i >> j) & 1:
                mask |= 1 << (i - 1)
        rows.append(mask)
    return SmallLinearCode(7, tuple(rows))


def small_syndrome(code: SmallLinearCode, word: int) -> int:
    """Syndrome of a word; bit j of the result comes from parity row j."""
    if word >> code.n:
        raise ValueError("word wider than code length")
    syn = 0
    for j, row in enumerate(code.rows):
        if (word & row).bit_count() & 1:
            syn |= 1 << j
    return syn


def small_decode_brute(code: SmallLinearCode, syn: int) -> int:
    """Minimum-weight word with the given syndrome (coset leader) by
    enumeration over weight classes; ties broken by numeric value."""
    if syn >> len(code.rows):
        raise ValueError("syndrome wider than n - k")
    for weight in range(code.n + 1):
        best = None
        for positions in combinations(range(code.n), weight):
            word = 0
            for p in positions:
                word |= 1 << p
            if small_syndrome(code, word) == syn:
                if best is None or word < best:
                    best = word
        if best is not None:
            return best
    raise DecodeFailure("no preimage for syndrome")  # unreachable for onto maps


# ---------------------------------------------------------------------------
# parity rows of the BCH syndrome map, for code-offset sampling


def bch_parity_rows(code: BchCode) -> list[int]:
    """The t*m parity rows of the BCH syndrome map as n-bit masks.

    Row index j matches bit j of the packed syndrome produced by packing
    the odd power sums s_1 first into the most significant field.
    """
    f = code.field
    t, m, n = code.t, f.m, code.n
    total = t * m
    rows = [0] * total
    for i in range(n):
        sums = syndrome_from_support(code, (i + 1,))
        packed = 0
        for s in sums:
            packed = (packed << m) | s
        while packed:
            b = packed & -packed
            rows[b.bit_length() - 1] |= 1 << i
            packed ^= b
    return rows

