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
from dataclasses import dataclass

from .gf2m import (
    GF2m,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_eval_many,
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

    try:
        roots = poly_roots(f, sigma, rng)
    except RuntimeError as exc:  # the rng never split the locator
        raise DecodeFailure(f"locator roots not found: {exc}") from exc
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
    # polynomial in x^2 with about n/2 terms, evaluated at every x_i^2 in
    # one lane-packed pass.
    d0 = poly_eval_many(field, g0[1::2], [field.sqr(x) for x in xs])
    g1 = [0] * n
    for (x, y), d in zip(points, d0):
        if y:
            w = mul(y, field.inv(d))
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
    on_f = poly_eval_many(field, fpoly, xs)
    agree = sum(1 for (_, y), v in zip(points, on_f) if v == y)
    if agree < n - max_wrong:
        raise DecodeFailure("no polynomial meets the agreement bound")
    return fpoly
