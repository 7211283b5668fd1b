"""Secure sketches for the set-difference metric over GF(2^m)*.

Three constructions: PinSketch stores the t odd power sums of the set and
tolerates sets of any size; the improved Juels-Sudan sketch stores the top
t coefficients of the set's characteristic polynomial and requires a fixed
set size; the original Juels-Sudan scheme hides a random low-degree
polynomial among chaff points and is kept as a reference (its entropy loss
grows with the chaff count).  Only it is randomized: it draws each value
once and reads no generator state, so `random.SystemRandom` can drive it.

Improved JS recovery is rational reconstruction on the partial Euclid
(codec._partial_euclid).  Original JS recovery Reed-Solomon decodes the
pairs w' selects (codec.rs_decode): it interpolates them by Newton's
divided differences, and runs Gao's partial Euclid only when the
interpolant's degree exceeds the bound, as a wrong pair makes it.
Wherever one polynomial is evaluated at many points (the hidden
polynomial at all r abscissas, the difference locator at w') it takes
one lane-packed pass, gf2m.poly_eval_many.

Every recovery is a fixed function of its inputs (root finding included,
gf2m.poly_roots) and verifies its output once, raising DecodeFailure
instead of returning a wrong set: PinSketch in the BCH syndrome re-check,
improved JS by recomputing the sketched coefficients, original JS by the
agreement bound of rs_decode and the size of the set it selects.
"""

from __future__ import annotations

import math
import random
import warnings
from collections import namedtuple

from .codec import (
    BchCode,
    DecodeFailure,
    _check_capacity,
    _distinct_roots,
    _partial_euclid,
    rs_decode,
    support_from_syndrome,
    syndrome_from_support,
)
from .gf2m import Frozen, GF2m, poly_deg, poly_eval_many, poly_norm
from .gf2m import poly_roots  # noqa: F401  # `bench/test_bench.py` reads setdiff.poly_roots


class ElementSet(Frozen):
    """A set of nonzero GF(2^m) elements, stored sorted.  Its length is its
    size, so it is a `Frozen` class rather than a named tuple."""

    _fields = ("field", "elems")

    def __init__(self, field: GF2m, elems: tuple[int, ...]):
        prev = 0
        for x in elems:
            if not isinstance(x, int) or not 0 < x <= field.order:
                raise ValueError(f"element {x!r} outside GF(2^m)*")
            if x <= prev:
                raise ValueError("elements must be strictly increasing, no duplicates")
            prev = x
        self.__dict__.update(field=field, elems=elems)

    @classmethod
    def of(cls, field: GF2m, elems) -> "ElementSet":
        elems = tuple(sorted(elems))
        if len(set(elems)) != len(elems):
            raise ValueError("duplicate elements")
        return cls(field, elems)

    def __len__(self) -> int:
        return len(self.elems)


def _check_ijs_shape(m: int, t: int, s: int | None = None) -> None:
    """ValueError unless 0 <= t <= s, the t coefficients of a size-s set; s
    may be left out, as `fzx params` reads no --s."""
    if not 0 <= t <= (t if s is None else s):
        raise ValueError("need 0 <= t <= s")


def _check_origjs_shape(m: int, t: int, s: int, r: int) -> None:
    """ValueError unless a size-s set hides among r > s pairs in GF(2^m)*,
    at t <= s."""
    if not 0 <= t <= s < r <= (1 << m) - 1:
        raise ValueError("need 0 <= t <= s < r <= 2^m - 1")


def _even_capacity(t: int, warn: bool = True) -> int:
    """t rounded down to even, as improved JS needs; warns when it rounds."""
    if t % 2 and warn:
        warnings.warn("improved JS capacity must be even; rounding t down")
    return t - t % 2


class PinSketchData(namedtuple("PinSketchData", "field t odd_sums")):
    """The odd power sums s_1, s_3, ..., s_{2t-1} of a set in `field`: its
    syndrome under the BCH code that corrects t errors, so t is within
    that code's capacity, `codec._check_capacity`."""

    __slots__ = ()

    def __new__(cls, field: GF2m, t: int, odd_sums: tuple[int, ...]):
        _check_capacity(field.m, t)
        if len(odd_sums) != t:
            raise ValueError("expected t odd power sums")
        for s in odd_sums:
            field.check(s)
        return super().__new__(cls, field, t, odd_sums)

    @property
    def bit_length(self) -> int:
        return self.t * self.field.m


class IjsSketchData(namedtuple("IjsSketchData", "field s t top_coeffs")):
    """Coefficients of the characteristic polynomial of a size-s set,
    degrees s-1 down to s-t."""

    __slots__ = ()

    def __new__(cls, field: GF2m, s: int, t: int, top_coeffs: tuple[int, ...]):
        _check_ijs_shape(field.m, t, s)
        if len(top_coeffs) != t:
            raise ValueError("expected t coefficients")
        for c in top_coeffs:
            field.check(c)
        return super().__new__(cls, field, s, t, top_coeffs)

    @property
    def bit_length(self) -> int:
        return self.t * self.field.m


class OrigJsSketchData(namedtuple("OrigJsSketchData", "field s r t pairs")):
    """r point pairs (x, y), sorted by x, s of them on a hidden
    low-degree polynomial, at a shape `_check_origjs_shape` accepts."""

    __slots__ = ()

    def __new__(cls, field: GF2m, s: int, r: int, t: int, pairs: tuple[tuple[int, int], ...]):
        _check_origjs_shape(field.m, t, s, r)
        if len(pairs) != r:
            raise ValueError("expected r pairs")
        prev_x = 0
        for x, y in pairs:
            if not 0 < x <= field.order:
                raise ValueError(f"pair abscissa {x} outside GF(2^m)*")
            if x <= prev_x:
                raise ValueError("pairs must be sorted by x, distinct")
            field.check(y)
            prev_x = x
        return super().__new__(cls, field, s, r, t, pairs)


def pinsketch_ss(w: ElementSet, t: int) -> PinSketchData:
    """Sketch a set as the t odd power sums of its elements; t*m bits."""
    sums = syndrome_from_support(BchCode(w.field, t), w.elems)
    return PinSketchData(w.field, t, tuple(sums))


def pinsketch_rec(w_prime: ElementSet, sk: PinSketchData) -> ElementSet:
    """Recover the sketched set from any w' with |w (triangle) w'| <= t:
    decode the componentwise syndrome difference to the symmetric
    difference v, return w' (triangle) v.  Set sizes may differ.

    The decoder's check syn(v) = diff is the re-sketch, since power sums
    add over a symmetric difference: syn(w' (triangle) v) = own + diff."""
    if w_prime.field != sk.field:
        raise ValueError("field mismatch between set and sketch")
    code = BchCode(sk.field, sk.t)
    own = syndrome_from_support(code, w_prime.elems)
    diff = [a ^ b for a, b in zip(own, sk.odd_sums)]
    v = support_from_syndrome(code, diff)
    return ElementSet(sk.field, tuple(sorted(set(w_prime.elems) ^ v)))


def _top_coeffs(field: GF2m, elems, t: int) -> list[int]:
    """[1, e_1, ..., e_t]: the reversed characteristic polynomial
    prod (1 + x*u) of the elements, mod u^(t+1).  e_j is the coefficient
    of z^(s-j) in prod (z + x); s*t multiplications."""
    c = [1] + [0] * t
    mul = field.mul
    k = 0
    for x in elems:
        k = min(k + 1, t)
        for j in range(k, 0, -1):
            c[j] ^= mul(x, c[j - 1])
    return c


def ijs_ss(w: ElementSet, t: int) -> IjsSketchData:
    """Sketch a size-s set as the coefficients of degree s-1 .. s-t of its
    characteristic polynomial.  Deterministic.  t must be even (distances
    between same-size sets are even); odd t is rounded down."""
    s = len(w)
    t = _even_capacity(t)
    _check_ijs_shape(w.field.m, t, s)
    return IjsSketchData(w.field, s, t, tuple(_top_coeffs(w.field, w.elems, t)[1:]))


def ijs_rec(w_prime: ElementSet, sk: IjsSketchData) -> ElementSet:
    """Recover the sketched set from a same-size w' within distance t.

    With u = 1/z, the reversed characteristic polynomial prod (1 + x*u)
    of w over that of w' is R~/E~, the reversed polynomials of w minus w'
    and w' minus w, both of degree e <= t/2.  The sketch fixes the numerator
    mod u^(t+1), so the power series of the quotient is known to that
    order, and the partial Euclid on (u^(t+1), series) reconstructs the
    fraction (Pade approximation): its remainder is R~ and its Bezout
    coefficient E~, up to one common scalar.  The elements of w' that are
    roots of E leave, the roots of R join.  With t = s the sketch is the
    whole characteristic polynomial, and the set is its roots.

    The closing coefficient re-check is believed never to fire, as the
    Pade approximant is unique; a tier-1 sweep at m = 3 pins that."""
    field = sk.field
    if w_prime.field != field:
        raise ValueError("field mismatch between set and sketch")
    s, t = sk.s, sk.t
    if len(w_prime) != s:
        raise ValueError(f"improved JS needs |w'| = {s}")
    series = [1, *sk.top_coeffs]
    if t == s:
        result = _distinct_roots(field, series[::-1])
    else:
        # series := P~/C~ mod u^(t+1); C~(0) = 1, so no inverse is needed
        c = _top_coeffs(field, w_prime.elems, t)
        mul = field.mul
        for k in range(1, t + 1):
            for j in range(1, k + 1):
                series[k] ^= mul(c[j], series[k - j])
        u_t1 = [0] * (t + 1) + [1]
        r, v = _partial_euclid(field, u_t1, poly_norm(series), t // 2 + 1)
        # r[0] = v[0] (series[0] = 1); if both are 0, deg E < deg v: no split over w'
        if len(r) != len(v):
            raise DecodeFailure("no difference of equal sizes within t/2")
        e_poly = v[::-1]  # E(z) = z^e v(1/z), its roots are w' minus w
        off_e = poly_eval_many(field, e_poly, w_prime.elems)
        result = {x for x, v in zip(w_prime.elems, off_e) if v}
        if len(result) != s - poly_deg(v):
            raise DecodeFailure("difference locator does not split over w'")
        result |= _distinct_roots(field, r[::-1])
    if len(result) != s or 0 in result:
        raise DecodeFailure("root set is not a valid size-s set")
    elems = tuple(sorted(result))
    if _top_coeffs(field, elems, t)[1:] != list(sk.top_coeffs):
        raise DecodeFailure("recovered set fails sketch re-check")
    return ElementSet(field, elems)


def origjs_ss(
    w: ElementSet, r: int, t: int, rng: random.Random
) -> OrigJsSketchData:
    """Hide a random polynomial p of degree <= s-t-1 in r pairs: one pair
    (x, p(x)) per element of w, plus r-s chaff pairs off the polynomial.

    Every value is drawn once, so any generator can drive it, including
    `random.SystemRandom`.  The coefficients of p come first, then the
    chaff: sparse chaff draws each x by rejection and then its y, dense
    chaff samples the free abscissas and leaves each y unset.  p is then
    evaluated at all r abscissas in one lane-packed pass (`poly_eval_many`),
    and, in draw order, each chaff y that is unset or equal to p(x) is
    redrawn until it is neither: uniform on GF(2^m) minus p(x).  Its shape
    is checked before the first draw."""
    field = w.field
    s = len(w)
    _check_origjs_shape(field.m, t, s, r)
    q = field.order + 1
    p = [rng.randrange(0, q) for _ in range(s - t)]
    xs = list(w.elems)
    taken = set(xs)
    if 3 * (r - s) < field.order - s:
        # sparse chaff: rejection sampling beats materializing the universe
        ys = []
        while len(xs) < r:
            x = rng.randrange(1, q)
            if x not in taken:
                taken.add(x)
                xs.append(x)
                ys.append(rng.randrange(0, q))
    else:
        pool = [x for x in range(1, q) if x not in taken]
        xs += rng.sample(pool, r - s)
        ys = [None] * (r - s)
    on_p = poly_eval_many(field, p, xs)
    for i, y in enumerate(ys, s):
        while y is None or y == on_p[i]:
            y = rng.randrange(0, q)
        on_p[i] = y
    return OrigJsSketchData(field, s, r, t, tuple(sorted(zip(xs, on_p))))


def origjs_rec(w_prime: ElementSet, sk: OrigJsSketchData) -> ElementSet:
    """Select the sketch pairs indexed by w', Reed-Solomon decode the
    hidden polynomial, output the abscissas of all pairs lying on it."""
    field = sk.field
    if w_prime.field != field:
        raise ValueError("field mismatch between set and sketch")
    s, t = sk.s, sk.t
    if len(w_prime) != s:
        raise ValueError(f"original JS needs |w'| = {s}")
    members = set(w_prime.elems)
    sel = [(x, y) for x, y in sk.pairs if x in members]
    n_sel = len(sel)
    if n_sel < s - t:
        raise DecodeFailure("too few sketch pairs indexed by w'")
    if t == s:
        p: list[int] = []
    else:
        p = rs_decode(field, sel, s - t - 1, (n_sel - s + t) // 2)
    on_p = poly_eval_many(field, p, [x for x, _ in sk.pairs])
    result = tuple(x for (x, y), v in zip(sk.pairs, on_p) if v == y)
    if len(result) != s:
        raise DecodeFailure("polynomial does not select a size-s set")
    return ElementSet(field, result)


def setdiff_entropy_loss(
    scheme: str,
    *,
    m: int,
    t: int,
    s: int | None = None,
    r: int | None = None,
) -> float:
    """Closed-form entropy loss in bits.

    pinsketch: t * log2(n + 1) over universe size n = 2^m - 1.
    ijs:       t * log2(n) with n = 2^m.
    origjs:    t * log2(n) + log2 C(n, r) - log2 C(n - s, r - s) + 2,
               n = 2^m.
    """
    if m < 1 or t < 0:
        raise ValueError("bad parameters")
    if scheme in ("pinsketch", "ijs"):
        return t * math.log2(1 << m)
    if scheme == "origjs":
        if s is None or r is None:
            raise ValueError("original JS loss needs s and r")
        _check_origjs_shape(m, t, s, r)
        n = 1 << m
        return (
            t * math.log2(n)
            + math.log2(math.comb(n, r))
            - math.log2(math.comb(n - s, r - s))
            + 2
        )
    raise ValueError(f"unknown scheme {scheme!r}")
