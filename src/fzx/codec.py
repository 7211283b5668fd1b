"""BCH syndromes and decoding in support representation.

A length-(2^m - 1) binary word is handled through the set of field elements
indexing its nonzero positions: position i (0-based bit i) corresponds to
the nonzero element i+1 of GF(2^m).  A `BchCode` corrects t errors: its
syndromes are the odd power sums s_j = sum_{x in supp} x^j for
j = 1, 3, ..., 2t-1, and the even ones up to s_2t follow from the
Frobenius identity s_{2j} = s_j^2, so they are never stored.  Decoding
returns at most t error positions: it solves the key equation with
Berlekamp's binary algorithm, in t steps, and finds the locator's roots
with `gf2m.poly_roots`: for fields of at most 256 elements one evaluation
at every element, an XOR of power rows that the first decode in the
field builds and keeps; above that at most m rounds of trace splitting
over a fixed basis.  Decoding draws nothing at random, so a syndrome always
decodes the same way.  All decoding work is polynomial in t and m; only
that whole-field pass, capped at 256 byte lanes, depends on 2^m.

A word held whole, as an n-bit int, goes through the same syndrome map
held as t*m parity rows, which `BchCode` builds on first use and keeps
for as long as the code lives.
"""

from __future__ import annotations

from functools import cached_property

from .gf2m import (
    Frozen,
    GF2m,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval_many,
    poly_mul,
    poly_norm,
    poly_roots,
)


class DecodeFailure(Exception):
    """Raised when a sketch or syndrome does not decode within capacity."""


def _check_capacity(m: int, t: int) -> None:
    """ValueError unless a binary BCH code of length 2^m - 1 corrects t
    errors: 1 <= t and designed distance 2t + 1 <= 2^m - 1."""
    if t < 1:
        raise ValueError("correction radius t must be >= 1")
    if 2 * t + 1 > (1 << m) - 1:
        raise ValueError("need 2t + 1 <= 2^m - 1")


class BchCode(Frozen):
    """Binary BCH code of length n = 2^m - 1 correcting t errors, t within
    `_check_capacity`.  Bit i of a word is the field element i+1.

    Its syndrome map is held once, as the t*m parity rows (n-bit masks):
    a syndrome is t*m parities of w AND row, and codeword sampling
    eliminates the same rows.  The rows and their reduced form are built
    on first use and cached in the code's `__dict__`, so it is a `Frozen`
    class with a `__dict__` rather than a named tuple.
    """

    _fields = ("field", "t")

    def __init__(self, field: GF2m, t: int):
        _check_capacity(field.m, t)
        self.__dict__.update(field=field, t=t)

    @property
    def n(self) -> int:
        return (1 << self.field.m) - 1

    @property
    def syndrome_bits(self) -> int:
        """Sketch payload width in bits: t*m, which exceeds n - k when the
        t*m parity rows are linearly dependent."""
        return self.t * self.field.m

    @property
    def k(self) -> int:
        """Code dimension.  n - k is the size of the union of the
        cyclotomic cosets of 1, 3, ..., 2t-1 mod n (the exponents of the
        generator polynomial's roots)."""
        roots: set[int] = set()
        for i in range(1, 2 * self.t, 2):
            while i not in roots:
                roots.add(i)
                i = 2 * i % self.n
        return self.n - len(roots)

    @cached_property
    def parity_rows(self) -> tuple[int, ...]:
        """H: the t*m parity rows as n-bit masks, row j for bit j of the
        packed syndrome, so bit i of row m*(t-1-j) + b is bit b of
        (i+1)^(2j+1).

        Built bit-sliced: plane b of the elements x = i+1 is one periodic
        n-bit int, a product of two plane sets is m^2 ANDs, and plane k >= m
        of a product folds into the low planes through alpha^k mod f.
        """
        f = self.field
        m = f.m
        fold = [1]  # alpha^k mod f for k < 2m - 1
        for _ in range(2 * m - 2):
            fold.append(f.mul(fold[-1], 2))

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
        for _ in range(self.t - 1):  # y: x^3, x^5, ..., each in front of the last
            prod = [0] * (2 * m - 1)
            for a, ya in enumerate(y):
                for b, xb in enumerate(x2):
                    prod[a + b] ^= ya & xb
            y = reduce(prod)
            rows[:0] = y
        return tuple(rows)

    @cached_property
    def reduced_rows(self) -> tuple[tuple[int, int], ...]:
        """A basis of the parity rows in reduced row echelon form, as
        (pivot bit, mask) pairs; dependent rows are dropped, so its length
        is n - k.  Uniform-codeword sampling is then a handful of mask
        operations per draw rather than a fresh elimination.
        """
        reduced: list[tuple[int, int]] = []
        for mask in self.parity_rows:
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
    """Full syndrome vector (s_1, ..., s_2t) from the odd entries."""
    t = code.t
    if len(odd_sums) != t:
        raise ValueError("expected t odd power sums")
    full = [0] * (2 * t)  # full[i] is s_{i+1}
    full[::2] = odd_sums
    sqr = code.field.sqr
    for i in range(1, 2 * t, 2):
        full[i] = sqr(full[i // 2])
    return full


def support_from_syndrome(code: BchCode, odd_sums: list[int]) -> set[int]:
    """Recover the support set (size <= t) whose odd power sums equal the
    input, or raise DecodeFailure.

    The error locator sigma is the shortest LFSR generating s_1, ...,
    s_2t, found by Berlekamp's binary form of the shift-register
    synthesis (Berlekamp 1968, ch. 7; Massey 1969), which runs only the t
    odd steps since s_{2j} = s_j^2.  The roots of the monic reversed
    locator are the support.  Every step is a fixed function of the syndrome.

    The re-check of the support against the syndrome is the one check of
    the output.  It also rejects a locator of degree below L: power sums
    of its fewer roots that matched the syndrome would give an LFSR
    shorter than L.  It is believed never to fire on a locator of length
    L <= t with distinct roots, since the binary algorithm solves the key
    equation together with Newton's identities; a tier-1 sweep of every
    syndrome of small codes (m <= 6) pins that.
    """
    f = code.field
    t = code.t
    if len(odd_sums) != t:
        raise ValueError("expected t odd power sums")
    if all(s == 0 for s in odd_sums):
        return set()

    full = expand_syndrome(code, odd_sums)
    sigma, length = _berlekamp(f, full)
    if length > t:
        raise DecodeFailure("locator longer than t")
    support = _distinct_roots(f, sigma[::-1])
    if syndrome_from_support(code, support) != odd_sums:
        raise DecodeFailure("recovered support fails syndrome re-check")
    return support


def _distinct_roots(field: GF2m, f: list[int]) -> set[int]:
    """The roots of f, or DecodeFailure when f does not split into distinct
    linear factors: the one place where `poly_roots`' None becomes a
    decode failure."""
    roots = poly_roots(field, f)
    if roots is None:
        raise DecodeFailure("polynomial does not split into distinct roots")
    return roots


def _berlekamp(field: GF2m, full: list[int]) -> tuple[list[int], int]:
    """Shortest LFSR (sigma, L), sigma(0) = 1, generating the syndrome
    s_1, ..., s_{2t} held in `full`, by Berlekamp-Massey run only at the
    odd entries s_1, s_3, ..., s_{2t-1}: with s_{2j} = s_j^2 the
    discrepancy at every even entry is zero, so the step there would only
    lengthen the shift of the correction polynomial by one."""
    mul = field.mul
    sigma, prev = [1], [1]  # current LFSR and the one before its last lengthening
    length, gap, d_prev = 0, 1, 1  # prev enters shifted by z^gap, scaled 1/d_prev
    for n in range(0, len(full), 2):
        d = full[n]  # s_{n+1} + sum_i sigma_i s_{n+1-i}: zero iff sigma produces it
        for i in range(1, min(len(sigma), n + 1)):
            d ^= mul(sigma[i], full[n - i])
        if d == 0:
            gap += 2
            continue
        scale = mul(d, field.inv(d_prev))
        new = sigma + [0] * (gap + len(prev) - len(sigma))
        for i, c in enumerate(prev):
            new[gap + i] ^= mul(scale, c)
        if 2 * length <= n:
            prev, d_prev, length, gap = sigma, d, n + 1 - length, 2
        else:
            gap += 2
        sigma = poly_norm(new)
    return sigma, length


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
    deg g1 < n, by Newton's divided differences: n(n-1)/2 multiplies and
    as many inverses (a table lookup for m <= 16), plus about n^2/2
    multiplies to expand the Newton form.  When deg g1 <= deg_bound every
    point lies on g1 and it is the answer.  Only otherwise does it build
    g0 = prod (z - x_i) and run the extended Euclid on (g0, g1) until the
    remainder r has degree < (n + deg_bound + 1)/2; with Bezout
    coefficient v of g1, the answer is r / v.  Requires the unique-decoding
    regime len(points) - max_wrong > deg_bound + max_wrong; raises
    DecodeFailure when no polynomial meets the agreement bound, which is
    checked on the result itself.
    """
    n = len(points)
    xs = [p[0] for p in points]
    if len(set(xs)) != n:
        raise ValueError("duplicate x coordinates")
    if deg_bound < 0 or max_wrong < 0:
        raise ValueError("negative degree bound or error bound")
    if n - max_wrong <= deg_bound + max_wrong:
        raise ValueError("parameters outside the unique-decoding regime")

    mul, inv = field.mul, field.inv
    dd = [p[1] for p in points]  # dd[i] becomes the divided difference [y_0, ..., y_i]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            diff = dd[i] ^ dd[i - 1]
            dd[i] = diff and mul(diff, inv(xs[i] ^ xs[i - j]))
    poly_norm(dd)
    g1: list[int] = []
    for x, a in zip(reversed(xs[: len(dd)]), reversed(dd)):  # g1 = g1*(z + x) + a
        g1 = [mul(x, c) ^ d for c, d in zip(g1 + [0], [a] + g1)]
    if poly_deg(g1) <= deg_bound:  # the Euclid would halt at once with v = [1]
        return g1
    g0 = [1]
    for x in xs:  # g0 *= z + x
        g0 = [mul(x, c) ^ d for c, d in zip(g0 + [0], [0] + g0)]
    r, v = _partial_euclid(field, g0, g1, (n + deg_bound + 2) // 2)
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
