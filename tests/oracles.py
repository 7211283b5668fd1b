"""Brute-force references the tests compare the library against.

Each oracle is built independently of the fast path it checks: explicit
parity rows and coset-leader enumeration for linear codes, one
`syndrome_from_support` call per position for the BCH parity rows, a
column-by-column Gauss-Jordan elimination for their reduced form, the
partial extended Euclid with trace root splitting for BCH decoding, a
bit-by-bit loop for word permutation, one whole-int shift per field for
bit packing, scalar Horner evaluation (`poly_eval`, the reference for
`poly_eval_many`) and evaluation at every field element for polynomial
roots, repeated squaring for the absolute trace, the product of s linear
factors for a characteristic polynomial, Gao's Reed-Solomon decoder with
Lagrange interpolation and an unconditional Euclid (the reference for
`rs_decode`, which interpolates by Newton's divided differences and skips
the Euclid when no point is wrong), Reed-Solomon decoding over all s
points for improved Juels-Sudan recovery, and one scalar Horner
evaluation per pair for the original Juels-Sudan sketch, a shift-and-add
carry-less multiply for field arithmetic, and a screened search in
increasing order, certified by Rabin's irreducibility test, for the pinned
hash-field moduli.  Exact distributions, their min-entropy, average
min-entropy and statistical distance, and the extractor's exact distance
from uniform over every hash seed check the entropy accounting and the
leftover hash lemma.  The enumerating ones are exponential or linear in
2^m, so they stay in the small regime.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations

from fzx.codec import (
    BchCode,
    DecodeFailure,
    _partial_euclid,
    expand_syndrome,
    rs_decode,
    syndrome_from_support,
)
from fzx.entropy import UHashParams
from fzx.gf2m import (
    GF2m,
    _split_roots,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_monic,
    poly_mul,
    poly_norm,
    poly_roots,
    poly_scale,
)
from fzx.setdiff import ElementSet, IjsSketchData, OrigJsSketchData


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


def bch_parity_rows(code: BchCode) -> list[int]:
    """The t*m parity rows of the BCH syndrome map as n-bit masks.

    Row index j matches bit j of the packed syndrome produced by packing
    the odd power sums s_1 first into the most significant field.
    """
    f = code.field
    t, m, n = code.t, f.m, code.n
    rows = [0] * (t * m)
    for i in range(n):
        packed = 0
        for s in syndrome_from_support(code, (i + 1,)):
            packed = (packed << m) | s
        while packed:
            b = packed & -packed
            rows[b.bit_length() - 1] |= 1 << i
            packed ^= b
    return rows


def euclid_support_from_syndrome(code: BchCode, odd_sums: list[int]) -> set[int]:
    """BCH decoding by the partial extended Euclid on the key equation
    S(z)*sigma(z) = omega(z) mod z^(2t+1), run on (z^2t, S(z)/z),
    with the locator's roots found by trace splitting at every m; raises
    DecodeFailure exactly where no support of size <= t has the syndrome."""
    f = code.field
    if all(s == 0 for s in odd_sums):
        return set()
    full = expand_syndrome(code, odd_sums)
    z_2t = [0] * (2 * code.t) + [1]
    r_cur, v_cur = _partial_euclid(f, z_2t, poly_norm(list(full)), code.t)
    c = poly_eval(f, v_cur, 0)
    if c == 0:
        raise DecodeFailure("locator has zero constant term")
    c_inv = f.inv(c)
    sigma = poly_scale(f, v_cur, c_inv)
    # key equation, with omega = z*R_cur/c of degree < t + 1
    omega = poly_scale(f, [0] + r_cur, c_inv)
    prod = poly_mul(f, [0] + full, sigma)
    assert poly_add(prod[: 2 * code.t + 1], omega[: 2 * code.t + 1]) == []
    sigma, d = poly_monic(f, sigma), poly_deg(sigma)
    if d < 2:  # monic z + a has root a
        roots = {sigma[0]} if d == 1 else set()
    else:
        roots = _split_roots(f, sigma)
    if roots is None or len(roots) != d:
        raise DecodeFailure("locator does not split into distinct roots")
    support = {f.inv(r) for r in roots}
    if syndrome_from_support(code, support) != odd_sums:
        raise DecodeFailure("recovered support fails syndrome re-check")
    return support


def permute_word_loop(w: int, perm) -> int:
    """Bit i of the result is bit perm[i] of w, one bit at a time."""
    out = 0
    for i, src in enumerate(perm):
        if (w >> src) & 1:
            out |= 1 << i
    return out


def pack_fields_loop(values, width: int) -> tuple[int, int]:
    """`bitpack.pack_fields` as one shift of the whole int per field."""
    acc = 0
    n = 0
    top = 1 << width
    for v in values:
        if not 0 <= v < top:
            raise ValueError(f"field {v} does not fit in {width} bits")
        acc = (acc << width) | v
        n += width
    return acc, n


def unpack_fields_loop(value: int, total_bits: int, width: int) -> list[int]:
    """`bitpack.unpack_fields` as one shift of the whole int per field."""
    if width <= 0 or total_bits % width:
        raise ValueError("bit length not a multiple of field width")
    out = []
    for shift in range(total_bits - width, -1, -width):
        out.append((value >> shift) & ((1 << width) - 1))
    return out


def rref(rows, n: int) -> list[tuple[int, int]]:
    """Reduced row echelon form of n-bit rows over GF(2), pivoting on the
    lowest column first, as (pivot bit, row) pairs sorted by pivot; zero
    rows are dropped, so its length is the rank."""
    rest = list(rows)
    done: list[int] = []
    for col in range(n):
        pivot = next((r for r in rest if (r >> col) & 1), None)
        if pivot is None:
            continue
        rest.remove(pivot)
        rest = [r ^ pivot if (r >> col) & 1 else r for r in rest]
        done = [r ^ pivot if (r >> col) & 1 else r for r in done]
        done.append(pivot)
    return sorted(((r & -r).bit_length() - 1, r) for r in done)


def poly_eval(field: GF2m, f: list[int], x: int) -> int:
    """Horner evaluation.  Empty f evaluates to 0."""
    acc = 0
    mul = field.mul
    for c in reversed(f):
        acc = mul(acc, x) ^ c
    return acc


def absolute_trace(field: GF2m, a: int) -> int:
    """Tr(a) = a + a^2 + ... + a^(2^(m-1)), 0 or 1, by repeated squaring."""
    acc = 0
    for _ in range(field.m):
        acc ^= a
        a = field.sqr(a)
    return acc


def brute_roots(field: GF2m, f: list[int]) -> set[int]:
    """Root finder by evaluating f everywhere.  Guarded to m <= 16."""
    if field.m > 16:
        raise ValueError("brute_roots limited to m <= 16")
    if not f:
        raise ValueError("zero polynomial")
    return {x for x in range(1 << field.m) if poly_eval(field, f, x) == 0}


def char_poly(field: GF2m, elems) -> list[int]:
    """Monic polynomial with the given distinct elements as roots."""
    p = [1]
    for x in elems:
        p = poly_mul(field, p, [x, 1])
    return p


def char_poly_top(field: GF2m, elems, t: int) -> tuple[int, ...]:
    """Coefficients of degree s-1 down to s-t of the characteristic
    polynomial of s elements: what an improved-JS sketch stores."""
    p = char_poly(field, sorted(elems))
    return tuple(p[len(p) - 1 - j] for j in range(1, t + 1))


def ijs_rec_rs(w_prime: ElementSet, sk: IjsSketchData) -> ElementSet:
    """Improved-JS recovery by Reed-Solomon decoding.

    The sketch fixes p_high, the top of the characteristic polynomial;
    the unknown bottom p_low (degree <= s-t-1) agrees with p_high on every
    element of w, so it is Reed-Solomon decodable from w' with at most t/2
    wrong points.  The set is the root set of p_high - p_low; elements of
    w' already known to agree are divided out before root finding, and
    the result is re-checked against the full characteristic polynomial.
    """
    field = sk.field
    if w_prime.field != field:
        raise ValueError("field mismatch between set and sketch")
    s, t = sk.s, sk.t
    if len(w_prime) != s:
        raise ValueError(f"improved JS needs |w'| = {s}")
    p_high = [0] * (s - t) + list(reversed(sk.top_coeffs)) + [1]
    points = [(x, poly_eval(field, p_high, x)) for x in w_prime.elems]
    if t == s:
        p_low: list[int] = []
    else:
        p_low = rs_decode(field, points, s - t - 1, t // 2)

    agreeing = [x for x, y in points if poly_eval(field, p_low, x) == y]
    quotient = poly_add(p_high, p_low)
    for x in agreeing:
        quotient, rem = poly_divmod(field, quotient, [x, 1])
        if rem:
            raise DecodeFailure("agreeing point is not a root")
    if poly_deg(quotient) > 0:
        extra = poly_roots(field, quotient)
        if extra is None:
            raise DecodeFailure("characteristic polynomial does not split")
    else:
        extra = set()
    result = set(agreeing) | extra
    if len(result) != s or 0 in result:
        raise DecodeFailure("root set is not a valid size-s set")
    out = ElementSet(field, tuple(sorted(result)))
    if char_poly_top(field, out.elems, t) != sk.top_coeffs:
        raise DecodeFailure("recovered set fails sketch re-check")
    return out


def gao_rs_decode(
    field: GF2m,
    points: list[tuple[int, int]],
    deg_bound: int,
    max_wrong: int,
) -> list[int]:
    """`rs_decode` as Gao (2003) states it, with Lagrange interpolation.

    g1 = sum y_i / g0'(x_i) * g0 / (z - x_i), next to g0 = prod (z - x_i),
    by one synthetic division of g0 per point; then the extended Euclid
    on (g0, g1) always runs, until the remainder r has degree
    < (n + deg_bound + 1)/2, and the answer r / v is checked against the
    agreement bound.  Raises the same exceptions, with the same messages,
    as `rs_decode`.
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
    g0_prime = [c if k & 1 else 0 for k, c in enumerate(g0)][1:]
    g1 = [0] * n
    for x, y in points:
        if y:
            w = mul(y, field.inv(poly_eval(field, g0_prime, x)))
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


def origjs_ss(
    w: ElementSet, r: int, t: int, rng: random.Random
) -> OrigJsSketchData:
    """Hide a random polynomial p of degree <= s-t-1 in r pairs: one pair
    (x, p(x)) per element of w, plus r-s chaff pairs off the polynomial.

    The stream of `setdiff.origjs_ss`, point by point: p's coefficients,
    then every chaff abscissa (sparse: x by rejection, each followed by one
    y; dense: one sample of the free abscissas, no y yet), then, in draw
    order, a y for each chaff x that has none or has p(x), by rejection."""
    field = w.field
    s = len(w)
    if not 0 <= t <= s:
        raise ValueError("need 0 <= t <= |w|")
    if not s < r <= field.order:
        raise ValueError("need |w| < r <= universe size")
    k = s - t - 1
    p = [rng.randrange(0, field.order + 1) for _ in range(k + 1)]
    pairs = [(x, poly_eval(field, p, x)) for x in w.elems]

    taken = set(w.elems)
    missing = r - s
    chaff = []  # (x, y or None), in draw order
    if 3 * missing < field.order - s:
        # sparse chaff: rejection sampling beats materializing the universe
        while len(chaff) < missing:
            x = rng.randrange(1, field.order + 1)
            if x not in taken:
                taken.add(x)
                chaff.append((x, rng.randrange(0, field.order + 1)))
    else:
        pool = [x for x in range(1, field.order + 1) if x not in taken]
        chaff = [(x, None) for x in rng.sample(pool, missing)]
    for x, y in chaff:
        px = poly_eval(field, p, x)
        while y is None or y == px:
            y = rng.randrange(0, field.order + 1)
        pairs.append((x, y))
    pairs.sort()
    return OrigJsSketchData(field, s, r, t, tuple(pairs))


def clmul_mod(a: int, b: int, modulus: int) -> int:
    """a * b mod `modulus` over GF(2), one shift-and-add step per bit of b,
    reducing a whenever it reaches the modulus degree."""
    m = modulus.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= modulus
    return r


def pow_mod(a: int, e: int, modulus: int) -> int:
    """a^e mod `modulus` by square and multiply on `clmul_mod`."""
    r = 1
    while e:
        if e & 1:
            r = clmul_mod(r, a, modulus)
        a = clmul_mod(a, a, modulus)
        e >>= 1
    return r


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def gf2_mod(a: int, g: int) -> int:
    """a mod g over GF(2), by long division."""
    dg = g.bit_length()
    while a.bit_length() >= dg:
        a ^= g << (a.bit_length() - dg)
    return a


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def _frobenius_chain(f: int, m: int) -> list[int]:
    """[x^(2^i) mod f for i = 0..m], f of degree m, by repeated squaring.

    Squaring over GF(2) only spreads the bits apart (bit i moves to bit
    2i), which a few shift-and-mask steps do.  The bits at x^m and above
    are then folded back through x^m = tail, tail = f - x^m.  A tail of
    degree <= m/2 needs at most two folds of a few shifts each; a denser
    tail is reduced by long division instead.
    """
    tail = f ^ (1 << m)
    low = (1 << m) - 1
    taps = [j for j in range(tail.bit_length()) if tail >> j & 1]
    fold = 2 * tail.bit_length() <= m + 2
    span = 1 << (m - 1).bit_length()
    ones = (1 << 2 * span) - 1
    spread = []
    while span > 1:
        span >>= 1
        spread.append((span, ones // ((1 << 2 * span) - 1) * ((1 << span) - 1)))
    a = gf2_mod(2, f)
    chain = [a]
    for _ in range(m):
        for s, mask in spread:
            a = (a | a << s) & mask
        if fold:
            while a >> m:
                hi = a >> m
                a &= low
                for j in taps:
                    a ^= hi << j
        else:
            while a >> m:
                a ^= f << (a.bit_length() - 1 - m)
        chain.append(a)
    return chain


def is_irreducible(f: int, m: int) -> bool:
    """Rabin's test on f of degree m: x^(2^m) == x mod f, and
    x^(2^(m/p)) - x coprime to f for each prime p dividing m; every power
    comes off one squaring chain."""
    chain = _frobenius_chain(f, m)
    x = chain[0]
    if chain[m] != x:
        return False
    return all(_gf2_gcd(chain[m // p] ^ x, f) == 1 for p in prime_factors(m))


# A search candidate with a factor of degree <= this never reaches Rabin's test
_SCREEN_DEG = 8


@lru_cache(maxsize=1)
def _screen_factors() -> tuple[int, ...]:
    """Every irreducible polynomial of degree 1.._SCREEN_DEG except x,
    ascending."""
    found: list[int] = []
    for g in range(3, 1 << (_SCREEN_DEG + 1), 2):
        d = g.bit_length() - 1
        if all(gf2_mod(g, h) for h in found if 2 * (h.bit_length() - 1) <= d):
            found.append(g)
    return tuple(found)


def smallest_irreducible(m: int) -> int:
    """Smallest irreducible x^m + k over GF(2) for m > 8, by search in
    increasing k.

    Candidates run over odd k, so x never divides one.  A candidate is
    dropped when an irreducible g of degree <= 8 divides it, i.e. when
    x^m mod g equals k mod g (x^m mod g is worked out once per g: x has
    order dividing 2^deg(g) - 1 mod g).  The survivors go to Rabin's test
    (`is_irreducible`), so the first one accepted is exactly the
    smallest irreducible.
    """
    screen = [
        (g, gf2_mod(1 << (m % ((1 << (g.bit_length() - 1)) - 1)), g))
        for g in _screen_factors()
    ]
    for k in range(1, 1 << m, 2):
        if any(gf2_mod(k, g) == xm for g, xm in screen):
            continue
        cand = (1 << m) | k
        if is_irreducible(cand, m):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {m} found")


# ---------------------------------------------------------------------------
# Exact distributions: explicit maps from byte-string outcomes to
# probabilities, sized for desk-scale enumeration (supports up to 2^24
# outcomes).  Entropies are in bits, log base 2 throughout.

_MAX_SUPPORT = 1 << 24


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
