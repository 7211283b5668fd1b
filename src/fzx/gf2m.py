"""Arithmetic in GF(2^m) and polynomial rings over it.

Field elements are plain Python ints in [0, 2^m): the integer's binary
expansion gives the coefficients of the residue polynomial, bit i holding
the coefficient of x^i.  A GF2m instance carries the extension degree and
the reduction modulus; it does not wrap elements in objects.

Polynomials over the field are lists of ints, lowest-degree coefficient
first, with no trailing zero coefficients (the zero polynomial is []).
`poly_eval` evaluates one at one point; `poly_eval_many` evaluates one at
a whole list of points in a single Horner pass over lane-packed ints.
"""

from __future__ import annotations

import random
import sys
from array import array
from functools import lru_cache

# Lexicographically smallest primitive polynomial of each degree, found by
# exhaustive search and certified by factoring 2^m - 1.  Encoded as ints,
# bit i = coefficient of x^i.
PRIMITIVE_POLYS = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x402B,
    15: 0x8003,
    16: 0x1002D,
    17: 0x20009,
    18: 0x40027,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x4000047,
    27: 0x8000027,
    28: 0x10000009,
    29: 0x20000005,
    30: 0x40000053,
    31: 0x80000009,
    32: 0x1000000AF,
}

# Degree above which log/antilog tables are not built.  Their size and
# build time double with each degree: at m = 16 they take about 15 ms and
# 5.5 MiB per process, so fields of degree 14..16 multiply by byte
# slices of the shared carry-less product table instead (`_clmul_bytes`),
# and fields above 16 fold four bits of one operand at a time.
_TABLE_MAX_M = 13

# Largest degree multiplied by byte slices: both operands fit in two bytes.
_BYTES_MAX_M = 16

# Largest degree accepted for caller-supplied moduli.  Big enough for the
# universal-hash fields over production key lengths.
_MAX_CUSTOM_M = 512


def _gf2_poly_deg(p: int) -> int:
    return p.bit_length() - 1


def _factor(n: int) -> list[int]:
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


def _gf2_mod(a: int, g: int) -> int:
    """a mod g over GF(2), by long division."""
    dg = g.bit_length()
    while a.bit_length() >= dg:
        a ^= g << (a.bit_length() - dg)
    return a


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod(a, b)
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
    a = _gf2_mod(2, f)
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


def _is_irreducible(mod: int, m: int) -> bool:
    """Rabin's test: x^(2^m) == x mod f, and x^(2^(m/p)) - x coprime to f
    for each prime p dividing m; every power comes off one squaring chain."""
    chain = _frobenius_chain(mod, m)
    x = chain[0]
    if chain[m] != x:
        return False
    return all(_gf2_gcd(chain[m // p] ^ x, mod) == 1 for p in _factor(m))


# A search candidate with a factor of degree <= this never reaches Rabin's test
_SCREEN_DEG = 8


@lru_cache(maxsize=1)
def _screen_factors() -> tuple[int, ...]:
    """Every irreducible polynomial of degree 1.._SCREEN_DEG except x,
    ascending; built on the first modulus search, not at import."""
    found: list[int] = []
    for g in range(3, 1 << (_SCREEN_DEG + 1), 2):
        d = g.bit_length() - 1
        if all(_gf2_mod(g, h) for h in found if 2 * (h.bit_length() - 1) <= d):
            found.append(g)
    return tuple(found)


_IRREDUCIBLE_CACHE: dict[int, int] = {}


def irreducible_modulus(m: int) -> int:
    """Smallest irreducible degree-m polynomial over GF(2), as an int.

    Used for universal-hash fields whose degree falls outside the pinned
    primitive table.  Deterministic, so hash outputs replay exactly.

    Candidates x^m + k run over odd k in increasing order, so x never
    divides one.  A candidate is dropped when an irreducible g of degree
    <= 8 divides it, i.e. when x^m mod g equals k mod g (x^m mod g is
    worked out once per g: x has order dividing 2^deg(g) - 1 mod g).  The
    survivors go to Rabin's test on a squaring chain (`_is_irreducible`),
    so the first one accepted is exactly the smallest irreducible.
    """
    if m in PRIMITIVE_POLYS:
        return PRIMITIVE_POLYS[m]
    if not 1 <= m <= _MAX_CUSTOM_M:
        raise ValueError(f"degree {m} out of range")
    got = _IRREDUCIBLE_CACHE.get(m)
    if got is not None:
        return got
    screen = [
        (g, _gf2_mod(1 << (m % ((1 << (g.bit_length() - 1)) - 1)), g))
        for g in _screen_factors()
    ]
    for k in range(1, 1 << m, 2):
        if any(_gf2_mod(k, g) == xm for g, xm in screen):
            continue
        cand = (1 << m) | k
        if _is_irreducible(cand, m):
            _IRREDUCIBLE_CACHE[m] = cand
            return cand
    raise ValueError(f"no irreducible polynomial of degree {m} found")


@lru_cache(maxsize=1)
def _clmul_bytes() -> array:
    """T[x << 8 | y] = carry-less product of bytes x and y (65,536 entries).

    Row x is built as one int of 256 16-bit lanes, lane y holding x*y: it
    is the row of x with its lowest set bit 2^k cleared, XOR the lane
    vector (0, 1, ..., 255) shifted up by k.  No lane product exceeds 15
    bits, so the shift never carries into the next lane.  Built on the
    first field of degree 14..16, not at import.
    """
    lanes = 0
    for y in range(256):
        lanes |= y << (16 * y)
    rows = [0] * 256
    for x in range(1, 256):
        rows[x] = rows[x & (x - 1)] ^ lanes << ((x & -x).bit_length() - 1)
    table = array("H")
    table.frombytes(b"".join(r.to_bytes(512, "little") for r in rows))
    if sys.byteorder == "big":
        table.byteswap()
    return table


def _reduction_table(m: int, modulus: int, bits: int) -> list[int]:
    """red[h] = h * x^m mod `modulus` for every h of `bits` bits."""
    red, v = [0], modulus ^ (1 << m)
    for _ in range(bits):
        red += [r ^ v for r in red]
        v <<= 1
        if v >> m:
            v ^= modulus
    return red


def _log_ops(exp: list[int], log: list[int]):
    """mul and sqr by log/antilog lookup."""

    def mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return exp[log[a] + log[b]]

    def sqr(a: int) -> int:
        return exp[2 * log[a]] if a else 0

    return mul, sqr


def _byte_ops(m: int, modulus: int):
    """mul and sqr for m <= 16: four byte-by-byte lookups in the shared
    product table, then two byte folds of the bits at x^m and above.

    The product has at most 2m - 1 <= 31 bits.  The first fold clears the
    bits at x^(m+8) and above, h * x^(m+8) = (h * x^m mod f) * x^8, and the
    second the byte left at x^m..x^(m+7).  T's diagonal T[x * 257] is the
    bit spread of x, which is its square before reduction.
    """
    T = _clmul_bytes()
    red = _reduction_table(m, modulus, 8)
    top, low, mask = m + 8, (1 << (m + 8)) - 1, (1 << m) - 1

    def mul(a: int, b: int) -> int:
        a0, a1 = (a & 255) << 8, a >> 8 << 8
        b0, b1 = b & 255, b >> 8
        p = T[a0 | b0] ^ (T[a0 | b1] ^ T[a1 | b0]) << 8 ^ T[a1 | b1] << 16
        p = p & low ^ red[p >> top] << 8
        return p & mask ^ red[p >> m]

    def sqr(a: int) -> int:
        p = T[(a & 255) * 257] ^ T[(a >> 8) * 257] << 16
        p = p & low ^ red[p >> top] << 8
        return p & mask ^ red[p >> m]

    return mul, sqr


def _window_ops(m: int, modulus: int):
    """mul and sqr for m > 16: carry-less multiply mod f, folding b four
    bits at a time through a 16-entry multiple table of a."""
    red = _reduction_table(m, modulus, 4)
    mask, hi = (1 << m) - 1, m - 4

    def mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        t2 = a << 1
        if t2 >> m:
            t2 ^= modulus
        t4 = t2 << 1
        if t4 >> m:
            t4 ^= modulus
        t8 = t4 << 1
        if t8 >> m:
            t8 ^= modulus
        t3 = a ^ t2
        t12 = t4 ^ t8
        amul = (
            0, a, t2, t3, t4, a ^ t4, t2 ^ t4, t3 ^ t4,
            t8, a ^ t8, t2 ^ t8, t3 ^ t8, t12, a ^ t12, t2 ^ t12, t3 ^ t12,
        )
        r = 0
        for shift in range(((b.bit_length() + 3) & ~3) - 4, -1, -4):
            r = ((r << 4) & mask) ^ red[r >> hi] ^ amul[(b >> shift) & 15]
        return r

    def sqr(a: int) -> int:
        return mul(a, a)

    return mul, sqr


class GF2m:
    """A binary extension field GF(2^m) with a fixed reduction modulus.

    With no modulus argument the pinned primitive polynomial for the degree
    is used (1 <= m <= 32).  A caller-supplied modulus is accepted up to
    degree 512.  For m <= 16 it is certified primitive by the order of x,
    found with the field's own arithmetic (the log/antilog walk for
    m <= 13, `pow` for 14..16).  Above 16 it is certified irreducible by
    Rabin's test, which reads every power it needs off one squaring chain
    x, x^2, x^4, ..., x^(2^m) mod the modulus.  `field_of(m)` hands out one
    shared instance per degree.

    `mul(a, b)` and `sqr(a)` are picked once, at construction, by degree:
    log/antilog lookup for m <= 13, byte slices of the shared carry-less
    product table for m in 14..16, and a 4-bit window above 16.  Operands
    must be field elements; they are not checked.
    """

    __slots__ = ("m", "modulus", "order", "mul", "sqr", "_log", "_exp")

    def __init__(self, m: int, modulus: int | None = None):
        custom = modulus is not None
        if not custom:
            if m not in PRIMITIVE_POLYS:
                raise ValueError(f"no pinned primitive polynomial for m={m}")
            modulus = PRIMITIVE_POLYS[m]
        else:
            if not 1 <= m <= _MAX_CUSTOM_M:
                raise ValueError(f"m={m} out of range for custom modulus")
            if _gf2_poly_deg(modulus) != m:
                raise ValueError("modulus degree does not match m")
            if m > _BYTES_MAX_M and not _is_irreducible(modulus, m):
                raise ValueError(f"modulus 0x{modulus:x} not irreducible")
        self.m = m
        self.modulus = modulus
        self.order = (1 << m) - 1
        self._log = None
        self._exp = None
        if m <= _TABLE_MAX_M:
            self._build_tables()
            self.mul, self.sqr = _log_ops(self._exp, self._log)
        elif m <= _BYTES_MAX_M:
            self.mul, self.sqr = _byte_ops(m, modulus)
            # a caller's modulus is primitive iff x has order exactly
            # 2^m - 1 (the order mod a product of factors of degrees a, b
            # is at most (2^a - 1)(2^b - 1) < 2^(a+b) - 1); _build_tables
            # checks the same as it walks the powers of x
            n = self.order
            if custom and (
                self.pow(2, n) != 1 or any(self.pow(2, n // p) == 1 for p in _factor(n))
            ):
                raise ValueError(f"modulus 0x{modulus:x} not primitive")
        else:
            self.mul, self.sqr = _window_ops(m, modulus)

    def __repr__(self):
        return f"GF2m({self.m}, 0x{self.modulus:x})"

    def __eq__(self, other):
        return (
            isinstance(other, GF2m)
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.m, self.modulus))

    def __reduce__(self):
        # mul and sqr are closures, so a field pickles as its constructor call
        return GF2m, (self.m, self.modulus)

    def _build_tables(self):
        order = self.order
        exp = [1] * (2 * order)
        log = [0] * (order + 1)
        m, mod = self.m, self.modulus
        v = 1
        for i in range(order):
            exp[i] = v
            exp[i + order] = v
            log[v] = i
            v <<= 1
            if v >> m:
                v ^= mod
        # x is primitive iff its powers return to 1 after exactly 2^m - 1
        # steps and not before (an early return rewrites log[1])
        if v != 1 or log[1]:
            raise ValueError(f"modulus 0x{self.modulus:x} not primitive")
        self._exp = exp
        self._log = log

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a <= self.order:
            raise ValueError(f"not a field element: {a!r}")
        return a

    def inv(self, a: int) -> int:
        """Multiplicative inverse; ValueError on zero."""
        if a == 0:
            raise ValueError("zero has no inverse")
        if a == 1:
            return 1
        if self._log is not None:
            return self._exp[self.order - self._log[a]]
        # extended Euclid over GF(2)[x]: maintain g1*a == u, g2*a == v
        # (mod modulus); ends with u == 1 since the modulus is irreducible
        u, v = a, self.modulus
        g1, g2 = 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v = v, u
                g1, g2 = g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def pow(self, a: int, e: int) -> int:
        """a^e with e >= 0; pins 0^0 = 1."""
        if e < 0:
            raise ValueError("negative exponent")
        if a == 0:
            return 1 if e == 0 else 0
        if self._log is not None:
            return self._exp[self._log[a] * e % self.order]
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r


@lru_cache(maxsize=None)
def field_of(m: int) -> GF2m:
    """The field of degree m, one instance per process: the pinned
    primitive modulus for m <= 32, otherwise `irreducible_modulus(m)`."""
    if m <= 32:
        return GF2m(m)
    return GF2m(m, irreducible_modulus(m))


# ---------------------------------------------------------------------------
# polynomials over GF(2^m): list[int], lowest degree first, normalized


def poly_norm(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_deg(f: list[int]) -> int:
    """Degree, with deg(0) = -1."""
    return len(f) - 1


def poly_add(f: list[int], g: list[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] ^= c
    return poly_norm(out)


def poly_mul(field: GF2m, f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    mul = field.mul
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] ^= mul(a, b)
    return poly_norm(out)


def poly_scale(field: GF2m, f: list[int], c: int) -> list[int]:
    if c == 0:
        return []
    mul = field.mul
    return poly_norm([mul(a, c) for a in f])


def poly_eval(field: GF2m, f: list[int], x: int) -> int:
    """Horner evaluation.  Empty f evaluates to 0."""
    acc = 0
    mul = field.mul
    for c in reversed(f):
        acc = mul(acc, x) ^ c
    return acc


# array typecode of each unsigned item width in bytes: 1, 2, 4 and 8
_LANE_TYPES = {array(c).itemsize: c for c in "BHIQ"}


def poly_eval_many(field: GF2m, f: list[int], xs) -> list[int]:
    """[poly_eval(field, f, x) for x in xs], by one Horner pass over all
    the points at once (bit-slicing, Biham 1997).

    Every x sits in its own lane of w >= 2m bits of one packed int, and so
    does the accumulator.  A lane-wise multiply by x is the XOR of m
    shifted copies of the accumulator, copy k masked to the lanes whose x
    has bit k set; the m masks are built once, each in three big-int
    operations on the packed xs.  The product bits at x^m and above then
    fold back through the modulus tail, h * x^m = h * (modulus - x^m),
    until every lane is below x^m again; each fold lowers the top degree,
    so a sparse tail takes two folds.  A lane is a power of two bytes, so
    lanes of up to 8 bytes pack and unpack through an `array`.
    """
    xs = list(xs)
    n = len(xs)
    if len(f) < 2 or not n:
        return [f[0] if f else 0] * n
    m = field.m
    lane = 1 << max(0, (2 * m - 1).bit_length() - 3)
    w = 8 * lane
    order = sys.byteorder  # lanes are independent: any consistent order works
    code = _LANE_TYPES.get(lane)
    if code:
        data = array(code, xs).tobytes()
    else:
        data = b"".join([x.to_bytes(lane, order) for x in xs])
    packed = int.from_bytes(data, order)
    ones = ((1 << (w * n)) - 1) // ((1 << w) - 1)  # bit 0 of every lane
    low = ones * field.order  # bits 0..m-1 of every lane
    high = ones * ((1 << w) - 1) ^ low  # bits m..w-1 of every lane
    masks = [(k, mk) for k in range(m) if (mk := (packed >> k & ones) * field.order)]
    tail = field.modulus ^ (1 << m)
    taps = [j for j in range(tail.bit_length()) if tail >> j & 1]
    acc = f[-1] * ones
    for c in reversed(f[:-1]):
        prod = 0
        for k, mk in masks:
            prod ^= (acc & mk) << k
        while prod & high:
            hi = prod >> m & low
            prod &= low
            for j in taps:
                prod ^= hi << j
        acc = prod ^ c * ones
    data = acc.to_bytes(lane * n, order)
    if code:
        return array(code, data).tolist()
    return [int.from_bytes(data[i : i + lane], order) for i in range(0, lane * n, lane)]


def poly_divmod(
    field: GF2m, f: list[int], g: list[int]
) -> tuple[list[int], list[int]]:
    """Euclidean division: f = q*g + r with deg(r) < deg(g)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = poly_deg(g)
    if poly_deg(r) < dg:
        return [], poly_norm(r)
    q = [0] * (poly_deg(r) - dg + 1)
    inv_lead = 1 if g[-1] == 1 else field.inv(g[-1])
    mul = field.mul
    while len(r) - 1 >= dg and r:
        shift = len(r) - 1 - dg
        coef = r[-1] if inv_lead == 1 else mul(r[-1], inv_lead)
        q[shift] = coef
        for i, b in enumerate(g):
            if b:
                r[i + shift] ^= mul(coef, b)
        poly_norm(r)
    return poly_norm(q), r


def poly_monic(field: GF2m, f: list[int]) -> list[int]:
    if not f:
        raise ValueError("zero polynomial has no monic form")
    if f[-1] == 1:
        return list(f)
    return poly_scale(field, f, field.inv(f[-1]))


def poly_gcd(field: GF2m, f: list[int], g: list[int]) -> list[int]:
    while g:
        _, r = poly_divmod(field, f, g)
        f, g = g, r
    return f


def _poly_sqrmod(field: GF2m, f, mod):
    """f^2 mod `mod`; in char 2, (sum a_i z^i)^2 = sum a_i^2 z^(2i)."""
    if not f:
        return []
    out = [0] * (2 * len(f) - 1)
    sqr = field.sqr
    for i, a in enumerate(f):
        if a:
            out[2 * i] = sqr(a)
    _, r = poly_divmod(field, poly_norm(out), mod)
    return r


def poly_roots(
    field: GF2m, f: list[int], rng: random.Random | None = None
) -> set[int] | None:
    """Distinct roots of f in the field, or None if f is not squarefree
    and fully split (i.e. not a product of deg(f) distinct linear factors).

    Splitting uses the char-2 trace map Tr(cz) = cz + (cz)^2 + ... +
    (cz)^(2^(m-1)) with fresh random c per attempt.  Since (cz)^(2^i) =
    c^(2^i) * (z^(2^i) mod f) mod f, the Frobenius powers of z are composed
    once up front and each attempt costs only scalar combinations.  An
    attempt budget of 64 per split guards against a broken RNG; past it
    RuntimeError is raised, which the decoders report as DecodeFailure.
    """
    if not f:
        raise ValueError("zero polynomial")
    if rng is None:
        rng = random.Random()
    f = poly_monic(field, f)
    if poly_deg(f) == 0:
        return set()
    if poly_deg(f) == 1:
        # monic z + a has root a
        return {f[0]}

    # z^(2^i) mod f for i = 0..m; f splits into distinct linear factors
    # iff the top of the chain is z again
    frob = [[0, 1]]
    for _ in range(field.m):
        frob.append(_poly_sqrmod(field, frob[-1], f))
    if poly_add(frob[field.m], [0, 1]):
        return None
    frob.pop()

    mul, sqr = field.mul, field.sqr
    roots: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        d = poly_deg(g)
        if d == 0:
            continue
        if d == 1:
            roots.add(g[0])
            continue
        for attempt in range(64):
            c = rng.randrange(1, field.order + 1)
            acc = [0] * len(f)
            cp = c
            for q in frob:
                for j, a in enumerate(q):
                    if a:
                        acc[j] ^= mul(cp, a)
                cp = sqr(cp)
            _, tr = poly_divmod(field, poly_norm(acc), g)
            h = poly_gcd(field, g, tr)
            dh = poly_deg(h)
            if 0 < dh < d:
                h = poly_monic(field, h)
                q2, _ = poly_divmod(field, g, h)
                stack.append(h)
                stack.append(q2)
                break
        else:
            raise RuntimeError("root splitting exceeded attempt budget")
    return roots
