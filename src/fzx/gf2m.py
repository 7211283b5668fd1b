"""Arithmetic in GF(2^m) and polynomial rings over it.

Field elements are plain Python ints in [0, 2^m): the integer's binary
expansion gives the coefficients of the residue polynomial, bit i holding
the coefficient of x^i.  A GF2m instance carries the extension degree and
its fixed reduction modulus; it does not wrap elements in objects.  There
is one modulus per degree, all pinned: primitive ones up to m = 32, the
smallest irreducible ones up to m = 256.  Fields up to m = 16 multiply
and invert by log/antilog lookup in tables built once per degree and
shared; wider fields multiply by a 4-bit window.

Polynomials over the field are lists of ints, lowest-degree coefficient
first, with no trailing zero coefficients (the zero polynomial is []).
`poly_eval_many` evaluates one at a whole list of points in a single
Horner pass over lane-packed ints.  `poly_roots` searches a field of at
most 256 elements whole, as one XOR of cached power rows (one byte lane
per element, built on the first search and grown to the degree asked),
and above that splits f by the trace map over the fixed basis x^0, ...,
x^(m-1), in at most m rounds; nothing in it is random.
"""

from __future__ import annotations

import functools
import operator
import sys
from array import array

# Lexicographically smallest primitive polynomial of each degree, found by
# exhaustive search; `tests/test_gf2m.py` certifies each by factoring
# 2^m - 1.  Encoded as ints, bit i = coefficient of x^i.
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

# Tail k of the smallest irreducible x^m + k over GF(2) for each hash-field
# degree m = 33..256, twelve degrees per row.  Found by exhaustive search in
# increasing k and certified by Rabin's test; `tests/oracles.py` repeats the
# search and holds the test.
IRREDUCIBLE_TAILS = (
    0x4B, 0x1B, 0x5, 0x35, 0x3F, 0x63, 0x11, 0x39, 0x9, 0x27, 0x59, 0x21,
    0x1B, 0x3, 0x21, 0x2D, 0x71, 0x1D, 0x4B, 0x9, 0x47, 0x7D, 0x47, 0x95,
    0x11, 0x63, 0x7B, 0x3, 0x27, 0x69, 0x3, 0x1B, 0x1B, 0x9, 0x27, 0xA3,
    0x65, 0x2B, 0x2B, 0x5F, 0x1D, 0x47, 0x4B, 0x35, 0x65, 0x5F, 0x1D, 0xAF,
    0x11, 0xD7, 0x95, 0x21, 0x107, 0x65, 0xA3, 0x3F, 0x69, 0x2D, 0xED, 0x65,
    0x5, 0x63, 0x77, 0x6F, 0x41, 0x99, 0x4B, 0x65, 0xC3, 0x69, 0xBD, 0x1B,
    0x11, 0x63, 0xAF, 0x53, 0x35, 0x53, 0x95, 0x39, 0x2D, 0x2D, 0xAF, 0x17,
    0x27, 0x65, 0x101, 0x1B, 0x123, 0x47, 0x5, 0x7D, 0xAF, 0x95, 0x3, 0x87,
    0x21, 0x9, 0xF3, 0x77, 0x6F, 0xA3, 0x59, 0x2D, 0x13D, 0x16D, 0xAF, 0x53,
    0x1AB, 0xF3, 0x2D, 0x95, 0x63, 0x2D, 0x3F, 0xA9, 0x2FB, 0x35, 0x9, 0x4D,
    0x3, 0xE1, 0xB1, 0x69, 0x65, 0x137, 0x7B, 0x2D, 0x4D, 0xE7, 0xC9, 0x1EF,
    0x25B, 0x63, 0x41, 0x5F, 0x161, 0x4D, 0x3F, 0x3, 0x125, 0x7D, 0x41, 0xBD,
    0x2D, 0x185, 0x17, 0x9, 0xC3, 0xF3, 0x191, 0x15D, 0x10B, 0x19D, 0xE1, 0x65,
    0x65, 0x1C1, 0xBB, 0x87, 0x1F7, 0x1D, 0xB7, 0x9, 0x1EF, 0x69, 0xED, 0x2D,
    0x4D, 0xD1, 0x183, 0x35, 0x225, 0xAF, 0x243, 0x1CD, 0x2D, 0x81, 0x26B, 0x99,
    0x65, 0x2B, 0x69, 0x8B, 0x71, 0xF5, 0xF5, 0x81, 0x137, 0x35, 0x35, 0x1B5,
    0x16D, 0xF5, 0x7B, 0x107, 0x267, 0xBD, 0x95, 0xF5, 0xBD, 0x1CB, 0x1CD, 0x21,
    0x93, 0x27, 0x3F, 0x129, 0x179, 0x173, 0x123, 0x167, 0x53, 0x1A7, 0x215, 0x13D,
    0x93, 0x6F, 0x95, 0x7D, 0x3F, 0x87, 0x2D, 0x425,
)

# Largest degree with log/antilog tables.  Their size and build time double
# with each degree: at m = 16 they hold 3 * 2^16 entries, and the walk that
# builds them takes 10-20 ms on a 2-vCPU Xeon.  Above 16 fields fold four
# bits of one operand at a time.
_TABLE_MAX_M = 16

# Largest degree whose tables are lists.  Lists index about twice as fast
# as arrays up to here; above it `array('H')` keeps the m = 16 tables at
# 0.38 MiB, not the 5.5 MiB of lists, at the same lookup speed.
_LIST_MAX_M = 13

# Largest field degree: the last one of `IRREDUCIBLE_TAILS`, the widest
# universal hash (`UHashParams` takes n_bits <= 256).
_MAX_M = 32 + len(IRREDUCIBLE_TAILS)


def irreducible_modulus(m: int) -> int:
    """The modulus of GF(2^m), as an int: the pinned primitive polynomial
    for m <= 32, above it the smallest irreducible x^m + k, k read off
    `IRREDUCIBLE_TAILS`.  Fixed, so hash outputs replay exactly."""
    if m in PRIMITIVE_POLYS:
        return PRIMITIVE_POLYS[m]
    if not 1 <= m <= _MAX_M:
        raise ValueError(f"degree {m} out of range")
    return (1 << m) | IRREDUCIBLE_TAILS[m - 33]


@functools.lru_cache(maxsize=None)
def _tables(m: int):
    """(exp, log) of GF(2^m) for m <= 16: exp[i] = x^i for 0 <= i <
    2(2^m - 1), so a sum of two logs needs no reduction, and log[x^i] = i.

    One walk over the powers of x fills both; the modulus is primitive, so
    they run through every nonzero element.  Lists up to `_LIST_MAX_M`,
    `array('H')` above it.  Kept for the process, like `field_of`'s
    fields: at most one pair per degree.
    """
    modulus = PRIMITIVE_POLYS[m]
    order = (1 << m) - 1
    zero = [0] if m <= _LIST_MAX_M else array("H", [0])
    exp, log = zero * order, zero * (order + 1)
    v = 1
    for i in range(order):
        exp[i] = v
        log[v] = i
        v <<= 1
        if v >> m:
            v ^= modulus
    exp += exp
    return exp, log


def _log_ops(exp, log):
    """mul and sqr by lookup in the tables of `_tables`."""

    def mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return exp[log[a] + log[b]]

    def sqr(a: int) -> int:
        return exp[2 * log[a]] if a else 0

    return mul, sqr


def _window_ops(m: int, modulus: int):
    """mul and sqr for m > 16: carry-less multiply mod f, folding b four
    bits at a time through a 16-entry multiple table of a."""
    # red[h] = h * x^m mod f for every 4-bit h: every modulus tail of m > 16
    # has at most m - 3 bits, so its three shifts stay below x^m
    red, tail = [0], modulus ^ (1 << m)
    for k in range(4):
        red += [r ^ tail << k for r in red]
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


class Frozen:
    """An immutable value, equal to another of its exact type, hashed and
    shown by the fields named in `_fields`.  Subclasses fill their fields
    through `object.__setattr__`, or through `__dict__` when they have one;
    assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the field values, read by one C call: a tuple, or the one value
        cls._values = property(operator.attrgetter(*cls._fields))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return other is self or (type(other) is type(self) and self._values == other._values)

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"


class GF2m(Frozen):
    """The binary extension field GF(2^m), 1 <= m <= 256, on the fixed
    modulus `irreducible_modulus(m)`.

    `field_of(m)` hands out one shared instance per degree, and every field
    of one degree up to 16 shares its log/antilog tables.  `mul(a, b)` and
    `sqr(a)` are picked once, at construction, by degree: log/antilog
    lookup for m <= 16 and a 4-bit window above 16.  Operands must be field
    elements; they are not checked.  Fields compare by m, and none of their
    attributes can be reassigned, so a shared field stays what it was built.
    """

    __slots__ = ("m", "modulus", "order", "mul", "sqr", "_log", "_exp")
    _fields = ("m",)

    def __init__(self, m: int):
        modulus = irreducible_modulus(m)
        if m <= _TABLE_MAX_M:
            exp, log = _tables(m)
            mul, sqr = _log_ops(exp, log)
        else:
            exp = log = None
            mul, sqr = _window_ops(m, modulus)
        slots = dict(m=m, modulus=modulus, order=(1 << m) - 1, mul=mul, sqr=sqr, _log=log, _exp=exp)
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # mul and sqr are closures, so a field pickles as its constructor call
        return GF2m, (self.m,)

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


@functools.lru_cache(maxsize=None)
def field_of(m: int) -> GF2m:
    """GF2m(m), one instance per degree and process."""
    return GF2m(m)


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
    """c * f for a nonzero c."""
    mul = field.mul
    return poly_norm([mul(a, c) for a in f])


# array typecode of each unsigned item width in bytes: 1, 2, 4 and 8
_LANE_TYPES = {array(c).itemsize: c for c in "BHIQ"}


def poly_eval_many(field: GF2m, f: list[int], xs) -> list[int]:
    """The value of f at every x in xs, by one Horner pass over all the
    points at once (bit-slicing, Biham 1997).

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


# Power rows of each field of at most 256 elements, by degree m, as
# `_power_rows` grows them.  A longer tuple replaces a shorter one whole and
# is never appended to, so a search always reads rows that agree.
_POWER_ROWS: dict[int, tuple[tuple[int, ...], ...]] = {}


def _power_rows(field: GF2m, d: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..d (at least) of the whole-field search in GF(2^m), m <= 8.

    Row j is m ints of 2^m byte lanes, and lane x of rows[j][b] holds
    alpha^b * x^j, alpha the element 2.  Row j+1 is x times row j: the XOR
    of rows[j][k] over the lanes whose x has bit k set.  Each alpha-multiple
    after it shifts every lane up one bit, and the bit carried out of x^(m-1)
    adds the modulus tail back; a lane holds a whole element, so nothing
    else needs reducing.  Kept for the process, at most 2^m + 1 rows per
    degree (`poly_roots` answers longer f without them).
    """
    m = field.m
    rows = _POWER_ROWS.get(m, ())
    if len(rows) > d:
        return rows
    n = 1 << m
    ones = int.from_bytes(b"\1" * n, "little")  # bit 0 of every lane
    top = ones << (m - 1)
    tail = field.modulus ^ n
    xs = int.from_bytes(bytes(range(n)), "little")  # lane x holds x
    masks = [(k, (xs >> k & ones) * 0xFF) for k in range(m)]
    grown = list(rows) or [tuple((1 << b) * ones for b in range(m))]
    while len(grown) <= d:
        prev, v = grown[-1], 0
        for k, mk in masks:
            v ^= prev[k] & mk
        row = [v]
        for _ in range(m - 1):
            hi = v & top
            v = (v ^ hi) << 1 ^ (hi >> (m - 1)) * tail
            row.append(v)
        grown.append(tuple(row))
    rows = _POWER_ROWS[m] = tuple(grown)
    return rows


def poly_roots(field: GF2m, f: list[int]) -> set[int] | None:
    """Distinct roots of f in the field, or None if f is not squarefree
    and fully split (i.e. not a product of deg(f) distinct linear factors).

    A field of at most 256 elements is searched whole (Chien 1964): the
    value of monic f at every element is the XOR of rows[j][b] of
    `_power_rows` over the set bits b of each coefficient f_j, one byte
    lane per element (bit-slicing, as in McBits: Bernstein, Chou and
    Schwabe 2013), and f splits iff deg(f) lanes are zero.  Larger fields split f by the trace
    map in at most m rounds (`_split_roots`).  Both are fixed functions of
    their input.
    """
    if not f:
        raise ValueError("zero polynomial")
    d = poly_deg(f)
    if d > field.order + 1:
        return None  # more roots than the field has elements
    f = poly_monic(field, f)
    if d == 0:
        return set()
    if d == 1:
        # monic z + a has root a
        return {f[0]}
    if field.m > 8:
        return _split_roots(field, f)
    acc = 0
    for c, row in zip(f, _power_rows(field, d)):
        while c:
            low = c & -c
            acc ^= row[low.bit_length() - 1]
            c ^= low
    values = acc.to_bytes(field.order + 1, "little")
    if values.count(0) != d:
        return None
    roots, x = set(), values.find(0)
    while x >= 0:
        roots.add(x)
        x = values.find(0, x + 1)
    return roots


def _split_roots(field: GF2m, f: list[int]) -> set[int] | None:
    """poly_roots of a monic f of degree >= 2, by Berlekamp's trace
    algorithm (1970) over the fixed basis x^0, ..., x^(m-1).

    Tr(cz) = cz + (cz)^2 + ... + (cz)^(2^(m-1)) is 0 or 1 at every field
    element, so round i splits each pending factor g by gcd(g, Tr(x^i z)
    mod g).  Two roots r, s of g fall apart in round i iff Tr(x^i (r+s)) =
    1; the trace form is nondegenerate, so some i < m does this for every
    pair, and after at most m rounds every factor is linear.  Since
    (cz)^(2^k) = c^(2^k) * (z^(2^k) mod f) mod f, the Frobenius powers of z
    are composed once up front and each round costs only scalar
    combinations.
    """
    m = field.m
    # z^(2^i) mod f for i = 0..m; f splits into distinct linear factors
    # iff the top of the chain is z again
    frob = [[0, 1]]
    for _ in range(m):
        frob.append(_poly_sqrmod(field, frob[-1], f))
    if poly_add(frob[m], [0, 1]):
        return None
    frob.pop()

    mul, sqr = field.mul, field.sqr
    roots: set[int] = set()
    pending = [f]
    for i in range(m):
        # Tr(x^i z) mod f; x^i is the int 1 << i whatever the modulus
        acc = [0] * len(f)
        cp = 1 << i
        for q in frob:
            for j, a in enumerate(q):
                if a:
                    acc[j] ^= mul(cp, a)
            cp = sqr(cp)
        tr = poly_norm(acc)
        parts = []
        for g in pending:
            h = poly_gcd(field, g, poly_divmod(field, tr, g)[1])
            if 0 < poly_deg(h) < poly_deg(g):
                h = poly_monic(field, h)
                parts += (h, poly_divmod(field, g, h)[0])
            else:
                parts.append(g)
        roots.update(g[0] for g in parts if len(g) == 2)  # monic z + a
        pending = [g for g in parts if len(g) > 2]
        if not pending:
            break
    assert not pending, "m trace rounds leave no factor of degree >= 2"
    return roots
