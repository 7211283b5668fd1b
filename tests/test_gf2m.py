"""Field and polynomial layer tests.

The multiplication oracle here is an independent bit-list implementation
of GF(2)[x] arithmetic (schoolbook multiply, long division), kept separate
from the library's int-based fast path on purpose.
"""

import pickle
import random
import subprocess
import sys
import threading
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fzx import gf2m
from fzx.gf2m import (
    GF2m,
    IRREDUCIBLE_TAILS,
    PRIMITIVE_POLYS,
    _split_roots,
    _tables,
    field_of,
    irreducible_modulus,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval_many,
    poly_monic,
    poly_mul,
    poly_roots,
)
from oracles import (
    _screen_factors,
    absolute_trace,
    brute_roots,
    clmul_mod,
    is_irreducible,
    poly_eval,
    pow_mod,
    prime_factors,
    smallest_irreducible,
)


def oracle_mul(a, b, modulus, m):
    """Reference product via explicit coefficient lists."""
    av = [(a >> i) & 1 for i in range(m)]
    bv = [(b >> i) & 1 for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(av):
        for j, bj in enumerate(bv):
            prod[i + j] ^= ai & bj
    mv = [(modulus >> i) & 1 for i in range(m + 1)]
    for top in range(len(prod) - 1, m - 1, -1):
        if prod[top]:
            for k in range(m + 1):
                prod[top - m + k] ^= mv[k]
    return sum(bit << i for i, bit in enumerate(prod[:m]))


@pytest.mark.parametrize("m", [3, 4])
def test_mul_matches_oracle_exhaustively(m):
    f = GF2m(m)
    for a in range(1 << m):
        for b in range(1 << m):
            assert f.mul(a, b) == oracle_mul(a, b, f.modulus, m)


@pytest.mark.parametrize("interned", [False, True])
@pytest.mark.parametrize("m", [14, 15, 16])
def test_byte_sliced_mul_matches_oracle(m, interned):
    """Degrees 14..16, whose elements span two bytes, on the table path:
    mul, sqr and inv against the shift-and-add oracle, on a fresh
    GF2m(m) and on the interned field_of(m), which share one pair of tables."""
    f = field_of(m) if interned else GF2m(m)
    assert f._log is not None and f._exp is field_of(m)._exp
    rng = random.Random(m)
    edges = [0, 1, f.order, 1 << (m - 1)]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(a, rng.randrange(1 << m)) for a in edges for _ in range(10)]
    pairs += [(rng.randrange(1 << m), rng.randrange(1 << m)) for _ in range(200)]
    for a, b in pairs:
        assert f.mul(a, b) == clmul_mod(a, b, f.modulus)
        assert f.mul(b, a) == f.mul(a, b)
        assert f.sqr(a) == clmul_mod(a, a, f.modulus)
        if a:
            assert clmul_mod(a, f.inv(a), f.modulus) == 1


def test_table_cache_stays_at_its_bound():
    # one pair of tables per degree up to 16, however often each is built;
    # wider fields build none
    for m in range(1, 40):
        GF2m(m)
        GF2m(m)
    assert _tables.cache_info().currsize == 16


def test_pinned_tables_outlive_any_number_of_other_builds():
    # every degree is built, several times over; every GF2m(m) with m <= 16
    # still gets field_of(m)'s tables, not a second walk
    fields = {m: field_of(m) for m in range(1, 17)}
    for m in range(1, 65):
        GF2m(m)
    for m, f in fields.items():
        g = GF2m(m)
        assert g._exp is f._exp and g._log is f._log, m
    assert _tables.cache_info().maxsize is None


def test_cold_m16_field_retains_under_one_mib_and_shares_it():
    # a fresh process, so no earlier test has built or evicted the table
    code = (
        "import tracemalloc; from fzx.gf2m import GF2m, field_of; "
        "tracemalloc.start(); f = GF2m(16); "
        "held = tracemalloc.get_traced_memory()[0]; "
        "assert held < 1 << 20, held; "
        "assert f._exp is field_of(16)._exp and f._log is field_of(16)._log"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


_M16 = st.integers(0, (1 << 16) - 1)


@settings(max_examples=300, derandomize=True, database=None)
@given(a=_M16, b=_M16, c=_M16)
def test_m16_mul_associative_and_distributive(a, b, c):
    f = field_of(16)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    assert f.sqr(a ^ b) == f.sqr(a) ^ f.sqr(b)


def test_frozen_mul_examples():
    f8 = GF2m(3)
    assert f8.modulus == 0b1011
    assert f8.mul(6, 3) == 1
    for a in range(8):
        assert f8.mul(a, 1) == a
        assert f8.mul(a, 0) == 0


def test_frozen_inv_examples():
    f8 = GF2m(3)
    assert f8.inv(3) == 6
    assert f8.inv(1) == 1
    f16 = GF2m(4)
    assert f16.modulus == 0b10011
    assert f16.inv(2) == 9
    # oracle: brute search
    found = [b for b in range(16) if oracle_mul(2, b, f16.modulus, 4) == 1]
    assert found == [9]
    with pytest.raises(ValueError):
        f8.inv(0)


@pytest.mark.parametrize("m", range(1, 9))
def test_field_laws_exhaustive(m):
    f = GF2m(m)
    for a in range(1, 1 << m):
        assert f.mul(a, f.inv(a)) == 1
    for a in range(1 << m):
        for b in range(1 << m):
            assert f.mul(a, b) == f.mul(b, a)


def test_associativity_and_distributivity():
    rng = random.Random(7)
    for m in (3, 5, 8, 11):
        f = GF2m(m)
        for _ in range(300):
            a = rng.randrange(1 << m)
            b = rng.randrange(1 << m)
            c = rng.randrange(1 << m)
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_frobenius_identity():
    rng = random.Random(11)
    for m in (3, 4, 8, 13, 17):
        f = GF2m(m)
        for _ in range(200):
            a = rng.randrange(1 << m)
            b = rng.randrange(1 << m)
            assert f.sqr(a ^ b) == f.sqr(a) ^ f.sqr(b)


def test_primitive_table_entries_generate_full_group():
    # spot degrees across the table, exhaustive orbit walk
    for m in (3, 4, 8, 12):
        f = GF2m(m)
        seen = set()
        v = 1
        for _ in range(f.order):
            assert v not in seen
            seen.add(v)
            v = f.mul(v, 2)
        assert v == 1 and len(seen) == f.order


def test_custom_modulus_validation():
    # a field's modulus is fixed by its degree; none can be passed in
    with pytest.raises(TypeError):
        GF2m(4, 0b10011)
    with pytest.raises(TypeError):
        GF2m(m=4, modulus=0b10011)


@pytest.mark.parametrize("m", [0, -1, 257])
def test_degree_out_of_range_raises(m):
    with pytest.raises(ValueError):
        GF2m(m)
    with pytest.raises(ValueError):
        field_of(m)


def test_pinned_primitive_polynomials_are_primitive():
    # x has order exactly 2^m - 1 mod f: so every nonzero residue is a
    # power of x, which makes f irreducible too, and the walk of `_tables`
    # runs through every nonzero element
    assert sorted(PRIMITIVE_POLYS) == list(range(1, 33))
    for m, f in PRIMITIVE_POLYS.items():
        order = (1 << m) - 1
        assert f.bit_length() - 1 == m and pow_mod(2, order, f) == 1, m
        assert all(pow_mod(2, order // p, f) != 1 for p in prime_factors(order)), m


def test_irreducible_modulus_deterministic_and_valid():
    assert irreducible_modulus(8) == PRIMITIVE_POLYS[8]
    for m in (33, 40, 60):
        mod = irreducible_modulus(m)
        assert mod.bit_length() - 1 == m
        assert irreducible_modulus(m) == mod
        assert GF2m(m).modulus == mod
    for m in (0, 257):
        with pytest.raises(ValueError):
            irreducible_modulus(m)


@pytest.mark.parametrize(
    "m, tail", [(75, 0x4B), (80, 0xAF), (128, 0x87), (255, 0x2D), (256, 0x425)]
)
def test_irreducible_modulus_known_answers(m, tail):
    assert irreducible_modulus(m) == (1 << m) | tail


def test_pinned_hash_moduli_are_irreducible():
    assert len(IRREDUCIBLE_TAILS) == 224 and max(IRREDUCIBLE_TAILS) == 0x425
    for m, tail in enumerate(IRREDUCIBLE_TAILS, start=33):
        assert is_irreducible((1 << m) | tail, m), m


def test_window_moduli_leave_three_shifts_of_their_tail_below_x_m():
    # the 4-bit window's reduction table shifts the modulus tail up to three
    # times and does not reduce it again
    for m in range(17, 257):
        assert (irreducible_modulus(m) ^ 1 << m).bit_length() + 3 <= m, m


@pytest.mark.parametrize("degrees", [range(33, 257)], ids=["33-256"])
def test_pinned_hash_moduli_match_the_search(degrees):
    for m in degrees:
        assert irreducible_modulus(m) == smallest_irreducible(m), m


def _ref_is_irreducible(f, m):
    """Rabin's test with bit-serial multiplication: the reference for the
    squaring-chain version in the library."""

    def mulmod(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> m) & 1:
                a ^= f
        return r

    def x_to_2_to(i):
        r = 2
        for _ in range(i):
            r = mulmod(r, r)
        return r

    def gcd(a, b):
        while b:
            while a and a.bit_length() >= b.bit_length():
                a ^= b << (a.bit_length() - b.bit_length())
            a, b = b, a
        return a

    primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]
    return x_to_2_to(m) == 2 and all(gcd(x_to_2_to(m // p) ^ 2, f) == 1 for p in primes)


def _clmul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _shift_by_one(f):
    """f(x + 1): irreducible iff f is, and dense even when f is sparse."""
    out, power = 0, 1
    for i in range(f.bit_length()):
        if (f >> i) & 1:
            out ^= power
        power ^= power << 1
    return out


def test_is_irreducible_matches_bit_serial_reference():
    rng = random.Random(2026)
    for _ in range(24):
        m = rng.randrange(17, 201)
        top = 1 << m
        irreducible = irreducible_modulus(m)
        cases = [
            (top | rng.randrange(1, 1 << 12, 2), None),  # sparse, like a search candidate
            (top | rng.getrandbits(m), None),  # dense
            (irreducible, True),
            (_shift_by_one(irreducible), True),  # dense irreducible
        ]
        if m % 2 == 0:
            # splits over degree m/2 only, so only the gcd step rejects it
            g = irreducible_modulus(m // 2)
            cases.append((_clmul(g, _shift_by_one(g)), False))
        for f, known in cases:
            got = is_irreducible(f, m)
            assert got == _ref_is_irreducible(f, m), hex(f)
            if known is not None:
                assert got is known, hex(f)


def test_screen_holds_every_small_irreducible_but_x():
    degrees = [g.bit_length() - 1 for g in _screen_factors()]
    # irreducible polynomials over GF(2) of degree 1..8, less x itself
    assert [degrees.count(d) for d in range(1, 9)] == [1, 1, 2, 3, 6, 9, 18, 30]
    assert all(_ref_is_irreducible(g, g.bit_length() - 1) for g in _screen_factors()[1:])


def test_field_of_interns_one_field_per_degree():
    degrees = [1, 5, 16, 17, 32, 33, 128, 256] + random.Random(18).sample(range(1, 257), 12)
    for m in degrees:
        f = field_of(m)
        assert field_of(m) is f
        assert f == GF2m(m) and f.modulus == GF2m(m).modulus == irreducible_modulus(m), m


@pytest.mark.parametrize("m", [8, 16, 32, 256])
def test_field_pickles_to_an_equal_field(m):
    f = GF2m(m)
    assert f.__reduce__() == (GF2m, (m,))
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.modulus == f.modulus and g.mul(3, f.order) == f.mul(3, f.order)


def test_import_does_no_modulus_work():
    code = (
        "import fzx.cli, fzx.gf2m as g; "
        "assert g._tables.cache_info().currsize == 0; "
        "assert g.field_of.cache_info().currsize == 0; "
        "g.GF2m(8), g.field_of(8); "
        "assert not g._POWER_ROWS"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_poly_eval_examples():
    f8 = GF2m(3)
    assert poly_eval(f8, [1], 7) == 1
    assert poly_eval(f8, [0, 1], 5) == 5
    # (z-1)(z-2)(z-4) expanded via library mul, root by construction
    poly = [1]
    for r in (1, 2, 4):
        poly = poly_mul(f8, poly, [r, 1])
    assert poly_eval(f8, poly, 2) == 0
    # frozen expansion from the symmetric-function oracle:
    # e1 = 1^2^4 = 7, e2 = 1*2 ^ 1*4 ^ 2*4 = 2^4^3 = 5, e3 = 1*2*4 = 3
    assert poly == [3, 5, 7, 1]
    assert poly_eval(f8, [], 3) == 0


@pytest.mark.parametrize(
    "m, modulus",
    [(m, None) for m in (1, 4, 8, 9, 13, 16, 17, 24, 32, 33, 64)] + [(16, 0x1FFED)],
)
def test_poly_eval_many_matches_horner(m, modulus):
    # poly_eval_many folds through whatever modulus tail the field has; the
    # pinned ones are sparse, so a dense tail, on a stand-in field, is the
    # one that takes more than two folds
    if modulus is None:
        field = field_of(m)
    else:
        mul = partial(clmul_mod, modulus=modulus)
        field = SimpleNamespace(m=m, order=(1 << m) - 1, modulus=modulus, mul=mul)
    rng = random.Random(9000 + m)
    top = field.order
    for deg in (-1, 0, 1, 2, 5, 11, 40):
        f = [rng.randrange(top + 1) for _ in range(deg + 1)]
        if f:
            f[-1] = rng.randrange(1, top + 1)
        for n in (0, 1, 2, 3, 17, 64, 300):
            xs = [rng.randrange(top + 1) for _ in range(n)]
            xs[:2] = [0, top][:n]  # both ends of the field
            assert poly_eval_many(field, f, xs) == [poly_eval(field, f, x) for x in xs]


def test_poly_eval_many_edge_cases():
    f16 = field_of(16)
    assert poly_eval_many(f16, [], [0, 1, 0xFFFF]) == [0, 0, 0]
    assert poly_eval_many(f16, [7], [0, 1, 0xFFFF]) == [7, 7, 7]
    assert poly_eval_many(f16, [3, 1], []) == []
    assert poly_eval_many(f16, [], []) == []
    # z at every point is the point itself, 0 and 0xFFFF included
    xs = list(range(0, 0x10000, 257))
    assert poly_eval_many(f16, [0, 1], xs) == xs
    f = [5, 1, 1]
    assert poly_eval_many(f16, f, iter(xs)) == [poly_eval(f16, f, x) for x in xs]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    m=st.sampled_from([2, 3, 5, 8, 12, 14, 16, 20, 31, 40]),
    data=st.data(),
)
def test_poly_eval_many_property(m, data):
    field = field_of(m)
    elem = st.integers(0, field.order)
    f = data.draw(st.lists(elem, max_size=20))
    xs = data.draw(st.lists(elem, max_size=80))
    assert poly_eval_many(field, f, xs) == [poly_eval(field, f, x) for x in xs]


def test_poly_divmod_examples():
    f8 = GF2m(3)
    q, r = poly_divmod(f8, [1, 0, 1], [1, 1])  # (z^2+1) / (z+1)
    assert q == [1, 1] and r == []
    q, r = poly_divmod(f8, [4, 2, 6], [1])
    assert q == [4, 2, 6] and r == []
    assert poly_mul(f8, [4, 2, 6], []) == []
    with pytest.raises(ZeroDivisionError):
        poly_divmod(f8, [1, 2], [])


def test_poly_divmod_round_trip_random():
    rng = random.Random(3)
    f = GF2m(5)
    for _ in range(500):
        fp = [rng.randrange(32) for _ in range(rng.randrange(1, 9))]
        gp = [rng.randrange(32) for _ in range(rng.randrange(1, 6))]
        while not any(gp):
            gp = [rng.randrange(32) for _ in range(rng.randrange(1, 6))]
        fp_n = list(fp)
        while fp_n and fp_n[-1] == 0:
            fp_n.pop()
        gp_n = list(gp)
        while gp_n and gp_n[-1] == 0:
            gp_n.pop()
        q, r = poly_divmod(f, fp_n, gp_n)
        assert poly_add(poly_mul(f, q, gp_n), r) == fp_n
        assert poly_deg(r) < poly_deg(gp_n)


def test_poly_roots_examples():
    f8 = GF2m(3)
    assert poly_roots(f8, [5, 1]) == {5}
    poly = [1]
    for r in (1, 3, 6):
        poly = poly_mul(f8, poly, [r, 1])
    assert poly_roots(f8, poly) == {1, 3, 6}
    assert poly_roots(f8, [0, 0, 1]) is None  # z^2, double root
    with pytest.raises(ValueError):
        poly_roots(f8, [])


def test_poly_roots_vs_brute_oracle_randomized():
    rng = random.Random(42)
    for m in range(3, 13):
        f = GF2m(m)
        for _ in range(100):
            count = rng.randrange(1, min(6, 1 << m))
            roots = set(rng.sample(range(1 << m), count))
            poly = [1]
            for r in roots:
                poly = poly_mul(f, poly, [r, 1])
            got = poly_roots(f, poly)
            assert got == roots
            assert brute_roots(f, poly) == roots


def test_poly_roots_rejects_unsplit_and_repeated():
    f = GF2m(4)
    # irreducible quadratic over GF(16): z^2 + z + a where Tr(a) = 1
    # construct by scanning for a quadratic with no roots
    for a in range(16):
        poly = [a, 1, 1]
        if brute_roots(f, poly) == set():
            assert poly_roots(f, poly) is None
            break
    else:
        pytest.fail("no rootless quadratic found")
    # repeated root: (z+3)^2 has 3 twice
    sq = poly_mul(f, [3, 1], [3, 1])
    assert poly_roots(f, sq) is None
    assert brute_roots(f, sq) == {3}


def _dual_basis(field, k):
    """The delta with Tr(x^i delta) = 1 for i = k and 0 for every other
    i < m, by Gauss-Jordan elimination on the trace form's GF(2) matrix:
    row i has bit j = Tr(x^(i+j)), with the right-hand side in bit m."""
    m = field.m
    rows = [
        sum(absolute_trace(field, field.mul(1 << i, 1 << j)) << j for j in range(m)) | (i == k) << m
        for i in range(m)
    ]
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r] >> col & 1)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(m):
            if r != col and rows[r] >> col & 1:
                rows[r] ^= rows[col]
    return sum((rows[j] >> m & 1) << j for j in range(m))


@pytest.mark.parametrize("m", [9, 16, 24])
def test_roots_that_only_trace_round_k_separates(m, monkeypatch):
    # r and r + delta agree on Tr(x^i z) for every i but k, so round k of
    # the basis x^0, ..., x^(m-1) is the first to split (z + r)(z + r + delta):
    # one gcd per round before it, and one that splits
    field = field_of(m)
    gcds = []
    real_gcd = gf2m.poly_gcd
    monkeypatch.setattr(gf2m, "poly_gcd", lambda *a: gcds.append(1) or real_gcd(*a))
    for k in (0, m // 2, m - 1):
        delta = _dual_basis(field, k)
        assert [absolute_trace(field, field.mul(1 << i, delta)) for i in range(m)] == [
            int(i == k) for i in range(m)
        ]
        for r in (0, 1, 0x1A5 % field.order, field.order):
            f = poly_mul(field, [r, 1], [r ^ delta, 1])
            gcds.clear()
            assert poly_roots(field, f) == {r, r ^ delta}
            assert len(gcds) == k + 1
    assert m != 16 or _dual_basis(field, m - 1) == 0x1557


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(m=st.integers(1, 8), data=st.data())
def test_whole_field_search_matches_trace_splitting(m, data):
    # f = (linear factors, repeats and 0 allowed) * (a random cofactor,
    # often without roots), so split, repeated and non-split f all occur,
    # up to degree 30: past every field's 2^m for m <= 4
    field = field_of(m)
    elem = st.integers(0, field.order)
    f = [data.draw(st.integers(1, field.order), label="lead")]
    for r in data.draw(st.lists(elem, max_size=24), label="roots"):
        f = poly_mul(field, f, [r, 1])
    cofactor = data.draw(st.lists(elem, max_size=6), label="cofactor") + [1]
    f = poly_mul(field, f, cofactor)
    want = brute_roots(field, f)
    got = poly_roots(field, f)
    assert got == (want if len(want) == poly_deg(f) else None)
    if poly_deg(f) >= 2:
        assert _split_roots(field, poly_monic(field, f)) == got


@pytest.mark.parametrize("m", range(1, 9))
def test_whole_field_search_edges(m, monkeypatch):
    monkeypatch.setattr(gf2m, "_POWER_ROWS", {})
    field = field_of(m)
    q = field.order + 1
    # more roots than elements: None before any row is built
    too_long = [1] * (q + 2)
    assert poly_roots(field, too_long) is None
    assert m not in gf2m._POWER_ROWS
    # z^q + z vanishes on the whole field, which takes rows 0..q
    whole = [0, 1] + [0] * (q - 2) + [1]
    assert poly_roots(field, whole) == brute_roots(field, whole) == set(range(q))
    assert len(gf2m._POWER_ROWS[m]) == q + 1
    assert poly_roots(field, too_long) is None
    assert len(gf2m._POWER_ROWS[m]) == q + 1
    lead = field.order  # the int 1 only at m = 1
    rootless = next(g for a in range(q) if not brute_roots(field, g := [a, 1, 1]))
    rng = random.Random(m)
    for _ in range(20):
        roots = rng.sample(range(1, q), rng.randrange(min(q - 1, 6))) + [0]
        f = [lead]
        for r in roots:
            f = poly_mul(field, f, [r, 1])
        # a root at 0, under a non-monic lead
        assert poly_roots(field, f) == brute_roots(field, f) == set(roots)
        # a repeated root
        rep = poly_mul(field, f, [roots[0], 1])
        assert brute_roots(field, rep) == set(roots)
        assert poly_roots(field, rep) is None
        # a cofactor without roots leaves f unsplit
        unsplit = poly_mul(field, f, rootless)
        assert brute_roots(field, unsplit) == set(roots)
        assert poly_roots(field, unsplit) is None


def test_power_rows_grown_from_threads_stay_aligned(monkeypatch):
    # threads that grow one degree's rows at once each swap in a whole
    # tuple; rows appended to a shared list would be misaligned
    field = field_of(8)
    cases = []
    for d in range(2, 40, 3):
        roots = set(random.Random(d).sample(range(256), d))
        f = [1]
        for r in roots:
            f = poly_mul(field, f, [r, 1])
        cases.append((f, roots))
    want = gf2m._power_rows(field, 38)
    errors = []

    def search(start, first):
        start.wait(timeout=60)
        for f, roots in cases[first:] + cases[:first]:
            if poly_roots(field, f) != roots:
                errors.append(poly_deg(f))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(gf2m, "_POWER_ROWS", {})
            # every thread starts at once, on degree 38, 35 or 32
            start = threading.Barrier(6)
            threads = [threading.Thread(target=search, args=(start, -1 - i % 3)) for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            rows = gf2m._POWER_ROWS[8]
            assert rows == want[: len(rows)]
    finally:
        sys.setswitchinterval(interval)
    assert not errors


def test_brute_roots_guard_and_scan_semantics():
    f8 = GF2m(3)
    assert brute_roots(f8, [0, 0, 1]) == {0}
    with pytest.raises(ValueError):
        brute_roots(GF2m(17), [1, 1])
