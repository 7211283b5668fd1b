"""Syndrome computation and decoding tests.

Frozen vectors were computed by hand in GF(8)/GF(16) and cross-checked by
the enumeration oracles below before the decoder existed.
"""

import math
import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fzx import codec
from fzx.codec import (
    BchCode,
    DecodeFailure,
    expand_syndrome,
    rs_decode,
    support_from_syndrome,
    syndrome_from_support,
)
from fzx.gf2m import GF2m, field_of, poly_norm
from fzx.hamming import bch_params, random_codeword
from oracles import (
    SmallLinearCode,
    absolute_trace,
    bch_parity_rows,
    euclid_support_from_syndrome,
    gao_rs_decode,
    hamming_7_4,
    poly_eval,
    pow_mod,
    small_decode_brute,
    small_syndrome,
)


def oracle_syndrome(code, support):
    """Power sums by square and multiply on the carry-less oracle, which
    shares no code with the field."""
    f = code.field
    out = []
    for j in range(code.t):
        acc = 0
        for x in support:
            acc ^= pow_mod(x, 2 * j + 1, f.modulus)
        out.append(acc)
    return out


def test_syndrome_frozen_examples():
    code = BchCode(GF2m(3), 2)
    assert code.t == 2 and code.n == 7
    assert syndrome_from_support(code, set()) == [0, 0]
    assert syndrome_from_support(code, {3}) == [3, 4]
    assert oracle_syndrome(code, {3}) == [3, 4]
    a, b = {3}, {5}
    sa = syndrome_from_support(code, a)
    sb = syndrome_from_support(code, b)
    sab = syndrome_from_support(code, a ^ b)
    assert sab == [x ^ y for x, y in zip(sa, sb)]
    with pytest.raises(ValueError):
        syndrome_from_support(code, {0})


def test_syndrome_additivity_random():
    rng = random.Random(5)
    code = BchCode(GF2m(8), 4)
    for _ in range(200):
        a = set(rng.sample(range(1, 256), rng.randrange(0, 12)))
        b = set(rng.sample(range(1, 256), rng.randrange(0, 12)))
        sa = syndrome_from_support(code, a)
        sb = syndrome_from_support(code, b)
        assert syndrome_from_support(code, a ^ b) == [x ^ y for x, y in zip(sa, sb)]


def test_expand_syndrome():
    code = BchCode(GF2m(3), 2)
    assert expand_syndrome(code, [0, 0]) == [0, 0, 0, 0]
    # s_2 = 3^2 = 5, s_4 = s_2^2 = 7 in GF(8) with modulus 0b1011
    assert expand_syndrome(code, [3, 4]) == [3, 5, 4, 7]
    code1 = BchCode(GF2m(3), 1)
    f = GF2m(3)
    for a in range(8):
        assert expand_syndrome(code1, [a]) == [a, f.sqr(a)]
    # Frobenius consistency against a real support at higher t
    code4 = BchCode(GF2m(4), 4)
    supp = {1, 7, 9}
    full = expand_syndrome(code4, syndrome_from_support(code4, supp))
    f4 = GF2m(4)
    for i in range(1, 9):
        want = 0
        for x in supp:
            want ^= pow_mod(x, i, f4.modulus)
        assert full[i - 1] == want


def test_support_from_syndrome_frozen():
    code = BchCode(GF2m(3), 2)
    assert support_from_syndrome(code, [0, 0]) == set()
    assert support_from_syndrome(code, [3, 4]) == {3}


def test_support_round_trip_exhaustive_m4():
    f = GF2m(4)
    for t in (1, 2, 3):
        code = BchCode(f, t)
        cases = 0
        for w in range(t + 1):
            for supp in combinations(range(1, 16), w):
                got = support_from_syndrome(code, syndrome_from_support(code, set(supp)))
                assert got == set(supp)
                cases += 1
        if t == 2:
            assert cases == 105 + 15 + 1


@pytest.mark.parametrize("m,t_max", [(3, 3), (4, 3), (5, 3), (6, 2)])
def test_every_syndrome_decodes_exactly_when_a_support_has_it(monkeypatch, m, t_max):
    # Every syndrome of every code: exactly the sum_{k<=t} C(n, k) syndromes
    # of the supports of size <= t decode, each to its support, and every
    # other one raises DecodeFailure.  The re-check of support_from_syndrome
    # runs on each nonzero syndrome that decodes and is reached by no
    # failure: it never fires, as its docstring argues.
    real = codec.syndrome_from_support
    checked = []

    def recheck(code, support):
        checked.append(support)
        return real(code, support)

    monkeypatch.setattr(codec, "syndrome_from_support", recheck)
    f = GF2m(m)
    for t in range(1, t_max + 1):
        code = BchCode(f, t)
        decoded = 0
        for syn in product(range(1 << m), repeat=t):
            syn = list(syn)
            checked.clear()
            try:
                got = support_from_syndrome(code, syn)
            except DecodeFailure:
                assert not checked
                continue
            assert len(got) <= t and real(code, got) == syn
            assert checked == ([got] if any(syn) else [])
            decoded += 1
        assert decoded == sum(math.comb(code.n, k) for k in range(t + 1))


def test_support_round_trip_randomized_and_fail_loud():
    rng = random.Random(99)
    for m in (8, 10, 12):
        f = GF2m(m)
        # t = 6: the chance that a random weight-7 syndrome also has a
        # weight <= 6 preimage is about 1/6! = 0.14%, so the 99% explicit
        # failure floor holds with margin (at t the rate is ~1/t!)
        code = BchCode(f, 6)
        t = code.t
        failures = 0
        for _ in range(1000):
            supp = set(rng.sample(range(1, (1 << m)), t))
            syn = syndrome_from_support(code, supp)
            assert support_from_syndrome(code, syn) == supp
        for _ in range(1000):
            supp = set(rng.sample(range(1, (1 << m)), t + 1))
            syn = syndrome_from_support(code, supp)
            try:
                got = support_from_syndrome(code, syn)
            except DecodeFailure:
                failures += 1
                continue
            # ambiguity case: must still be verified-consistent, never silent
            assert len(got) <= t
            assert syndrome_from_support(code, got) == syn
        assert failures >= 990


def test_support_weight_beyond_capacity_near_code_ambiguity():
    # a syndrome reachable from two different low-weight patterns decodes to
    # the unique weight <= t one; constructing from t+1 errors may legally
    # land on it, but never on anything unverified
    code = BchCode(GF2m(4), 2)
    supp = {1, 2, 3}  # weight t+1
    syn = syndrome_from_support(code, supp)
    try:
        got = support_from_syndrome(code, syn)
        assert syndrome_from_support(code, got) == syn
        assert len(got) <= 2
    except DecodeFailure:
        pass


def test_rs_decode_interpolation_and_corruption():
    f = GF2m(3)
    target = [1, 1]  # z + 1
    pts = [(x, poly_eval(f, target, x)) for x in (1, 2, 3, 4)]
    assert rs_decode(f, pts, 1, 0) == target
    bad = list(pts)
    bad[2] = (3, bad[2][1] ^ 5)
    assert rs_decode(f, bad, 1, 1) == target


def test_rs_decode_constant_and_degree_zero():
    f = GF2m(4)
    pts = [(x, 9) for x in (1, 2, 3, 4, 5)]
    assert rs_decode(f, pts, 0, 1) == [9]
    # zero polynomial target
    zpts = [(x, 0) for x in (1, 2, 3)]
    assert rs_decode(f, zpts, 0, 0) == []


def test_rs_decode_ambiguity_tie_fails():
    f = GF2m(4)
    # deg_bound 1, max_wrong 2, six points: three on each of two lines.
    # 6 - 2 > 1 + 2 keeps the unique-decoding precondition, but no line
    # agrees with four points, so decoding must fail.
    l1 = [2, 1]
    l2 = [7, 9]
    xs1, xs2 = (1, 2, 3), (4, 5, 7)  # the lines cross at x=6, keep it out
    for x in xs1 + xs2:
        assert poly_eval(f, l1, x) != poly_eval(f, l2, x)
    pts = [(x, poly_eval(f, l1, x)) for x in xs1]
    pts += [(x, poly_eval(f, l2, x)) for x in xs2]
    with pytest.raises(DecodeFailure):
        rs_decode(f, pts, 1, 2)


def test_rs_decode_rejects_bad_parameters():
    f = GF2m(3)
    pts = [(1, 1), (1, 2), (3, 4)]
    with pytest.raises(ValueError):
        rs_decode(f, pts, 1, 0)  # duplicate x
    with pytest.raises(ValueError):
        rs_decode(f, [(1, 1), (2, 2)], 1, 1)  # outside unique regime


def brute_rs(field, points, deg_bound, max_wrong):
    """Every polynomial of degree <= deg_bound that disagrees with at most
    max_wrong of the points, by enumeration: for each choice of the
    non-constant coefficients, every constant term is scored at once by
    counting the residues y - (p(x) - p(0))."""
    out = []
    for tail in product(range(field.order + 1), repeat=deg_bound):
        residues = Counter(y ^ poly_eval(field, [0, *tail], x) for x, y in points)
        for c0, agree in residues.items():
            if agree >= len(points) - max_wrong:
                out.append(poly_norm([c0, *tail]))
    return out


def test_rs_decode_matches_brute_force_gf16():
    f = GF2m(4)
    rng = random.Random(4242)
    seen = Counter()
    for _ in range(400):
        deg_bound = rng.randint(0, 2)
        n = rng.randint(deg_bound + 1, 15)
        radius = (n - deg_bound - 1) // 2
        max_wrong = rng.randint(0, radius)
        target = [rng.randrange(16) for _ in range(deg_bound + 1)]
        pts = [(x, poly_eval(f, target, x)) for x in rng.sample(range(16), n)]
        wrong = min(n, rng.randint(0, max_wrong + 2))
        for i in rng.sample(range(n), wrong):
            pts[i] = (pts[i][0], pts[i][1] ^ rng.randint(1, 15))
        expected = brute_rs(f, pts, deg_bound, max_wrong)
        assert len(expected) <= 1  # unique-decoding regime
        if expected:
            assert rs_decode(f, pts, deg_bound, max_wrong) == expected[0]
        else:
            with pytest.raises(DecodeFailure):
                rs_decode(f, pts, deg_bound, max_wrong)
        seen["decoded" if expected else "failed"] += 1
        if max_wrong < radius:  # only the agreement check holds max_wrong
            seen["below-radius"] += 1
            if not expected and wrong <= radius:
                seen["rejected-inside-radius"] += 1
    assert min(seen[k] for k in ("decoded", "failed", "below-radius")) >= 20, seen
    assert seen["rejected-inside-radius"] >= 5, seen


def test_rs_decode_m16_32_points_8_errors():
    f = GF2m(16)
    rng = random.Random(16)
    target = [rng.randrange(1 << 16) for _ in range(15)] + [1]
    pts = [(x, poly_eval(f, target, x)) for x in rng.sample(range(1, 1 << 16), 32)]
    for i in rng.sample(range(32), 8):
        pts[i] = (pts[i][0], pts[i][1] ^ rng.randrange(1, 1 << 16))
    assert rs_decode(f, pts, 15, 8) == target


def _decoded(decode, *args):
    """What a decoder returns, or the type and message of what it raises."""
    try:
        return decode(*args)
    except (DecodeFailure, ValueError) as e:
        return type(e), str(e)


@settings(max_examples=400, derandomize=True, database=None, deadline=2000)
@given(m=st.sampled_from((2, 3, 4, 8, 13, 16, 24, 32)), zero_x=st.booleans(), data=st.data())
def test_rs_decode_matches_gao_lagrange(m, zero_x, data):
    # the same polynomial, or the same exception and message, as Gao's
    # decoder with Lagrange interpolation and an unconditional Euclid: up
    # to 40 points in the unique-decoding regime, with 0 to max_wrong + 2
    # errors, x = 0 among the points and all-zero ys
    f = field_of(m)
    elem = st.integers(0, f.order)
    n = data.draw(st.integers(1, min(40, f.order + zero_x)), label="n")
    deg_bound = data.draw(st.integers(0, n - 1), label="deg_bound")
    max_wrong = data.draw(st.integers(0, (n - deg_bound - 1) // 2), label="max_wrong")
    xs = data.draw(
        st.lists(st.integers(1, f.order), min_size=n - zero_x, max_size=n - zero_x, unique=True)
        .map(lambda xs: xs + [0] * zero_x)
        .flatmap(st.permutations),
        label="xs",
    )
    target = data.draw(st.lists(elem, min_size=deg_bound + 1, max_size=deg_bound + 1), label="target")
    pts = [(x, poly_eval(f, target, x)) for x in xs]
    wrong = data.draw(st.sets(st.integers(0, n - 1), max_size=max_wrong + 2), label="wrong")
    for i in sorted(wrong):
        pts[i] = (pts[i][0], data.draw(elem))
    want = _decoded(gao_rs_decode, f, pts, deg_bound, max_wrong)
    assert _decoded(rs_decode, f, pts, deg_bound, max_wrong) == want


def test_error_free_decode_takes_no_euclid_step(monkeypatch):
    # every point on a polynomial within the degree bound: the interpolant
    # is the answer, and only a wrong point brings in the Euclid
    f = field_of(16)
    rng = random.Random(23)
    target = [rng.randrange(1, 1 << 16) for _ in range(12)]
    pts = [(x, poly_eval(f, target, x)) for x in rng.sample(range(1, 1 << 16), 16)]
    euclid = codec._partial_euclid

    def no_euclid(*args):
        raise AssertionError("Euclid step on an error-free decode")

    monkeypatch.setattr(codec, "_partial_euclid", no_euclid)
    assert rs_decode(f, pts, 11, 2) == target
    assert rs_decode(f, [(x, 0) for x, _ in pts], 11, 2) == []
    calls = []
    monkeypatch.setattr(codec, "_partial_euclid", lambda *a: calls.append(a) or euclid(*a))
    pts[5] = (pts[5][0], pts[5][1] ^ 1)
    assert rs_decode(f, pts, 11, 2) == target
    assert len(calls) == 1


def test_small_linear_code_hamming():
    code = hamming_7_4()
    assert code.n == 7 and code.k == 4
    assert small_syndrome(code, 0) == 0
    # 1110000 read left to right as positions 1..7 is a codeword
    w = 0b0000111
    assert small_syndrome(code, w) == 0
    for i in range(7):
        assert small_syndrome(code, 1 << i) == i + 1
        flipped = w ^ (1 << i)
        syn = small_syndrome(code, flipped)
        err = small_decode_brute(code, syn)
        assert flipped ^ err == w
    assert small_decode_brute(code, 0) == 0


def test_small_decode_all_words_single_flip():
    code = hamming_7_4()
    # every word within distance 1 of a codeword decodes back to it
    codewords = [w for w in range(128) if small_syndrome(code, w) == 0]
    assert len(codewords) == 16
    for c in codewords:
        for i in range(7):
            word = c ^ (1 << i)
            err = small_decode_brute(code, small_syndrome(code, word))
            assert word ^ err == c


def test_small_decode_tie_numerically_smallest():
    # single parity row over 3 bits: syndrome 1 has leaders 001, 010, 100
    code = SmallLinearCode(3, (0b111,))
    assert small_decode_brute(code, 1) == 0b001


def test_small_linear_code_validation():
    with pytest.raises(ValueError):
        SmallLinearCode(25, (1,))
    with pytest.raises(ValueError):
        SmallLinearCode(4, (0b0110, 0b0011, 0b0101))  # dependent rows
    with pytest.raises(ValueError):
        SmallLinearCode(3, (0b1000,))  # row wider than n


def test_bch_agrees_with_small_brute_via_characteristic_vectors():
    f = GF2m(4)
    code = BchCode(f, 2)
    rows = bch_parity_rows(code)
    small = SmallLinearCode(15, tuple(rows))
    assert small.k == 15 - 8
    rng = random.Random(17)
    for w in range(3):
        for supp in [set(rng.sample(range(1, 16), w)) for _ in range(40)]:
            word = 0
            for x in supp:
                word |= 1 << (x - 1)
            syn_bits = small_syndrome(small, word)
            leader = small_decode_brute(small, syn_bits)
            got = support_from_syndrome(code, syndrome_from_support(code, supp))
            got_word = 0
            for x in got:
                got_word |= 1 << (x - 1)
            assert got_word == leader


def test_parity_row_bit_convention():
    f = GF2m(4)
    code = BchCode(f, 2)
    rows = bch_parity_rows(code)
    small = SmallLinearCode(15, tuple(rows))
    m = 4
    for supp in ({1}, {5, 9}, {3, 7}):
        word = 0
        for x in supp:
            word |= 1 << (x - 1)
        sums = syndrome_from_support(code, supp)
        packed = 0
        for s in sums:
            packed = (packed << m) | s
        assert small_syndrome(small, word) == packed


def test_random_codeword_consistent_and_spread():
    p = bch_params(4, 2)
    small = SmallLinearCode(15, tuple(bch_parity_rows(p)))
    rng = random.Random(23)
    seen = set()
    for _ in range(200):
        v = random_codeword(p, rng)
        assert small_syndrome(small, v) == 0
        seen.add(v)
    # 2^7 codewords; 200 uniform draws should hit many distinct ones
    assert len(seen) > 50


def test_bch_code_validation():
    f = GF2m(3)
    with pytest.raises(ValueError):
        BchCode(f, 0)
    with pytest.raises(ValueError):
        BchCode(f, 4)  # 2t + 1 = 9 > n = 7
    BchCode(f, 3)


def test_locator_that_round_zero_cannot_split_decodes():
    # Tr(3) = Tr(5) in GF(2^16), so the first splitting round, c = 1, leaves
    # the locator (z+3)(z+5) whole; a later round must split it
    f = field_of(16)
    assert absolute_trace(f, 3) == absolute_trace(f, 5)
    code = BchCode(f, 2)
    sums = syndrome_from_support(code, {f.inv(3), f.inv(5)})
    assert support_from_syndrome(code, sums) == {f.inv(3), f.inv(5)}
    # GF(2^8) is searched whole
    f8 = field_of(8)
    code8 = BchCode(f8, 2)
    sums8 = syndrome_from_support(code8, {f8.inv(3), f8.inv(5)})
    assert absolute_trace(f8, 3) == absolute_trace(f8, 5)
    assert support_from_syndrome(code8, sums8) == {f8.inv(3), f8.inv(5)}


# (m, largest t) of the decoder property: every t up to the bound is drawn
_DECODE_SHAPES = {4: 3, 5: 6, 8: 8, 10: 6, 16: 5}


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(m=st.sampled_from(sorted(_DECODE_SHAPES)), random_syndrome=st.booleans(), data=st.data())
def test_decoder_matches_the_euclid_oracle(m, random_syndrome, data):
    # the support, or a DecodeFailure, wherever the partial Euclid gives one
    f = field_of(m)
    t = data.draw(st.integers(1, _DECODE_SHAPES[m]), label="t")
    code = BchCode(f, t)
    if random_syndrome:
        sums = data.draw(st.lists(st.integers(0, f.order), min_size=t, max_size=t), label="sums")
    else:
        supp = data.draw(
            st.sets(st.integers(1, f.order), min_size=0, max_size=t + 3), label="support"
        )
        sums = syndrome_from_support(code, supp)
    try:
        want = euclid_support_from_syndrome(code, sums)
    except DecodeFailure:
        assert random_syndrome or len(supp) > t
        with pytest.raises(DecodeFailure):
            support_from_syndrome(code, sums)
        return
    assert support_from_syndrome(code, sums) == want
    assert len(want) <= t
    if not random_syndrome and len(supp) <= t:
        assert want == supp


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(m=st.integers(2, 8), data=st.data())
def test_support_from_syndrome_on_the_whole_field_search(m, data):
    # every t with 2t + 1 <= 2^m - 1, so locators up to degree 127: a
    # support of at most t comes back exactly; one of t+1..2t fails or
    # decodes to a support of at most t with the same syndrome
    f = field_of(m)
    t = data.draw(st.integers(1, (f.order - 1) // 2), label="t")
    code = BchCode(f, t)
    size = data.draw(st.integers(0, 2 * t), label="size")
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    supp = set(rng.sample(range(1, f.order + 1), size))
    sums = syndrome_from_support(code, supp)
    if size <= t:
        assert support_from_syndrome(code, sums) == supp
        return
    try:
        got = support_from_syndrome(code, sums)
    except DecodeFailure:
        return
    assert len(got) <= t
    assert syndrome_from_support(code, got) == sums
