"""Tests for the set-difference sketches (PinSketch, improved JS, original JS)."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fzx import setdiff
from fzx.cli import main
from fzx.codec import DecodeFailure, rs_decode
from fzx.envelope import deserialize, serialize_ijs
from fzx.gf2m import GF2m, field_of
from fzx.setdiff import (
    ElementSet,
    IjsSketchData,
    OrigJsSketchData,
    PinSketchData,
    ijs_rec,
    ijs_ss,
    origjs_rec,
    origjs_ss,
    pinsketch_rec,
    pinsketch_ss,
    setdiff_entropy_loss,
)
import oracles
from oracles import (
    JointDistribution,
    avg_min_entropy,
    char_poly,
    char_poly_top,
    ijs_rec_rs,
    poly_eval,
)


def _sets_equal(a: ElementSet, b) -> bool:
    return set(a.elems) == set(b)


# ---------------------------------------------------------------------------
# ElementSet basics


def test_element_set_validation():
    f = GF2m(4)
    s = ElementSet.of(f, [5, 1, 9])
    assert s.elems == (1, 5, 9)
    assert len(s) == 3
    with pytest.raises(ValueError):
        ElementSet.of(f, [1, 1, 2])
    with pytest.raises(ValueError):
        ElementSet.of(f, [0, 3])
    with pytest.raises(ValueError):
        ElementSet.of(f, [16])
    # direct construction demands sorted distinct elements
    with pytest.raises(ValueError):
        ElementSet(f, (3, 2))


# ---------------------------------------------------------------------------
# PinSketch


def test_pinsketch_frozen_example():
    # GF(8), t=2, w={3}: s1 = 3, s3 = 3^3.  With modulus x^3+x+1,
    # 3 = x+1, (x+1)^2 = x^2+1 = 5, (x+1)^3 = 5*3 = x^2 = 4.
    f = GF2m(3)
    sk = pinsketch_ss(ElementSet.of(f, [3]), 2)
    assert sk.odd_sums == (3, 4)
    assert sk.bit_length == 6
    # recovery from the empty set inverts the sketch
    got = pinsketch_rec(ElementSet.of(f, []), sk)
    assert _sets_equal(got, {3})


def test_pinsketch_empty_set_zero_sketch():
    f = GF2m(5)
    sk = pinsketch_ss(ElementSet.of(f, []), 3)
    assert sk.odd_sums == (0, 0, 0)


def test_pinsketch_linearity():
    # syndrome(a xor-set b) == syndrome(a) xor syndrome(b), elementwise
    f = GF2m(8)
    rng = random.Random(401)
    univ = list(range(1, f.order + 1))
    for _ in range(1000):
        a = set(rng.sample(univ, rng.randrange(0, 12)))
        b = set(rng.sample(univ, rng.randrange(0, 12)))
        sa = pinsketch_ss(ElementSet.of(f, a), 4).odd_sums
        sb = pinsketch_ss(ElementSet.of(f, b), 4).odd_sums
        sd = pinsketch_ss(ElementSet.of(f, a ^ b), 4).odd_sums
        assert sd == tuple(x ^ y for x, y in zip(sa, sb))


def test_pinsketch_round_trips_flexible_sizes():
    # sets of unequal, varying size; symmetric difference up to t
    f = GF2m(10)
    t = 5
    rng = random.Random(402)
    univ = list(range(1, f.order + 1))
    for _ in range(1000):
        w = set(rng.sample(univ, rng.randrange(1, 31)))
        n_rm = rng.randrange(0, min(t, len(w)) + 1)
        n_add = rng.randrange(0, t - n_rm + 1)
        removed = set(rng.sample(sorted(w), n_rm))
        added = set(rng.sample(sorted(set(univ) - w), n_add))
        w_prime = (w - removed) | added
        sk = pinsketch_ss(ElementSet.of(f, w), t)
        got = pinsketch_rec(ElementSet.of(f, w_prime), sk)
        assert _sets_equal(got, w)


def test_pinsketch_beyond_capacity_fails_loud():
    # t+2 differences: decoding must raise, except for the rare alias whose
    # syndrome genuinely matches; such an answer must still be consistent.
    f = GF2m(10)
    t = 5
    rng = random.Random(403)
    univ = list(range(1, f.order + 1))
    failures = 0
    for _ in range(200):
        w = set(rng.sample(univ, 20))
        added = set(rng.sample(sorted(set(univ) - w), t + 2))
        w_prime = w | added
        sk = pinsketch_ss(ElementSet.of(f, w), t)
        try:
            got = pinsketch_rec(ElementSet.of(f, w_prime), sk)
        except DecodeFailure:
            failures += 1
            continue
        diff = set(got.elems) ^ w_prime
        assert len(diff) <= t
        assert pinsketch_ss(got, t).odd_sums == sk.odd_sums
    assert failures >= 190


def test_pinsketch_storage_matches_loss():
    f = GF2m(10)
    sk = pinsketch_ss(ElementSet.of(f, [1, 2, 3]), 5)
    loss = setdiff_entropy_loss("pinsketch", m=10, t=5)
    assert sk.bit_length == loss == 50.0


def test_pinsketch_field_mismatch():
    sk = pinsketch_ss(ElementSet.of(GF2m(4), [1]), 2)
    with pytest.raises(ValueError):
        pinsketch_rec(ElementSet.of(GF2m(5), [1]), sk)


# ---------------------------------------------------------------------------
# Improved JS (fixed-size sets, top characteristic coefficients)


def test_char_poly_frozen_example():
    # (z+1)(z+2)(z+4) over GF(8) = z^3 + 7z^2 + 5z + 3
    f = GF2m(3)
    assert char_poly(f, [1, 2, 4]) == [3, 5, 7, 1]
    assert char_poly(f, []) == [1]


def test_char_poly_roots_are_elements():
    f = GF2m(6)
    rng = random.Random(404)
    for _ in range(50):
        elems = rng.sample(range(1, f.order + 1), 6)
        p = char_poly(f, elems)
        assert all(poly_eval(f, p, x) == 0 for x in elems)
        assert poly_eval(f, p, 0) != 0  # 0 is never an element


def test_ijs_frozen_example():
    # w = {1,2,4} in GF(8), t=2: coefficients of z^2 and z^1 of char_poly
    f = GF2m(3)
    sk = ijs_ss(ElementSet.of(f, [1, 2, 4]), 2)
    assert sk.top_coeffs == (7, 5)
    assert sk.s == 3 and sk.t == 2
    assert sk.bit_length == 6
    # one swapped element: {1,2,5} recovers {1,2,4}
    got = ijs_rec(ElementSet.of(f, [1, 2, 5]), sk)
    assert _sets_equal(got, {1, 2, 4})
    # identity recovery
    got = ijs_rec(ElementSet.of(f, [1, 2, 4]), sk)
    assert _sets_equal(got, {1, 2, 4})


def test_ijs_roots_that_round_zero_cannot_split_recover():
    # t = s: recovery takes the roots of (z+3)(z+5).  Over GF(2^16) 3 and 5
    # have the same absolute trace, so the first splitting round, c = 1,
    # leaves it whole and a later round must split it
    w16 = ElementSet.of(field_of(16), [3, 5])
    assert ijs_rec(w16, ijs_ss(w16, 2)) == w16
    # GF(2^8) is searched whole
    w8 = ElementSet.of(field_of(8), [3, 5])
    assert ijs_rec(w8, ijs_ss(w8, 2)) == w8


def test_ijs_determinism_and_size_checks():
    f = GF2m(4)
    w = ElementSet.of(f, [1, 5, 9, 12])
    assert ijs_ss(w, 2) == ijs_ss(w, 2)
    with pytest.raises(ValueError):
        ijs_rec(ElementSet.of(f, [1, 5, 9]), ijs_ss(w, 2))  # wrong size
    with pytest.raises(ValueError):
        ijs_ss(w, 6)  # t > |w|


def test_ijs_odd_capacity_rounds_down():
    f = GF2m(4)
    w = ElementSet.of(f, [1, 5, 9, 12])
    with pytest.warns(UserWarning):
        sk = ijs_ss(w, 3)
    assert sk.t == 2
    assert sk == ijs_ss(w, 2)
    # an odd t one above |w| rounds down before the size check
    with pytest.warns(UserWarning):
        assert ijs_ss(w, 5) == ijs_ss(w, 4)


def test_ijs_t_equals_s_boundary():
    # t == s stores every non-monic coefficient; any size-s set recovers w
    f = GF2m(4)
    w = {3, 7, 11}
    sk = ijs_ss(ElementSet.of(f, sorted(w | {1})), 4)
    assert sk.t == 4
    got = ijs_rec(ElementSet.of(f, [2, 5, 8, 14]), sk)
    assert _sets_equal(got, w | {1})


def test_ijs_root_zero_at_t_equals_s_fails_decode(tmp_path):
    # t = s = 2 with coefficients (3, 0): z^2 + 3z has the roots 0 and 3,
    # and 0 is no element, so the guard turns it into DecodeFailure rather
    # than ElementSet's ValueError (which the CLI would report as exit 4)
    from fzx.cli import main

    f = GF2m(4)
    sk = IjsSketchData(f, 2, 2, (3, 0))
    with pytest.raises(DecodeFailure, match="not a valid size-s set"):
        ijs_rec(ElementSet.of(f, [1, 2]), sk)
    env = tmp_path / "ijs0.bin"
    env.write_bytes(b"FZX1\x04\x04\x00\x02\x00\x02\x30")
    w = tmp_path / "w.set"
    w.write_text("1\n2\n")
    assert main(["recover", "-i", str(w), "--sketch", str(env)]) == 2


@pytest.mark.parametrize("s", [3, 4])
def test_ijs_coefficient_recheck_never_fires(monkeypatch, s):
    # Every pair of top coefficients, realisable or not, against every w' of
    # size s in GF(8)*, t = 2: ijs_rec returns the set with that sketch
    # within distance t of w' when there is one, and raises DecodeFailure
    # otherwise.  The closing re-check recomputes the coefficients of each
    # set it returns and is reached by no failure: it never fires, as
    # ijs_rec's docstring argues.
    f, t = GF2m(3), 2
    sets = list(itertools.combinations(range(1, 8), s))
    by_sketch = {}
    for w in sets:
        by_sketch.setdefault(ijs_ss(ElementSet(f, w), t).top_coeffs, []).append(set(w))
    real = setdiff._top_coeffs
    coeffs_of = []

    def top_coeffs(field, elems, t):
        coeffs_of.append(tuple(elems))
        return real(field, elems, t)

    monkeypatch.setattr(setdiff, "_top_coeffs", top_coeffs)
    for top in itertools.product(range(8), repeat=t):
        sk = IjsSketchData(f, s, t, top)
        for wp in sets:
            want = [w for w in by_sketch.get(top, []) if len(w ^ set(wp)) <= t]
            coeffs_of.clear()
            try:
                got = ijs_rec(ElementSet(f, wp), sk)
            except DecodeFailure:
                assert not want and coeffs_of == [wp]
                continue
            assert [set(got.elems)] == want and coeffs_of == [wp, got.elems]


def _ijs_round_trip(f, base, w_prime, t):
    sk = ijs_ss(ElementSet.of(f, base), t)
    got = ijs_rec(ElementSet.of(f, sorted(w_prime)), sk)
    assert _sets_equal(got, base)


def test_ijs_exhaustive_small_sizes():
    # all base sets and all <=t/2 swaps for s in {2,3}, t=2 over GF(16)
    f = GF2m(4)
    univ = set(range(1, 16))
    for s in (2, 3):
        for base in itertools.combinations(sorted(univ), s):
            base_set = set(base)
            _ijs_round_trip(f, base_set, base_set, 2)
            for out in base:
                for into in univ - base_set:
                    _ijs_round_trip(f, base_set, base_set - {out} | {into}, 2)


@pytest.mark.parametrize("s,t,n_bases", [(4, 2, 60), (5, 2, 60), (6, 2, 60),
                                         (4, 4, 25), (5, 4, 25), (6, 4, 25)])
def test_ijs_sampled_grid(s, t, n_bases):
    # larger sizes: sampled base sets, exhaustive swap patterns up to t/2
    f = GF2m(4)
    univ = set(range(1, 16))
    rng = random.Random(1000 * s + t)
    for _ in range(n_bases):
        base = set(rng.sample(sorted(univ), s))
        for d in range(t // 2 + 1):
            outs = rng.sample(sorted(base), d)
            ins = rng.sample(sorted(univ - base), d)
            _ijs_round_trip(f, base, base - set(outs) | set(ins), t)


def test_ijs_round_trips_larger_field():
    f = GF2m(10)
    s, t = 20, 4
    rng = random.Random(405)
    univ = list(range(1, f.order + 1))
    for _ in range(300):
        base = set(rng.sample(univ, s))
        d = rng.randrange(0, t // 2 + 1)
        outs = set(rng.sample(sorted(base), d))
        ins = set(rng.sample(sorted(set(univ) - base), d))
        _ijs_round_trip(f, base, base - outs | ins, t)


def test_ijs_beyond_capacity_fails_loud():
    # swap t/2 + 1 elements: raise, or return a set the sketch itself endorses
    f = GF2m(10)
    s, t = 20, 4
    rng = random.Random(406)
    univ = list(range(1, f.order + 1))
    failures = 0
    for _ in range(200):
        base = set(rng.sample(univ, s))
        outs = set(rng.sample(sorted(base), t // 2 + 1))
        ins = set(rng.sample(sorted(set(univ) - base), t // 2 + 1))
        sk = ijs_ss(ElementSet.of(f, base), t)
        try:
            got = ijs_rec(ElementSet.of(f, sorted(base - outs | ins)), sk)
        except DecodeFailure:
            failures += 1
            continue
        assert len(got) == s
        assert ijs_ss(got, t) == sk
    assert failures >= 180


def test_ijs_storage_matches_loss():
    f = GF2m(10)
    sk = ijs_ss(ElementSet.of(f, list(range(1, 21))), 4)
    assert sk.bit_length == 40 == setdiff_entropy_loss("ijs", m=10, t=4)


# ---------------------------------------------------------------------------
# Improved JS properties, against the Reed-Solomon reference decoder


def _outcome(rec, w_prime, sk):
    try:
        return rec(w_prime, sk).elems
    except DecodeFailure:
        return "DecodeFailure"


def _swapped(data, f, base, lo, hi):
    """base with d of its elements swapped for outsiders, lo <= d <= hi
    (both capped at what the universe allows)."""
    cap = min(len(base), f.order - len(base))
    d = data.draw(st.integers(min(lo, cap), min(hi, cap)), label="swaps")
    if d == 0:
        return set(base), 0
    outs = data.draw(st.sets(st.sampled_from(sorted(base)), min_size=d, max_size=d), label="outs")
    ins = data.draw(st.sets(st.integers(1, f.order).filter(lambda x: x not in base),
                            min_size=d, max_size=d), label="ins")
    return base - outs | ins, d


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(m=st.sampled_from([4, 8, 16]), data=st.data())
def test_ijs_sketch_is_the_top_of_the_characteristic_polynomial(m, data):
    f = field_of(m)
    w = data.draw(st.sets(st.integers(1, f.order), max_size=20), label="w")
    t = data.draw(st.integers(0, len(w) // 2), label="t/2") * 2
    assert ijs_ss(ElementSet.of(f, w), t).top_coeffs == char_poly_top(f, w, t)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(m=st.sampled_from([4, 5, 8, 16]), beyond=st.booleans(), data=st.data())
def test_ijs_rec_agrees_with_reed_solomon_reference(m, beyond, data):
    # the same set, or DecodeFailure on both sides, within and beyond t/2
    f = field_of(m)
    s = data.draw(st.integers(0, min(20, f.order // 2)), label="s")
    t = data.draw(st.integers(0, s // 2), label="t/2") * 2
    base = data.draw(st.sets(st.integers(1, f.order), min_size=s, max_size=s), label="w")
    lo, hi = (t // 2 + 1, t // 2 + 3) if beyond else (0, t // 2)
    w_prime, d = _swapped(data, f, base, lo, hi)
    sk = ijs_ss(ElementSet.of(f, base), t)
    got = _outcome(ijs_rec, ElementSet.of(f, w_prime), sk)
    assert got == _outcome(ijs_rec_rs, ElementSet.of(f, w_prime), sk)
    if d <= t // 2:
        assert got == tuple(sorted(base))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(m=st.sampled_from([4, 8, 16]), hostile=st.booleans(), data=st.data())
def test_ijs_odd_t_from_the_wire_recovers_within_half(m, hostile, data):
    # ijs_ss never writes an odd t, but a foreign envelope may carry one
    f = field_of(m)
    s = data.draw(st.integers(1, min(20, f.order // 2)), label="s")
    t = data.draw(st.integers(0, (s - 1) // 2), label="t//2") * 2 + 1
    base = data.draw(st.sets(st.integers(1, f.order), min_size=s, max_size=s), label="w")
    if hostile:
        coeffs = tuple(data.draw(st.lists(st.integers(0, f.order), min_size=t, max_size=t)))
    else:
        coeffs = char_poly_top(f, base, t)
    env = deserialize(serialize_ijs(IjsSketchData(f, s, t, coeffs)))
    sk = env.sketch
    assert (sk.t, sk.top_coeffs) == (t, coeffs)
    w_prime, d = _swapped(data, f, base, 0, t // 2 + 2)
    try:
        got = ijs_rec(ElementSet.of(f, w_prime), sk)
    except (DecodeFailure, ValueError):
        assert hostile or d > t // 2
        return
    assert len(got) == s and char_poly_top(f, got.elems, t) == coeffs
    if not hostile and d <= t // 2:
        assert set(got.elems) == base


# ---------------------------------------------------------------------------
# Original JS (polynomial + chaff points)


def _interpolate_through(f, pairs, deg_bound):
    # unique low-degree polynomial through every point, no errors tolerated
    return rs_decode(f, pairs, deg_bound, 0)


def test_origjs_construction_postconditions():
    # genuine pairs lie on one low-degree polynomial, chaff never does
    f = GF2m(8)
    rng = random.Random(407)
    for trial in range(50):
        w = set(rng.sample(range(1, 256), 10))
        s, t, r = 10, 2, 40
        sk = origjs_ss(ElementSet.of(f, w), r, t, rng)
        assert len(sk.pairs) == r
        xs = [x for x, _ in sk.pairs]
        assert xs == sorted(xs) and len(set(xs)) == r
        assert w <= set(xs)
        genuine = [(x, y) for x, y in sk.pairs if x in w]
        p = _interpolate_through(f, genuine, s - t - 1)
        for x, y in sk.pairs:
            if x not in w:
                assert poly_eval(f, p, x) != y


class _StatelessRandom(random.Random):
    """A seeded generator that refuses `getstate`/`setstate`, as
    `random.SystemRandom` does, and counts its draws from [0, 2^m)."""

    y_draws = 0

    def randrange(self, start, stop=None, step=1):
        self.y_draws += start == 0
        return super().randrange(start, stop, step)

    def getstate(self):
        raise NotImplementedError

    def setstate(self, state):
        raise NotImplementedError


# (s, r) per degree m, both chaff branches each: sparse chaff draws x by
# rejection, dense chaff samples the pool of free abscissas
_ORIGJS_SHAPES = {
    4: ((3, 6), (3, 15), (4, 10)),
    5: ((4, 12), (4, 20)),
    6: ((6, 24), (6, 40)),
    8: ((10, 60), (10, 200)),
    16: ((16, 64), (4, 21850)),
}


@pytest.mark.parametrize("m", sorted(_ORIGJS_SHAPES))
def test_origjs_ss_matches_scalar_oracle(m):
    # same sketch and same random stream as the point-by-point oracle, on a
    # generator without state access; a sparse chaff y landing on p(x) is
    # redrawn after every chaff pair has been drawn
    f = field_of(m)
    seeds_with_redraw, branches = 0, set()
    for s, r in _ORIGJS_SHAPES[m]:
        sparse = 3 * (r - s) < f.order - s
        branches.add(sparse)
        for seed in range(300 if m < 16 else (40 if sparse else 2)):
            pick = random.Random(seed)
            w = ElementSet.of(f, pick.sample(range(1, f.order + 1), s))
            t = pick.randrange(0, s + 1)
            ours, theirs = _StatelessRandom(seed), random.Random(seed)
            assert origjs_ss(w, r, t, ours) == oracles.origjs_ss(w, r, t, theirs)
            assert random.Random.getstate(ours) == theirs.getstate()
            # s - t coefficients and r - s chaff y, plus one per redraw
            seeds_with_redraw += sparse and ours.y_draws > r - t
    assert branches == {True, False}
    if m < 16:
        assert seeds_with_redraw >= 20


class _CollidingSystemRandom(random.SystemRandom):
    """OS randomness, except that the first chaff y repeats the first
    coefficient drawn, which is p itself when p is constant."""

    def __init__(self):
        super().__init__()
        self.y_draws = []

    def randrange(self, start, stop=None, step=1):
        y = super().randrange(start, stop, step)
        if start == 0:
            self.y_draws.append(self.y_draws[0] if len(self.y_draws) == 1 else y)
            return self.y_draws[-1]
        return y


@pytest.mark.parametrize("m, s, r", [(16, 16, 64), (4, 4, 15)], ids=["sparse", "dense"])
def test_origjs_ss_redraws_a_chaff_y_on_p_under_system_random(m, s, r):
    f = field_of(m)
    rng = _CollidingSystemRandom()
    w = ElementSet.of(f, rng.sample(range(1, f.order + 1), s))
    sk = origjs_ss(w, r, s - 1, rng)
    c = rng.y_draws[0]
    assert rng.y_draws[1] == c and len(rng.y_draws) >= r - s + 2
    assert all((y == c) == (x in w.elems) for x, y in sk.pairs)
    assert origjs_rec(w, sk) == w


def test_origjs_seed_determinism():
    f = GF2m(8)
    w = ElementSet.of(f, [4, 9, 77, 200])
    a = origjs_ss(w, 12, 2, random.Random(11))
    b = origjs_ss(w, 12, 2, random.Random(11))
    assert a == b


def test_origjs_full_universe_boundary():
    # r = 2^m - 1 uses every nonzero abscissa
    f = GF2m(4)
    rng = random.Random(408)
    w = set(rng.sample(range(1, 16), 4))
    sk = origjs_ss(ElementSet.of(f, w), 15, 2, rng)
    assert [x for x, _ in sk.pairs] == list(range(1, 16))
    got = origjs_rec(ElementSet.of(f, w), sk)
    assert _sets_equal(got, w)
    with pytest.raises(ValueError):
        origjs_ss(ElementSet.of(f, w), 16, 2, rng)


def test_origjs_round_trips():
    # identity and t/2 swapped elements, which w' selects as chaff pairs
    # (wrong points) in odd trials and misses (fewer points) otherwise:
    # m=8; m=16, the fuzzy-extract shape on the log tables; and m=24, a
    # window field where every inverse runs the extended Euclid
    rng = random.Random(409)
    for m, s, t, r, trials in ((8, 10, 2, 40, 300), (16, 16, 4, 64, 100), (24, 12, 4, 40, 40)):
        f = field_of(m)
        for trial in range(trials):
            w = set(rng.sample(range(1, f.order + 1), s))
            sk = origjs_ss(ElementSet.of(f, w), r, t, rng)
            assert _sets_equal(origjs_rec(ElementSet.of(f, w), sk), w)
            if trial % 2:
                ins = set(rng.sample(sorted({x for x, _ in sk.pairs} - w), t // 2))
            else:
                ins = set()
                while len(ins) < t // 2:
                    x = rng.randrange(1, f.order + 1)
                    if x not in w:
                        ins.add(x)
            w_prime = w - set(rng.sample(sorted(w), t // 2)) | ins
            assert _sets_equal(origjs_rec(ElementSet.of(f, w_prime), sk), w)


@pytest.mark.parametrize("m", [4, 8, 16])
def test_t_equals_s_recovers_from_any_set_of_the_right_size(m):
    # at t == s the ijs sketch is the whole characteristic polynomial and
    # the origjs polynomial is zero, so a w' disjoint from w (for origjs,
    # half of it chaff abscissas) still recovers w
    rng = random.Random(m)
    f = field_of(m)
    for _ in range(20):
        s = rng.randrange(1, 6)
        w = set(rng.sample(range(1, f.order + 1), s))
        far = sorted(set(range(1, f.order + 1)) - w)
        if s % 2 == 0:  # ijs capacities are even
            sk = ijs_ss(ElementSet.of(f, w), s)
            assert _sets_equal(ijs_rec(ElementSet.of(f, rng.sample(far, s)), sk), w)
        ok = origjs_ss(ElementSet.of(f, w), s + 6, s, rng)
        chaff = sorted({x for x, _ in ok.pairs} - w)
        w_prime = set(rng.sample(chaff, s // 2))
        w_prime |= set(rng.sample(sorted(set(far) - w_prime - set(chaff)), s - len(w_prime)))
        assert _sets_equal(origjs_rec(ElementSet.of(f, w_prime), ok), w)


def test_origjs_beyond_capacity_correct_or_loud():
    # t+2 differences: either DecodeFailure, or the genuine points still
    # dominate and the original set comes back exactly (never silent garbage)
    f = GF2m(8)
    s, t, r = 10, 2, 40
    rng = random.Random(410)
    univ = list(range(1, 256))
    outcomes = {"ok": 0, "fail": 0}
    for _ in range(200):
        w = set(rng.sample(univ, s))
        sk = origjs_ss(ElementSet.of(f, w), r, t, rng)
        outs = set(rng.sample(sorted(w), 2))
        ins = set(rng.sample(sorted(set(univ) - w), 2))
        try:
            got = origjs_rec(ElementSet.of(f, w - outs | ins), sk)
        except DecodeFailure:
            outcomes["fail"] += 1
            continue
        assert _sets_equal(got, w)
        outcomes["ok"] += 1
    assert outcomes["ok"] + outcomes["fail"] == 200
    assert outcomes["ok"] > 0  # redundancy usually rides out two extra errors


def test_origjs_too_few_indexed_pairs():
    # w' sharing nothing with the sketch abscissas cannot select s-t points
    f = GF2m(6)
    rng = random.Random(411)
    w = ElementSet.of(f, [1, 2, 3, 4])
    sk = origjs_ss(w, 6, 2, rng)
    xs = {x for x, _ in sk.pairs}
    outside = sorted(set(range(1, 64)) - xs)[:4]
    with pytest.raises(DecodeFailure):
        origjs_rec(ElementSet.of(f, outside), sk)


def test_origjs_residual_entropy_bound():
    # m=4, r = full universe: the average min-entropy of a uniform size-s
    # set given its sketch, enumerated over a grid of sketch randomness,
    # must clear min_entropy - loss.  At s=4, t=2, r=15 the closed form
    # gives loss = 10.41504, H_inf = log2 C(15,4) = 10.41469, so the bound
    # sits at -0.00035; the enumerated value is >= 0 with near-unique
    # sketches, and both sides are computed rather than assumed.
    f = GF2m(4)
    s, t, r = 4, 2, 15
    loss = setdiff_entropy_loss("origjs", m=4, t=t, s=s, r=r)
    h_inf = math.log2(math.comb(15, s))
    assert h_inf - loss == pytest.approx(-0.00035, abs=1e-4)
    wsets = list(itertools.combinations(range(1, 16), s))
    for seed in range(6):
        rng = random.Random(seed)
        probs: dict = {}
        for w in wsets:
            sk = origjs_ss(ElementSet(f, w), r, t, rng)
            key = bytes(v for pair in sk.pairs for v in pair)
            probs[(bytes(w), key)] = probs.get((bytes(w), key), 0.0) + 1 / len(wsets)
        assert avg_min_entropy(JointDistribution(probs)) >= h_inf - loss


# ---------------------------------------------------------------------------
# Entropy loss closed forms


def test_entropy_loss_values():
    assert setdiff_entropy_loss("pinsketch", m=10, t=5) == pytest.approx(50.0)
    assert setdiff_entropy_loss("ijs", m=10, t=5) == pytest.approx(50.0)
    got = setdiff_entropy_loss("origjs", m=4, t=2, s=4, r=8)
    want = 8 + math.log2(math.comb(16, 8)) - math.log2(math.comb(12, 4)) + 2
    assert got == pytest.approx(want)
    assert got == pytest.approx(14.700, abs=1e-3)


def test_entropy_loss_validation():
    with pytest.raises(ValueError):
        setdiff_entropy_loss("pinsketch", m=0, t=5)
    assert setdiff_entropy_loss("ijs", m=10, t=0) == 0.0  # degenerate capacity
    with pytest.raises(ValueError):
        setdiff_entropy_loss("ijs", m=10, t=-1)
    with pytest.raises(ValueError):
        setdiff_entropy_loss("origjs", m=4, t=2)  # s, r required
    with pytest.raises(ValueError):
        setdiff_entropy_loss("origjs", m=4, t=2, s=8, r=8)  # need s < r
    with pytest.raises(ValueError):
        setdiff_entropy_loss("origjs", m=4, t=1, s=2, r=16)  # GF(2^4)* has 15 elements
    with pytest.raises(ValueError):
        setdiff_entropy_loss("origjs", m=4, t=5, s=2, r=8)  # need t <= s
    with pytest.raises(ValueError):
        setdiff_entropy_loss("origjs", m=4, t=2, s=4, r=17)  # r > 2^m
    with pytest.raises(ValueError):
        setdiff_entropy_loss("bogus", m=4, t=2)
