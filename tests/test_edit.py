"""Tests for shingling, recovery info, and edit-distance sketches."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fzx.codec import DecodeFailure
from fzx.edit import (
    EditSketch,
    RecoveryInfo,
    approx_edit_entropy_loss,
    edit_capacity,
    edit_entropy_loss,
    edit_rec,
    edit_ss,
    optimal_shingle_len,
    recovery_info,
    shingle,
    unshingle,
)
from fzx.envelope import deserialize, serialize_edit
from fzx.setdiff import ElementSet, PinSketchData, pinsketch_ss


def _random_word(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def _apply_edits(rng, w, k):
    # k single-character insertions/deletions at random positions
    chars = list(w)
    for _ in range(k):
        if chars and rng.random() < 0.5:
            del chars[rng.randrange(len(chars))]
        else:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice("01"))
    return "".join(chars)


# ---------------------------------------------------------------------------
# Shingling and recovery info


def test_shingle_worked_example():
    got = shingle("abcdecdeah", 3)
    assert got == frozenset({"abc", "bcd", "cde", "dec", "ecd", "dea", "eah"})
    assert len(got) == 7


def test_shingle_edge_cases():
    assert shingle("abcd", 4) == frozenset({"abcd"})
    assert shingle("aaaa", 2) == frozenset({"aa"})
    with pytest.raises(ValueError):
        shingle("abc", 0)
    # a string shorter than c has no window: the set is empty, not an error
    assert shingle("abc", 4) == frozenset()


def test_shingle_set_validation():
    # unshingle needs a nonempty set of windows of one length
    with pytest.raises(ValueError, match="cannot be empty"):
        unshingle(frozenset(), RecoveryInfo(5, (1, 2)))
    with pytest.raises(ValueError, match="one length"):
        unshingle(frozenset({"abc", "ab"}), RecoveryInfo(5, (1, 2)))
    with pytest.raises(ValueError, match="one length"):
        unshingle(frozenset({""}), RecoveryInfo(5, (1,)))


def test_recovery_info_worked_example():
    # disjoint partition abc|dec|dea + final window eah, 1-based sorted ranks
    assert recovery_info("abcdecdeah", 3).indices == (1, 5, 4, 6)


def test_recovery_info_edges():
    assert recovery_info("xyz", 3) == RecoveryInfo(3, (1,))
    # length 5, c=3: two blocks, the second is the last three characters
    g = recovery_info("abcde", 3)
    assert len(g.indices) == 2
    ordered = sorted(shingle("abcde", 3))
    assert ordered[g.indices[1] - 1] == "cde"
    with pytest.raises(ValueError):
        RecoveryInfo(0, (1,))
    with pytest.raises(ValueError):
        RecoveryInfo(4, (0, 1))


def test_unshingle_worked_example():
    w = "abcdecdeah"
    assert unshingle(shingle(w, 3), recovery_info(w, 3)) == w


def test_unshingle_single_shingle():
    assert unshingle(shingle("abc", 3), recovery_info("abc", 3)) == "abc"


def test_unshingle_identity_sweep():
    rng = random.Random(500)
    for _ in range(10_000):
        n = rng.randrange(8, 129)
        c = rng.randrange(2, 9)
        w = _random_word(rng, n)
        assert unshingle(shingle(w, c), recovery_info(w, c)) == w


def test_unshingle_bytes():
    w = b"\x01\x02\x03\x02\x03\xff"
    assert unshingle(shingle(w, 2), recovery_info(w, 2)) == w


def test_unshingle_bad_indices():
    ss = shingle("abcde", 3)
    with pytest.raises(ValueError):
        unshingle(ss, RecoveryInfo(5, (1, 9)))  # index out of range
    with pytest.raises(ValueError):
        unshingle(ss, RecoveryInfo(5, (1, 2, 3)))  # wrong count
    with pytest.raises(ValueError):
        unshingle(ss, RecoveryInfo(2, (1,)))  # n shorter than c


# ---------------------------------------------------------------------------
# Shingle-set distance under edits


def test_single_deletion_distance_bound():
    rng = random.Random(501)
    for c in (3, 4, 5):
        for _ in range(200):
            w = _random_word(rng, 48)
            chars = list(w)
            del chars[rng.randrange(len(chars))]
            w2 = "".join(chars)
            diff = shingle(w, c) ^ shingle(w2, c)
            assert len(diff) <= 2 * c - 1


def test_distance_bound_sweep():
    # |SH_c(w) symdiff SH_c(w')| <= (2c-1)k for k <= 3 random edits
    rng = random.Random(502)
    for _ in range(1500):
        c = rng.choice((3, 4, 5))
        k = rng.randrange(1, 4)
        w = _random_word(rng, rng.randrange(16, 80))
        w2 = _apply_edits(rng, w, k)
        if len(w2) < c:
            continue
        diff = shingle(w, c) ^ shingle(w2, c)
        assert len(diff) <= (2 * c - 1) * k


# ---------------------------------------------------------------------------
# Secure sketch round trips


def test_edit_sketch_identity():
    w = "0110100110010110" * 4
    sk = edit_ss(w, 4, 2)
    assert isinstance(sk.s1, PinSketchData)
    assert sk.s1.t == 14  # (2c-1) * t_edit
    assert sk.s2.n == 64
    assert edit_rec(w, sk) == w


def test_edit_sketch_round_trips():
    rng = random.Random(503)
    c = optimal_shingle_len(64, 2, 2)
    assert c == 4
    for _ in range(300):
        w = _random_word(rng, 64)
        sk = edit_ss(w, c, 2)
        w2 = _apply_edits(rng, w, rng.randrange(0, 3))
        if len(w2) < c:
            continue
        assert edit_rec(w2, sk) == w


def test_edit_sketch_length_change():
    # w' shorter and longer than w by a full edit budget
    rng = random.Random(504)
    w = _random_word(rng, 64)
    sk = edit_ss(w, 4, 2)
    assert edit_rec(w[1:-1], sk) == w
    assert edit_rec("1" + w + "0", sk) == w


def test_edit_rec_from_a_word_shorter_than_c():
    # "101" is two deletions from "10110" but has no 4-shingle: the sketch's
    # capacity of 14 holds the whole shingle set {1011, 0110}
    assert edit_rec("101", edit_ss("10110", 4, 2)) == "10110"
    # the empty word is three edits from "011", but its shingle set differs
    # by only {01, 11}, within the capacity of 3
    assert edit_rec("", edit_ss("011", 2, 1)) == "011"


def test_edit_sketch_bytes_alphabet():
    rng = random.Random(505)
    w = bytes(rng.randrange(256) for _ in range(24))
    sk = edit_ss(w, 2, 1)
    chars = list(w)
    del chars[7]
    assert edit_rec(bytes(chars), sk) == w


def test_edit_beyond_capacity_never_silently_wrong():
    # random binary strings nearly saturate the 16-shingle universe at c=4,
    # so extra edits barely move the shingle set and recovery usually still
    # lands on w; the contract is only that a wrong answer is never silent
    rng = random.Random(506)
    for _ in range(100):
        w = _random_word(rng, 64)
        sk = edit_ss(w, 4, 2)
        w2 = _apply_edits(rng, w, 4)  # t_edit + 2
        if len(w2) < 4:
            continue
        try:
            got = edit_rec(w2, sk)
        except DecodeFailure:
            continue
        assert got == w or edit_ss(got, 4, 2) == sk


def test_edit_irreconcilable_input_fails_loud():
    # a w' with a one-element shingle set overshoots the capacity whenever
    # SH_4(w) is saturated; decoding must raise or return w itself
    rng = random.Random(507)
    failures = 0
    for _ in range(50):
        w = _random_word(rng, 64)
        sk = edit_ss(w, 4, 2)
        for w2 in ("0" * 64, "1" * 64, "01" * 32):
            try:
                got = edit_rec(w2, sk)
            except DecodeFailure:
                failures += 1
                continue
            assert got == w
    assert failures >= 50


def test_edit_rec_tampered_sketch_fails_loud():
    w = "01" * 32
    sk = edit_ss(w, 4, 2)
    # flip one syndrome element
    sums = list(sk.s1.odd_sums)
    sums[0] ^= 1
    bad = EditSketch(PinSketchData(sk.s1.field, sk.s1.t, tuple(sums)), sk.s2, 4, 2)
    with pytest.raises(DecodeFailure):
        edit_rec(w, bad)
    # point an index outside the recovered shingle set
    bad2 = EditSketch(sk.s1, RecoveryInfo(sk.s2.n, (64,) * len(sk.s2.indices)), 4, 2)
    with pytest.raises(DecodeFailure):
        edit_rec(w, bad2)


@pytest.mark.parametrize("w,indices,rebuilt,check", [
    # the same shingle set {00, 01, 10}, in another partition order
    ("10100", (3, 2, 1), "10010", "recovery-info re-check"),
    # a string whose shingle set {00, 01} is not the sketched one
    ("01001", (1, 1, 2), "00001", "sketch re-check"),
])
def test_edit_rec_checks_what_unshingle_cannot(w, indices, rebuilt, check):
    # w' = w recovers w's shingle set exactly; one changed recovery index
    # makes unshingle rebuild another string, which only one check rejects
    sk = edit_ss(w, 2, 1)
    assert unshingle(shingle(w, 2), RecoveryInfo(5, indices)) == rebuilt
    with pytest.raises(DecodeFailure, match=check):
        edit_rec(w, EditSketch(sk.s1, RecoveryInfo(5, indices), 2, 1))


@pytest.mark.parametrize("w,c,e", [(b"abcd", 1, 5), ("0110", 3, 7), ("0110", 3, 1)])
def test_edit_rec_rejects_a_recovered_element_below_the_shingle_base(w, c, e):
    # a sketch tampered to add e < 2^(c*bits), which embeds no shingle: for
    # bytes it would not convert (OverflowError), and for a binary string
    # it would format as a shingle with a minus sign
    sk = edit_ss(w, c, 1)
    f, t = sk.s1.field, sk.s1.t
    extra = pinsketch_ss(ElementSet.of(f, [e]), t).odd_sums
    sums = tuple(a ^ b for a, b in zip(sk.s1.odd_sums, extra))
    with pytest.raises(DecodeFailure, match="not an embedded shingle"):
        edit_rec(w, EditSketch(PinSketchData(f, t, sums), sk.s2, c, 1))


def test_edit_input_validation():
    with pytest.raises(ValueError):
        edit_ss("01ab", 2, 1)  # not binary
    with pytest.raises(ValueError):
        edit_ss("0101", 2, 0)  # no capacity
    with pytest.raises(ValueError):
        edit_ss("01", 2, 40)  # capacity exceeds the universe
    sk = edit_ss("01100110", 3, 1)
    with pytest.raises(ValueError):
        edit_rec(b"\x66", sk)  # alphabet mismatch with sketch universe


@pytest.mark.parametrize(
    "w, c, w_prime",
    [
        (bytes(range(20)), 2, "01" * 10),  # m = 17: c = 16 over bits
        ("0110100110010110" * 4, 8, bytes(range(64))),  # m = 9: c = 1 over bytes
    ],
    ids=["bytes-read-as-bits", "bits-read-as-bytes"],
)
def test_edit_rec_rejects_a_sketch_over_the_other_alphabet(w, c, w_prime):
    # m - 1 divides by the other alphabet's bits too; the sketch's own c
    # says which alphabet it was made over
    sk = edit_ss(w, c, 1)
    with pytest.raises(ValueError, match="sketch universe does not match the input alphabet"):
        edit_rec(w_prime, sk)


def test_edit_ss_needs_a_shingle_shorter_than_the_word():
    # with c = |w| the one shingle is w itself: no recovery index is left
    # to send, and the envelope could not be read back
    w = "0110100110010110"
    for c in (16, 17):
        with pytest.raises(ValueError):
            edit_ss(w, c, 1)
    assert edit_ss(w, 15, 1).s1.t == 29
    assert edit_capacity(16, 15, 1, 1) == 29
    with pytest.raises(ValueError):
        edit_capacity(16, 2, 20, 1)  # 2*60 + 1 > the 7 elements of GF(8)*
    with pytest.raises(ValueError):
        edit_ss(w, 2, 20)


def test_edit_ss_rejects_shapes_the_envelope_header_cannot_hold(monkeypatch):
    # u16 capacity: (2*17 - 1) * 2000 = 66000; u8 degree: 32*8 + 1 = 257
    import fzx.edit

    def no_sketch(*args):
        raise AssertionError("sketch computed for a shape the envelope rejects")

    monkeypatch.setattr(fzx.edit, "pinsketch_ss", no_sketch)
    with pytest.raises(ValueError, match="envelope range"):
        edit_capacity(20, 17, 2000, 1)
    with pytest.raises(ValueError, match="envelope range"):
        edit_ss("01101001100101101001", 17, 2000)
    with pytest.raises(ValueError, match="envelope range"):
        edit_ss(bytes(40), 32, 1)
    assert edit_capacity(20, 17, 1985, 1) == 65505  # the largest that fits
    assert edit_capacity(40, 31, 1, 8) == 61


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(w=st.text("01", min_size=2, max_size=20), data=st.data())
def test_every_accepted_edit_sketch_reads_back(w, data):
    c = data.draw(st.integers(1, len(w)), label="c")
    t_edit = data.draw(st.integers(1, 3), label="t_edit")
    try:
        sk = edit_ss(w, c, t_edit)
    except ValueError:
        return
    env = deserialize(serialize_edit(sk))
    assert env.sketch == sk and env.aux == (len(w), c, t_edit)
    assert edit_rec(w, env.sketch) == w


# ---------------------------------------------------------------------------
# Parameter selection


def _loss_oracle(n, c, t, F):
    return math.ceil(n / c) * math.log2(n - c + 1) + (2 * c - 1) * t * math.ceil(
        math.log2(F**c + 1)
    )


def test_entropy_loss_matches_oracle():
    for n, c, t, F in [(1000, 6, 10, 2), (64, 4, 2, 2), (128, 3, 1, 256)]:
        assert edit_entropy_loss(n, c, t, F) == pytest.approx(_loss_oracle(n, c, t, F))


def test_entropy_loss_monotone_in_t():
    losses = [edit_entropy_loss(256, 5, t, 2) for t in range(1, 12)]
    assert all(a < b for a, b in zip(losses, losses[1:]))


def test_optimal_shingle_len_scan():
    # an independent scan over the full range agrees with the function,
    # which stops once the loss's second term alone exceeds its best
    shapes = [(64, 2, 2), (1000, 10, 2), (4096, 16, 2), (8000, 1, 2), (32000, 1, 2)]
    for n, t, F in shapes + [(3, 1, 2), (4, 1, 2), (300, 3, 256)]:
        best = min(range(2, n), key=lambda c: (_loss_oracle(n, c, t, F), c))
        assert optimal_shingle_len(n, t, F) == best, (n, t, F)
    # stationary point (n log n / 4t log F)^(1/3) = 6.29, integer argmin nearby
    real_c = (1000 * math.log2(1000) / (4 * 10)) ** (1 / 3)
    assert abs(optimal_shingle_len(1000, 10, 2) - real_c) <= 1.0
    assert optimal_shingle_len(64, 2, 2) == 4


def test_optimal_shingle_len_u32_length_is_fast():
    # the edit header admits a u32 string length; a full scan would take hours
    n = (1 << 32) - 1
    start = time.perf_counter()
    c = optimal_shingle_len(n, 1, 2)
    assert time.perf_counter() - start < 2.0
    real_c = (n * math.log2(n) / 4) ** (1 / 3)  # 3251.0
    assert abs(c - real_c) <= 1.0
    assert edit_entropy_loss(n, c, 1, 2) < min(edit_entropy_loss(n, d, 1, 2) for d in (c - 1, c + 1))


def test_approx_loss_near_exact_scan():
    for n, t, F in [(1000, 10, 2), (64, 2, 2), (4096, 16, 2)]:
        c = optimal_shingle_len(n, t, F)
        exact = edit_entropy_loss(n, c, t, F)
        approx = approx_edit_entropy_loss(n, t, F)
        assert abs(approx - exact) / exact <= 0.15


# ---------------------------------------------------------------------------
# Fuzzy extractor over the shingle set


def test_edit_gen_rep_identity():
    from fzx.edit import edit_gen, edit_rep

    rng = random.Random(520)
    w = _random_word(rng, 64)
    key = edit_gen(w, 4, 2, 32, rng)
    assert len(key.r) == 4
    assert edit_rep(w, key.p, 32) == key.r


def test_edit_gen_rep_within_capacity():
    from fzx.edit import edit_gen, edit_rep

    rng = random.Random(521)
    agreements = 0
    for _ in range(50):
        w = _random_word(rng, 64)
        key = edit_gen(w, 4, 2, 16, rng)
        w2 = _apply_edits(rng, w, rng.randrange(0, 3))
        if len(w2) < 4:
            continue
        assert edit_rep(w2, key.p, 16) == key.r
        agreements += 1
    assert agreements >= 40


def test_edit_gen_seed_determinism():
    from fzx.edit import edit_gen

    # periodic input: only four distinct shingles, so the hash input is short
    w = "0011" * 16
    a = edit_gen(w, 4, 2, 16, random.Random(9))
    b = edit_gen(w, 4, 2, 16, random.Random(9))
    assert a == b


def test_edit_rep_rejects_corrupted_helper():
    from fzx.edit import edit_gen, edit_rep
    from fzx.entropy import MalformedPayload
    from fzx.envelope import MalformedEnvelope

    rng = random.Random(522)
    w = _random_word(rng, 64)
    key = edit_gen(w, 4, 2, 16, rng)
    for bad in (key.p[:1], key.p[:-1], b"\x00" + key.p, key.p + b"\x01"):
        with pytest.raises((MalformedPayload, MalformedEnvelope, DecodeFailure)):
            edit_rep(w, bad, 16)


def test_edit_rep_parses_the_helper_once(monkeypatch):
    import fzx.edit
    import fzx.entropy
    from fzx.edit import edit_gen, edit_rep

    rng = random.Random(523)
    w = _random_word(rng, 64)
    key = edit_gen(w, 4, 2, 16, rng)
    calls = []
    parse = fzx.entropy.parse_helper

    def counted(p):
        calls.append(p)
        return parse(p)

    for module in (fzx.edit, fzx.entropy):
        monkeypatch.setattr(module, "parse_helper", counted)
    assert edit_rep(w, key.p, 16) == key.r
    assert calls == [key.p]
