"""Hamming-metric sketch tests."""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from fzx.codec import BchCode, DecodeFailure
from fzx.gf2m import GF2m, field_of
from fzx.hamming import (
    CodeOffsetSketch,
    PermutedSketch,
    SyndromeSketch,
    _CACHED_CODES,
    bch_params,
    hamming_entropy_loss,
    permute_word,
    random_codeword,
    rec_code_offset,
    rec_permuted,
    rec_syndrome,
    ss_code_offset,
    ss_permuted,
    ss_syndrome,
)
from oracles import (
    JointDistribution,
    avg_min_entropy,
    bch_parity_rows,
    hamming_7_4,
    permute_word_loop,
    rref,
    small_syndrome,
)

# the codewords of the [7,4,3] Hamming code, from its explicit parity rows
HAMMING_7_4_CODEWORDS = {c for c in range(128) if small_syndrome(hamming_7_4(), c) == 0}


def small_params() -> BchCode:
    # the m=3 t=1 BCH code is the [7,4,3] Hamming code bit for bit
    return bch_params(3, 1)


class FixedBits:
    """Deterministic getrandbits source for exact enumeration."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, n):
        assert self.value < (1 << n)
        return self.value


def test_params_validation():
    p = bch_params(4, 2)
    assert p.n == 15 and p.t == 2
    assert p.syndrome_bits == 8  # t*m
    assert small_params().syndrome_bits == 3


def test_ss_syndrome_examples():
    p = small_params()
    assert ss_syndrome(p, 0).syn_bits == 0
    # the word with positions 0..2 set ("1110000" written position-first)
    # is a codeword of the standard [7,4,3] code, so its sketch is 000
    assert ss_syndrome(p, 0b0000111).syn_bits == 0
    assert ss_syndrome(bch_params(4, 2), 0) == SyndromeSketch(0, 8)
    with pytest.raises(ValueError):
        ss_syndrome(p, 1 << 7)
    code = hamming_7_4()
    assert all(ss_syndrome(p, w).syn_bits == small_syndrome(code, w) for w in range(128))


def test_bch_syndrome_matches_support_path():
    # the parity-row syndrome of a dense word must agree with the
    # element-wise power sums; (4, 3) has dependent parity rows
    from fzx.codec import syndrome_from_support

    rng = random.Random(4)
    for m, t in [(4, 2), (4, 3), (8, 8), (10, 5), (13, 5), (16, 5)]:
        p = bch_params(m, t)
        for _ in range(50 if m <= 10 else 4):
            w = rng.getrandbits(p.n)
            support = [i + 1 for i in range(p.n) if (w >> i) & 1]
            packed = 0
            for s in syndrome_from_support(p, support):
                packed = (packed << m) | s
            assert ss_syndrome(p, w).syn_bits == packed, (m, t)


def test_first_syndrome_at_m16_builds_no_large_table():
    # the m=16 t=5 syndrome map is t*m rows of 2^16 - 1 bits, 640 KiB
    p = BchCode(field_of(16), 5)  # a code of its own, so its rows are not built yet
    w = random.Random(16).getrandbits(p.n)
    tracemalloc.start()
    try:
        ss_syndrome(p, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_code_caches_stay_bounded():
    from fzx.envelope import deserialize, serialize_hamming_syn

    rng = random.Random(13)
    for t in range(1, 11):
        p = bch_params(13, t)
        w = rng.getrandbits(p.n)
        env = deserialize(serialize_hamming_syn(p, ss_syndrome(p, w)))
        assert rec_syndrome(env.params, w ^ 1 << t, env.sketch) == w
    info = bch_params.cache_info()
    assert info.maxsize == _CACHED_CODES
    assert info.currsize <= info.maxsize


def test_parity_rows_are_built_once_and_evicted_with_their_code():
    bch_params.cache_clear()
    p = bch_params(6, 3)
    rows = p.parity_rows
    assert p.parity_rows is rows and p.reduced_rows is p.reduced_rows
    assert bch_params(6, 3) is p and bch_params(6, 3).parity_rows is rows
    for t in range(1, 9):  # eight further codes
        bch_params(7, t)
    q = bch_params(6, 3)
    assert q is not p and "parity_rows" not in vars(q)
    assert q.parity_rows == rows and q.parity_rows is not rows
    assert q.reduced_rows == p.reduced_rows


def test_rec_syndrome_small_exhaustive():
    p = small_params()
    for w in range(128):
        sk = ss_syndrome(p, w)
        assert rec_syndrome(p, w, sk) == w
        for i in range(7):
            assert rec_syndrome(p, w ^ (1 << i), sk) == w


def test_round_trip_exhaustive_patterns_m4():
    p = bch_params(4, 2)
    rng = random.Random(11)
    patterns = [0]
    patterns += [1 << i for i in range(15)]
    patterns += [
        (1 << i) | (1 << j) for i, j in itertools.combinations(range(15), 2)
    ]
    assert len(patterns) == 121
    words = [rng.getrandbits(15) for _ in range(20)]
    for w in words:
        s_syn = ss_syndrome(p, w)
        s_off = ss_code_offset(p, w, rng)
        s_perm = ss_permuted(p, w, rng)
        for e in patterns:
            assert rec_syndrome(p, w ^ e, s_syn) == w
            assert rec_code_offset(p, w ^ e, s_off) == w
            assert rec_permuted(p, w ^ e, s_perm) == w


@pytest.mark.parametrize("m", [10, 13])
def test_round_trip_randomized(m):
    p = bch_params(m, 5)
    rng = random.Random(m)
    for _ in range(10_000):
        w = rng.getrandbits(p.n)
        sk = ss_syndrome(p, w)
        weight = rng.randrange(0, 6)
        e = 0
        for i in rng.sample(range(p.n), weight):
            e |= 1 << i
        assert rec_syndrome(p, w ^ e, sk) == w


def test_rec_syndrome_beyond_capacity_fails_loud():
    p = bch_params(10, 5)
    rng = random.Random(99)
    outcomes = Counter()
    for _ in range(200):
        w = rng.getrandbits(p.n)
        sk = ss_syndrome(p, w)
        e = 0
        for i in rng.sample(range(p.n), 7):  # t + 2 flips
            e |= 1 << i
        try:
            got = rec_syndrome(p, w ^ e, sk)
        except DecodeFailure:
            outcomes["failure"] += 1
        else:
            # an answer may come back only if it is a consistent
            # within-capacity explanation of (w', sketch)
            outcomes["alias"] += 1
            assert ss_syndrome(p, got) == sk
            assert bin(got ^ w ^ e).count("1") <= 5
    assert outcomes["failure"] >= 190


def test_code_offset_round_trip_and_determinism():
    p = bch_params(10, 5)
    sk1 = ss_code_offset(p, 123456789, random.Random(21))
    sk2 = ss_code_offset(p, 123456789, random.Random(21))
    assert sk1 == sk2
    assert rec_code_offset(p, 123456789, sk1) == 123456789
    rng = random.Random(5)
    for _ in range(100):
        w = rng.getrandbits(p.n)
        sk = ss_code_offset(p, w, rng)
        e = 0
        for i in rng.sample(range(p.n), rng.randrange(0, 6)):
            e |= 1 << i
        assert rec_code_offset(p, w ^ e, sk) == w


def test_code_offset_sketch_uniform_over_coset():
    # drive the codeword sampler with every 7-bit seed value once: the
    # sketch must hit each element of the coset w XOR C equally often
    p = small_params()
    w = 0b1011001
    counts = Counter(
        ss_code_offset(p, w, FixedBits(v)).shift for v in range(128)
    )
    assert counts == {w ^ c: 8 for c in HAMMING_7_4_CODEWORDS}


def test_random_codeword_uniform():
    p = small_params()
    counts = Counter(random_codeword(p, FixedBits(v)) for v in range(128))
    assert set(counts) == HAMMING_7_4_CODEWORDS
    assert set(counts.values()) == {8}


def residual_entropy(pairs) -> float:
    counts = Counter(pairs)
    total = sum(counts.values())
    return avg_min_entropy(
        JointDistribution({k: v / total for k, v in counts.items()})
    )


def test_residual_entropy_syndrome():
    p = small_params()
    pairs = [
        (bytes([w]), bytes([ss_syndrome(p, w).syn_bits])) for w in range(128)
    ]
    assert abs(residual_entropy(pairs) - 4.0) <= 1e-9


def test_residual_entropy_code_offset():
    # uniform w and an independent uniform codeword, enumerated exactly
    pairs = [
        (bytes([w]), bytes([w ^ c])) for w in range(128) for c in HAMMING_7_4_CODEWORDS
    ]
    assert abs(residual_entropy(pairs) - 4.0) <= 1e-9


def test_permute_word_and_inverse():
    perm = (2, 0, 3, 1)
    assert permute_word(0b0011, perm) == 0b1010  # bits 0,1 land at 1,3
    inv = sorted(range(len(perm)), key=perm.__getitem__)  # inv[perm[i]] = i
    rng = random.Random(3)
    for _ in range(50):
        w = rng.getrandbits(4)
        assert permute_word(permute_word(w, perm), inv) == w


@pytest.mark.parametrize("n", [3, 7, 255, 8191])
def test_permute_word_matches_the_bit_loop(n):
    rng = random.Random(n)
    perm = list(range(n))
    for _ in range(5):
        rng.shuffle(perm)
        for w in (0, (1 << n) - 1, rng.getrandbits(n), 1 << (n - 1)):
            assert permute_word(w, perm) == permute_word_loop(w, perm)


def test_permuted_round_trip():
    p = bch_params(4, 2)
    rng = random.Random(8)
    for _ in range(200):
        w = rng.getrandbits(15)
        sk = ss_permuted(p, w, rng)
        assert rec_permuted(p, w, sk) == w
        e = 0
        for i in rng.sample(range(15), rng.randrange(0, 3)):
            e |= 1 << i
        assert rec_permuted(p, w ^ e, sk) == w
    with pytest.raises(ValueError):
        PermutedSketch((0, 0, 1), SyndromeSketch(0, 8))


def test_permuted_pattern_randomization_coverage():
    # a fixed weight-2 difference, seen through fresh sketches, should
    # reach every one of the C(15,2) = 105 patterns (the full chi-square
    # uniformity test lives in the acceptance suite)
    p = bch_params(4, 2)
    rng = random.Random(17)
    e = (1 << 3) | (1 << 11)
    seen = Counter()
    for _ in range(3000):
        sk = ss_permuted(p, 0, rng)
        # the decoder sees the difference pattern in the permuted domain
        seen[permute_word(e, sk.perm)] += 1
    assert len(seen) == 105
    assert all(bin(pat).count("1") == 2 for pat in seen)
    assert max(seen.values()) < 3 * 3000 / 105


def test_sketch_type_validation():
    with pytest.raises(ValueError):
        SyndromeSketch(4, 2)
    with pytest.raises(ValueError):
        CodeOffsetSketch(-1, 7)
    p = small_params()
    with pytest.raises(ValueError):
        rec_syndrome(p, 0, SyndromeSketch(0, 4))
    with pytest.raises(ValueError):
        rec_code_offset(p, 0, CodeOffsetSketch(0, 6))


def test_entropy_loss_values():
    assert hamming_entropy_loss(7, 4) == 3.0
    assert hamming_entropy_loss(9, 9) == 0.0
    p = bch_params(10, 5)
    assert hamming_entropy_loss(p.n, p.n - p.syndrome_bits) == 50.0
    with pytest.raises(ValueError):
        hamming_entropy_loss(4, 5)


def test_bch_k_from_cyclotomic_cosets_matches_parity_rank():
    for m in range(2, 9):
        for t in range(1, 9):
            if 2 * t + 1 > (1 << m) - 1:
                continue
            p = bch_params(m, t)
            rows = bch_parity_rows(p)
            assert list(p.parity_rows) == rows, (m, t)
            assert p.n - p.k == len(p.reduced_rows), (m, t)
            assert sorted(p.reduced_rows) == rref(rows, p.n)
    # m=4 t=3: cosets {1,2,4,8}, {3,6,12,9}, {5,10} give n-k = 10 < t*m = 12
    assert bch_params(4, 3).k == 5
    assert small_params().k == 4


@pytest.mark.parametrize("m, t", [(3, 3), (4, 3), (4, 7), (5, 8), (6, 5)])
def test_code_offset_round_trip_rank_deficient(m, t):
    p = bch_params(m, t)
    rng = random.Random(m * 16 + t)
    w = rng.getrandbits(p.n)
    sk = ss_code_offset(p, w, rng)
    assert ss_syndrome(p, w ^ sk.shift).syn_bits == 0
    wp = w
    for i in rng.sample(range(p.n), t):
        wp ^= 1 << i
    assert rec_code_offset(p, wp, sk) == w


def test_bch_params_share_the_interned_field():
    assert bch_params(13, 1).field is field_of(13)
    assert bch_params(13, 2).field is field_of(13)
    with pytest.raises(ValueError):
        bch_params(33, 1)
