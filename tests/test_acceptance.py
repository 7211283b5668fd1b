"""Acceptance gate: ten pinned criteria, one verdict line per criterion.

Each test prints its verdict (and timing against the frozen budget)
before asserting, so the line is visible both in -v output and in the
captured stdout of a failure.  Tolerances and trial counts are frozen
here and must not be loosened.
"""

import math
import random
import statistics
import time

import pytest

from fzx.codec import (
    BchCode,
    DecodeFailure,
    support_from_syndrome,
    syndrome_from_support,
)
from fzx.edit import (
    approx_edit_entropy_loss,
    edit_entropy_loss,
    edit_rec,
    edit_ss,
    optimal_shingle_len,
    recovery_info,
    shingle,
)
from fzx.entropy import UHashParams
from fzx.envelope import deserialize, reconcile_respond, serialize_pinsketch
from fzx.gf2m import GF2m
from fzx.hamming import (
    bch_params,
    permute_word,
    rec_code_offset,
    rec_permuted,
    rec_syndrome,
    ss_code_offset,
    ss_permuted,
    ss_syndrome,
)
from fzx.setdiff import (
    ElementSet,
    ijs_rec,
    ijs_ss,
    pinsketch_rec,
    pinsketch_ss,
    setdiff_entropy_loss,
)
from oracles import (
    FiniteDistribution,
    JointDistribution,
    avg_min_entropy,
    extractor_distance,
    hamming_7_4,
    min_entropy,
    small_syndrome,
)

# chi-square upper critical value at p = 0.001 for 104 degrees of freedom,
# computed offline by bisection on the regularized incomplete gamma
# (cross-checked against scipy.stats.chi2.ppf(0.999, 104))
CHI2_CRIT_104_P001 = 154.314079549


def _verdict(num, ok, elapsed, budget, detail):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:02d}] {status} {elapsed:.2f}s (budget {budget:g}s): {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_pinsketch_payload_bits():
    start = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for m, t in ((10, 5), (13, 8), (16, 10)):
        field = GF2m(m)
        es = ElementSet.of(field, rng.sample(range(1, (1 << m) - 1), 30))
        sk = pinsketch_ss(es, t)
        # n = 2^m - 1, so t*log2(n+1) = t*m exactly
        ok = ok and sk.bit_length == t * m
        ok = ok and len(serialize_pinsketch(sk)) == 8 + (t * m + 7) // 8
    _verdict(1, ok, time.perf_counter() - start, 1.0,
             "pinsketch payload exactly t*log2(n+1) bits at (10,5),(13,8),(16,10)")


def test_criterion_02_bch_oracle_exhaustive():
    start = time.perf_counter()
    code = BchCode(GF2m(4), 2)
    supports = [frozenset()]
    supports += [frozenset({x}) for x in range(1, 16)]
    supports += [frozenset({x, y}) for x in range(1, 16) for y in range(x + 1, 16)]
    assert len(supports) == 121
    failures = 0
    for s in supports:
        if frozenset(support_from_syndrome(code, syndrome_from_support(code, s))) != s:
            failures += 1
    _verdict(2, failures == 0, time.perf_counter() - start, 1.0,
             f"decoder inverts all 121 weight<=2 syndromes, {failures} failures")


def test_criterion_03_decode_scaling():
    start = time.perf_counter()
    rng = random.Random(103)
    t = 10
    codes = {m: BchCode(GF2m(m), t) for m in (16, 24)}
    times = {m: [] for m in codes}
    # the degrees alternate decode by decode, so a change in the host's
    # speed falls on both medians alike
    for _ in range(15):
        for m, code in codes.items():
            support = frozenset(rng.sample(range(1, (1 << m) - 1), t))
            syn = syndrome_from_support(code, support)
            t0 = time.perf_counter()
            got = support_from_syndrome(code, syn)
            times[m].append(time.perf_counter() - t0)
            assert frozenset(got) == support
    medians = {m: statistics.median(ts) for m, ts in times.items()}
    ratio = medians[24] / medians[16]
    _verdict(3, ratio <= 10.0, time.perf_counter() - start, 30.0,
             f"t=10 decode median m=24/m=16 ratio {ratio:.2f} <= 10 (n grows 256x)")


def test_criterion_04_residual_entropy_743():
    start = time.perf_counter()
    code = hamming_7_4()
    probs = {}
    for w in range(128):
        s = small_syndrome(code, w)
        probs[(bytes([w]), bytes([s]))] = 1.0 / 128.0
    h = avg_min_entropy(JointDistribution(probs))
    _verdict(4, abs(h - 4.0) <= 1e-9, time.perf_counter() - start, 1.0,
             f"[7,4,3] syndrome sketch residual entropy {h:.9f} = 4.000000000")


def test_criterion_05_leftover_hash_bound():
    start = time.perf_counter()
    uniform = FiniteDistribution.uniform(8)
    geo = {bytes([v]): 2.0 ** -(v + 1) for v in range(255)}
    geo[bytes([255])] = 2.0 ** -255
    battery = [uniform, FiniteDistribution(geo),
               FiniteDistribution({b"\x00": 0.5, b"\xff": 0.5})]
    violations = 0
    for dist in battery:
        h = min_entropy(dist)
        for l in range(1, 5):
            sd = extractor_distance(UHashParams(8, l), dist)
            if sd > 0.5 * math.sqrt(2.0 ** (l - h)) + 1e-12:
                violations += 1
    _verdict(5, violations == 0, time.perf_counter() - start, 10.0,
             f"exhaustive SD <= (1/2)sqrt(2^(l-H)) over battery x l=1..4, "
             f"{violations} violations")


def _flip_bits(w, positions):
    for i in positions:
        w ^= 1 << i
    return w


def _random_edits(rng, w, k):
    for _ in range(k):
        if rng.random() < 0.5 and len(w) > 1:
            i = rng.randrange(len(w))
            w = w[:i] + w[i + 1:]
        else:
            i = rng.randrange(len(w) + 1)
            w = w[:i] + rng.choice("01") + w[i:]
    return w


def test_criterion_06_round_trip_suites():
    start = time.perf_counter()
    rng = random.Random(106)
    n_trials = 1000
    p10 = bch_params(10, 5)
    f10 = GF2m(10)
    misses = {}
    silent = {}
    loud = {}

    # hamming-syn / offset / perm, m=10 t=5
    word_schemes = {
        "hamming-syn": (
            lambda w: ss_syndrome(p10, w),
            lambda wp, sk: rec_syndrome(p10, wp, sk),
            lambda got, sk: ss_syndrome(p10, got) == sk,
        ),
        "hamming-offset": (
            lambda w: ss_code_offset(p10, w, rng),
            lambda wp, sk: rec_code_offset(p10, wp, sk),
            lambda got, sk: ss_syndrome(p10, got ^ sk.shift).syn_bits == 0,
        ),
        "hamming-perm": (
            lambda w: ss_permuted(p10, w, rng),
            lambda wp, sk: rec_permuted(p10, wp, sk),
            lambda got, sk: ss_syndrome(p10, permute_word(got, sk.perm)) == sk.syn,
        ),
    }
    for name, (ss, rec, consistent) in word_schemes.items():
        misses[name] = silent[name] = loud[name] = 0
        for _ in range(n_trials):
            w = rng.getrandbits(p10.n)
            sk = ss(w)
            wp = _flip_bits(w, rng.sample(range(p10.n), rng.randint(0, 5)))
            if rec(wp, sk) != w:
                misses[name] += 1
            far = _flip_bits(w, rng.sample(range(p10.n), 7))
            try:
                got = rec(far, sk)
                if not consistent(got, sk):
                    silent[name] += 1
            except DecodeFailure:
                loud[name] += 1

    # pinsketch, m=10 t=5, flexible sizes
    name = "pinsketch"
    misses[name] = silent[name] = loud[name] = 0
    for _ in range(n_trials):
        size = rng.randrange(8, 41)
        pool = rng.sample(range(1, (1 << 10) - 1), size + 7)
        w = ElementSet.of(f10, pool[:size])
        sk = pinsketch_ss(w, 5)
        d = rng.randint(0, 5)
        n_rm = rng.randint(0, d)
        wp = ElementSet.of(f10, pool[n_rm:size] + pool[size:size + d - n_rm])
        if pinsketch_rec(wp, sk) != w:
            misses[name] += 1
        far = ElementSet.of(f10, pool[4:size] + pool[size:size + 3])  # diff 7
        try:
            got = pinsketch_rec(far, sk)
            if pinsketch_ss(got, 5) != sk:
                silent[name] += 1
        except DecodeFailure:
            loud[name] += 1

    # ijs, m=10 s=20 t=4
    name = "ijs"
    misses[name] = silent[name] = loud[name] = 0
    for _ in range(n_trials):
        pool = rng.sample(range(1, (1 << 10) - 1), 23)
        w = ElementSet.of(f10, pool[:20])
        sk = ijs_ss(w, 4)
        swaps = rng.randint(0, 2)
        wp = ElementSet.of(f10, pool[swaps:20 + swaps])
        if ijs_rec(wp, sk) != w:
            misses[name] += 1
        far = ElementSet.of(f10, pool[3:23])  # 3 swaps, diff 6
        try:
            got = ijs_rec(far, sk)
            if ijs_ss(got, 4) != sk:
                silent[name] += 1
        except DecodeFailure:
            loud[name] += 1

    # edit, n=64 t_edit=2, optimizer-chosen c
    name = "edit"
    c = optimal_shingle_len(64, 2, 2)
    misses[name] = silent[name] = loud[name] = 0
    for _ in range(n_trials):
        w = "".join(rng.choice("01") for _ in range(64))
        sk = edit_ss(w, c, 2)
        wp = _random_edits(rng, w, rng.randint(0, 2))
        if edit_rec(wp, sk) != w:
            misses[name] += 1
        far = _random_edits(rng, w, 4)
        try:
            got = edit_rec(far, sk)
            if got != w and edit_ss(got, c, 2) != sk:
                silent[name] += 1
        except DecodeFailure:
            loud[name] += 1

    total_misses = sum(misses.values())
    total_silent = sum(silent.values())
    # every scheme with unsaturated output space must actually fail loud
    loud_ok = all(loud[k] > 0 for k in word_schemes) and loud["pinsketch"] > 0 \
        and loud["ijs"] > 0
    _verdict(6, total_misses == 0 and total_silent == 0 and loud_ok,
             time.perf_counter() - start, 60.0,
             f"{n_trials} trials/scheme: 0 in-capacity misses ({misses}), "
             f"0 silent wrong answers at capacity+2 ({silent})")


def test_criterion_07_shingling_bound():
    start = time.perf_counter()
    rng = random.Random(107)
    violations = 0
    for _ in range(10_000):
        n = rng.randrange(8, 48)
        w = "".join(rng.choice("01") for _ in range(n))
        k = rng.randint(0, 3)
        wp = _random_edits(rng, w, k)
        for c in (3, 4, 5):
            d = len(shingle(w, c).shingles ^ shingle(wp, c).shingles)
            if d > (2 * c - 1) * k:
                violations += 1
    example_ok = shingle("abcdecdeah", 3).shingles == frozenset(
        {"abc", "bcd", "cde", "dec", "ecd", "dea", "eah"}
    ) and recovery_info("abcdecdeah", 3).indices == (1, 5, 4, 6)
    _verdict(7, violations == 0 and example_ok, time.perf_counter() - start, 10.0,
             f"10^4 trials x c in {{3,4,5}}: |SH(w) xor SH(w')| <= (2c-1)k, "
             f"{violations} violations; worked example byte-exact")


def test_criterion_08_permutation_uniformization():
    start = time.perf_counter()
    rng = random.Random(108)
    params = bch_params(4, 2)
    w = 0b110010111000101
    err = (3, 11)  # fixed weight-2 error pattern
    counts = {}
    draws = 100_000
    for _ in range(draws):
        sk = ss_permuted(params, w, rng)
        pat = frozenset(i for i in range(15) if sk.perm[i] in err)
        counts[pat] = counts.get(pat, 0) + 1
    patterns = [frozenset({i, j}) for i in range(15) for j in range(i + 1, 15)]
    assert len(patterns) == 105
    expected = draws / 105.0
    chi2 = sum((counts.get(p, 0) - expected) ** 2 / expected for p in patterns)
    _verdict(8, chi2 < CHI2_CRIT_104_P001, time.perf_counter() - start, 30.0,
             f"10^5 permuted sketches: chi2 {chi2:.1f} < {CHI2_CRIT_104_P001} "
             f"(p > 0.001, df=104)")


def test_criterion_09_loss_calculators():
    start = time.perf_counter()
    ok = True
    for m, t in ((10, 5), (13, 8), (16, 10)):
        ok = ok and setdiff_entropy_loss("pinsketch", m=m, t=t) == t * m
        ok = ok and setdiff_entropy_loss("ijs", m=m, t=t) == t * math.log2(1 << m)
    ojs = setdiff_entropy_loss("origjs", m=4, t=2, s=4, r=8)
    want = 2 * 4 + math.log2(math.comb(16, 8)) - math.log2(math.comb(12, 4)) + 2
    ok = ok and ojs == pytest.approx(want) and ojs == pytest.approx(14.700, abs=1e-3)
    for n, c, t, F in ((1000, 6, 10, 2), (64, 4, 2, 2), (128, 3, 1, 256)):
        form = math.ceil(n / c) * math.log2(n - c + 1) \
            + (2 * c - 1) * t * math.ceil(math.log2(F ** c + 1))
        ok = ok and edit_entropy_loss(n, c, t, F) == pytest.approx(form)
    worst = 0.0
    for n, t, F in ((1000, 10, 2), (64, 2, 2), (4096, 16, 2)):
        exact = min(edit_entropy_loss(n, c, t, F) for c in range(2, n))
        rel = abs(approx_edit_entropy_loss(n, t, F) - exact) / exact
        worst = max(worst, rel)
        ok = ok and rel <= 0.15
    _verdict(9, ok, time.perf_counter() - start, 1.0,
             f"closed forms match; edit approximation within 15% of exact scan "
             f"(worst {worst:.1%})")


def test_criterion_10_reconciliation():
    start = time.perf_counter()
    rng = random.Random(110)
    f16 = GF2m(16)
    t = 8
    failures = 0
    for _ in range(1000):
        size = rng.randrange(8, 51)
        pool = rng.sample(range(1, 1 << 16), size + t)
        remote = ElementSet.of(f16, pool[:size])
        n_rm = rng.randint(0, 4)
        n_add = rng.randint(0, t - n_rm)
        local = ElementSet.of(f16, pool[n_rm:size] + pool[size:size + n_add])
        message = serialize_pinsketch(pinsketch_ss(remote, t))
        assert len(message) == 8 + t * 2  # t 2-byte elements after the header
        report = reconcile_respond(local, deserialize(message))
        if set(report.local_only.elems) != set(local.elems) - set(remote.elems):
            failures += 1
        if set(report.remote_only.elems) != set(remote.elems) - set(local.elems):
            failures += 1
    _verdict(10, failures == 0, time.perf_counter() - start, 10.0,
             f"10^3 reconciliations (<=50 elems, diff <= 8, m=16) from one "
             f"{8 + t * 2}-byte message, {failures} mismatches")
