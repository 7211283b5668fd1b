"""Tests of the benchmark itself: the oracle counts planted failures, each
op is timed by its mean over replays, the tracer passes calls through
unchanged, input-only counts repeat for one seed, and the runner refuses
to measure the wrong program.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_planted_wrong_answers_are_counted():
    wl = workloads.SetReconcile()
    ops = wl.generate(5)[:10]
    assert [op.kind for op in ops].count("overflow") == 1
    wl.setup(ops)
    preps = [wl.prepare(op) for op in ops]
    honest = workloads.measure(wl, ops, preps, 0)
    assert honest.attempted == 10 and honest.failures == {}

    genuine = next(op for op in ops if op.kind == "genuine" and op.w != op.w_prime)
    overflow = next(op for op in ops if op.kind == "overflow")

    def planted(op, prep, data):
        if op is overflow:  # claim the sets agree: the sketch rejects that
            empty = workloads.setdiff.ElementSet.of(wl.field, ())
            return workloads.envelope.ReconcileReport(empty, empty)
        got = wl.verify(op, prep, data)
        if op is genuine:  # swap the two one-sided differences
            return workloads.envelope.ReconcileReport(got.remote_only, got.local_only)
        return got

    run = workloads.measure(wl, ops, preps, 0, verify=planted)
    assert {k: len(v) for k, v in run.failures.items()} == {
        ("pinsketch", "genuine"): 1,
        ("pinsketch", "overflow"): 1,
    }


def test_each_op_is_timed_by_its_mean_over_replays():
    blocks = [
        workloads.Block([3.0, 1.0, 5.0], [2.0, 4.0, None], 0.0, 3),
        workloads.Block([2.0, 6.0, 4.0], [7.0, 1.0, None], 0.0, 3),
    ]
    m = workloads.Measurement(blocks, {}, [])
    assert m.op_means() == [(2.5, 4.5), (3.5, 2.5), (4.5, None)]


def test_unexpected_exception_types_count_as_failures():
    workloads.load_fzx()
    wl = workloads.FuzzyExtract()
    key = workloads.entropy.ExtractedKey(r=b"\x01\x02\x03\x04", p=b"")
    tamper = workloads.Op("pinsketch", "tamper", (), ())
    genuine = workloads.Op("pinsketch", "genuine", (), ())
    assert wl.check(tamper, None, key, workloads.envelope.MalformedEnvelope("x", "y"))
    assert wl.check(tamper, None, key, workloads.codec.DecodeFailure())
    assert wl.check(tamper, None, key, b"\x00\x00\x00\x00")
    assert not wl.check(tamper, None, key, KeyError(1))
    assert not wl.check(tamper, None, key, RuntimeError())
    assert wl.check(genuine, None, key, key.r)
    assert not wl.check(genuine, None, key, b"\x01\x02\x03\x05")
    assert not wl.check(genuine, None, key, workloads.codec.DecodeFailure())


def test_wrappers_pass_calls_through_and_uninstall():
    workloads.load_fzx()
    env_mod = workloads.envelope
    originals = (env_mod.deserialize, workloads.setdiff.poly_roots, workloads.gf2m.GF2m.__init__)
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert workloads.setdiff.poly_roots is workloads.codec.poly_roots
        assert workloads.setdiff.poly_roots is not originals[1]
        with pytest.raises(env_mod.MalformedEnvelope) as info:
            env_mod.deserialize(b"FZX0\x03\x08\x00\x01\x00")
        assert info.value.code == "bad-magic"
        field = workloads.gf2m.GF2m(8)
        roots = workloads.gf2m.poly_roots(field, [field.mul(3, 9), 3 ^ 9, 1])
        assert roots == {3, 9}
    finally:
        tracer.uninstall()
    assert (env_mod.deserialize, workloads.setdiff.poly_roots, workloads.gf2m.GF2m.__init__) == originals
    names = [s[0] for s in tracer.spans]
    assert names.count("envelope.deserialize") == 1
    assert names.count("gf2m.GF2m") == 1
    assert tracer.counts[("setup", "envelope.deserialize", "rejects")] == 1


def test_self_time_subtracts_children():
    tracer = tr.Tracer()
    tracer.spans[:] = [
        ("op.verify", 0, 100, -1, 0, "measured", None),
        ("a", 10, 60, 0, 0, "measured", None),
        ("b", 20, 30, 1, 0, "measured", None),
        ("c", 70, 90, 0, 0, "measured", None),
    ]
    assert tracer.self_times() == [30, 40, 10, 20]


COUNTS = (".calls", ".elems", ".points", ".deg_sum", ".bytes", ".rejects", ".failures", "field_builds.")


def _two_runs(trace: str) -> list[dict]:
    runs = []
    for _ in range(2):
        out = _run("bench/run.py", "--workload", "fuzzy-extract", "--seed", "3",
                   "--seconds", "0", "--trace", trace)
        assert out.returncode == 0, out.stderr
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    return runs


def test_input_only_counts_repeat_for_one_seed():
    traced = _two_runs("1")
    first, second = ({k: v["value"] for k, v in r["metrics"].items() if any(c in k for c in COUNTS)}
                     for r in traced)
    assert first and first == second
    assert first["codec.rs_decode.points"] > 0 and first["envelope.deserialize.rejects"] > 0
    plain = _two_runs("0")
    assert plain[0]["metrics"]["wire_bytes"] == plain[1]["metrics"]["wire_bytes"]
    for a, b in (traced, plain):
        assert a["correct"] and b["correct"]
        assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])


def test_refuses_python_O():
    out = _run("-O", "bench/run.py", "--workload", "set-reconcile", "--seconds", "0")
    assert out.returncode != 0 and "-O" in out.stderr
    assert not out.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("bench/run.py", "--workload", "set-reconcile", "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
