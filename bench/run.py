"""fzx benchmark.

    python3 bench/run.py [--seed N] [--seconds S]
        Every workload of BENCHMARK.json, one child process at a time: an
        untraced run for the end-to-end metrics, then a traced run for the
        per-layer rows.
        Prints one table and writes .bench_out/report.json.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload.  The last line of stdout is the result object:
        {"correct", "attempted", "failed", "metrics"}, with the end-to-end
        metrics of BENCHMARK.json when --trace 0 and its per-layer metrics
        when --trace 1.

Inputs come from --seed alone.  Set-up time is the median over fresh
interpreters (bench/probe.py) of process start to ready: `import fzx` and
one warm-up op per parameter tuple, input generation excluded.  The
measured phase replays a block of at least 100 ops, at least three times,
until --seconds have passed, and times each op by its mean over the
replays.
cli-cold runs sessions until --seconds have passed and at least 100
enrolments have been timed.  The traced run writes its spans to
.bench_out/trace-<workload>-<seed>.json.

Standard library only; the program is imported from src/ of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
# set-reconcile and biometric-hamming run on request but are not in
# BENCHMARK.json: runs long enough to be steady on a small shared host
# leave time for two workloads only (see bench/README.md)
WORKLOADS = ("set-reconcile", "biometric-hamming", "fuzzy-extract", "cli-cold")
MIN_SAMPLES = 100  # enrolments and verifications per cli-cold run: ten beyond p90
# an untraced in-process run times each op by its mean over at least this
# many replays of the block
MIN_BLOCKS = 3
SETUP_PROBES = 3
CLI_PROBES = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def wall_of(argv, env) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def probe_setup(workload: str, seed: int, env) -> float:
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    ).stdout.split()
    return float(out[0]) - start - float(out[1])


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[-1]


def meta() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "commit": commit,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def e2e_metrics(setup_s, enrol_s, verify_s, pairs_per_s, rss_mib, wire) -> dict:
    return {
        "setup_s": setup_s,
        "enroll_ms_p50": 1e3 * statistics.median(enrol_s),
        "enroll_ms_p90": 1e3 * p90(enrol_s),
        "verify_ms_p50": 1e3 * statistics.median(verify_s),
        "verify_ms_p90": 1e3 * p90(verify_s),
        "ops_per_s": pairs_per_s,
        "peak_rss_mib": rss_mib,
        "wire_bytes": statistics.fmean(wire),
    }


def report_failures(workload: str, failures: dict) -> None:
    for (scheme, kind), outcomes in sorted(failures.items()):
        print(f"{workload}: {len(outcomes)} failed {scheme}/{kind} ops, e.g. {outcomes[0]!r}", file=sys.stderr)


# ---------------------------------------------------------------------------
# In-process workloads


def run_in_process(name: str, seed: int, seconds: float, env) -> tuple[dict, int, int, bool]:
    """The untraced run: end-to-end metrics."""
    import workloads

    wl = workloads.IN_PROCESS[name]()
    setup_s = statistics.median(probe_setup(name, seed, env) for _ in range(SETUP_PROBES))
    ops = wl.generate(seed)
    wl.setup(ops)
    preps = [wl.prepare(op) for op in ops]
    m = workloads.measure(wl, ops, preps, seconds, MIN_BLOCKS)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_failures(name, m.failures)
    means = m.op_means()
    metrics = e2e_metrics(
        setup_s,
        [e for e, _ in means],
        [v for _, v in means if v is not None],
        m.attempted / m.wall_s,
        rss,
        m.wire,
    )
    return metrics, m.attempted, sum(map(len, m.failures.values())), True


def trace_in_process(name: str, seed: int, seconds: float) -> tuple[dict, int, int, bool]:
    """The traced run: set-up with the wrappers on, then half the time
    untraced and half traced, for per-layer rows and the tracing overhead."""
    import clicold
    import tracer as tr
    import workloads

    wl = workloads.IN_PROCESS[name]()
    ops = wl.generate(seed)
    workloads.load_fzx()
    tracer = tr.Tracer()
    tracer.install()
    wl.setup(ops)
    preps = [wl.prepare(op) for op in ops]
    tracer.uninstall()
    plain = workloads.measure(wl, ops, preps, seconds / 2)
    def phase_of(op):
        return "tamper" if op.kind == "tamper" else "measured"

    tracer.install()
    traced = workloads.measure(
        wl, ops, preps, seconds / 2,
        enrol=tracer.root("op.enrol", wl.enrol, phase_of),
        verify=tracer.root("op.verify", wl.verify, phase_of),
    )
    tracer.uninstall()
    report_failures(name, plain.failures)
    report_failures(name, traced.failures)
    rows = tr.layer_metrics(tracer, traced.attempted)
    rows.update(tr.kernel_rows(seed))
    rows.update(dict.fromkeys(clicold.ROWS, 0))  # the CLI runs only in cli-cold
    rows["trace.overhead_ratio"] = (plain.attempted / plain.wall_s) / (traced.attempted / traced.wall_s)
    sound = True
    missing = (set(wl.traced) - tracer.fired(("measured", "tamper"))) | (
        set(wl.traced_setup) - tracer.fired(("setup",))
    )
    if missing:
        print(f"{name}: predicted wrappers did not fire: {sorted(missing)}", file=sys.stderr)
        sound = False
    if rows["gf2m.field_builds.measured"]:
        print(f"{name}: {rows['gf2m.field_builds.measured']} fields built in the measured phase",
              file=sys.stderr)
        sound = False
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}-{seed}.json", "w") as fh:
        json.dump({"setup": tr.setup_details(tracer), "spans": tracer.spans}, fh)
    failed = sum(map(len, plain.failures.values())) + sum(map(len, traced.failures.values()))
    return rows, plain.attempted + traced.attempted, failed, sound


# ---------------------------------------------------------------------------
# cli-cold


def run_cli(seed: int, seconds: float, trace: bool, env) -> tuple[dict, int, int, bool]:
    import clicold
    import tracer as tr
    import workloads

    import_probe = [sys.executable, "-c", "import fzx.cli"]
    imports = [wall_of(import_probe, env) for _ in range(SETUP_PROBES if not trace else CLI_PROBES)]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"cli-{os.getpid()}"
    workdir.mkdir()
    sessions = clicold.Sessions(seed)
    samples = {"enrol": [], "verify": []}
    by_command: dict[str, list] = {}
    wire, failed, pairs, wall = [], 0, 0, 0.0
    try:
        while (wall < seconds or len(samples["enrol"]) < MIN_SAMPLES) and wall < workloads.MAX_MEASURE_S:
            session = sessions.next()
            timings, bad, sizes = clicold.run_session(session, workdir, env)
            for command, role, secs in timings:
                samples[role].append(secs)
                by_command.setdefault(command, []).append(secs)
                wall += secs
            failed += bad
            pairs += clicold.PAIRS
            wire += sizes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        print(f"cli-cold: {failed} of {pairs} enrol+verify pairs failed", file=sys.stderr)
    if not trace:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics = e2e_metrics(
            statistics.median(imports), samples["enrol"], samples["verify"], pairs / wall, rss, wire
        )
        return metrics, pairs, failed, True
    startup = statistics.median(wall_of([sys.executable, "-c", "pass"], env) for _ in range(CLI_PROBES))
    rows = {
        "cli.startup_ms": 1e3 * startup,
        "cli.import_ms": 1e3 * (statistics.median(imports) - startup),
        "trace.overhead_ratio": 1.0,  # the layers run in child processes, untraced
    }
    for command, secs in by_command.items():
        rows[f"cli.process_ms.{command}"] = 1e3 * statistics.median(secs)
    # the in-process layers do not run in this process: their rows read 0
    rows.update(tr.layer_metrics(tr.Tracer(), 1))
    rows.update(tr.kernel_rows(seed))
    return rows, pairs, failed, True


# ---------------------------------------------------------------------------
# Entry points


def run_workload(args, spec) -> int:
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    env = child_env()
    # compile the package once so that every timed process finds its bytecode
    subprocess.run([sys.executable, "-c", "import fzx.cli"], env=env, check=True, timeout=120)
    trace = bool(args.trace)
    if args.workload == "cli-cold":
        values, attempted, failed, sound = run_cli(args.seed, args.seconds, trace, env)
    elif trace:
        values, attempted, failed, sound = trace_in_process(args.workload, args.seed, args.seconds)
    else:
        values, attempted, failed, sound = run_in_process(args.workload, args.seed, args.seconds, env)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"meta": meta(), "workload": args.workload, "seed": args.seed, "trace": int(trace)}))
    result = {"correct": sound and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode:
                print(f"{name} (trace {trace}) exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            results[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"meta": meta(), "seed": args.seed, "seconds": args.seconds}))
    print(f"{'workload':<18} {'metric':<40} {'value':>14} unit")
    for name in names:
        plain, traced = results[(name, 0)], results[(name, 1)]
        rows = list(plain["metrics"].items())
        rows.append(("fail_ratio", {"value": plain["failed"] / plain["attempted"], "unit": "-"}))
        rows += [(k, v) for k, v in traced["metrics"].items() if v["value"]]
        trace_file = OUT / f"trace-{name}-{args.seed}.json"
        if trace_file.exists():  # first-use cost by field degree (hash width)
            first_use: dict[str, float] = {}
            for kind, entries in json.loads(trace_file.read_text())["setup"].items():
                for e in entries:
                    key = f"{kind}.m{e['m']}.{e['phase']}_ms"
                    first_use[key] = first_use.get(key, 0.0) + e["ms"]
            rows += [(k, {"value": v, "unit": "ms"}) for k, v in sorted(first_use.items())]
        for metric, v in rows:
            print(f"{name:<18} {metric:<40} {v['value']:>14.6g} {v['unit']}")
        print(f"{name:<18} {'correct':<40} {str(plain['correct'] and traced['correct']):>14}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / "report.json", "w") as fh:
        json.dump({"meta": meta(), "seed": args.seed, "seconds": args.seconds,
                   "results": {f"{n}/trace{t}": r for (n, t), r in results.items()}}, fh, indent=1)
    return 0


def main(argv=None) -> int:
    if not __debug__ or sys.flags.optimize:
        # -O strips the key-equation assertion in support_from_syndrome,
        # so it would measure a different program
        print("refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "fzx" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no fzx sources under {SRC} (or no {SPEC.name}); run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description="fzx benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
