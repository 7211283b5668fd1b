"""cli-cold: a fixed CLI session, one child process per command, one at a
time.  Each process pays the interpreter start, `import fzx.cli` and the
table and modulus builds its command needs, as a shell user would.

A session is three enrol+verify pairs:

    sketch (hamming-syn, m=8, t=8)       -> recover
    gen (pinsketch, m=16, 8 elements)    -> rep
    sketch (pinsketch, m=32, 64 elems)   -> reconcile
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from pathlib import Path

from workloads import Deck, flip_bits, near_set

HAM_M, HAM_T = 8, 8
GEN_M, GEN_S, GEN_T = 16, 8, 4
REC_M, REC_S, REC_T = 32, 64, 8

# (command, role, argv after `python -m fzx.cli`); SEED is filled per session
SESSION = (
    ("sketch", "enrol", ["sketch", "--scheme", "hamming-syn", "--m", str(HAM_M), "--t", str(HAM_T),
                         "-i", "word.txt", "-o", "syn.bin"]),
    ("recover", "verify", ["recover", "-i", "word_near.txt", "--sketch", "syn.bin", "-o", "word_out.txt"]),
    ("gen", "enrol", ["gen", "--scheme", "pinsketch", "--m", str(GEN_M), "--t", str(GEN_T),
                      "-i", "set.txt", "-o", "helper.bin", "--out-bits", "32", "--seed", "SEED"]),
    ("rep", "verify", ["rep", "-i", "set_near.txt", "--sketch", "helper.bin", "--out-bits", "32"]),
    ("sketch", "enrol", ["sketch", "--scheme", "pinsketch", "--m", str(REC_M), "--t", str(REC_T),
                         "-i", "remote.txt", "-o", "remote.bin"]),
    ("reconcile", "verify", ["reconcile", "--local", "local.txt", "--sketch", "remote.bin"]),
)
ENROL_FILES = ("syn.bin", "helper.bin", "remote.bin")
PAIRS = 3
ROWS = ("cli.startup_ms", "cli.import_ms") + tuple(
    f"cli.process_ms.{c}" for c in ("sketch", "recover", "gen", "rep", "reconcile")
)


class Sessions:
    """Seeded session inputs, made one session at a time."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._flips = Deck(self._rng, range(HAM_T + 1))
        self._gen_d = Deck(self._rng, range(GEN_T + 1))
        self._rec_d = Deck(self._rng, range(REC_T + 1))

    def next(self) -> dict:
        rng = self._rng
        n = (1 << HAM_M) - 1
        w = rng.getrandbits(n)
        wp = flip_bits(rng, w, n, self._flips.draw())
        s, sp = near_set(rng, 1 << GEN_M, GEN_S, self._gen_d.draw())
        remote, local = near_set(rng, 1 << REC_M, REC_S, self._rec_d.draw())
        remote_only = sorted(set(remote) - set(local))
        local_only = sorted(set(local) - set(remote))
        lines = [f"- {x:x}" for x in local_only] + [f"+ {x:x}" for x in remote_only]
        return {
            "seed": str(rng.getrandbits(32)),
            "files": {
                "word.txt": _bits(w, n),
                "word_near.txt": _bits(wp, n),
                "set.txt": _hexes(s),
                "set_near.txt": _hexes(sp),
                "remote.txt": _hexes(remote),
                "local.txt": _hexes(local),
            },
            "word": _bits(w, n).strip(),
            "reconcile": "\n".join(lines) if lines else "in sync",
        }


def _bits(w: int, n: int) -> str:
    return "".join("1" if (w >> j) & 1 else "0" for j in range(n)) + "\n"


def _hexes(elems) -> str:
    return "".join(f"{x:x}\n" for x in elems)


def run_command(argv, cwd: Path, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fzx.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    return time.perf_counter() - start, proc


def run_session(session: dict, cwd: Path, env: dict) -> tuple[list, int, list[int]]:
    """Run one session; returns ([(command, role, seconds)], failed pairs,
    enrolment output sizes)."""
    for name, text in session["files"].items():
        (cwd / name).write_text(text)
    timings, procs = [], []
    for command, role, argv in SESSION:
        argv = [session["seed"] if a == "SEED" else a for a in argv]
        seconds, proc = run_command(argv, cwd, env)
        timings.append((command, role, seconds))
        procs.append(proc)
    ok_codes = [p.returncode == 0 for p in procs]
    out = cwd / "word_out.txt"
    pairs_ok = (
        ok_codes[0] and ok_codes[1] and out.exists() and out.read_text().strip() == session["word"],
        ok_codes[2] and ok_codes[3] and procs[2].stdout.strip() == procs[3].stdout.strip() != "",
        ok_codes[4] and ok_codes[5] and procs[5].stdout.strip() == session["reconcile"],
    )
    for i, proc in enumerate(procs):
        if proc.returncode:
            print(f"cli-cold: {SESSION[i][0]} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
    sizes = [(cwd / f).stat().st_size if (cwd / f).exists() else 0 for f in ENROL_FILES]
    for f in ("word_out.txt", *ENROL_FILES):
        (cwd / f).unlink(missing_ok=True)
    return timings, pairs_ok.count(False), sizes
