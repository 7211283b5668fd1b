"""Set-up probe: one fresh interpreter that makes a workload's inputs,
then imports fzx and warms every parameter tuple the workload uses.

    python3 bench/probe.py WORKLOAD SEED

Prints `<time.monotonic() when ready> <seconds spent making inputs>`.
run.py spawns it and takes set-up time as ready - spawn - input time, so
the probe imports nothing heavier than the workload module needs.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.IN_PROCESS[name]()
    start = time.monotonic()
    ops = wl.generate(seed)
    gen_s = time.monotonic() - start
    wl.setup(ops)
    print(time.monotonic(), gen_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
