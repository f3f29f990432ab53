"""Time cold `sim` processes and read each one's own peak memory.

    python tools/cold_start.py [-n N] [SIM ARGS ...]

Without SIM ARGS it runs the twelve commands of the benchmark's
`cli-cold` workload (every experiment with its defaults, and the
triple-exponential fit of the default t1 trace); with them, that one
command. Each command runs N times (default 5) as a fresh
`python -m tripletsim` process against the `src/` tree next to this
script, in a temporary working directory that holds the t1 trace the
fit reads, with `--out` added as in `trace_digest.py`. The commands take
turns, so a slow spell of the machine spreads over all of them.

One line per command gives the median over its N runs of:
- `wall_s`, from spawning the process to reaping it;
- `cpu_s`, its user plus system CPU time;
- `vmhwm_mb`, the `VmHWM` line of its own `/proc/self/status`, read just
  before the interpreter shuts down. A small wrapper runs the package's
  `__main__` with `runpy` and reads it. `ru_maxrss` is not used: the
  kernel carries a forked child's resident set over from its parent,
  so the figure would be the larger of this script's and the child's.

A command that exits nonzero stops the script with its stderr.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from trace_digest import COMMANDS, SRC, out_name

#: the first twelve digest commands, which the benchmark's cli-cold workload also runs
COLD_COMMANDS = COMMANDS[:12]

# `sim` run through its __main__, then the process's peak resident set written to argv[1]
WRAPPER = """
import runpy, sys

hwm = sys.argv.pop(1)
try:
    runpy.run_module("tripletsim", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(hwm, "w") as fh:
        fh.write(kb)
"""


def run_once(argv: tuple[str, ...], workdir: str, env: dict) -> tuple[float, float, float]:
    """One fresh process: (wall s, CPU s, VmHWM MB)."""
    hwm = os.path.join(workdir, "vmhwm")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, hwm, *argv, "--out", out_name(argv)],
        cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=600,
    )
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.exit(f"exit {proc.returncode}: {' '.join(argv)}\n{proc.stderr.decode()}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, int(Path(hwm).read_text()) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=5, help="runs per command (default 5)")
    parser.add_argument("sim", nargs=argparse.REMAINDER, help="one sim command line")
    args = parser.parse_args()
    if args.n < 1:
        parser.error("-n must be at least 1")
    commands = [tuple(args.sim)] if args.sim else list(COLD_COMMANDS)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as workdir:
        subprocess.run(
            [sys.executable, "-m", "tripletsim", "t1", "--out", "t1.csv"],
            cwd=workdir, env=env, check=True,
        )
        runs = {argv: [] for argv in commands}
        for _ in range(args.n):
            for argv in commands:
                runs[argv].append(run_once(argv, workdir, env))
    print(f"{'wall_s':>8} {'cpu_s':>8} {'vmhwm_mb':>9}  command (median of {args.n})")
    for argv, samples in runs.items():
        wall, cpu, hwm = (statistics.median(column) for column in zip(*samples))
        print(f"{wall:8.4f} {cpu:8.4f} {hwm:9.2f}  {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
