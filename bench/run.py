"""tripletsim benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workloads, metrics and bounds are
listed in BENCHMARK.json; bench/RERUN.md says how to read the output.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``
from fresh interpreters importing ``tripletsim.cli``, and the rest from
one worker process that runs the workload as a single closed-loop
client. With ``--trace 1`` it holds the per-layer metrics of a separate
traced run. Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment and any failed
check. The benchmark reads and writes only inside the checkout, in
``.bench_tmp/``, which it removes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TIME_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
READY = "tripletsim-ready"
PROBE = (
    "import sys, tripletsim.cli\n"
    f"sys.stdout.write({READY!r} + ' ' + tripletsim.cli.__file__ + '\\n')\n"
    "sys.stdout.flush()\n"
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_import(env: dict, timeout: float) -> float:
    """Seconds from spawning a fresh interpreter to its `import tripletsim.cli` finishing."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    marker, _, path = line.strip().partition(" ")
    if marker != READY or proc.returncode != 0:
        raise RuntimeError("a fresh interpreter could not import tripletsim.cli")
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise RuntimeError(f"tripletsim was imported from {path}, not from {SRC}")
    return ready - start


def import_times(env: dict, timeout: float) -> dict[str, float]:
    """Import seconds of numpy, scipy and tripletsim, from `python -X importtime`.

    Each module's self time goes to the outermost numpy or scipy module
    among itself and its importers, else to tripletsim if that imported
    it. So the numpy submodules that only scipy pulls in count for
    scipy, a standard library module counts for whoever first needed it,
    and the three figures add up to the whole `import tripletsim.cli`.
    """
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import tripletsim.cli"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=timeout, check=True,
    )
    entries = []  # (depth, top-level package, self us), children printed before parents
    for line in done.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip().split(".")[0], int(fields[0])))
    totals = {"numpy": 0, "scipy": 0, "tripletsim": 0}
    owners: list[tuple[int, str | None]] = []  # stack of (depth, owning package) while walking parents first
    for depth, package, self_us in reversed(entries):
        while owners and owners[-1][0] >= depth:
            owners.pop()
        outer = owners[-1][1] if owners else None
        owner = outer if outer in ("numpy", "scipy") or package not in totals else package
        owners.append((depth, owner))
        if owner is not None:
            totals[owner] += self_us
    return {f"import.{k}_s": v * 1e-6 for k, v in totals.items()}


def run_worker(args, workdir: str, env: dict, budget: float) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir, "--root", ROOT, "--budget", str(budget),
    ]
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
        try:
            stdout, _ = proc.communicate(timeout=budget + 5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(SRC, "tripletsim", "__init__.py")):
        return fail(f"no tripletsim sources under {SRC}; run from a checkout of the repository")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        spawn_import(env, 60.0)  # compiles bytecode on a fresh checkout; not counted
        extra: dict[str, float] = {}
        if args.trace:
            samples = [import_times(env, 60.0) for _ in range(IMPORTTIME_SAMPLES)]
            extra = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        else:
            extra["setup_s"] = statistics.median(spawn_import(env, 60.0) for _ in range(SETUP_SAMPLES))
        budget = TIME_LIMIT_S - (time.monotonic() - started)
        result = run_worker(args, workdir, env, budget)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass

    values = {**result["metrics"], **extra}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not produced: {missing}")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print("run: " + json.dumps({"workload": args.workload, "seed": args.seed, **result["info"]}, sort_keys=True))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
