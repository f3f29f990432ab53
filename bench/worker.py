"""Benchmark worker: runs one workload in a fresh process, prints one JSON line.

Started by ``run.py``; not meant to be run by hand. With ``--trace 0``
it runs a closed loop of ops for ``--seconds`` of op time and reports
the end-to-end metrics. With ``--trace 1`` it runs a fixed list of ops
untraced, then the same ops under :class:`tracer.Tracer`, reports the
per-layer metrics, and self-tests the tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import tracer as bench_tracer
import workloads as wl
from tripletsim import photokinetics

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Executes ops of one workload and checks every output."""

    def __init__(self, workload: str, workdir: str, reference: dict, deadline: float) -> None:
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline
        self.cold = workload == "cli-cold"
        wl.prepare(workload, workdir)
        self.checker = wl.Checker(workload, reference)
        self.env = dict(os.environ)
        self.cli_argv = [sys.executable, "-m", "tripletsim"]

    def op(self, case: wl.Case, traced_cli: str | None = None):
        """Run one op; return (outcome, wall seconds, cpu seconds)."""
        cpu = _cpu_children if self.cold else _cpu_self
        if self.cold:
            argv0 = self.cli_argv
            env = self.env
            if traced_cli is not None:
                argv0 = [sys.executable, os.path.join(HERE, "traced_cli.py")]
                env = dict(self.env, TRIPLETSIM_BENCH_TRACE_OUT=traced_cli)
            timeout = max(5.0, self.deadline - time.monotonic())
            c0, t0 = cpu(), time.perf_counter()
            outcome = wl.run_cli(case, self.workdir, env, argv0, timeout)
            wall, cpu_s = time.perf_counter() - t0, cpu() - c0
            record = None
        else:
            c0, t0 = cpu(), time.perf_counter()
            outcome, record = wl.run_inprocess(case, self.workdir)
            wall, cpu_s = time.perf_counter() - t0, cpu() - c0
        self.checker.check(case, outcome, record)
        return outcome, wall, cpu_s


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): p90 when ten or more samples lie beyond it, else the highest such."""
    n = len(latencies)
    q = min(0.9, max(0.5, 1.0 - 10.0 / n))
    return q, float(np.quantile(latencies, q))


def _pool_throughput(by_case: dict[str, list[float]]) -> float:
    """Ops per second over the cases run: their count over the sum of each one's median wall time.

    Every case of a run weighs the same however often it ran, so the
    seed does not change the mix, and a stall of the host that slows one
    repeat of a case does not move its median.
    """
    return len(by_case) / sum(statistics.median(walls) for walls in by_case.values())


def measure(runner: Runner, seq, seconds: float) -> dict:
    warm = next(seq)
    for _ in range(2):  # untimed: fills caches, and the repeat must emit the same bytes
        runner.op(warm)
    latencies, cpus, failed_ops, product_failures = [], [], 0, 0
    by_case: dict[str, list[float]] = {}
    while sum(latencies) < seconds and time.monotonic() < runner.deadline:
        case = next(seq)
        before = len(runner.checker.problems)
        outcome, wall, cpu = runner.op(case)
        latencies.append(wall)
        by_case.setdefault(case.output_key, []).append(wall)
        cpus.append(cpu)
        failed_ops += len(runner.checker.problems) > before
        product_failures += not outcome.ok
    n = len(latencies)
    if sum(latencies) < seconds:
        runner.checker.problems.append(f"run stopped at the deadline after {n} ops")
    q, tail = _tail(latencies)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if runner.cold else resource.RUSAGE_SELF)
    return {
        "attempted": n,
        "failed": failed_ops,
        "metrics": {
            "ops_per_s": _pool_throughput(by_case),
            "latency_p50_s": float(np.median(latencies)),
            "latency_tail_s": tail,
            "cpu_per_op_s": sum(cpus) / n,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "success_ratio": (n - product_failures) / n,
        },
        "info": {
            "ops": n,
            "cases": len(by_case),
            "mean_ops_per_s": n / sum(latencies),
            "tail_percentile": round(100 * q, 1),
            "product_failures": product_failures,
        },
    }


def _attributes(mods: dict) -> dict:
    """Every attribute the tracer may patch: module namespaces and model evaluate methods."""
    snap = {(name, key): value for name, mod in mods.items() for key, value in vars(mod).items()}
    for model in getattr(mods.get("fitting"), "MODELS", {}).values():
        snap[(type(model).__name__, "evaluate")] = vars(type(model)).get("evaluate")
    return snap


def _changed(before: dict, after: dict) -> list[str]:
    keys = set(before) | set(after)
    return sorted(".".join(k) for k in keys if before.get(k) is not after.get(k))


def _traced_pass(runner: Runner, cases: list) -> tuple[dict, float, list[str]]:
    """Run `cases` from emptied caches under a fresh tracer; return (aggregate, wall, digests)."""
    bench_tracer.clear_caches()
    tracer = bench_tracer.Tracer()
    wall, digests, child_files = 0.0, [], []
    tracer.install()
    try:
        for i, case in enumerate(cases):
            tracer.op = i
            child = os.path.join(runner.workdir, f"trace-{i}.json") if runner.cold else None
            outcome, seconds, _ = runner.op(case, traced_cli=child)
            wall += seconds
            digests.append(hashlib.sha256(outcome.payload).hexdigest())
            if child:
                child_files.append(child)
    finally:
        tracer.uninstall()
    agg = bench_tracer.aggregate(tracer)
    for path in child_files:
        try:
            with open(path, encoding="utf-8") as fh:
                agg = bench_tracer.merge(agg, json.load(fh))
        except (OSError, ValueError) as exc:
            runner.checker.problems.append(f"traced child left no readable span file: {exc}")
    return agg, wall, digests


def self_test(runner: Runner, cases: list, digests: list[str], traced_digests: list[str], before: dict) -> list[str]:
    """Tracer self-test: originals restored, cache_info kept, same bytes, same counts."""
    problems = []
    mods = bench_tracer.modules()
    changed = _changed(before, _attributes(mods))
    if changed:
        problems.append(f"tracer left patched attributes behind: {changed[:5]}")
    original = before.get(("photokinetics", "_propagator"))
    if hasattr(original, "cache_info"):
        with bench_tracer.Tracer():
            if not callable(getattr(photokinetics._propagator, "cache_info", None)):
                problems.append("wrapped photokinetics._propagator has no cache_info")
        if photokinetics._propagator is not original:
            problems.append("photokinetics._propagator not restored")
    if traced_digests != digests:
        problems.append("a traced op emitted different bytes than the same op untraced")
    repeat = cases[:2]
    first, second = (
        bench_tracer.count_metrics(bench_tracer.layer_metrics(_traced_pass(runner, repeat)[0]))
        for _ in range(2)
    )
    if first != second:
        problems.append(f"two traced runs gave different counts: {sorted(k for k in first if first[k] != second.get(k))}")
    return problems


def traced(runner: Runner, seq) -> dict:
    cases = [next(seq) for _ in range(wl.TRACED_OPS[runner.workload])]
    for case in cases:  # untimed warm pass, so neither timed pass is the first to touch an input
        runner.op(case)
    bench_tracer.clear_caches()
    untraced_wall, digests, failed_ops = 0.0, [], 0
    for case in cases:
        before = len(runner.checker.problems)
        outcome, wall, _ = runner.op(case)
        untraced_wall += wall
        digests.append(hashlib.sha256(outcome.payload).hexdigest())
        failed_ops += len(runner.checker.problems) > before
    before = _attributes(bench_tracer.modules())
    agg, traced_wall, traced_digests = _traced_pass(runner, cases)
    runner.checker.problems += self_test(runner, cases, digests, traced_digests, before)
    metrics = bench_tracer.layer_metrics(agg)
    metrics["tracing.overhead_ratio"] = traced_wall / untraced_wall
    metrics["tracing.ops"] = len(cases)
    metrics["tracing.ops_busy_s"] = traced_wall
    return {
        "attempted": len(cases),
        "failed": failed_ops,
        "metrics": metrics,
        "info": {"counts": bench_tracer.count_metrics(metrics)},
    }


def environment(root: str) -> dict:
    from importlib import metadata

    digest = hashlib.sha256()
    src = os.path.join(root, "src", "tripletsim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        import subprocess

        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds left for this worker")
    args = parser.parse_args()
    deadline = time.monotonic() + args.budget
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["cases"].get(args.workload, {})
    runner = Runner(args.workload, args.workdir, reference, deadline)
    seq = wl.sequence(args.workload, args.seed)
    result = traced(runner, seq) if args.trace else measure(runner, seq, args.seconds)
    problems = runner.checker.problems
    result["correct"] = not problems
    result["problems"] = problems[:20]
    result["environment"] = environment(args.root)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
