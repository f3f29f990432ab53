"""Write bench/reference.json: the reference output of every case of every workload.

    PYTHONPATH=src python3 bench/capture_reference.py

Run it from the repository root on the commit whose outputs are the
reference. A benchmark run compares each op's output with this file
within the tolerances in workloads.py; rerun this only when a change is
meant to alter results, and say so in the change.
"""

import json
import os
import subprocess
import sys
import tempfile

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.path.dirname(HERE)
    commit = subprocess.run(
        ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    cases: dict[str, dict] = {}
    scratch = os.path.join(root, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        for workload in wl.WORKLOADS:
            wl.prepare(workload, workdir)
            entries = cases[workload] = {}
            for case in wl.pool(workload):
                if workload == "cli-cold":
                    argv0 = [sys.executable, "-m", "tripletsim"]
                    outcome, record = wl.run_cli(case, workdir, dict(os.environ), argv0, 120.0), None
                else:
                    outcome, record = wl.run_inprocess(case, workdir)
                if outcome.problems:
                    print(f"{case.key}: {outcome.problems}", file=sys.stderr)
                    return 1
                entries[case.key] = wl.reference_entry(case, outcome, record)
            errors = sum("error" in e for e in entries.values())
            print(f"{workload}: {len(entries)} cases, {errors} raise", file=sys.stderr)
    doc = {
        "commit": commit,
        "rtol": wl.RTOL,
        "fit_rtol": wl.FIT_RTOL,
        "cases": cases,
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
