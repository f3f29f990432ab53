"""``python -m tripletsim`` under the benchmark tracer, for traced cli-cold runs.

    TRIPLETSIM_BENCH_TRACE_OUT=FILE python bench/traced_cli.py <sim arguments>

Runs ``tripletsim.cli.main`` with the tracer installed after import and
writes the span aggregate to FILE as JSON. Import time is measured
separately, with ``python -X importtime``.
"""

import json
import os
import sys

import tracer as bench_tracer
from tripletsim import cli


def main() -> int:
    out = os.environ["TRIPLETSIM_BENCH_TRACE_OUT"]
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(bench_tracer.aggregate(tracer), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
