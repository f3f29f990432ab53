"""Command-line interface.

    sim [experiment] [--config FILE] [--set key=value ...]
                     [--out PATH] [--format csv|json] [--seed N]

One parser reads the command line, so options may come before or after
the experiment. Exit codes: 0 success, 1 configuration error (a bad
command line included), 2 runtime/physics error or any other unexpected
failure. Errors are emitted as one JSON object on stderr. Warnings, such
as a drive strong enough to strain the rotating-wave treatment, are one
`WARNING tripletsim: message` line each. The CLI writes such lines to the
current `sys.stderr` itself, leaving `logging` (and an embedding program's
log setup) alone; TRIPLETSIM_LOG sets the verbosity (debug, info,
warning; any other value means warning).

The trace is written chunk by chunk as it is formatted: with `--out`, to
a temporary file that replaces PATH once the trace is complete, so a
failure leaves PATH as it was; without it, to stdout, which then already
holds the chunks written before a failure. A reader that closes stdout
early ends the run: it exits 0 and writes nothing to stderr.

A `sim` process runs numpy's BLAS on one thread: before numpy loads,
`main` sets OMP_NUM_THREADS=1 unless it is already set. A thread count
given in OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or MKL_NUM_THREADS is
kept. Importing this module loads no numpy and no `logging`, so
`--help`, `--version` and a bad command line finish without them.

A `sim` process (`python -m tripletsim` and both console scripts) starts
at `entry`, which runs `main` with the cyclic garbage collector off and
freezes the heap once `main` returns. A run leaves a few hundred objects
in cycles, all made by imports, so collecting them buys little, while the
collections cost time: those made while numpy loads and the run goes
on, and the interpreter's full collections at shutdown over the tens of
thousands of objects numpy leaves, which skip a frozen heap. `main`,
called in process, leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from typing import NoReturn

from ._version import __version__
from .config import EXPERIMENTS, apply_overrides, load_config_file, parse_config
from .errors import ConfigError, SimulationError

_LEVELS = {"debug": 10, "info": 20, "warning": 30}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError instead of exiting."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    epilog = "experiments:\n" + "\n".join(
        f"  {name:<16}{spec['description']}" for name, spec in EXPERIMENTS.items()
    )
    parser = _Parser(
        prog="sim",
        description="Simulate and fit optically addressed triplet spin-qubit experiments.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "experiment", nargs="?", choices=tuple(EXPERIMENTS), metavar="experiment",
        help="the experiment to simulate, or fit (listed below)",
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides",
        help="override a config entry by dotted path (value parsed as JSON)",
    )
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    parser.add_argument("--seed", type=int, help="random seed for stochastic modes")
    return parser


def _log(level: str, message: str) -> None:
    """Write `LEVEL tripletsim: message` to stderr if TRIPLETSIM_LOG lets `level` through."""
    if _LEVELS[level] >= _LEVELS.get(os.environ.get("TRIPLETSIM_LOG", "warning").lower(), 30):
        print(f"{level.upper()} tripletsim: {message}", file=sys.stderr)


def _log_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """`warnings.showwarning` for the CLI: the message alone, without source location."""
    _log("warning", str(message))


def _report_error(kind: str, exc: Exception) -> None:
    doc = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # tripletsim's arrays are too small for BLAS worker threads, which only spin idle
        os.environ.setdefault("OMP_NUM_THREADS", "1")
    with warnings.catch_warnings():
        warnings.showwarning = _log_warning
        return _main(argv)


def entry() -> int:
    """`sim` as a process: `main` on `sys.argv` without garbage collection."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


def _main(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
        raw = load_config_file(args.config) if args.config else {}
        raw = apply_overrides(raw, args.overrides)
        cfg = parse_config(
            raw, experiment=args.experiment, seed=args.seed, out=args.out, fmt=args.format
        )
        from .runner import run_experiment
        from .trace import emit_chunks, write_atomic

        _log("info", f"running {cfg.experiment} (seed {cfg.seed})")
        record = run_experiment(cfg)
        chunks = emit_chunks(record, cfg.format)
        if cfg.out:
            size = write_atomic(cfg.out, chunks)
            _log("info", f"wrote {size} bytes to {cfg.out}")
        else:
            try:
                for chunk in chunks:
                    sys.stdout.buffer.write(chunk)
                sys.stdout.buffer.flush()
            except BrokenPipeError:
                # the reader stopped early, which is no failure; what is still
                # buffered goes to os.devnull when the interpreter flushes at exit
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
    except ConfigError as exc:
        _report_error("config", exc)
        return 1
    except SimulationError as exc:
        _report_error("runtime", exc)
        return 2
    except Exception as exc:
        # still one JSON line and no traceback; TRIPLETSIM_LOG=debug writes it
        import traceback

        _log("debug", "unexpected error\n" + traceback.format_exc().rstrip("\n"))
        _report_error("internal", exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(entry())
