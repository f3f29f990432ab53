"""Command-line interface.

    sim <experiment> [--config FILE] [--set key=value ...]
                     [--out PATH] [--format csv|json] [--seed N]

Exit codes: 0 success, 1 configuration error (a bad command line
included), 2 runtime/physics error or any other unexpected failure. Errors are emitted as one JSON object
on stderr. Warnings, such as a drive strong enough to strain the
rotating-wave treatment, are logged as one line each. Log verbosity
comes from the TRIPLETSIM_LOG environment variable (debug, info, warning).

A `sim` process runs numpy's BLAS on one thread: before numpy loads,
`main` sets OMP_NUM_THREADS=1 unless it is already set. A thread count
given in OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or MKL_NUM_THREADS is
kept. Importing this module loads no numpy, so `--help`, `--version`
and a bad command line finish without it.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import warnings
from typing import NoReturn

from ._version import __version__
from .config import EXPERIMENTS, apply_overrides, load_config_file, parse_config
from .errors import ConfigError, SimulationError

log = logging.getLogger("tripletsim")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError instead of exiting."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sim",
        description="Simulate and fit optically addressed triplet spin-qubit experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="experiment", metavar="experiment")
    for name, spec in EXPERIMENTS.items():
        p = sub.add_parser(name, help=spec["description"], description=spec["description"])
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="overrides",
            help="override a config entry by dotted path (value parsed as JSON)",
        )
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        p.add_argument("--seed", type=int, help="random seed for stochastic modes")
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("TRIPLETSIM_LOG", "warning").lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING}.get(
        level_name, logging.WARNING
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _log_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """`warnings.showwarning` for the CLI: the message alone, without source location."""
    log.warning("%s", message)


def _report_error(kind: str, exc: Exception) -> None:
    doc = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # tripletsim's arrays are too small for BLAS worker threads, which only spin idle
        os.environ.setdefault("OMP_NUM_THREADS", "1")
    _configure_logging()
    with warnings.catch_warnings():
        warnings.showwarning = _log_warning
        return _main(argv)


def _main(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.experiment is None:
            raise ConfigError(f"experiment: required; choose one of {list(EXPERIMENTS)}")
        raw = load_config_file(args.config) if args.config else {}
        raw = apply_overrides(raw, args.overrides)
        cfg = parse_config(
            raw,
            experiment=args.experiment,
            seed=args.seed,
            out=args.out,
            fmt=args.format,
        )
        from .runner import run_experiment
        from .trace import emit, write_atomic

        log.info("running %s (seed %d)", cfg.experiment, cfg.seed)
        record = run_experiment(cfg)
        payload = emit(record, cfg.format)
        if cfg.out:
            write_atomic(cfg.out, payload)
            log.info("wrote %d bytes to %s", len(payload), cfg.out)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except ConfigError as exc:
        _report_error("config", exc)
        return 1
    except SimulationError as exc:
        _report_error("runtime", exc)
        return 2
    except Exception as exc:
        # still one JSON line and no traceback; TRIPLETSIM_LOG=debug logs it
        log.debug("unexpected error", exc_info=True)
        _report_error("internal", exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
