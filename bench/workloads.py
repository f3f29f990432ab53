"""Workload definitions: case pools, seeded op sequences, ops and checks.

Every workload draws its ops from a finite pool of cases so that each
case has a reference output captured at a known commit
(``reference.json``, written by ``capture_reference.py``). The workload
seed decides which cases run and in what order; the program sees only
the generated configs and traces.

An op goes through the same layers as the command line: ``config``
(``apply_overrides`` and ``parse_config``), ``runner.run_experiment``,
``trace.emit`` and ``trace.write_atomic``; ``cli-cold`` runs the command
line itself. Functions are looked up on their modules at call time so
the tracer's wrappers see them; the checks use the originals bound at
import, so the benchmark's own parsing never shows up in the traced
numbers.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import subprocess
from dataclasses import dataclass, field

import numpy as np

import tripletsim.cli  # noqa: F401  (the import a user pays)
from tripletsim import config as t_config
from tripletsim import runner as t_runner
from tripletsim import trace as t_trace
from tripletsim.errors import ConfigError, SimulationError

_parse_trace = t_trace.parse_trace
_emit = t_trace.emit

WORKLOADS = ("field-map", "cli-cold")

# Relative tolerance of every reference comparison. A numpy-only expm or
# a closed-form rotation moves results in the last few ulps; anything
# beyond 1e-9 of a column's scale is a changed result.
RTOL = 1e-9
# Fitted parameters may move more than simulated values for the same
# input change, because the fit amplifies it by the condition number.
FIT_RTOL = 1e-6

# --- field-map: 61 fields x 241 frequencies, csv on even ops, json on odd
FIELD_AXES = ("x", "y", "z")
PRESETS = ("4K", "295K")
FIELD_MAP_STOPS_MT = (60.0, 80.0, 100.0, 120.0)

# --- cli-cold: every simulation experiment plus one fit, fresh processes
CLI_COMMANDS = (
    ("spectrum", ()),
    ("field-odmr", ()),
    ("odmr", ()),
    ("rabi", ()),
    ("t1", ()),
    ("echo", ()),
    ("dd-scaling", ()),
    ("ac-sense", ()),
    ("nmr-correlation", ("--set", "field.magnitude=190")),
    ("deer", ("--set", "field.magnitude=190")),
    ("deer-rabi", ()),
    ("fit", ()),  # model, input and columns are added by cli_argv()
)

# ops per pass of a traced run (the same cases run untraced, then traced)
TRACED_OPS = {"field-map": 10, "cli-cold": 12}


@dataclass(frozen=True)
class Case:
    key: str  # names the reference entry
    experiment: str
    overrides: tuple[str, ...] = ()
    fmt: str = "csv"

    @property
    def output_key(self) -> str:
        """Same key, same bytes: two ops with this key must emit identical output."""
        return f"{self.key}|{self.fmt}"


@dataclass
class Outcome:
    """What one op produced, and the verdict of its checks."""

    error: str | None = None  # exception type (in-process) or error kind (cli)
    payload: bytes = b""
    columns: tuple[tuple[str, str], ...] = ()
    data: np.ndarray | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


# --- case pools and sequences ---------------------------------------------

def _field_map_case(axis: str, preset: str, stop: float, fmt: str) -> Case:
    return Case(
        key=f"field-odmr/{axis}/{preset}/0-{stop:g}mT",
        experiment="field-odmr",
        overrides=(
            f"field.axis={axis}",
            f"kinetics.preset={preset}",
            "field_grid.start=0",
            f"field_grid.stop={stop!r}",
            "field_grid.count=61",
        ),
        fmt=fmt,
    )


def _cli_case(index: int) -> Case:
    experiment, extra = CLI_COMMANDS[index]
    return Case(key=f"cli/{experiment}", experiment=experiment, overrides=tuple(extra))


def pool(workload: str) -> list[Case]:
    """Every case a workload can draw, in a fixed order."""
    if workload == "field-map":
        return [
            _field_map_case(a, p, s, "csv")
            for a, p, s in itertools.product(FIELD_AXES, PRESETS, FIELD_MAP_STOPS_MT)
        ]
    if workload == "cli-cold":
        return [_cli_case(i) for i in range(len(CLI_COMMANDS))]
    raise ValueError(f"unknown workload {workload!r}")


def _cycle(rng: np.random.Generator, items: list):
    """Endless stream of seeded permutations of `items`."""
    while True:
        for i in rng.permutation(len(items)):
            yield items[i]


def sequence(workload: str, seed: int):
    """The endless, seed-determined stream of cases a run executes."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "field-map":
        combos = _cycle(rng, list(itertools.product(FIELD_AXES, PRESETS, FIELD_MAP_STOPS_MT)))
        for i in itertools.count():
            yield _field_map_case(*next(combos), "csv" if i % 2 == 0 else "json")
    elif workload == "cli-cold":
        yield from _cycle(rng, pool("cli-cold"))
    else:
        raise ValueError(f"unknown workload {workload!r}")


# --- inputs made before timing starts ------------------------------------

def _simulate(experiment: str, overrides) -> "t_trace.TraceRecord":
    cfg = t_config.parse_config(t_config.apply_overrides({}, list(overrides)), experiment=experiment)
    return t_runner.run_experiment(cfg)


def prepare(workload: str, workdir: str) -> None:
    """Write the inputs a workload reads into `workdir`."""
    if workload == "cli-cold":
        t1 = _simulate("t1", ())
        with open(os.path.join(workdir, "cli-fit-input.csv"), "wb") as fh:
            fh.write(_emit(t1, "csv"))


def cli_argv(case: Case, workdir: str) -> list[str]:
    """Arguments after `python -m tripletsim` for a cli-cold case."""
    argv = [case.experiment, "--out", os.path.join(workdir, f"cli-{case.experiment}.csv")]
    argv += list(case.overrides)
    if case.experiment == "fit":
        argv += [
            "--set", "fit.model=triple_exponential",
            "--set", f"fit.input={os.path.join(workdir, 'cli-fit-input.csv')}",
            "--set", "fit.x_column=delay",
            "--set", "fit.y_column=triplet",
        ]
    return argv


# --- ops -------------------------------------------------------------------

def run_inprocess(case: Case, workdir: str) -> tuple[Outcome, object]:
    """One in-process op through config, runner and trace, as `sim` runs it."""
    out_path = os.path.join(workdir, f"field-map.{case.fmt}")
    try:
        raw = t_config.apply_overrides({}, list(case.overrides))
        cfg = t_config.parse_config(raw, experiment=case.experiment, out=out_path, fmt=case.fmt)
        record = t_runner.run_experiment(cfg)
        payload = t_trace.emit(record, cfg.format)
        t_trace.write_atomic(cfg.out, payload)
    except (ConfigError, SimulationError) as exc:
        return Outcome(error=type(exc).__name__), None
    return Outcome(payload=payload), record


def run_cli(case: Case, workdir: str, env: dict, argv0: list[str], timeout: float) -> Outcome:
    """One fresh `python -m tripletsim` process (or the traced variant in argv0)."""
    argv = argv0 + cli_argv(case, workdir)
    out_path = argv[argv.index("--out") + 1]
    if os.path.exists(out_path):
        os.unlink(out_path)
    with subprocess.Popen(
        argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Outcome(error="timeout")
    outcome = Outcome()
    if proc.returncode != 0:
        outcome.error = f"exit {proc.returncode}"
    if b"Traceback" in stderr or stdout.strip():
        outcome.problems.append(f"{case.key}: unexpected output on stdout/stderr")
    if outcome.error is None:
        try:
            with open(out_path, "rb") as fh:
                outcome.payload = fh.read()
        except OSError as exc:
            outcome.problems.append(f"{case.key}: no output file ({exc})")
    return outcome


# --- checks ----------------------------------------------------------------

def fingerprint(columns, data: np.ndarray) -> dict:
    """A compact summary of a trace: exact headers, shape, column statistics, sample rows."""
    data = np.asarray(data, dtype=float)
    rows = data.shape[0]
    sample = sorted(set(np.linspace(0, rows - 1, min(rows, 7)).round().astype(int).tolist()))
    return {
        "columns": [list(c) for c in columns],
        "shape": list(data.shape),
        "sum": data.sum(axis=0).tolist(),
        "sumsq": (data * data).sum(axis=0).tolist(),
        "min": data.min(axis=0).tolist(),
        "max": data.max(axis=0).tolist(),
        "rows": sample,
        "sample": data[sample].tolist(),
    }


def _headers(columns) -> tuple[tuple[str, str], ...]:
    return tuple((c.name, c.unit) for c in columns)


def _close(a: float, b: float, scale: float, rtol: float = RTOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(b), scale)


def compare_fingerprint(ref: dict, got: dict) -> list[str]:
    if ref["columns"] != got["columns"]:
        return [f"columns {got['columns']} != {ref['columns']}"]
    if ref["shape"] != got["shape"]:
        return [f"shape {got['shape']} != {ref['shape']}"]
    if ref["rows"] != got["rows"]:
        return ["sample rows differ"]
    n = ref["shape"][0]
    problems = []
    for j in range(ref["shape"][1]):
        col_scale = max(abs(ref["min"][j]), abs(ref["max"][j]), 1e-300)
        stats = (
            ("sum", col_scale * n),
            ("sumsq", col_scale * col_scale * n),
            ("min", col_scale),
            ("max", col_scale),
        )
        for stat, scale in stats:
            if not _close(got[stat][j], ref[stat][j], scale):
                problems.append(f"column {j} {stat} {got[stat][j]!r} != {ref[stat][j]!r}")
        for r, (a, b) in enumerate(zip(got["sample"], ref["sample"])):
            if not _close(a[j], b[j], col_scale):
                problems.append(f"column {j} row {ref['rows'][r]} {a[j]!r} != {b[j]!r}")
    return problems


def fit_summary(columns, data: np.ndarray) -> dict:
    """Fitted parameters and rss from a fit experiment's one-row trace."""
    names = [c[0] for c in columns]
    row = np.asarray(data, dtype=float)[0]
    params = [float(row[k]) for k, n in enumerate(names) if n not in ("rss", "converged", "iterations") and not n.endswith("_err")]
    return {
        "columns": [list(c) for c in columns],
        "params": params,
        "rss": float(row[names.index("rss")]),
        "converged": bool(row[names.index("converged")]),
    }


def compare_fit(ref: dict, got: dict | None, error: str | None) -> list[str]:
    """Check a fit against the reference outcome at the capture commit.

    A fit that matches the reference parameters passes, and so does one
    that reaches an rss at least as low: a better optimiser may land
    elsewhere. A fit must raise exactly where the reference raised.
    """
    if error is not None or "error" in ref:
        if ref.get("error") == error:
            return []
        return [f"raised {error or 'nothing'}, reference {ref.get('error') or 'succeeded'}"]
    if got["columns"] != ref["columns"]:
        return [f"columns {got['columns']} != {ref['columns']}"]
    if not all(math.isfinite(p) for p in got["params"]) or not math.isfinite(got["rss"]):
        return ["non-finite fit result"]
    params_match = len(got["params"]) == len(ref["params"]) and all(
        _close(a, b, 1e-300, FIT_RTOL) for a, b in zip(got["params"], ref["params"])
    )
    if params_match or got["rss"] <= ref["rss"] * (1.0 + FIT_RTOL) + 1e-300:
        return []
    return [f"rss {got['rss']!r} worse than reference {ref['rss']!r} with different parameters"]


@dataclass
class Checker:
    """Checks op outputs: reference values, emit/parse round trip, same bytes for same key."""

    workload: str
    reference: dict
    digests: dict = field(default_factory=dict)
    roundtripped: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def check(self, case: Case, outcome: Outcome, record=None) -> Outcome:
        problems = outcome.problems
        digest = hashlib.sha256(
            outcome.payload if outcome.error is None else outcome.error.encode()
        ).hexdigest()
        seen = self.digests.setdefault(case.output_key, digest)
        if seen != digest:
            problems.append(f"{case.output_key}: output bytes differ from an earlier op with the same key")
        ref = self.reference.get(case.key)
        if ref is None:
            problems.append(f"{case.key}: no reference value")
            return self._done(outcome)
        if outcome.error is None and outcome.payload:
            first = case.output_key not in self.roundtripped
            self.roundtripped.add(case.output_key)
            try:
                if record is not None:
                    # in-process: parsing the emitted bytes must give back the arrays
                    outcome.columns, outcome.data = _headers(record.columns), record.data
                    if first:
                        parsed = _parse_trace(outcome.payload)
                        if _headers(parsed.columns) != outcome.columns or not np.array_equal(
                            parsed.data, record.data
                        ):
                            problems.append(f"{case.key}: parse(emit(trace)) does not return the same arrays")
                else:
                    # a child emitted: emitting the parsed trace must give back the bytes
                    parsed = _parse_trace(outcome.payload)
                    outcome.columns, outcome.data = _headers(parsed.columns), parsed.data
                    if first and _emit(parsed, "csv") != outcome.payload:
                        problems.append(f"{case.key}: emit(parse(output)) does not return the same bytes")
            except (ConfigError, SimulationError) as exc:
                problems.append(f"{case.key}: output does not parse: {exc}")
                return self._done(outcome)
        if case.experiment == "fit":
            got = fit_summary(outcome.columns, outcome.data) if outcome.data is not None else None
            problems += [f"{case.key}: {p}" for p in compare_fit(ref, got, outcome.error)]
        elif outcome.error is not None:
            problems.append(f"{case.key}: raised {outcome.error}")
        elif outcome.data is not None:
            problems += [f"{case.key}: {p}" for p in compare_fingerprint(ref, fingerprint(outcome.columns, outcome.data))]
        return self._done(outcome)

    def _done(self, outcome: Outcome) -> Outcome:
        self.problems.extend(outcome.problems)
        return outcome


def reference_entry(case: Case, outcome: Outcome, record) -> dict:
    """What capture_reference.py stores for one case."""
    if outcome.error is not None:
        return {"error": outcome.error}
    if record is None:
        record = _parse_trace(outcome.payload)
    if case.experiment == "fit":
        return fit_summary(_headers(record.columns), record.data)
    return fingerprint(_headers(record.columns), record.data)
