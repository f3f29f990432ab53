"""Span tracer that wraps tripletsim's public entry points from outside.

Nothing in ``src/`` knows about it: :meth:`Tracer.install` replaces
module attributes with timing wrappers and :meth:`Tracer.uninstall`
puts every original back. A function imported by name into another
module (``from .trace import emit``) is replaced in every tripletsim
namespace bound to it, so calls through any of those names are seen.
Third-party callables bound into a module (``expm``) are wrapped per
module, so ``photokinetics.expm`` and ``pulse_engine.expm`` count
apart. A symbol that no longer exists is skipped and its metrics read 0,
so the benchmark survives refactors.

Spans are kept in memory as ``(name, start, end, parent, op)`` and
reduced by :func:`aggregate` to per-name calls, busy time and self time.
Busy time counts only the outermost span of a name (or of a group), so
nesting is not counted twice; self time is a span's duration minus that
of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

PACKAGE = "tripletsim"
MODULES = (
    "spin_model",
    "photokinetics",
    "pulse_engine",
    "coherence",
    "fitting",
    "trace",
    "config",
    "runner",
    "cli",
)

# (module, attribute, span name). The function is looked up in `module`
# and replaced there and in every other tripletsim namespace bound to it.
TRACED_FUNCTIONS = (
    ("config", "parse_config", "config.parse"),
    ("runner", "run_experiment", "runner.run_experiment"),
    ("cli", "main", "cli.main"),
    ("spin_model", "eigensystem", "spin_model.eigensystem"),
    ("spin_model", "field_sweep_spectrum", "spin_model.field_sweep_spectrum"),
    ("photokinetics", "_propagator", "photokinetics.propagator"),
    ("photokinetics", "_propagator_with_emission", "photokinetics.propagator"),
    ("photokinetics", "evolve_populations", "photokinetics.evolve_populations"),
    ("photokinetics", "readout_contrast", "photokinetics.readout_contrast"),
    ("pulse_engine", "apply_elements", "pulse_engine.apply_elements"),
    ("pulse_engine", "mw_unitary", "pulse_engine.mw_unitary"),
    ("pulse_engine", "simulate_pulsed_odmr", "pulse_engine.simulate_pulsed_odmr"),
    ("pulse_engine", "simulate_field_odmr", "pulse_engine.simulate_field_odmr"),
    ("fitting", "fit", "fitting.fit"),
    ("fitting", "estimate_initial_guess", "fitting.estimate_initial_guess"),
    ("trace", "emit", "trace.emit"),
    ("trace", "parse_trace", "trace.parse"),
    ("trace", "write_atomic", "trace.write_atomic"),
)

# Third-party callables bound into one module, wrapped there only.
TRACED_BINDINGS = (
    ("photokinetics", "expm", "photokinetics.expm"),
    ("pulse_engine", "expm", "pulse_engine.expm"),
)

# Every public function of these modules gets a span "<module>.<name>";
# the group totals are reported as "<module>.calls" and "<module>.busy_s".
TRACED_GROUPS = ("coherence",)

# Propagator functions: misses come from their lru_cache counters, read at
# install and uninstall, or are every call if the cache is gone.
CACHED = (("photokinetics", "_propagator"), ("photokinetics", "_propagator_with_emission"))

_CACHE_ATTRIBUTES = ("cache_info", "cache_clear", "cache_parameters")


def modules() -> dict[str, object]:
    """The tripletsim package and those of its modules that exist, by short name."""
    out = {PACKAGE: importlib.import_module(PACKAGE)}
    for name in MODULES:
        try:
            out[name] = importlib.import_module(f"{PACKAGE}.{name}")
        except ImportError:
            continue
    return out


def clear_caches() -> None:
    """Empty the propagator caches, so a pass starts as a new process would."""
    mods = modules()
    for mod_name, attr in CACHED:
        clear = getattr(getattr(mods.get(mod_name), attr, None), "cache_clear", None)
        if clear is not None:
            clear()


class Tracer:
    """Wraps tripletsim entry points and records spans while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.op = 0  # the worker sets this to the index of the op in flight
        self._stack: list[int] = []
        self._open: Counter = Counter()  # open spans per name id
        self._patches: list[tuple[object, str, object]] = []
        self._cache_start: dict[tuple[str, str], int] = {}  # cache misses at install

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, on_result=None, on_error=None):
        name_id = self._name_id(name)
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserved; filled when the span closes
            stack.append(index)
            open_[name_id] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (name_id, start, clock(), parent, self.op)
                stack.pop()
                open_[name_id] -= 1
                if on_error is not None:
                    on_error(exc)
                raise
            spans[index] = (name_id, start, clock(), parent, self.op)
            stack.pop()
            open_[name_id] -= 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        for attr in _CACHE_ATTRIBUTES:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _count_residual_evals(self, fn):
        fit_id = self._name_id("fitting.fit")
        open_, counters = self._open, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_[fit_id]:
                counters["fitting.residual_evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_apply_elements(self, args, kwargs, result) -> None:
        elements = args[0] if args else kwargs.get("elements", ())
        self.counters["pulse_engine.elements_applied"] += len(elements)

    def _on_emit(self, args, kwargs, result) -> None:
        self.counters["trace.emit.bytes"] += len(result)

    def _on_parse(self, args, kwargs, result) -> None:
        payload = args[0] if args else kwargs.get("payload", b"")
        self.counters["trace.parse.bytes"] += len(payload)

    def _on_fit(self, args, kwargs, result) -> None:
        self.counters["fitting.fit.converged"] += int(bool(getattr(result, "converged", False)))
        self.samples["fitting.iterations"].append(float(getattr(result, "iterations", 0)))

    def _on_uncached_call(self, args, kwargs, result) -> None:
        self.counters["photokinetics.propagator.misses"] += 1

    def _on_fit_error(self, exc: BaseException) -> None:
        self.counters["fitting.fit.raised"] += 1

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, mods: dict, original: object, wrapper: object) -> None:
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = modules()
        hooks = {
            "pulse_engine.apply_elements": (self._on_apply_elements, None),
            "trace.emit": (self._on_emit, None),
            "trace.parse": (self._on_parse, None),
            "fitting.fit": (self._on_fit, self._on_fit_error),
        }
        for mod_name, attr, span in TRACED_FUNCTIONS:
            original = getattr(mods.get(mod_name), attr, None)
            if original is None:
                continue
            on_result, on_error = hooks.get(span, (None, None))
            if (mod_name, attr) in CACHED:
                if hasattr(original, "cache_info"):
                    info = original.cache_info()
                    self._cache_start[(mod_name, attr)] = info.misses
                else:
                    on_result = self._on_uncached_call  # without a cache every call computes
            wrapper = self._wrap(original, span, on_result, on_error)
            self._patch_everywhere(mods, original, wrapper)
        for mod_name, attr, span in TRACED_BINDINGS:
            mod = mods.get(mod_name)
            if callable(getattr(mod, attr, None)):
                self._patch(mod, attr, self._wrap(getattr(mod, attr), span))
        for mod_name in TRACED_GROUPS:
            mod = mods.get(mod_name)
            for attr, value in list(vars(mod).items()) if mod is not None else ():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    self._patch_everywhere(mods, value, self._wrap(value, f"{mod_name}.{attr}"))
        for model in getattr(mods.get("fitting"), "MODELS", {}).values():
            cls = type(model)
            if "evaluate" in vars(cls):
                self._patch(cls, "evaluate", self._count_residual_evals(vars(cls)["evaluate"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        mods = modules()
        for (mod_name, attr), misses in self._cache_start.items():
            info = getattr(mods[mod_name], attr).cache_info()
            self.counters["photokinetics.propagator.misses"] += info.misses - misses
        self._cache_start.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def aggregate(tracer: Tracer) -> dict:
    """Reduce the recorded spans to mergeable per-name and per-group totals."""
    spans = tracer.spans
    groups = {g: {tracer._name_ids[n] for n in tracer.names if n.startswith(g + ".")} for g in TRACED_GROUPS}
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_name: dict[str, dict[str, float]] = {}
    per_group = {g: {"calls": 0, "busy_s": 0.0} for g in TRACED_GROUPS}
    for index, (name_id, start, end, parent, _) in enumerate(spans):
        duration = end - start
        entry = per_name.setdefault(tracer.names[name_id], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[index]
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        if name_id not in ancestors:
            entry["busy_s"] += duration
        for group, ids in groups.items():
            if name_id in ids:
                per_group[group]["calls"] += 1
                if not ancestors & ids:
                    per_group[group]["busy_s"] += duration
    return {
        "spans": per_name,
        "groups": per_group,
        "counters": dict(tracer.counters),
        "samples": {k: list(v) for k, v in tracer.samples.items()},
    }


def merge(a: dict, b: dict) -> dict:
    """Sum two aggregates, as from two processes."""
    out = {"spans": {}, "groups": {}, "counters": Counter(), "samples": defaultdict(list)}
    for agg in (a, b):
        for section in ("spans", "groups"):
            for name, entry in agg.get(section, {}).items():
                target = out[section].setdefault(name, {})
                for key, value in entry.items():
                    target[key] = target.get(key, 0) + value
        out["counters"].update(agg.get("counters", {}))
        for key, values in agg.get("samples", {}).items():
            out["samples"][key].extend(values)
    out["counters"] = dict(out["counters"])
    out["samples"] = dict(out["samples"])
    return out


def _median(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metrics from an aggregate; absent spans read 0."""
    spans, counters = agg["spans"], agg["counters"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name, keys in (
        ("config.parse", ("calls", "busy_s")),
        ("runner.run_experiment", ("calls", "self_s")),
        ("cli.main", ("calls", "self_s")),
        ("spin_model.eigensystem", ("calls", "busy_s")),
        ("spin_model.field_sweep_spectrum", ("busy_s",)),
        ("photokinetics.propagator", ("calls",)),
        ("photokinetics.expm", ("calls", "busy_s")),
        ("photokinetics.evolve_populations", ("calls", "busy_s")),
        ("photokinetics.readout_contrast", ("calls", "busy_s")),
        ("pulse_engine.apply_elements", ("calls", "self_s")),
        ("pulse_engine.mw_unitary", ("calls", "busy_s")),
        ("pulse_engine.expm", ("calls", "busy_s")),
        ("pulse_engine.simulate_pulsed_odmr", ("busy_s",)),
        ("pulse_engine.simulate_field_odmr", ("busy_s",)),
        ("fitting.fit", ("calls", "busy_s")),
        ("fitting.estimate_initial_guess", ("busy_s",)),
        ("trace.emit", ("busy_s",)),
        ("trace.write_atomic", ("busy_s",)),
        ("trace.parse", ("busy_s",)),
    ):
        for key in keys:
            out[f"{name}.{key}"] = span(name, key)
    calls = span("photokinetics.propagator", "calls")
    misses = counters.get("photokinetics.propagator.misses", 0)
    out["photokinetics.propagator.misses"] = misses
    out["photokinetics.propagator.hit_ratio"] = ratio(calls - misses, calls)
    out["pulse_engine.elements_applied"] = counters.get("pulse_engine.elements_applied", 0)
    for group, entry in agg["groups"].items():
        out[f"{group}.calls"] = entry["calls"]
        out[f"{group}.busy_s"] = entry["busy_s"]
    fits = span("fitting.fit", "calls")
    out["fitting.residual_evals"] = counters.get("fitting.residual_evals", 0)
    out["fitting.iterations_p50"] = _median(agg["samples"].get("fitting.iterations", []))
    out["fitting.converged_ratio"] = ratio(counters.get("fitting.fit.converged", 0), fits)
    out["fitting.fail_ratio"] = ratio(counters.get("fitting.fit.raised", 0), fits)
    out["trace.emit.bytes"] = counters.get("trace.emit.bytes", 0)
    out["trace.parse.bytes"] = counters.get("trace.parse.bytes", 0)
    return out


def count_metrics(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly between two traced runs."""
    return {
        k: v
        for k, v in metrics.items()
        if k.endswith((".calls", ".misses", ".bytes", "_applied", "_evals", "iterations_p50", "_ratio"))
        and not k.startswith("tracing.")
    }
