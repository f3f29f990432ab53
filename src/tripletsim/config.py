"""Experiment configuration: schema, presets, strict validation.

Configuration units are chosen for bench ergonomics and converted to SI
exactly once, downstream in the runner: frequencies in MHz, times in
microseconds, magnetic fields in mT, angles in degrees, gyromagnetic
ratios in MHz/mT. Unknown keys are rejected with their full path;
physical inconsistencies raise ConfigError naming the violated rule.
The type and range of each key, and of each entry of a list, are
stated once, in its schema entry; `_check_physics` holds the rest.
Precedence is defaults < config file < --set overrides < direct flags.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass
from typing import Any

from .errors import ConfigError

EXPERIMENTS: dict[str, str] = {
    "spectrum": "Transition frequencies of the triplet at given static fields",
    "field-odmr": "ODMR contrast map versus field magnitude and drive frequency",
    "odmr": "Frequency-swept pulsed ODMR contrast at fixed field",
    "rabi": "Driven population transfer versus pulse duration",
    "t1": "Ground-state recovery versus dark delay after optical shelving",
    "echo": "Coherence echo envelope versus total evolution time",
    "dd-scaling": "Coherence time versus number of decoupling pulses",
    "ac-sense": "Echo contrast versus echo half-time under an applied AC field",
    "nmr-correlation": "Correlation signal oscillating at the nuclear Larmor frequency",
    "deer": "Double-resonance spectrum of a dark electron spin at fixed echo time",
    "deer-rabi": "Dark-spin driven nutation read through the probe echo",
    "fit": "Fit a registered model to a previously emitted trace",
}

#: Triplet kinetics presets: lifetimes in us, steady-state populations in %.
KINETICS_PRESETS: dict[str, dict[str, list[float]]] = {
    "4K": {"lifetimes": [514.0, 21.2, 111.0], "populations": [26.3, 53.8, 19.9]},
    "295K": {"lifetimes": [73.0, 18.9, 61.0], "populations": [30.5, 41.6, 27.9]},
}

#: Decoupling-scaling presets: t2_1 and t1_rho in us.
DD_PRESETS: dict[str, dict[str, float]] = {
    "4K": {"t2_1": 22.4, "nu": 0.53, "t1_rho": 405.0},
    "295K": {"t2_1": 2.5, "nu": 1.23, "t1_rho": 3.2},
}

#: Hahn-echo coherence presets for the two host isotopologues.
COHERENCE_PRESETS: dict[str, dict[str, Any]] = {
    "protonated": {"t2": 2.5, "nu": 1.05, "eseem": None},
    "deuterated": {
        "t2": 22.4,
        "nu": 1.10,
        "eseem": {"a": 1.0, "b": 0.5, "frequency": 0.1402},
    },
}

#: Upper bounds on grid sizes, phase samples and fields (mT). They stop a
#: single value from asking for an array beyond memory or a frequency
#: beyond the float range. MAX_GRID_CELLS bounds sizes that multiply (the
#: two grids of a field map, a phase average over a grid); the runner
#: checks it on the resolved grids.
MAX_GRID_COUNT = 10**6
MAX_GRID_CELLS = 10**7
MAX_FIELD_GRID_COUNT = 10**4
MAX_PHASE_SAMPLES = 10**4
MAX_FIELD_MT = 1.0e5

_FIELD_RANGE = {"min": -MAX_FIELD_MT, "max": MAX_FIELD_MT}
_TRIPLE = {"type": list, "nullable": True, "default": None, "length": 3}


def _grid_spec(max_count: int, **bounds: float) -> dict[str, Any]:
    # spacing stays None when unset, so the runner can tell an explicit
    # setting from the experiment's default
    value = {"type": float, **bounds}
    return {
        "start": {**value, "nullable": True, "default": None},
        "stop": {**value, "nullable": True, "default": None},
        "count": {"type": int, "nullable": True, "default": None, "min": 2, "max": max_count},
        "spacing": {"type": str, "nullable": True, "default": None, "choices": ("linear", "log")},
        "values": {"type": list, "nullable": True, "default": None, "element": value},
    }


_SCHEMA: dict[str, Any] = {
    "experiment": {"type": str, "nullable": True, "default": None, "choices": tuple(EXPERIMENTS)},
    "seed": {"type": int, "default": 0, "min": 0},
    "out": {"type": str, "nullable": True, "default": None},
    "format": {"type": str, "default": "csv", "choices": ("csv", "json")},
    "gamma": {"type": float, "default": -28.0},
    "zfs": {
        "nested": {
            "d": {"type": float, "default": 1905.0},
            "e": {"type": float, "default": -475.0},
        }
    },
    "field": {
        "nested": {
            "axis": {"type": str, "default": "z", "choices": ("x", "y", "z")},
            "magnitude": {"type": float, "default": 0.0, **_FIELD_RANGE},
            "bx": {"type": float, "nullable": True, "default": None, **_FIELD_RANGE},
            "by": {"type": float, "nullable": True, "default": None, **_FIELD_RANGE},
            "bz": {"type": float, "nullable": True, "default": None, **_FIELD_RANGE},
        }
    },
    "kinetics": {
        "preset": KINETICS_PRESETS,
        "nested": {
            "preset": {"type": str, "nullable": True, "default": "4K", "choices": tuple(KINETICS_PRESETS)},
            "lifetimes": {**_TRIPLE, "element": {"type": float, "min_exclusive": 0.0}},
            "populations": {**_TRIPLE, "element": {"type": float, "min": 0.0}},
            "pump_rate": {"type": float, "default": 100.0, "min": 0.0},
            "s1_lifetime": {"type": float, "default": 0.01, "min_exclusive": 0.0},
            "isc_yield": {"type": float, "default": 0.002, "min": 0.0, "max": 1.0},
        },
    },
    "init": {
        "nested": {
            "duration": {"type": float, "default": 15.0, "min": 0.0},
            "intensity": {"type": float, "default": 1.0, "min": 0.0},
        }
    },
    "readout": {
        "nested": {
            "duration": {"type": float, "default": 1.0, "min_exclusive": 0.0},
            "intensity": {"type": float, "default": 1.0, "min_exclusive": 0.0},
            "delay": {"type": float, "nullable": True, "default": None, "min": 0.0},
        }
    },
    "pulse": {
        "nested": {
            "rabi": {"type": float, "default": 5.0, "min_exclusive": 0.0},
            "t2_star": {"type": float, "nullable": True, "default": 0.195, "min_exclusive": 0.0},
            "detuning": {"type": float, "default": 0.0},
        }
    },
    "coherence": {
        "preset": COHERENCE_PRESETS,
        "nested": {
            "preset": {
                "type": str,
                "nullable": True,
                "default": "deuterated",
                "choices": tuple(COHERENCE_PRESETS),
            },
            "t2": {"type": float, "default": 22.4, "min_exclusive": 0.0},
            "nu": {"type": float, "default": 1.10, "min_exclusive": 0.0, "max": 4.0},
            "eseem": {
                "nullable": True,
                "default": {"a": 1.0, "b": 0.5, "frequency": 0.1402},
                "nested": {
                    "a": {"type": float, "default": 1.0, "min": 0.0},
                    "b": {"type": float, "default": 0.5, "min": 0.0},
                    "frequency": {"type": float, "default": 0.1402, "min_exclusive": 0.0},
                },
            },
        },
    },
    "dd": {
        "preset": DD_PRESETS,
        "nested": {
            "preset": {"type": str, "nullable": True, "default": "4K", "choices": tuple(DD_PRESETS)},
            "t2_1": {"type": float, "default": 22.4, "min_exclusive": 0.0},
            "nu": {"type": float, "default": 0.53, "min_exclusive": 0.0, "max": 4.0},
            "t1_rho": {"type": float, "default": 405.0, "min_exclusive": 0.0},
        },
    },
    "ac": {
        "nested": {
            "amplitude": {"type": float, "default": 1.34e-3, "min": 0.0},
            "frequency": {"type": float, "default": 0.1, "min_exclusive": 0.0},
            "phase": {"type": float, "nullable": True, "default": None},
            "phase_samples": {"type": int, "default": 64, "min": 1, "max": MAX_PHASE_SAMPLES},
            "sampling": {"type": str, "default": "grid", "choices": ("grid", "random")},
        }
    },
    "nuclear": {
        "nested": {
            "species": {
                "type": str,
                "nullable": True,
                "default": "proton",
                "choices": ("proton", "deuteron"),
            },
            "gamma": {"type": float, "nullable": True, "default": None, "min_exclusive": 0.0},
            "t1": {"type": float, "default": 2000.0, "min_exclusive": 0.0},
            "tau": {"type": float, "nullable": True, "default": None, "min_exclusive": 0.0},
            "amplitude": {"type": float, "default": 0.05, "min": 0.0},
        }
    },
    "dark": {
        "nested": {
            "g_factor": {"type": float, "default": 2.0, "min_exclusive": 0.0},
            "coupling_mean": {"type": float, "default": 0.5},
            "coupling_spread": {"type": float, "default": 0.2, "min": 0.0},
            "linewidth": {"type": float, "default": 2.0, "min_exclusive": 0.0},
            "t_fix": {"type": float, "default": 0.5, "min_exclusive": 0.0},
            "drive_rabi": {"type": float, "default": 35.4, "min": 0.0},
            "detuning": {"type": float, "default": 0.0},
        }
    },
    "odmr": {
        "nested": {
            "multilevel": {"type": bool, "default": False},
            "linewidth": {"type": float, "default": 20.0, "min_exclusive": 0.0},
        }
    },
    "grid": {"nested": _grid_spec(MAX_GRID_COUNT)},
    "field_grid": {"nested": _grid_spec(MAX_FIELD_GRID_COUNT, **_FIELD_RANGE)},
    "fit": {
        "nested": {
            "model": {"type": str, "nullable": True, "default": None},
            "input": {"type": str, "nullable": True, "default": None},
            "x_column": {"type": (int, str), "default": 0},
            "y_column": {"type": (int, str), "default": 1},
            "initial_guess": {"type": list, "nullable": True, "default": None, "element": {"type": float}},
            "max_iter": {"type": int, "default": 200, "min": 1},
        }
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated configuration, still in CLI units."""

    experiment: str
    seed: int
    out: str | None
    format: str
    sections: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.sections[key]


#: How a type error names each expected type other than float.
_EXPECTED = {
    int: "an integer", bool: "a boolean", list: "a list", str: "str", (int, str): "int or str"
}

#: (schema key, test that fails a value, rule as the message states it)
_BOUNDS = (
    ("min", operator.lt, ">="), ("min_exclusive", operator.le, ">"), ("max", operator.gt, "<=")
)


def _coerce_scalar(value: Any, spec: dict, path: str) -> Any:
    expected = spec.get("type", float)
    if value is None:
        if spec.get("nullable", False):
            return None
        raise ConfigError(f"{path}: null is not allowed here")
    if expected is float:
        if isinstance(value, bool):
            raise ConfigError(f"{path}: expected a number, got a boolean")
        if not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected float, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: number is out of the floating-point range") from None
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be a finite number, got {value}")
    # a bool is an int to isinstance, so it passes only where bool is asked for
    elif isinstance(value, bool) != (expected is bool) or not isinstance(value, expected):
        raise ConfigError(f"{path}: expected {_EXPECTED[expected]}, got {type(value).__name__}")
    elif expected is list:
        value = [_coerce_scalar(v, spec["element"], f"{path}[{k}]") for k, v in enumerate(value)]
        length = spec.get("length")
        if length is not None and len(value) != length:
            raise ConfigError(f"{path}: expected {length} entries, got {len(value)}")
    choices = spec.get("choices")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: {value!r} is not one of {list(choices)}")
    for key, fails, rule in _BOUNDS:
        bound = spec.get(key)
        if bound is not None and fails(value, bound):
            raise ConfigError(f"{path}: must be {rule} {bound}, got {value}")
    return value


def _validate_nested(raw: Any, nested: dict, path: str) -> dict:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - set(nested)
    if unknown:
        known = ", ".join(sorted(nested))
        raise ConfigError(
            f"{path}.{sorted(unknown)[0]}: unknown key (known keys: {known})"
        )
    out = {}
    for key, spec in nested.items():
        sub_path = f"{path}.{key}" if path else key
        if "nested" in spec:
            if key not in raw:
                default = spec.get("default", {})
                out[key] = (
                    None if default is None else _validate_nested(default, spec["nested"], sub_path)
                )
            elif raw[key] is None:
                if not spec.get("nullable", False):
                    raise ConfigError(f"{sub_path}: null is not allowed here")
                out[key] = None
            else:
                out[key] = _validate_nested(raw[key], spec["nested"], sub_path)
        else:
            out[key] = _coerce_scalar(raw.get(key, spec.get("default")), spec, sub_path)
    return out


def _expand_preset(section: Any, presets: dict, default_preset: Any, path: str) -> Any:
    """Overlay a named preset under any explicitly given keys.

    Sections that do not mention "preset" get the schema default preset;
    an explicit "preset": null opts out entirely.
    """
    if not isinstance(section, dict):
        return section
    name = section.get("preset", default_preset)
    if name is None:
        return section
    if not isinstance(name, str) or name not in presets:
        raise ConfigError(f"{path}.preset: {name!r} is not one of {sorted(presets)}")
    merged = {k: list(v) if isinstance(v, list) else v for k, v in presets[name].items()}
    merged.update({k: v for k, v in section.items() if k != "preset"})
    merged["preset"] = name
    return merged


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply --set key=value overrides (dotted paths, JSON values)."""
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"--set expects key=value, got {assignment!r}")
        key, _, text = assignment.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"--set expects a nonempty key, got {assignment!r}")
        try:
            value = json.loads(text)
        except ValueError:  # not JSON (or an integer past the conversion limit)
            value = text
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = {}
                node[part] = nxt
            elif not isinstance(nxt, dict):
                raise ConfigError(f"--set {key}: {part} is not a section")
            node = nxt
        node[parts[-1]] = value
    return out


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or undecodable bytes
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return raw


def _check_physics(sections: dict) -> None:
    zfs = sections["zfs"]
    if abs(zfs["e"]) > abs(zfs["d"]):
        raise ConfigError(
            f"zfs: |E| <= |D| is required, got D={zfs['d']} MHz, E={zfs['e']} MHz"
        )
    if sections["gamma"] == 0.0:
        raise ConfigError("gamma: must be nonzero")
    kin = sections["kinetics"]
    if kin["lifetimes"] is None or kin["populations"] is None:
        raise ConfigError(
            "kinetics: lifetimes and populations are required when no preset is selected"
        )
    if sum(kin["populations"]) <= 0.0:
        raise ConfigError(
            "kinetics.populations: must be nonnegative with a positive sum, "
            f"got {kin['populations']}"
        )
    eseem = sections["coherence"]["eseem"]
    if eseem is not None and eseem["b"] > eseem["a"]:
        raise ConfigError(
            f"coherence.eseem: a >= b >= 0 is required, got a={eseem['a']}, b={eseem['b']}"
        )
    for key in ("grid", "field_grid"):
        grid = sections[key]
        if grid["values"] is not None:
            if not grid["values"]:
                raise ConfigError(f"{key}.values: must not be empty")
            continue
        bounds = (grid["start"], grid["stop"], grid["count"])
        if all(b is None for b in bounds):
            continue
        if any(b is None for b in bounds):
            raise ConfigError(f"{key}: start, stop and count must be given together")
        if grid["spacing"] == "log" and (grid["start"] <= 0.0 or grid["stop"] <= 0.0):
            raise ConfigError(f"{key}: log spacing needs start > 0 and stop > 0")


#: Experiments that sweep the field magnitude along `field.axis` over a grid.
_SWEPT_FIELD_GRIDS = {"spectrum": "grid", "field-odmr": "field_grid"}


def _check_swept_field(experiment: str, field: dict) -> None:
    grid = _SWEPT_FIELD_GRIDS.get(experiment)
    if grid is None:
        return
    given = [f"field.{k}" for k in ("bx", "by", "bz") if field[k] is not None]
    if field["magnitude"] != 0.0:
        given.insert(0, "field.magnitude")
    if given:
        raise ConfigError(
            f"{given[0]}: {experiment} sweeps the field along field.axis over {grid} (mT) "
            f"and takes no static field; give the fields as {grid}.values or "
            f"{grid}.start, {grid}.stop and {grid}.count"
        )


def _check_out(path: str) -> None:
    if os.path.isdir(path):
        raise ConfigError(f"out: {path!r} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"out: directory {parent!r} does not exist")


def parse_config(
    raw: dict,
    experiment: str | None = None,
    seed: int | None = None,
    out: str | None = None,
    fmt: str | None = None,
) -> ExperimentConfig:
    """Validate a raw configuration mapping into an ExperimentConfig.

    `experiment`, `seed`, `out` and `fmt` are direct flags: each one that
    is given replaces the mapping's value before validation, as a --set
    override replaces a config-file value.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration must be a mapping, got {type(raw).__name__}")
    flags = {"experiment": experiment, "seed": seed, "out": out, "format": fmt}
    raw = {**raw, **{key: value for key, value in flags.items() if value is not None}}
    for key, spec in _SCHEMA.items():
        if "preset" in spec:
            default_preset = spec["nested"]["preset"].get("default")
            raw[key] = _expand_preset(raw.get(key, {}), spec["preset"], default_preset, key)
    sections = _validate_nested(raw, _SCHEMA, "")
    if sections["experiment"] is None:
        raise ConfigError(f"experiment: required; choose one of {list(EXPERIMENTS)}")
    if sections["out"] is not None:
        _check_out(sections["out"])
    _check_physics(sections)
    _check_swept_field(sections["experiment"], sections["field"])
    if sections["experiment"] == "ac-sense" and sections["ac"]["phase"] is not None:
        for key in ("phase_samples", "sampling"):
            if key in raw.get("ac", {}):
                raise ConfigError(
                    f"ac.{key}: ac-sense takes no phase average with ac.phase set; "
                    f"give ac.{key} or ac.phase, not both"
                )
    fit = sections["fit"]
    if fit["model"] is not None:
        from .fitting import MODELS

        if fit["model"] not in MODELS:
            raise ConfigError(
                f"fit.model: unknown model {fit['model']!r}; available: {sorted(MODELS)}"
            )
    if sections["experiment"] == "fit":
        if not fit["model"]:
            raise ConfigError("fit.model: required for the fit experiment")
        if not fit["input"]:
            raise ConfigError("fit.input: required for the fit experiment")
    return ExperimentConfig(
        experiment=sections.pop("experiment"),
        seed=sections.pop("seed"),
        out=sections.pop("out"),
        format=sections.pop("format"),
        sections=sections,
    )
