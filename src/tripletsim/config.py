"""Experiment configuration: schema, presets, strict validation, SI inputs.

Configuration units are chosen for bench ergonomics: frequencies in MHz,
times in microseconds, magnetic fields in mT, angles in degrees,
gyromagnetic ratios in MHz/mT. The type, range and unit of each key are
stated once, in its schema entry; the keys each experiment reads, the
unit of its grids and what it needs of them, in its EXPERIMENTS entry.
Every float key and every grid value has a finite lower and upper bound,
chosen so that every product and quotient the physics forms is finite;
no rule checks a product. `parse_config` converts to SI once and builds
the physics objects; `_grids` resolves every grid, given or default,
once, and checks it, with the default range that each experiment's
physics states beside its runner, in `runner.PHYSICS`; `_check_physics`
holds the rules that tie keys together. Unknown keys are rejected with
their full path, and so is a key given to an experiment that does not
read it. Precedence is defaults < config file < --set overrides < direct
flags.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
from dataclasses import dataclass
from typing import Any

from .errors import EXPONENT_CAP, ConfigError, InvalidParameterError

#: Factors from the configuration's units to SI, the only place one is
#: written: MHz to Hz, us to s, mT to T, MHz/mT to Hz/T, and degrees to
#: radians (x * DEGREE is math.radians(x), bit for bit).
MHZ = 1.0e6
US = 1.0e-6
MT = 1.0e-3
MHZ_PER_MT = 1.0e9
DEGREE = math.pi / 180.0

#: Upper bounds on grid sizes, phase samples, fields (mT) and gyromagnetic
#: ratios (MHz/mT). MAX_GRID_CELLS bounds sizes that multiply (the two
#: grids of a field map, a phase average over a grid).
MAX_GRID_COUNT = 10**6
MAX_GRID_CELLS = 10**7
MAX_FIELD_GRID_COUNT = 10**4
MAX_PHASE_SAMPLES = 10**4
MAX_FIELD_MT = 1.0e5
MAX_GAMMA = 1.0e6
#: Every time (us), frequency and rate (MHz), intensity and grid value is at
#: most MAX_VALUE in magnitude, and one that must be > 0 is at least
#: MIN_VALUE, as is the static field of an experiment that needs one (mT).
#: The largest phase, 2*pi*f*t, is then about 6e18 rad, and the largest
#: quotient, a frequency over the slowest rate, 1e18.
MAX_VALUE = 1.0e9
MIN_VALUE = 1.0e-9
#: The bounds of a value that may be negative, of one that may be 0, of one
#: that must be > 0, of a carrier frequency (MHz) and of a field (mT).
_SIGNED = {"min": -MAX_VALUE, "max": MAX_VALUE}
_NONNEGATIVE = {"min": 0.0, "max": MAX_VALUE}
_POSITIVE = {"min": MIN_VALUE, "max": MAX_VALUE}
_CARRIER = {"min_exclusive": 0.0, "max": MAX_VALUE}
_FIELD_RANGE = {"min": -MAX_FIELD_MT, "max": MAX_FIELD_MT}

#: One entry per experiment, the single statement of its contract:
#: "reads" names the keys it reads (a section stands for all its keys);
#: "objects" the keys `_build` makes objects of for it;
#: "grid" and "field_grid" give its default grid in CLI units (only the
#: count where the physics sets the range, see `runner.PHYSICS`, and in
#: "range_from" the keys it sets the range from) and its "unit", the
#: factor to SI; every grid value, given or default, must lie in
#: "domain" (what the values are, their unit name, their bounds);
#: "needs_field" asks for a static field of at least MIN_VALUE mT, "cells" names the sizes
#: MAX_GRID_CELLS bounds together, "sweeps" the grid of swept fields (mT),
#: and "required" the keys it cannot run without.
EXPERIMENTS: dict[str, dict[str, Any]] = {
    "spectrum": {
        "description": "Transition frequencies of the triplet at given static fields",
        "reads": "gamma zfs field.axis grid",
        "objects": "gamma zfs",
        "grid": {"values": [0.0], "unit": MT},
        "domain": ("fields", "mT", _FIELD_RANGE),
        "sweeps": "grid",
    },
    "field-odmr": {
        "description": "ODMR contrast map versus field magnitude and drive frequency",
        "reads": "gamma zfs field.axis kinetics init readout odmr.linewidth grid field_grid",
        "objects": "gamma zfs kinetics init readout",
        "grid": {"start": 600.0, "stop": 3000.0, "count": 241, "unit": MHZ},
        "field_grid": {"start": 0.0, "stop": 120.0, "count": 61, "unit": MT},
        "domain": ("carrier frequencies", "MHz", _CARRIER),
        "cells": ("field_grid", "grid"),
        "sweeps": "field_grid",
    },
    "odmr": {
        "description": "Frequency-swept pulsed ODMR contrast at fixed field",
        "reads": "gamma zfs field kinetics init readout pulse.rabi odmr.multilevel grid",
        "objects": "gamma zfs field kinetics init readout",
        "grid": {"start": 800.0, "stop": 2600.0, "count": 361, "unit": MHZ},
        "domain": ("carrier frequencies", "MHz", _CARRIER),
    },
    "rabi": {
        "description": "Driven population transfer versus pulse duration",
        "reads": "pulse grid",
        "grid": {"start": 0.0, "stop": 0.6, "count": 301, "unit": US},
        "domain": ("pulse durations", "us", _NONNEGATIVE),
    },
    "t1": {
        "description": "Ground-state recovery versus dark delay after optical shelving",
        "reads": "kinetics init.intensity grid",
        "objects": "kinetics",
        "grid": {"start": 0.5, "stop": 2000.0, "count": 200, "spacing": "log", "unit": US},
        "domain": ("delays", "us", _NONNEGATIVE),
    },
    "echo": {
        "description": "Coherence echo envelope versus total evolution time",
        "reads": "coherence grid",
        "objects": "coherence",
        "grid": {"start": 0.05, "stop": 70.0, "count": 400, "unit": US},
        "domain": ("echo times", "us", _NONNEGATIVE),
    },
    "dd-scaling": {
        "description": "Coherence time versus number of decoupling pulses",
        "reads": "dd grid",
        "objects": "dd",
        "grid": {"values": [float(2**k) for k in range(11)]},
        "domain": ("pulse numbers", "", {"min": 1.0, "max": MAX_VALUE}),
    },
    "ac-sense": {
        "description": "Echo contrast versus echo half-time under an applied AC field",
        "reads": "gamma ac grid",
        "objects": "ac",
        "grid": {"start": 0.2, "stop": 40.0, "count": 400, "unit": US},
        "domain": ("tau values", "us", _NONNEGATIVE),
        "cells": ("grid", "ac.phase_samples"),
    },
    "nmr-correlation": {
        "description": "Correlation signal oscillating at the nuclear Larmor frequency",
        "reads": "gamma field nuclear ac.phase_samples grid",
        "objects": "field nuclear",
        "grid": {"count": 1501, "unit": US, "range_from": ("field.magnitude", "nuclear.gamma")},
        "domain": ("storage times", "us", _NONNEGATIVE),
        "needs_field": True,
        "cells": ("grid", "ac.phase_samples"),
    },
    "deer": {
        "description": "Double-resonance spectrum of a dark electron spin at fixed echo time",
        "reads": "field dark.g_factor dark.coupling_mean dark.coupling_spread dark.linewidth "
        "dark.t_fix grid",
        "objects": "field dark",
        "grid": {"count": 501, "unit": MHZ, "range_from": ("field.magnitude", "dark.g_factor")},
        "domain": ("carrier frequencies", "MHz", _CARRIER),
        "needs_field": True,
    },
    "deer-rabi": {
        "description": "Dark-spin driven nutation read through the probe echo",
        "reads": "dark grid",
        "objects": "dark",
        "grid": {"start": 0.0, "stop": 0.2, "count": 401, "unit": US},
        "domain": ("pulse durations", "us", _NONNEGATIVE),
    },
    "fit": {
        "description": "Fit a registered model to a previously emitted trace",
        "reads": "fit",
        "objects": "fit.model fit.initial_guess",
        "required": ("fit.model", "fit.input"),
    },
}

_RANGE = ("start", "stop", "count", "spacing")

#: (key, the keys it leaves unread once set): a grid given by its values
#: has no range, field components replace the axis and magnitude, a
#: custom gyromagnetic ratio replaces the species, and a fixed AC phase
#: takes no phase average.
_UNREAD_WHEN_SET = (
    ("grid.values", tuple(f"grid.{k}" for k in _RANGE)),
    ("field_grid.values", tuple(f"field_grid.{k}" for k in _RANGE)),
    *((f"field.{b}", ("field.axis", "field.magnitude")) for b in ("bx", "by", "bz")),
    ("nuclear.gamma", ("nuclear.species",)),
    ("ac.phase", ("ac.phase_samples", "ac.sampling")),
)

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
#: The default molecule's presets, whose values are the schema defaults of their keys.
_COHERENCE = COHERENCE_PRESETS["deuterated"]
_ESEEM = _COHERENCE["eseem"]
_DD = DD_PRESETS["4K"]

#: A float key in MHz, us, mT or MHz/mT, with its factor to SI.
_MHZ = {"type": float, "si": MHZ}
_US = {"type": float, "si": US}
_MT = {"type": float, "si": MT}
_MHZ_PER_MT = {"type": float, "si": MHZ_PER_MT}
_FIELD = {**_MT, **_FIELD_RANGE}
#: A time that must be > 0.
_TIME = {**_US, **_POSITIVE}
#: A stretching exponent, as `errors.check_exponent` states it.
_EXPONENT = {"type": float, "min_exclusive": 0.0, "max": EXPONENT_CAP}
_TRIPLE = {"type": list, "nullable": True, "default": None, "length": 3}


def _grid_spec(max_count: int, **bounds: float) -> dict[str, Any]:
    # spacing stays None when unset, so that an explicit setting can be
    # told from the experiment's default
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
    "gamma": {**_MHZ_PER_MT, "default": -28.0, "min": -MAX_GAMMA, "max": MAX_GAMMA},
    "zfs": {
        "nested": {
            "d": {**_MHZ, **_SIGNED, "default": 1905.0},
            "e": {**_MHZ, **_SIGNED, "default": -475.0},
        }
    },
    "field": {
        "nested": {
            "axis": {"type": str, "default": "z", "choices": ("x", "y", "z")},
            "magnitude": {**_FIELD, "default": 0.0},
            "bx": {**_FIELD, "nullable": True, "default": None},
            "by": {**_FIELD, "nullable": True, "default": None},
            "bz": {**_FIELD, "nullable": True, "default": None},
        }
    },
    "kinetics": {
        "preset": KINETICS_PRESETS,
        "nested": {
            "preset": {"type": str, "nullable": True, "default": "4K", "choices": tuple(KINETICS_PRESETS)},
            "lifetimes": {**_TRIPLE, "element": _TIME},
            # in %
            "populations": {**_TRIPLE, "element": {"type": float, "min": 0.0, "max": 100.0}},
            "pump_rate": {**_MHZ, **_POSITIVE, "default": 100.0},
            "s1_lifetime": {**_TIME, "default": 0.01},
            "isc_yield": {"type": float, "default": 0.002, "min": 0.0, "max": 1.0},
        },
    },
    "init": {
        "nested": {
            "duration": {**_US, **_NONNEGATIVE, "default": 15.0},
            "intensity": {"type": float, **_NONNEGATIVE, "default": 1.0},
        }
    },
    "readout": {
        "nested": {
            "duration": {**_TIME, "default": 1.0},
            "intensity": {"type": float, **_POSITIVE, "default": 1.0},
            "delay": {**_US, **_NONNEGATIVE, "nullable": True, "default": None},
        }
    },
    "pulse": {
        "nested": {
            "rabi": {**_MHZ, **_POSITIVE, "default": 5.0},
            "t2_star": {**_TIME, "nullable": True, "default": 0.195},
            "detuning": {**_MHZ, **_SIGNED, "default": 0.0},
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
            "t2": {**_TIME, "default": _COHERENCE["t2"]},
            "nu": {**_EXPONENT, "default": _COHERENCE["nu"]},
            "eseem": {
                "nullable": True,
                "default": _ESEEM,
                "nested": {
                    # fractions of the echo
                    "a": {"type": float, "default": _ESEEM["a"], "min": 0.0, "max": 1.0},
                    "b": {"type": float, "default": _ESEEM["b"], "min": 0.0, "max": 1.0},
                    "frequency": {**_MHZ, **_POSITIVE, "default": _ESEEM["frequency"]},
                },
            },
        },
    },
    "dd": {
        "preset": DD_PRESETS,
        "nested": {
            "preset": {"type": str, "nullable": True, "default": "4K", "choices": tuple(DD_PRESETS)},
            "t2_1": {**_TIME, "default": _DD["t2_1"]},
            "nu": {**_EXPONENT, "default": _DD["nu"]},
            "t1_rho": {**_TIME, "default": _DD["t1_rho"]},
        },
    },
    "ac": {
        "nested": {
            "amplitude": {**_MT, "default": 1.34e-3, "min": 0.0, "max": MAX_FIELD_MT},
            "frequency": {**_MHZ, **_POSITIVE, "default": 0.1},
            "phase": {"type": float, "nullable": True, "default": None, "si": DEGREE,
                      "min": -360.0, "max": 360.0},
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
            "gamma": {**_MHZ_PER_MT, "nullable": True, "default": None, "min": MIN_VALUE,
                      "max": MAX_GAMMA},
            "t1": {**_TIME, "default": 2000.0},
            "tau": {**_TIME, "nullable": True, "default": None},
            "amplitude": {**_MT, "default": 0.05, "min": 0.0, "max": MAX_FIELD_MT},
        }
    },
    "dark": {
        "nested": {
            "g_factor": {"type": float, "default": 2.0, "min": MIN_VALUE, "max": 100.0},
            "coupling_mean": {**_MHZ, **_SIGNED, "default": 0.5},
            "coupling_spread": {**_MHZ, **_NONNEGATIVE, "default": 0.2},
            "linewidth": {**_MHZ, **_POSITIVE, "default": 2.0},
            "t_fix": {**_TIME, "default": 0.5},
            "drive_rabi": {**_MHZ, **_NONNEGATIVE, "default": 35.4},
            "detuning": {**_MHZ, **_SIGNED, "default": 0.0},
        }
    },
    "odmr": {
        "nested": {
            "multilevel": {"type": bool, "default": False},
            "linewidth": {**_MHZ, **_POSITIVE, "default": 20.0},
        }
    },
    "grid": {"nested": _grid_spec(MAX_GRID_COUNT, **_SIGNED)},
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


def _paths(schema: dict, prefix: str = ""):
    for key, spec in schema.items():
        yield prefix + key, spec
        yield from _paths(spec.get("nested", {}), f"{prefix}{key}.")


#: The schema entry of each dotted path.
_SPECS = dict(_paths(_SCHEMA))


@functools.cache
def _reads(name: str) -> frozenset[str]:
    """The keys `name` reads, with the sections above them and the keys below them."""
    reads = EXPERIMENTS[name]["reads"].split()
    return frozenset(
        p for p in _SPECS
        if any(p == r or p.startswith(f"{r}.") or r.startswith(f"{p}.") for r in reads)
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated configuration in CLI units, with each grid it reads as an array.

    `inputs` holds what the experiment calls the physics with, in SI units:
    each key it reads by its dotted path, each grid it reads by its key,
    and each of its "objects" by the key it is built from.
    """

    experiment: str
    seed: int
    out: str | None
    format: str
    sections: dict[str, Any]
    grids: dict[str, Any]
    inputs: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.sections[key]

    def read_sections(self) -> dict[str, Any]:
        """The sections cut down to the keys the experiment reads, as its trace echoes them."""
        return _read(self.experiment, self.sections)


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


def _expand_preset(section: Any, presets: dict, default_preset: Any) -> Any:
    """Overlay a named preset under any explicitly given keys.

    Sections that do not mention "preset" get the schema default preset;
    an explicit "preset": null opts out entirely. A section that is not a
    mapping, or names no known preset, is left as it is, for
    `_validate_nested` to refuse by the schema.
    """
    if not isinstance(section, dict):
        return section
    name = section.get("preset", default_preset)
    if not isinstance(name, str) or name not in presets:
        return section
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
    if sum(kin["populations"]) < MIN_VALUE:
        raise ConfigError(
            f"kinetics.populations: must be nonnegative with a sum of at least {MIN_VALUE:g}, "
            f"got {kin['populations']}"
        )
    eseem = sections["coherence"]["eseem"]
    if eseem is not None and eseem["b"] > eseem["a"]:
        raise ConfigError(
            f"coherence.eseem: a >= b >= 0 is required, got a={eseem['a']}, b={eseem['b']}"
        )


def _lookup(sections: dict, path: str) -> Any:
    for part in path.split("."):
        sections = sections[part]
    return sections


def _leaves(mapping: dict, prefix: str = ""):
    """The dotted paths of a (validated) mapping's values, down to its leaves."""
    for key, value in mapping.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def _unread(sections: dict, reads: frozenset[str]) -> dict[str, str]:
    """Each read key that a key set in `sections` leaves unread, mapped to that key."""
    return {
        key: setter
        for setter, keys in _UNREAD_WHEN_SET
        if setter in reads and _lookup(sections, setter) is not None
        for key in keys
    }


def _prune(sections: dict, keep: frozenset[str], prefix: str) -> dict:
    out = {}
    for key, value in sections.items():
        path = prefix + key
        if path in keep:
            out[key] = _prune(value, keep, f"{path}.") if isinstance(value, dict) else value
    return out


def _read(name: str, sections: dict) -> dict:
    """`sections` cut down to the keys `name` reads, as its trace echoes them."""
    reads = _reads(name)
    return _prune(sections, reads - _unread(sections, reads).keys(), "")


def _si(value: Any, unit: float | None) -> Any:
    """`value` (None, a float, a list or an array of floats) in SI units, by `unit`."""
    if unit is None or value is None:
        return value
    if isinstance(value, list):
        return [v * unit for v in value]
    return value * unit


def _inputs(name: str, sections: dict) -> dict[str, Any]:
    """Each key `name` reads, by its dotted path, in SI units; `_grids` adds the grids."""
    si = {}
    for path in _leaves(_read(name, sections)):
        if not path.startswith(("grid.", "field_grid.")):
            spec = _SPECS[path].get("element", _SPECS[path])  # a list states its entries' unit
            si[path] = _si(_lookup(sections, path), spec.get("si"))
    return si


def _build(name: str, si: dict[str, Any]) -> Any:
    """The object of key `name`, an EXPERIMENTS "objects" entry, from the SI inputs.

    Physics objects, and for a fit its model and the initial guess as the
    model checks it (None when no guess is given).
    """
    if name in ("gamma", "zfs", "field"):
        from .spin_model import FieldVector, GyroRatio, ZfsParams

        if name == "gamma":
            return GyroRatio(si["gamma"])
        if name == "zfs":
            return ZfsParams(d=si["zfs.d"], e=si["zfs.e"])
        components = [si[f"field.{b}"] for b in ("bx", "by", "bz")]
        if components == [None] * 3:
            return FieldVector.along(si["field.axis"], si["field.magnitude"])
        return FieldVector(*(0.0 if c is None else c for c in components))
    if name == "kinetics":
        from .photokinetics import KineticRates

        return KineticRates.from_steady_state(
            populations=tuple(si["kinetics.populations"]),
            lifetimes=tuple(si["kinetics.lifetimes"]),
            pump_rate=si["kinetics.pump_rate"],
            s1_decay_rate=1.0 / si["kinetics.s1_lifetime"],
            isc_yield=si["kinetics.isc_yield"],
        )
    if name.startswith("fit."):
        from .fitting import get_model

        if name == "fit.model":
            return get_model(si["fit.model"])
        guess = si["fit.initial_guess"]
        return None if guess is None else get_model(si["fit.model"]).validate(guess)
    if name in ("init", "readout"):
        from .pulse_engine import LaserPulse, ReadoutPulse

        pulse = LaserPulse if name == "init" else ReadoutPulse
        return pulse(duration=si[f"{name}.duration"], intensity=si[f"{name}.intensity"])
    from . import coherence as co

    if name == "nuclear":
        if si["nuclear.gamma"] is not None:
            return co.NuclearSpecies("custom", si["nuclear.gamma"])
        return co.DEUTERON if si["nuclear.species"] == "deuteron" else co.PROTON
    if name == "dark":
        coupling = co.CouplingDistribution(si["dark.coupling_mean"], si["dark.coupling_spread"])
        return co.DarkSpin(si["dark.g_factor"], coupling, si["dark.linewidth"])
    if name == "coherence":
        # a null eseem section is one key; a given one, three
        eseem = si["coherence.eseem"] if "coherence.eseem" in si else co.EseemParams(
            *(si[f"coherence.eseem.{k}"] for k in ("a", "b", "frequency"))
        )
        return co.CoherenceModel(si["coherence.t2"], si["coherence.nu"], eseem)
    if name == "dd":
        return co.DdScalingParams(si["dd.t2_1"], si["dd.nu"], si["dd.t1_rho"])
    return co.AcSignal(si["ac.amplitude"], si["ac.frequency"], si["ac.phase"])


def _resolve(name: str, key: str, section: dict, derived: dict[str, float]) -> Any:
    """One grid in CLI units: its values, its given range, or the default with `derived` over it."""
    import numpy as np

    if section["values"] is not None:
        if not section["values"]:
            raise ConfigError(f"{key}.values: must not be empty")
        return np.asarray(section["values"], dtype=float)
    lo, hi, n, how = (section[k] for k in _RANGE)
    if lo is None and hi is None and n is None:
        default = {**EXPERIMENTS[name][key], **derived}
        if "values" in default:
            if how is not None:
                raise ConfigError(
                    f"{key}.spacing: {name} has a default list of values; "
                    f"give {key}.start, {key}.stop and {key}.count with it"
                )
            return np.asarray(default["values"], dtype=float)
        lo, hi, n = default["start"], default["stop"], default["count"]
        how = how or default.get("spacing")  # a given range stays linear unless told otherwise
        if how == "log" and (lo <= 0.0 or hi <= 0.0):
            raise ConfigError(
                f"{key}.spacing: log spacing needs start > 0 and stop > 0, and the default "
                f"range of {name} is {lo:g} to {hi:g}; give {key}.start and {key}.stop"
            )
    elif lo is None or hi is None or n is None:
        raise ConfigError(f"{key}: start, stop and count must be given together")
    elif how == "log" and (lo <= 0.0 or hi <= 0.0):
        raise ConfigError(f"{key}: log spacing needs start > 0 and stop > 0")
    return np.geomspace(lo, hi, n) if how == "log" else np.linspace(lo, hi, n)


def _grids(name: str, sections: dict, si: dict[str, Any]) -> dict[str, Any]:
    """Resolve and check every grid `name` reads, as numpy arrays in CLI units; add each
    to the SI inputs `si` in SI units, with any nuclear.tau that the physics sets."""
    from .runner import PHYSICS

    spec, (_, default_range) = EXPERIMENTS[name], PHYSICS[name]
    if spec.get("needs_field") and not si["field"].magnitude >= MIN_VALUE * MT:
        raise ConfigError(
            f"field: {name} needs a static field of at least {MIN_VALUE:g} mT; "
            "set field.magnitude (mT), e.g. 190"
        )
    derived = default_range(si) if default_range else {}
    keys = [key for key in ("grid", "field_grid") if key in spec]
    grids = {key: _resolve(name, key, sections[key], derived) for key in keys}
    if "domain" in spec:
        what, unit, bounds = spec["domain"]
        grid = grids["grid"]
        for key, fails, rule in _BOUNDS:
            bad = grid[fails(grid, bounds[key])] if key in bounds else ()
            if len(bad):
                limit = f"{bounds[key]:g} {unit}".rstrip()
                need = f"grid: {name} needs {what} {rule} {limit}"
                given = (sections["grid"][k] for k in ("values", "start", "stop", "count"))
                if derived and all(value is None for value in given):
                    keys = " and ".join(spec["grid"]["range_from"])
                    raise ConfigError(
                        f"{need}; its default range, derived from {keys}, reaches {bad[0]:g}; "
                        "change those keys or give the grid"
                    )
                raise ConfigError(f"{need}; got {bad[0]:g}")
    cells = spec.get("cells", ())
    if cells and not _unread(sections, _reads(name)).keys() & set(cells):
        n_rows, n_cols = (grids[k].size if k in grids else _lookup(sections, k) for k in cells)
        if n_rows * n_cols > MAX_GRID_CELLS:
            raise ConfigError(
                f"{' x '.join(cells)}: {name} would compute {n_rows} x {n_cols} cells, "
                f"more than the {MAX_GRID_CELLS} allowed; reduce one of them"
            )
    si.update((key, _si(grids[key], spec[key].get("unit"))) for key in keys)
    return grids


def _check_contract(name: str, given: dict, sections: dict) -> None:
    """Hold the experiment to its EXPERIMENTS entry; `given` holds the keys set explicitly."""
    spec, reads = EXPERIMENTS[name], _reads(name)
    unread = _unread(sections, reads)
    for key in _leaves(given):
        if key in unread:
            raise ConfigError(
                f"{key}: {name} does not read it with {unread[key]} set; "
                f"give {key} or {unread[key]}, not both"
            )
        sweeps = spec.get("sweeps")
        if key not in reads and sweeps is not None and key.startswith("field."):
            raise ConfigError(
                f"{key}: {name} sweeps the field along field.axis over {sweeps} (mT) "
                f"and takes no static field; give the fields as {sweeps}.values or "
                f"{sweeps}.start, {sweeps}.stop and {sweeps}.count"
            )
        if key not in reads:
            raise ConfigError(f"{key}: {name} does not read it; it reads {spec['reads']}")
    for key in spec.get("required", ()):
        if not _lookup(sections, key):
            raise ConfigError(f"{key}: required for the {name} experiment")


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
    merged = {**raw, **{key: value for key, value in flags.items() if value is not None}}
    for key, spec in _SCHEMA.items():
        if "preset" in spec:
            default_preset = spec["nested"]["preset"].get("default")
            merged[key] = _expand_preset(merged.get(key, {}), spec["preset"], default_preset)
    sections = _validate_nested(merged, _SCHEMA, "")
    if sections["experiment"] is None:
        raise ConfigError(f"experiment: required; choose one of {list(EXPERIMENTS)}")
    if sections["out"] is not None:
        _check_out(sections["out"])
    name, given = sections["experiment"], {k: v for k, v in raw.items() if k not in flags}
    _check_contract(name, given, sections)
    si = _inputs(name, sections)
    _check_physics(sections)
    for key in EXPERIMENTS[name].get("objects", "").split():
        try:  # stored under its key; the ratio `gamma` gives way to its GyroRatio
            si[key] = _build(key, si)
        except InvalidParameterError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    grids = _grids(name, sections, si)
    return ExperimentConfig(
        experiment=sections.pop("experiment"),
        seed=sections.pop("seed"),
        out=sections.pop("out"),
        format=sections.pop("format"),
        sections=sections,
        grids=grids,
        inputs=si,
    )
