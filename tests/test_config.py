import json
import math
import re
from pathlib import Path

import pytest

from tripletsim.config import (
    _SPECS,
    DEGREE,
    EXPERIMENTS,
    MAX_FIELD_MT,
    MAX_VALUE,
    MHZ,
    MHZ_PER_MT,
    MT,
    US,
    apply_overrides,
    load_config_file,
    parse_config,
)
from tripletsim.errors import ConfigError


def parse(raw=None, **kwargs):
    kwargs.setdefault("experiment", "spectrum")
    return parse_config(raw if raw is not None else {}, **kwargs)


def test_defaults_fill_every_section():
    cfg = parse()
    assert cfg.experiment == "spectrum"
    assert cfg.seed == 0
    assert cfg.format == "csv"
    assert cfg.out is None
    assert cfg["zfs"] == {"d": 1905.0, "e": -475.0}
    assert cfg["gamma"] == -28.0
    assert cfg["kinetics"]["lifetimes"] == [514.0, 21.2, 111.0]
    assert cfg["kinetics"]["populations"] == [26.3, 53.8, 19.9]
    assert cfg["pulse"]["rabi"] == 5.0
    assert cfg["pulse"]["t2_star"] == 0.195
    assert cfg["dd"] == {"preset": "4K", "t2_1": 22.4, "nu": 0.53, "t1_rho": 405.0}
    assert cfg["coherence"]["t2"] == 22.4
    assert cfg["coherence"]["eseem"]["frequency"] == 0.1402
    assert cfg["ac"]["amplitude"] == 1.34e-3
    assert cfg["nuclear"]["species"] == "proton"


def test_experiment_catalog_is_closed():
    assert set(EXPERIMENTS) == {
        "spectrum",
        "field-odmr",
        "odmr",
        "rabi",
        "t1",
        "echo",
        "dd-scaling",
        "ac-sense",
        "nmr-correlation",
        "deer",
        "deer-rabi",
        "fit",
    }
    assert all(isinstance(v["description"], str) and v["description"] for v in EXPERIMENTS.values())


def test_every_experiment_has_one_physics_entry():
    from tripletsim.runner import PHYSICS

    assert list(PHYSICS) == list(EXPERIMENTS)


def test_preset_expansion_and_explicit_override():
    cfg = parse({"kinetics": {"preset": "295K"}}, experiment="t1")
    assert cfg["kinetics"]["lifetimes"] == [73.0, 18.9, 61.0]
    # explicit keys win over the preset they sit on top of
    cfg = parse({"kinetics": {"preset": "295K", "lifetimes": [70.0, 20.0, 60.0]}}, experiment="t1")
    assert cfg["kinetics"]["lifetimes"] == [70.0, 20.0, 60.0]
    assert cfg["kinetics"]["populations"] == [30.5, 41.6, 27.9]


def test_preset_opt_out_requires_explicit_kinetics():
    with pytest.raises(ConfigError, match="required when no preset"):
        parse({"kinetics": {"preset": None}}, experiment="t1")
    cfg = parse(
        {
            "kinetics": {
                "preset": None,
                "lifetimes": [100.0, 10.0, 50.0],
                "populations": [30.0, 50.0, 20.0],
            }
        },
        experiment="t1",
    )
    assert cfg["kinetics"]["preset"] is None


def test_unknown_preset_name():
    with pytest.raises(ConfigError, match="77K"):
        parse({"kinetics": {"preset": "77K"}})


def test_unknown_keys_are_rejected_with_known_list():
    with pytest.raises(ConfigError, match="unknown key"):
        parse({"zfs": {"d": 1905.0, "q": 1.0}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse({"spelling": 1})


def test_type_errors():
    with pytest.raises(ConfigError, match="expected float, got str"):
        parse({"zfs": {"d": "big"}})
    with pytest.raises(ConfigError, match="boolean"):
        parse({"zfs": {"d": True}})
    with pytest.raises(ConfigError, match="expected an integer"):
        parse({"seed": 1.5})
    with pytest.raises(ConfigError, match="expected an integer"):
        parse({"seed": True})
    with pytest.raises(ConfigError, match="expected a list"):
        parse({"kinetics": {"lifetimes": 514.0}})
    with pytest.raises(ConfigError, match="expected 3 entries"):
        parse({"kinetics": {"lifetimes": [1.0, 2.0]}})
    with pytest.raises(ConfigError, match="expected a mapping"):
        parse({"zfs": 5})
    with pytest.raises(ConfigError, match="mapping"):
        parse_config([], experiment="spectrum")
    with pytest.raises(ConfigError, match="fit.x_column: expected int or str, got bool"):
        parse({"fit": {"x_column": False}})


def test_integers_coerce_to_floats():
    cfg = parse({"zfs": {"d": 1905, "e": -475}})
    assert cfg["zfs"]["d"] == 1905.0
    assert isinstance(cfg["zfs"]["d"], float)


def test_range_errors():
    with pytest.raises(ConfigError, match="must be >= 0"):
        parse({"seed": -1})
    with pytest.raises(ConfigError, match="must be >= 1e-09"):
        parse({"pulse": {"rabi": 0.0}})
    with pytest.raises(ConfigError, match="must be > 0"):
        parse({"coherence": {"nu": 0.0}}, experiment="echo")
    with pytest.raises(ConfigError, match="must be <= 4"):
        parse({"coherence": {"nu": 4.5}})
    with pytest.raises(ConfigError, match="must be <= 1"):
        parse({"kinetics": {"isc_yield": 1.5}})


def test_choice_errors():
    with pytest.raises(ConfigError, match="not one of"):
        parse_config({}, experiment="teleport")
    with pytest.raises(ConfigError, match="not one of"):
        parse({"field": {"axis": "w"}})
    with pytest.raises(ConfigError, match="not one of"):
        parse({"format": "yaml"})


def test_experiment_required():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config({})


def test_direct_flags_take_precedence():
    raw = {"experiment": "spectrum", "seed": 3, "format": "csv"}
    cfg = parse_config(raw, experiment="rabi", seed=9, out="x.json", fmt="json")
    assert cfg.experiment == "rabi"
    assert cfg.seed == 9
    assert cfg.out == "x.json"
    assert cfg.format == "json"


def test_direct_flags_replace_raw_values_before_validation():
    # as a --set override replaces a config-file value, a flag replaces the
    # raw value, which is then never validated
    cfg = parse_config({"seed": "x", "format": "yaml"}, experiment="t1", seed=3, fmt="csv")
    assert (cfg.seed, cfg.format) == (3, "csv")
    cfg = parse_config({"experiment": "teleport"}, experiment="t1")
    assert cfg.experiment == "t1"
    with pytest.raises(ConfigError, match="seed: expected an integer, got str"):
        parse_config({"seed": "x"}, experiment="t1")


def test_nullable_fields_accept_null():
    assert parse({"readout": {"delay": None}}, experiment="odmr")["readout"]["delay"] is None
    assert parse({"pulse": {"t2_star": None}}, experiment="rabi")["pulse"]["t2_star"] is None
    with pytest.raises(ConfigError, match="null is not allowed"):
        parse({"zfs": {"d": None}})


def test_physics_consistency_checks():
    with pytest.raises(ConfigError, match=r"\|E\| <= \|D\|"):
        parse({"zfs": {"d": 100.0, "e": 200.0}})
    with pytest.raises(ConfigError, match="nonzero"):
        parse({"gamma": 0.0})
    with pytest.raises(ConfigError, match="a >= b"):
        parse({"coherence": {"eseem": {"a": 0.2, "b": 0.5}}}, experiment="echo")
    with pytest.raises(ConfigError, match="given together"):
        parse({"grid": {"start": 0.0}})
    with pytest.raises(ConfigError, match="log spacing"):
        parse({"grid": {"start": 0.0, "stop": 10.0, "count": 5, "spacing": "log"}})


@pytest.mark.parametrize(
    "experiment, raw, message",
    [
        ("rabi", {"grid": {"spacing": "log"}}, "grid.spacing: log spacing needs start > 0"),
        ("dd-scaling", {"grid": {"spacing": "linear"}}, "dd-scaling has a default list of values"),
    ],
)
def test_default_grids_are_resolved_and_checked_by_parse_config(experiment, raw, message):
    with pytest.raises(ConfigError) as info:
        parse_config(raw, experiment=experiment)
    assert message in str(info.value)


_DERIVED = (
    "grid: nmr-correlation needs storage times <= 1e+09 us; its default range, derived from "
    "field.magnitude and nuclear.gamma, reaches 1.40911e+09; change those keys or give the grid"
)


@pytest.mark.parametrize(
    "raw, message",
    [
        # the proton's Larmor period at the least field nmr-correlation takes is 2.3e10 us
        ({"field": {"magnitude": 1e-9}}, _DERIVED),
        ({"field": {"magnitude": 1e-9}, "grid": {"spacing": "linear"}}, _DERIVED),
        # a grid given out of its domain is named as given, whatever the default range
        (
            {"field": {"magnitude": 1e-9}, "grid": {"start": -1.0, "stop": 10.0, "count": 3}},
            "grid: nmr-correlation needs storage times >= 0 us; got -1",
        ),
        (
            {"field": {"magnitude": 1e-9}, "grid": {"values": [-1.0]}},
            "grid: nmr-correlation needs storage times >= 0 us; got -1",
        ),
    ],
    ids=["derived", "derived-with-spacing", "given-range", "given-values"],
)
def test_a_default_range_out_of_its_domain_names_the_keys_it_is_derived_from(raw, message):
    with pytest.raises(ConfigError) as info:
        parse_config(raw, experiment="nmr-correlation")
    assert str(info.value) == message


def test_the_default_deer_range_stays_in_its_domain_at_the_bounds_of_its_keys():
    # the resonance at the largest field and g-factor is 1.4e8 MHz, inside (0, 1e9]
    cfg = parse_config(
        {"field": {"magnitude": MAX_FIELD_MT}, "dark": {"g_factor": 100.0}}, experiment="deer"
    )
    assert 0.0 < cfg.grids["grid"].min() and cfg.grids["grid"].max() <= MAX_VALUE
    assert EXPERIMENTS["deer"]["grid"]["range_from"] == ("field.magnitude", "dark.g_factor")


@pytest.mark.parametrize(
    "experiment, light",
    [("t1", "init"), ("odmr", "init"), ("odmr", "readout"), ("field-odmr", "init"),
     ("field-odmr", "readout")],
)
def test_pump_rate_times_intensity_must_be_finite_in_si(experiment, light):
    # the product the kinetics form, in 1/s, is finite at the bounds of both factors
    with pytest.raises(ConfigError, match=f"{light}.intensity: must be <="):
        parse({light: {"intensity": 1e305}}, experiment=experiment)
    with pytest.raises(ConfigError, match="kinetics.pump_rate: must be <="):
        parse({"kinetics": {"pump_rate": 1e300}}, experiment=experiment)
    largest = {"kinetics": {"pump_rate": MAX_VALUE}, light: {"intensity": MAX_VALUE}}
    cfg = parse(largest, experiment=experiment)
    assert math.isfinite(cfg.inputs["kinetics.pump_rate"] * cfg.inputs[f"{light}.intensity"])


def test_grids_hold_one_array_per_grid_read():
    assert set(parse(experiment="field-odmr").grids) == {"grid", "field_grid"}
    assert set(parse(experiment="odmr").grids) == {"grid"}
    assert parse({"fit": {"model": "linear", "input": "x.csv"}}, experiment="fit").grids == {}
    cfg = parse({"field": {"magnitude": 190.0}}, experiment="nmr-correlation")
    f_n = 42.58e6 * 0.19  # the proton's Larmor frequency at 190 mT, Hz
    assert cfg.grids["grid"][0] == 0.0
    assert cfg.grids["grid"][-1] == pytest.approx(30.0 / f_n / 1e-6, rel=1e-12)
    # the trace echoes the keys as given: no resolved value goes into the sections
    assert cfg["grid"] == {"start": None, "stop": None, "count": None, "spacing": None,
                           "values": None}


def test_inputs_hold_each_read_key_in_si_units_and_the_physics_objects():
    from tripletsim.coherence import AcSignal
    from tripletsim.spin_model import FieldVector, GyroRatio

    cfg = parse({"ac": {"phase": 33.3, "amplitude": 2.0}}, experiment="ac-sense")
    # the phase in radians exactly as math.radians gives it; gamma stays a ratio in Hz/T
    assert cfg.inputs["ac"] == AcSignal(2.0 * 1e-3, 0.1 * 1e6, math.radians(33.3))
    assert cfg.inputs["gamma"] == -28.0 * 1e9 and "ac.sampling" not in cfg.inputs  # unread
    assert cfg.inputs["grid"].tobytes() == (cfg.grids["grid"] * 1e-6).tobytes()
    cfg = parse({"field": {"by": 30.0}}, experiment="odmr")
    assert cfg.inputs["field"] == FieldVector(0.0, 30.0 * 1e-3, 0.0)
    assert cfg.inputs["gamma"] == GyroRatio(-28.0 * 1e9)
    assert cfg.inputs["kinetics"].s1_decay_rate == 1.0 / (0.01 * 1e-6)
    assert "field.axis" not in cfg.inputs
    # the echo half-time that nmr-correlation derives from the Larmor frequency
    cfg = parse({"field": {"magnitude": 190.0}}, experiment="nmr-correlation")
    assert cfg.inputs["nuclear.tau"] == 0.5 / (42.58e6 * (190.0 * 1e-3))


def test_fit_experiment_requires_model_and_input():
    with pytest.raises(ConfigError, match="fit.model"):
        parse_config({}, experiment="fit")
    with pytest.raises(ConfigError, match="fit.input"):
        parse_config({"fit": {"model": "linear"}}, experiment="fit")
    cfg = parse_config(
        {"fit": {"model": "linear", "input": "trace.csv"}}, experiment="fit"
    )
    assert cfg["fit"]["model"] == "linear"


def test_apply_overrides_dotted_paths_and_json_values():
    raw = {"zfs": {"d": 1905.0}}
    out = apply_overrides(
        raw,
        [
            "zfs.e=-475",
            "kinetics.preset=295K",
            "kinetics.lifetimes=[73, 18.9, 61]",
            "odmr.multilevel=true",
            "out=trace.csv",
        ],
    )
    assert out["zfs"]["e"] == -475
    assert out["kinetics"]["preset"] == "295K"
    assert out["kinetics"]["lifetimes"] == [73, 18.9, 61]
    assert out["odmr"]["multilevel"] is True
    assert out["out"] == "trace.csv"  # unquoted strings pass through
    assert raw == {"zfs": {"d": 1905.0}}  # input untouched


def test_apply_overrides_errors():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["novalue"])
    with pytest.raises(ConfigError, match="nonempty key"):
        apply_overrides({}, ["=3"])
    with pytest.raises(ConfigError, match="not a section"):
        apply_overrides({"gamma": -28.0}, ["gamma.x=1"])


def test_overridden_config_validates_end_to_end():
    out = apply_overrides({}, ["kinetics.preset=295K", "seed=5"])
    cfg = parse_config(out, experiment="t1")
    assert cfg.seed == 5
    assert cfg["kinetics"]["lifetimes"] == [73.0, 18.9, 61.0]


def test_load_config_file(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"seed": 11}))
    assert load_config_file(str(path)) == {"seed": 11}
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config_file(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config_file(str(arr))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("key", ["grid", "field_grid"])
def test_grid_sections_share_their_checks(key):
    experiment = "spectrum" if key == "grid" else "field-odmr"
    with pytest.raises(ConfigError, match=f"{key}: start, stop and count"):
        parse({key: {"start": 0.0}}, experiment=experiment)
    with pytest.raises(ConfigError, match=f"{key}: start, stop and count"):
        parse({key: {"stop": 10.0, "count": 5}}, experiment=experiment)
    with pytest.raises(ConfigError, match=f"{key}: log spacing"):
        parse({key: {"start": 0.0, "stop": 10.0, "count": 5, "spacing": "log"}},
              experiment=experiment)
    with pytest.raises(ConfigError, match=rf"{key}\.values: must not be empty"):
        parse({key: {"values": []}}, experiment=experiment)
    cfg = parse({key: {"start": 1.0, "stop": 10.0, "count": 5, "spacing": "log"}},
                experiment=experiment)
    assert cfg[key]["count"] == 5


def test_non_finite_numbers_are_rejected():
    for text in ("NaN", "Infinity", "-Infinity", "1e999"):
        raw = apply_overrides({}, [f"field.magnitude={text}"])
        with pytest.raises(ConfigError, match="field.magnitude: must be a finite number"):
            parse(raw)
    with pytest.raises(ConfigError, match=r"kinetics\.lifetimes\[1\]: must be a finite"):
        parse({"kinetics": {"lifetimes": [1.0, float("nan"), 2.0]}})
    with pytest.raises(ConfigError, match="out of the floating-point range"):
        parse({"gamma": 10**400})


def test_unknown_fit_model_lists_the_registered_ones():
    with pytest.raises(ConfigError, match=r"fit.model: unknown model 'bogus'; available: \["):
        parse_config({"fit": {"model": "bogus", "input": "trace.csv"}}, experiment="fit")


def test_out_must_name_a_file_in_an_existing_directory(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        parse(out=str(tmp_path / "absent" / "x.csv"))
    with pytest.raises(ConfigError, match="is a directory"):
        parse({"out": str(tmp_path)})
    assert parse(out=str(tmp_path / "x.csv")).out == str(tmp_path / "x.csv")


def test_preset_must_be_a_name():
    with pytest.raises(ConfigError, match="kinetics.preset"):
        parse({"kinetics": {"preset": ["4K"]}})


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"kinetics": {"lifetimes": [1.0, -2.0, 3.0]}},
         "kinetics.lifetimes[1]: must be >= 1e-09, got -2.0"),
        ({"kinetics": {"lifetimes": [0.0, 2.0, 3.0]}},
         "kinetics.lifetimes[0]: must be >= 1e-09, got 0.0"),
        (
            {"kinetics": {"populations": [1.0, 2.0, -3.0]}},
            "kinetics.populations[2]: must be >= 0.0, got -3.0",
        ),
        (
            {"field_grid": {"values": [0.0, 2e5]}},
            "field_grid.values[1]: must be <= 100000.0, got 200000.0",
        ),
        (
            {"field_grid": {"start": -2e5, "stop": 0.0, "count": 3}},
            "field_grid.start: must be >= -100000.0, got -200000.0",
        ),
        ({"grid": {"values": [1.0, "a"]}}, "grid.values[1]: expected float, got str"),
        (
            {"fit": {"initial_guess": [1.0, True]}},
            "fit.initial_guess[1]: expected a number, got a boolean",
        ),
    ],
)
def test_list_entries_are_checked_and_named_by_index(raw, message):
    with pytest.raises(ConfigError) as info:
        parse(raw)
    assert str(info.value) == message


def test_entry_rules_hold_for_their_key_only():
    # the field bounds belong to field_grid, not to the frequency grid
    assert parse({"grid": {"values": [2e5]}}, experiment="odmr")["grid"]["values"] == [2e5]
    # zero populations pass entry by entry; their sum is checked as a whole
    cfg = parse({"kinetics": {"populations": [0.0, 1.0, 0.0]}}, experiment="t1")
    assert cfg["kinetics"]["populations"] == [0.0, 1.0, 0.0]
    with pytest.raises(ConfigError, match="kinetics.populations: must be nonnegative"):
        parse({"kinetics": {"populations": [0.0, 0.0, 0.0]}}, experiment="t1")


def _readme_table(header):
    """The cells of each row of the README table under `header`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text[text.index(header):].splitlines()[2:]  # below the header and its rule
    rows = []
    for line in lines:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _bounds(spec):
    return {key: spec[key] for key in ("min", "min_exclusive", "max") if key in spec}


def _unit(path, spec):
    """A key's factor to SI; a grid key's is its experiments' grid unit, where one."""
    grid = path.partition(".")[0]
    if grid in ("grid", "field_grid"):
        units = {spec[grid].get("unit") for spec in EXPERIMENTS.values() if grid in spec}
        return units.pop() if len(units) == 1 else None
    return spec.get("si")


def test_every_float_key_has_a_finite_bound_at_each_end():
    # fit.initial_guess holds parameters of a fit model, which its domains check
    for path, spec in _SPECS.items():
        entry = spec.get("element", spec)
        if entry.get("type") is float and path != "fit.initial_guess":
            bounds = _bounds(entry)
            assert "max" in bounds and len(bounds) == 2, path
            assert all(math.isfinite(bound) for bound in bounds.values()), path


def test_the_readme_bound_table_states_the_schema():
    units = {"us": US, "MHz": MHZ, "mT": MT, "MHz/mT": MHZ_PER_MT, "degrees": DEGREE}
    stated = {}
    for keys, unit, lower, upper in _readme_table("| Keys | Unit | Lower | Upper |"):
        low = {"min_exclusive": 0.0} if lower == "> 0" else {"min": float(lower)}
        for key in re.findall(r"`([\w.]+)`", keys):
            assert key not in stated, key
            stated[key] = (units.get(unit), {**low, "max": float(upper)})
    schema = {}
    for path, spec in _SPECS.items():
        entry = spec.get("element", spec)
        if entry.get("type") is float and "max" in entry:
            schema[path] = (_unit(path, entry), _bounds(entry))
    assert stated == schema


def test_the_readme_experiment_table_states_each_grid_domain():
    header = "| Experiment | Keys read | Default grid | Grid values |"
    for name, *_, values in _readme_table(header):
        spec = EXPERIMENTS[name.strip("`")]
        if "domain" not in spec:
            assert values == "", name
            continue
        bracket, low, high = re.fullmatch(r"([\[(])(\S+), (\S+)\]", values).groups()
        key = "min" if bracket == "[" else "min_exclusive"
        assert spec["domain"][2] == {key: float(low), "max": float(high)}, name
