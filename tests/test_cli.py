import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tripletsim import cli, coherence, config, pulse_engine, runner
from tripletsim.config import _SCHEMA, _reads
from tripletsim.errors import ConfigError
from tripletsim.trace import parse_trace

SRC = Path(__file__).resolve().parents[1] / "src"


def _env(extra=None):
    """os.environ updated with `extra`, where a value of None unsets the variable."""
    env = {**os.environ, **(extra or {})}
    return {key: value for key, value in env.items() if value is not None}


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tripletsim", *args],
        capture_output=True,
        env=_env(env_extra),
        cwd=cwd,
        timeout=120,
    )


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_spectrum_to_stdout_contains_zero_field_lines():
    proc = run_cli("spectrum")
    assert proc.returncode == 0, proc.stderr
    record = parse_trace(proc.stdout)
    freqs = sorted(record.column("frequency"))
    assert freqs == pytest.approx([950.0, 1430.0, 2380.0], rel=1e-9)


def test_set_override_changes_physics():
    proc = run_cli("spectrum", "--set", "zfs.e=-200")
    record = parse_trace(proc.stdout)
    freqs = sorted(record.column("frequency"))
    assert freqs == pytest.approx([400.0, 1705.0, 2105.0], rel=1e-9)


def test_config_file_is_loaded(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"zfs": {"d": 1000.0, "e": -100.0}}))
    proc = run_cli("spectrum", "--config", str(conf))
    record = parse_trace(proc.stdout)
    assert sorted(record.column("frequency")) == pytest.approx(
        [200.0, 900.0, 1100.0], rel=1e-9
    )


def test_out_writes_file_atomically(tmp_path):
    out = tmp_path / "trace.csv"
    proc = run_cli("spectrum", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == b""
    record = parse_trace(out.read_bytes())
    assert record.data.shape[1] == 3


def test_json_format():
    proc = run_cli("spectrum", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["format"] == "tripletsim-trace"
    assert doc["metadata"]["experiment"] == "spectrum"


def test_config_error_exit_code_and_json_stderr():
    proc = run_cli("spectrum", "--set", "zfs.q=1")
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "config"
    assert "unknown key" in err["message"]


def test_simulation_error_exit_code_and_json_stderr(tmp_path):
    flat = tmp_path / "flat.csv"
    flat.write_text("x[1],y[1]\n0.0,1.0\n1.0,1.0\n2.0,1.0\n3.0,1.0\n")
    proc = run_cli(
        "fit",
        "--set",
        "fit.model=linear",
        "--set",
        f"fit.input={flat}",
    )
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "runtime"
    assert err["type"] == "FlatDataError"


def test_missing_fit_input_is_a_config_error(tmp_path):
    proc = run_cli(
        "fit",
        "--set",
        "fit.model=linear",
        "--set",
        f"fit.input={tmp_path / 'absent.csv'}",
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "config"


def test_malformed_json_fit_input_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "tripletsim-trace"}')
    args = ("fit", "--set", "fit.model=linear", "--set", f"fit.input={bad}")
    err = assert_one_json_error(run_cli(*args), 1, "config")
    assert "columns" in err["message"]


def test_fit_input_that_is_not_utf8_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00garbage")
    args = ("fit", "--set", "fit.model=linear", "--set", f"fit.input={bad}")
    err = assert_one_json_error(run_cli(*args), 1, "config")
    assert "UTF-8" in err["message"]


@pytest.mark.parametrize(
    "model, guess, message",
    [
        ("linear", "[1,2,3]",
         "fit.initial_guess: linear expects 2 parameters ('slope', 'intercept'), got shape (3,)"),
        ("triple_exponential", "[-1,1,1,1,1,1]",
         "fit.initial_guess: triple_exponential.a1 must be > 0, got -1.0"),
    ],
)
def test_initial_guess_outside_the_model_is_a_config_error(model, guess, message, tmp_path):
    trace = tmp_path / "e.csv"
    assert run_cli("echo", "--out", str(trace)).returncode == 0
    args = ("fit", "--set", f"fit.model={model}", "--set", f"fit.input={trace}",
            "--set", f"fit.initial_guess={guess}")
    err = assert_one_json_error(run_cli(*args), 1, "config")
    assert err["message"] == message


@pytest.mark.parametrize(
    "column, needle",
    [
        ("nosuch", "fit.x_column: no column named 'nosuch'; have ['time', 'echo']"),
        ("7", "fit.x_column: index 7 out of range for 2 columns"),
        ("-1", "fit.x_column: index -1 out of range for 2 columns"),
    ],
)
def test_fit_column_missing_from_the_input_is_a_config_error(column, needle, tmp_path):
    trace = tmp_path / "e.csv"
    assert run_cli("echo", "--out", str(trace)).returncode == 0
    args = ("fit", "--set", "fit.model=linear", "--set", f"fit.input={trace}",
            "--set", f"fit.x_column={column}")
    err = assert_one_json_error(run_cli(*args), 1, "config")
    assert err["message"] == needle


@pytest.mark.parametrize(
    "override, t2_us, nu",
    [("coherence.preset=protonated", 2.5, 1.05), ("coherence.eseem=null", 22.4, 1.10)],
)
def test_echo_without_eseem_is_the_bare_stretched_exponential(override, t2_us, nu):
    proc = run_cli("echo", "--set", override)
    assert proc.returncode == 0, proc.stderr
    record = parse_trace(proc.stdout)
    # T2 converted from us as the config converts it: 2.5 * 1e-6 is not 2.5e-6
    expected = coherence.echo_envelope(
        coherence.CoherenceModel(t2_us * 1e-6, nu, None), record.column("time") * 1e-6
    )
    assert np.array_equal(record.column("echo"), expected)


RABI_ARGS = (
    "rabi",
    "--set",
    "grid.start=0",
    "--set",
    "grid.stop=0.2",
    "--set",
    "grid.count=21",
)


#: the thread-count variables of the BLAS libraries numpy may be built on
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_byte_identical_across_runs_and_thread_counts():
    outputs = []
    for threads in (None, "1", "2", "1"):  # None: no thread variable set
        env = {**dict.fromkeys(THREAD_VARS), "OMP_NUM_THREADS": threads}
        proc = run_cli(*RABI_ARGS, env_extra=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(set(outputs)) == 1


def test_seed_controls_random_sampling_modes():
    args = (
        "ac-sense",
        "--set",
        "ac.sampling=random",
        "--set",
        "grid.start=1",
        "--set",
        "grid.stop=8",
        "--set",
        "grid.count=8",
    )
    same1 = run_cli(*args, "--seed", "7").stdout
    same2 = run_cli(*args, "--seed", "7").stdout
    other = run_cli(*args, "--seed", "8").stdout
    assert same1 == same2
    assert same1 != other


def test_fit_round_trip_through_files(tmp_path):
    trace = tmp_path / "t1.csv"
    proc = run_cli(
        "t1",
        "--set",
        "grid.start=0.5",
        "--set",
        "grid.stop=2000",
        "--set",
        "grid.count=120",
        "--set",
        "grid.spacing=log",
        "--out",
        str(trace),
    )
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(
        "fit",
        "--set",
        "fit.model=triple_exponential",
        "--set",
        f"fit.input={trace}",
        "--set",
        "fit.y_column=triplet",
    )
    assert proc.returncode == 0, proc.stderr
    record = parse_trace(proc.stdout)
    lifetimes = [
        float(record.column(name)[0]) for name in ("tau1", "tau2", "tau3")
    ]
    assert lifetimes == pytest.approx([21.2, 111.0, 514.0], rel=1e-6)
    assert float(record.column("converged")[0]) == 1.0
    assert record.metadata["model"] == "triple_exponential"


def test_out_with_json_round_trips(tmp_path):
    out = tmp_path / "trace.json"
    proc = run_cli("spectrum", "--format", "json", "--out", str(out))
    assert proc.returncode == 0
    record = parse_trace(out.read_bytes())
    assert sorted(record.column("frequency")) == pytest.approx(
        [950.0, 1430.0, 2380.0], rel=1e-9
    )


def test_no_sim_command_imports_scipy(tmp_path):
    # every simulation experiment plus a fit, in one fresh interpreter
    script = textwrap.dedent(
        """
        import json, sys
        from tripletsim import cli
        from tripletsim.config import EXPERIMENTS

        out = sys.argv[1]
        codes = {}
        for name in EXPERIMENTS:
            if name != "fit":
                field = ("nmr-correlation", "deer")
                extra = ["--set", "field.magnitude=190"] if name in field else []
                codes[name] = cli.main([name, *extra, "--out", f"{out}/{name}.csv"])
        codes["fit"] = cli.main([
            "fit", "--set", "fit.model=triple_exponential", "--set", f"fit.input={out}/t1.csv",
            "--set", "fit.y_column=triplet", "--out", f"{out}/fit.csv",
        ])
        scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps({"codes": codes, "scipy": scipy}))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert len(result["codes"]) == 12
    assert set(result["codes"].values()) == {0}, result["codes"]
    assert result["scipy"] == []


_ENGINE = {"spin_model", "photokinetics", "pulse_engine"}
_COHERENCE = {"coherence"}


@pytest.mark.parametrize(
    "experiment, physics, polynomial",
    [
        (None, set(), False),  # `import tripletsim.cli` alone
        ("spectrum", {"spin_model"}, False),
        ("odmr", _ENGINE, False),
        ("field-odmr", _ENGINE, False),
        ("rabi", _COHERENCE, True),
        ("t1", {"photokinetics"}, False),
        ("echo", _COHERENCE, False),
        ("dd-scaling", _COHERENCE, False),
        ("ac-sense", _COHERENCE, False),
        ("nmr-correlation", {"spin_model", "coherence"}, False),  # the field, a FieldVector
        ("deer", {"spin_model", "coherence"}, False),  # its coupling average is a closed form
        ("deer-rabi", _COHERENCE, True),
        ("fit", {"fitting"}, False),
    ],
)
def test_each_experiment_loads_only_the_modules_it_runs(experiment, physics, polynomial, tmp_path):
    # one fresh interpreter per experiment: which physics modules, and whether
    # numpy.polynomial (Gauss-Hermite nodes), a `sim` process pays to import;
    # `import tripletsim.cli` alone loads no numpy
    argv = []
    if experiment == "fit":
        code, _, err = run_main(["t1", "--out", str(tmp_path / "t1.csv")])
        assert code == 0, err
        argv = ["fit", "--set", "fit.model=triple_exponential", "--set",
                f"fit.input={tmp_path / 't1.csv'}", "--set", "fit.y_column=triplet"]
    elif experiment is not None:
        argv = [experiment]
        if experiment in ("nmr-correlation", "deer"):
            argv += ["--set", "field.magnitude=190"]
    script = textwrap.dedent(
        """
        import json, sys
        from tripletsim import cli

        argv = json.loads(sys.argv[1])
        code = cli.main([*argv, "--out", sys.argv[2]]) if argv else 0
        physics = {"spin_model", "photokinetics", "pulse_engine", "coherence", "fitting"}
        loaded = sorted(m for m in physics if f"tripletsim.{m}" in sys.modules)
        numpy = [m in sys.modules for m in ("numpy", "numpy.polynomial")]
        print(json.dumps([code, loaded, *numpy]))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv), str(tmp_path / "out.csv")],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, sorted(physics), experiment is not None, polynomial]


def _fresh_main(argv, env_extra=None):
    """cli.main(argv) in a fresh interpreter: its exit code, which of numpy and
    logging it loaded, the thread variables and the OS threads it ended with
    (None without /proc/self/task)."""
    script = textwrap.dedent(
        """
        import json, os, sys
        from tripletsim import cli

        try:
            code = cli.main(json.loads(sys.argv[1]))
        except SystemExit as exc:  # --help and --version
            code = exc.code
        task = "/proc/self/task"
        threads = len(os.listdir(task)) if os.path.isdir(task) else None
        env = {key: os.environ.get(key) for key in json.loads(sys.argv[2])}
        loaded = [name for name in ("numpy", "logging") if name in sys.modules]
        print(json.dumps([code, loaded, env, threads]))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv), json.dumps(THREAD_VARS)],
        capture_output=True,
        env=_env({"PYTHONPATH": str(SRC), **(env_extra or {})}),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, code",
    [(["--version"], 0), (["--help"], 0), (["teleport"], 1), (["rabi", "--bogus"], 1), ([], 1)],
)
def test_command_lines_that_run_nothing_load_no_numpy(argv, code):
    # nor logging, which no command loads: the CLI writes its stderr lines itself
    assert _fresh_main(argv)[:2] == [code, []]


def test_sim_runs_blas_on_one_thread_unless_a_thread_count_is_set(tmp_path):
    argv = ["rabi", "--out", str(tmp_path / "rabi.csv")]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        code, _, env, _ = _fresh_main(argv, {**dict.fromkeys(THREAD_VARS), var: "2"})
        assert code == 0 and env[var] == "2"
    code, loaded, env, threads = _fresh_main(argv, dict.fromkeys(THREAD_VARS))
    one_thread = {**dict.fromkeys(THREAD_VARS), "OMP_NUM_THREADS": "1"}
    assert (code, loaded, env) == (0, ["numpy"], one_thread)
    if threads is None:
        pytest.skip("no /proc/self/task to count OS threads")
    assert threads == 1


def test_in_process_main_leaves_the_environment_alone(monkeypatch):
    # numpy is loaded here, as in any caller that imported it first
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    code, _, err = run_main(["rabi"])
    assert code == 0, err
    assert dict(os.environ) == before


def assert_one_json_error(proc, code, kind):
    assert proc.returncode == code
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == kind
    return json.loads(lines[0])


def _si_overflow_cases():
    """One case per float key whose factor to SI exceeds 1, set to 1e305 on the first
    experiment that reads it: its SI value leaves the float range (a factor below 1
    cannot overflow, and a schema bound, as on gamma, may stop the value first)."""
    for path, spec in config._SPECS.items():
        if spec.get("si", 0.0) > 1.0:
            experiment = next(e for e in config.EXPERIMENTS if path in _reads(e))
            needs_field = config.EXPERIMENTS[experiment].get("needs_field")
            field = ("--set", "field.magnitude=190") if needs_field else ()
            yield (experiment, *field, "--set", f"{path}=1e305"), f"{path}: must be"


@pytest.mark.parametrize(
    "args, needle",
    [
        (("field-odmr", "--set", "field_grid.start=0"), "given together"),
        (
            (
                "field-odmr",
                "--set", "field_grid.start=0",
                "--set", "field_grid.stop=100",
                "--set", "field_grid.count=11",
                "--set", "field_grid.spacing=log",
            ),
            "log spacing",
        ),
        (("odmr", "--set", "grid.values=[]"), "must not be empty"),
        (("field-odmr", "--set", "field_grid.values=[]"), "must not be empty"),
        (("spectrum", "--set", "field.magnitude=NaN"), "finite"),
        (("t1", "--set", "kinetics.pump_rate=NaN"), "finite"),
        (("t1", "--set", "kinetics.pump_rate=-Infinity"), "finite"),
        (("echo", "--set", "coherence.t2=Infinity"), "finite"),
        (("t1", "--out", "/nonexistent-dir/x.csv"), "does not exist"),
        (("fit", "--set", "fit.model=bogus", "--set", "fit.input=x.csv"), "available:"),
        (("nmr-correlation", "--set", "field.magnitude=1e300"), "field.magnitude: must be <="),
        (("spectrum", "--set", "field.bz=-100001"), "field.bz: must be >="),
        (("t1", "--set", "grid.count=1000001"), "grid.count: must be <="),
        (("field-odmr", "--set", "field_grid.count=10001"), "field_grid.count: must be <="),
        (("field-odmr", "--set", "field_grid.values=[0, 1e300]"), "field_grid.values[1]"),
        (("ac-sense", "--set", "ac.phase_samples=10001"), "ac.phase_samples: must be <="),
        (("rabi", "--set", "grid.spacing=log"), "log spacing"),
        (("dd-scaling", "--set", "grid.spacing=linear"), "default list of values"),
        (("spectrum", "--set", "field.magnitude=190"), "field.magnitude: spectrum sweeps"),
        (("spectrum", "--set", "field.bz=50"), "field.bz: spectrum sweeps"),
        (("field-odmr", "--set", "field.magnitude=190"), "field.magnitude: field-odmr sweeps"),
        (("field-odmr", "--set", "field.bz=50"), "field.bz: field-odmr sweeps"),
        ((), "experiment: required; choose one of"),
        (("teleport",), "invalid choice: 'teleport'"),
        (("rabi", "--bogus"), "unrecognized arguments: --bogus"),
        (("rabi", "--seed", "abc"), "--seed: invalid int value: 'abc'"),
        (("rabi", "--format", "xml"), "--format: invalid choice: 'xml'"),
        (("ac-sense", "--set", "ac.phase=30", "--set", "ac.phase_samples=7"), "with ac.phase set"),
        (("ac-sense", "--set", "ac.phase=30", "--set", "ac.sampling=random"), "with ac.phase set"),
        (("ac-sense", "--set", "ac.phase=30", "--set", "ac.sampling=grid"), "with ac.phase set"),
        # grid values outside the physics' domain, caught before any simulation
        (("odmr", "--set", "grid.values=[100,-5,0]"), "grid: odmr needs carrier frequencies > 0"),
        (
            ("odmr", "--set", "grid.start=-10", "--set", "grid.stop=10", "--set", "grid.count=3"),
            "grid: odmr needs carrier frequencies > 0",
        ),
        (("rabi", "--set", "grid.values=[0.1,-0.1]"), "grid: rabi needs pulse durations >= 0"),
        (("t1", "--set", "grid.values=[1,-1]"), "grid: t1 needs delays >= 0"),
        (("echo", "--set", "grid.values=[1,-1]"), "grid: echo needs echo times >= 0"),
        (("ac-sense", "--set", "grid.values=[1,-1]"), "grid: ac-sense needs tau values >= 0"),
        (("deer-rabi", "--set", "grid.values=[0.1,-0.1]"), "grid: deer-rabi needs pulse durations"),
        (
            ("nmr-correlation", "--set", "field.magnitude=190", "--set", "grid.values=[1,-1]"),
            "grid: nmr-correlation needs storage times >= 0",
        ),
        (("dd-scaling", "--set", "grid.values=[1,0.5]"), "grid: dd-scaling needs pulse numbers >= 1"),
        (
            ("field-odmr", "--set", "grid.values=[1,-5,0]"),
            "grid: field-odmr needs carrier frequencies > 0",
        ),
        # caught at parse time, not as an empty readout or a boolean column index
        (("odmr", "--set", "readout.intensity=0"), "readout.intensity: must be > 0.0, got 0.0"),
        (("field-odmr", "--set", "readout.duration=0"), "readout.duration: must be > 0.0, got 0.0"),
        (
            (
                "fit",
                "--set", "fit.model=linear",
                "--set", "fit.input=t1.csv",
                "--set", "fit.x_column=false",
            ),
            "fit.x_column: expected int or str, got bool",
        ),
        # keys the experiment does not read, named with the experiment
        (
            ("spectrum", "--set", "kinetics.preset=295K", "--set", "pulse.rabi=3",
             "--set", "dark.g_factor=3"),
            "kinetics.preset: spectrum does not read it",
        ),
        (
            ("t1", "--set", "field.magnitude=50", "--set", "zfs.d=1000"),
            "field.magnitude: t1 does not read it",
        ),
        (
            ("nmr-correlation", "--set", "field.magnitude=190", "--set", "ac.phase=30"),
            "ac.phase: nmr-correlation does not read it",
        ),
        (("fit", "--set", "grid.count=5"), "grid.count: fit does not read it"),
        # keys that a key set beside them leaves unread
        (
            ("t1", "--set", "grid.values=[1,2]", "--set", "grid.start=0"),
            "grid.start: t1 does not read it with grid.values set",
        ),
        (
            ("field-odmr", "--set", "field_grid.values=[0,50]", "--set", "field_grid.count=3"),
            "field_grid.count: field-odmr does not read it with field_grid.values set",
        ),
        (
            ("deer", "--set", "field.bz=190", "--set", "field.magnitude=50"),
            "field.magnitude: deer does not read it with field.bz set",
        ),
        (
            ("odmr", "--set", "field.bx=10", "--set", "field.axis=x"),
            "field.axis: odmr does not read it with field.bx set",
        ),
        (
            ("nmr-correlation", "--set", "field.magnitude=190", "--set", "nuclear.gamma=10",
             "--set", "nuclear.species=deuteron"),
            "nuclear.species: nmr-correlation does not read it with nuclear.gamma set",
        ),
        (
            ("deer", "--set", "field.magnitude=190", "--set", "grid.values=[100,-5]"),
            "grid: deer needs carrier frequencies > 0 MHz; got -5",
        ),
        # a Larmor frequency that underflows to 0, or whose 0.5/f_n and 30/f_n overflow
        (
            ("nmr-correlation", "--set", "field.magnitude=1e-100", "--set", "nuclear.gamma=1e-300"),
            "got f_n = 0 Hz",
        ),
        (
            ("nmr-correlation", "--set", "field.magnitude=1e-30", "--set", "nuclear.gamma=1e-290"),
            "got f_n = 1e-314 Hz",
        ),
        # an electron ratio past the float range in Hz/T, at any field
        *(
            ((experiment, *field, "--set", "gamma=1e300"), "gamma: must be <= 1000000.0")
            for experiment, field in (
                ("ac-sense", ()),
                ("spectrum", ()),
                ("odmr", ()),
                ("nmr-correlation", ("--set", "field.magnitude=190")),
            )
        ),
        # nmr-correlation phases that overflow: storage, echo amplitude, echo time
        (
            ("nmr-correlation", "--set", "field.magnitude=190", "--set", "nuclear.gamma=1e290",
             "--set", "grid.values=[0,1e20]"),
            "storage phase 2*pi*f_n*t_corr up to inf",
        ),
        (
            ("nmr-correlation", "--set", "field.magnitude=190", "--set", "nuclear.amplitude=1e305"),
            "echo amplitude 4*|gamma|*A/f_n = inf",
        ),
        (
            ("nmr-correlation", "--set", "field.magnitude=190", "--set", "nuclear.tau=1e308"),
            "pi*f_n*tau = inf",
        ),
        # a dark-spin resonance, the centre of the default deer grid, past the float range
        (
            ("deer", "--set", "field.magnitude=1e5", "--set", "dark.g_factor=1e300"),
            "dark.g_factor, field: deer needs a dark-spin resonance g*mu_B*B/h that is finite",
        ),
        # ac-sense phases that overflow: echo amplitude, AC phase at the longest tau
        (("ac-sense", "--set", "ac.amplitude=1e305"), "echo amplitude 4*|gamma|*A/f = inf"),
        (
            ("ac-sense", "--set", "ac.frequency=1e300", "--set", "grid.values=[1e10]"),
            "phase 2*pi*f*tau up to inf",
        ),
        # MHz values whose value in Hz leaves the float range, caught at parse time
        (("rabi", "--set", "pulse.rabi=1e305"), "pulse.rabi: must be finite in SI units"),
        (
            ("deer-rabi", "--set", "dark.drive_rabi=1e305"),
            "dark.drive_rabi: must be finite in SI units",
        ),
        (("rabi", "--set", "pulse.detuning=1e305"), "pulse.detuning: must be finite in SI units"),
        (
            ("deer", "--set", "field.magnitude=190", "--set", "grid.values=[1e305]"),
            "grid: must be finite in SI units (x 1e+06), got 1e+305",
        ),
        # SI values that a physics object refuses: named by the section it is built from
        (("echo", "--set", "coherence.t2=1e-320"), "coherence: T2 must be > 0, got 0.0"),
        (
            ("t1", "--set", "kinetics.s1_lifetime=1e-305"),
            "kinetics: S1 decay rate must be > 0, got inf",
        ),
        *_si_overflow_cases(),
        # a DEER coupling phase 2*pi*mean*t_fix past the float range, with or without a spread
        *(
            (
                (experiment, *field, "--set", "dark.coupling_mean=1e300",
                 "--set", "dark.t_fix=1e300", *spread),
                f"dark.coupling_mean, dark.t_fix: {experiment} needs finite phases; "
                "got coupling phase 2*pi*mean*t_fix = inf",
            )
            for experiment, field, spread in (
                ("deer", ("--set", "field.magnitude=190"), ()),
                ("deer-rabi", (), ()),
                ("deer", ("--set", "field.magnitude=190"), ("--set", "dark.coupling_spread=0")),
            )
        ),
        # spectrum fields beyond 100 T, like every other field
        *(
            (("spectrum", "--set", f"grid.values=[{given}]"),
             f"grid: spectrum needs fields of magnitude <= 100000 mT; got {shown}")
            for given, shown in (("1e305", "1e+305"), ("1e10", "1e+10"))
        ),
    ],
)
def test_boundary_inputs_are_config_errors(args, needle):
    err = assert_one_json_error(run_cli(*args), 1, "config")
    assert needle in err["message"]


def test_rwa_warnings_are_one_log_line_each(tmp_path):
    args = ("odmr", "--set", "pulse.rabi=400", "--out")
    proc = run_cli(*args, str(tmp_path / "warned.csv"))
    assert proc.returncode == 0
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 3, lines
    for line in lines:
        assert line.startswith("WARNING tripletsim") and "rotating-wave" in line, line
        assert ".py" not in line
    quiet = run_cli(*args, str(tmp_path / "quiet.csv"), env_extra={"PYTHONWARNINGS": "ignore"})
    assert (quiet.returncode, quiet.stderr) == (0, b"")
    assert (tmp_path / "warned.csv").read_bytes() == (tmp_path / "quiet.csv").read_bytes()


def test_help_exits_zero():
    for args in (("--help",), ("rabi", "--help")):
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"usage: sim") and proc.stderr == b""


def test_help_lists_every_experiment_with_its_description():
    lines = cli.build_parser().format_help().splitlines()
    for name, spec in config.EXPERIMENTS.items():
        listed = [line for line in lines if line.split()[:1] == [name]]
        assert any(spec["description"] in line for line in listed), name


def test_options_may_come_before_the_experiment():
    code, before, err = run_main(["--seed", "3", "--format", "json", "t1"])
    assert code == 0, err
    assert (code, before, err) == run_main(["t1", "--seed", "3", "--format", "json"])
    assert parse_trace(before).metadata["seed"] == 3


def test_ac_phase_samples_still_drive_nmr_correlation_with_ac_phase_set():
    args = ["nmr-correlation", "--set", "field.magnitude=190",
            "--set", "grid.start=0", "--set", "grid.stop=1", "--set", "grid.count=5"]
    code, few, err = run_main([*args, "--set", "ac.phase_samples=3"])
    assert code == 0, err
    code, many, err = run_main([*args, "--set", "ac.phase_samples=9"])
    assert code == 0, err
    assert parse_trace(few).column("signal").tolist() != parse_trace(many).column("signal").tolist()


@pytest.mark.parametrize("field_mt", [0.01, 5.0, 8.9, 8.95])
def test_deer_default_grid_stays_above_zero_around_the_resonance(field_mt):
    code, out, err = run_main(["deer", "--set", f"field.magnitude={field_mt}"])
    assert code == 0, err
    record = parse_trace(out)
    frequency = record.column("frequency")
    center = record.metadata["resonance_mhz"]
    assert frequency.size == 501 and frequency.min() > 0.0
    assert frequency[250] == pytest.approx(center, rel=1e-12)
    half = 250.0 if center > 250.0 else 0.99 * center
    assert frequency[-1] - frequency[0] == pytest.approx(2.0 * half, rel=1e-12)


def _digest_tool():
    path = SRC.parent / "tools" / "trace_digest.py"
    spec = importlib.util.spec_from_file_location("trace_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_commands_give_the_recorded_bytes(tmp_path, monkeypatch):
    """Each `tools/trace_digest.py` command gives its line of `tests/data/trace_digest.txt`.

    A line holds the exit code and the SHA-256 of stdout, stderr and the
    output file, so a one-ulp change in a trace or a reworded error message
    fails here. A change that alters these bytes on purpose rewrites the
    file with `python tools/trace_digest.py > tests/data/trace_digest.txt`.
    Every trace's metadata carries `__version__`, so a version bump changes
    every line.

    The commands run in process through `cli.main`, which gives the bytes
    of a fresh process, warning lines included: none sets a thread
    environment or needs `python -O`.
    """
    tool = _digest_tool()
    monkeypatch.chdir(tmp_path)
    lines = []
    for argv in tool.COMMANDS:
        out = tmp_path / tool.out_name(argv)
        out.unlink(missing_ok=True)
        code, stdout, stderr = run_main([*argv, "--out", out.name])
        written = out.read_bytes() if out.exists() else None
        lines.append(tool.digest_line(argv, code, stdout, stderr.encode(), written))
    expected = (Path(__file__).parent / "data" / "trace_digest.txt").read_text().splitlines()
    assert len(expected) == len(tool.COMMANDS), "tests/data/trace_digest.txt is not the tool's"
    changed = [argv for argv, line, want in zip(tool.COMMANDS, lines, expected) if line != want]
    assert not changed, f"commands whose bytes changed: {changed}"


def _recorded_reads(cfg):
    """Run `cfg`'s experiment and return the dotted keys of every value it consumed.

    The runner reads `cfg.inputs` and `cfg.grids` only. Reading a key's SI
    value reads that key; reading a physics object reads the keys its build
    consumed; reading a grid, in SI units or as `cfg.grids[key]`, reads the
    `key.*` leaves the trace echoes.
    """
    seen = set()
    echoed = set(config._leaves(cfg.read_sections()))

    class Recording(dict):
        def __init__(self, mapping, into):
            super().__init__(mapping)
            self.into = into

        def __getitem__(self, key):
            self.into.add(key)
            return super().__getitem__(key)

    # the build step: each object of the experiment, from the keys it reads in SI units
    si, built_from = config._inputs(cfg.experiment, cfg.sections), {}
    for key in config.EXPERIMENTS[cfg.experiment].get("objects", "").split():
        built_from[key] = set()
        config._build(key, Recording(si, built_from[key]))

    class Consumed(dict):
        def __getitem__(self, key):
            if key in built_from:
                seen.update(built_from[key])
            elif key in cfg.grids:
                seen.update(leaf for leaf in echoed if leaf.startswith(f"{key}."))
            else:
                seen.add(key)
            return super().__getitem__(key)

    # no sections: a runner that read one would fail here
    recording = dataclasses.replace(
        cfg, sections={}, grids=Consumed(cfg.grids), inputs=Consumed(cfg.inputs)
    )
    runner._RUNNERS[cfg.experiment](recording)
    return seen


# each key that leaves others unread, set alone: the echo and the reads
# must both go without the keys it leaves unread
_PAIR_VARIANTS = (
    ("t1", "--set", "grid.values=[1,2]"),
    ("field-odmr", "--set", "field_grid.values=[0,50]"),
    ("deer", "--set", "field.bz=190"),
    ("odmr", "--set", "field.by=30"),
    ("nmr-correlation", "--set", "field.magnitude=190", "--set", "nuclear.gamma=10"),
    ("ac-sense", "--set", "ac.phase=30"),
)


@pytest.mark.filterwarnings("ignore:Rabi frequency")  # the digest's strained-RWA drive
def test_each_experiment_reads_exactly_the_keys_of_its_table_entry(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the digest's fit commands read t1.csv and out.json
    for argv in (["t1", "--out", "t1.csv"], ["t1", "--format", "json", "--out", "out.json"]):
        code, _, err = run_main(argv)
        assert code == 0, err
    covered = set()
    for argv in (*_digest_tool().COMMANDS, *_PAIR_VARIANTS):
        args = cli.build_parser().parse_args(list(argv))
        raw = config.apply_overrides({}, args.overrides)
        try:
            cfg = config.parse_config(raw, args.experiment, seed=args.seed, fmt=args.format)
        except ConfigError:
            continue  # the digest's bad inputs
        echoed = set(config._leaves(cfg.read_sections()))
        assert echoed <= config._reads(cfg.experiment), argv
        # a preset is read where it expands, at parse time, and never by the runner
        expected = {key for key in echoed if not key.endswith(".preset")}
        assert _recorded_reads(cfg) == expected, argv
        covered.add(cfg.experiment)
    assert covered == set(config.EXPERIMENTS)


@pytest.mark.parametrize("optimize", [(), ("-O",)])
@pytest.mark.parametrize("experiment", ["t1", "odmr", "field-odmr"])
def test_pump_rate_times_intensity_past_the_float_range_is_a_config_error(experiment, optimize):
    # an exception, not an assert, so that `python -O` keeps the check
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "tripletsim", experiment, "--set", "init.intensity=1e305"],
        capture_output=True,
        env=_env(),
        timeout=120,
    )
    err = assert_one_json_error(proc, 1, "config")
    assert err["message"] == (
        f"kinetics.pump_rate, init.intensity: {experiment} needs a finite pump rate "
        "kinetics.pump_rate x init.intensity; got 100 MHz x 1e+305"
    )


@pytest.mark.parametrize(
    "experiment, duration, code",
    [("odmr", "1e-160", 2), ("field-odmr", "1e-160", 2), ("odmr", "1e-150", 0)],
)
def test_readout_window_too_short_to_collect_light_is_a_runtime_error(
    experiment, duration, code, tmp_path
):
    # after the dark delay S1 is empty, so the emission grows as the window squared
    # and underflows; no parse-time bound can be stated without running the kinetics
    out = str(tmp_path / "out.csv")
    proc = run_cli(experiment, "--set", f"readout.duration={duration}", "--out", out)
    if code == 0:
        assert proc.returncode == 0 and proc.stderr == b""
    else:
        err = assert_one_json_error(proc, code, "runtime")
        assert err["message"].startswith("reference emission vanished in")


@pytest.mark.parametrize("optimize", [(), ("-O",)])
@pytest.mark.parametrize(
    "kinetics",
    [
        ("kinetics.preset=null", "kinetics.lifetimes=[1e-305,1,1]",
         "kinetics.populations=[1e-300,1,1]"),
        ("kinetics.lifetimes=[1e-305,1,1]",),
    ],
    ids=["lifetimes-and-populations", "lifetimes"],
)
def test_triplet_lifetime_whose_decay_rate_overflows_is_a_config_error(kinetics, optimize):
    # 1e-305 us is 1e-311 s: its reciprocal overflows, which is refused before any
    # division (no numpy warning) and by an exception, which `python -O` keeps
    sets = [arg for assignment in kinetics for arg in ("--set", assignment)]
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "tripletsim", "t1", *sets],
        capture_output=True,
        env=_env(),
        timeout=120,
    )
    err = assert_one_json_error(proc, 1, "config")
    assert err["message"] == "kinetics: triplet decay rate 1/lifetime must be finite, got inf"


@pytest.mark.parametrize("carrier", ["5318.5731", "5318.5734"])
def test_deer_deficit_is_one_half_where_the_coupling_spread_dephases_the_echo(carrier):
    # sigma * t_fix = 10 MHz * 50 us: exp(-2 * (pi * 500)^2) is 0 in floating point, so
    # the coupling deficit is 1/2 exactly; 5318.5734 MHz is 0.3 kHz off the resonance
    code, out, err = run_main(
        ["deer", "--set", "field.magnitude=190", "--set", "dark.coupling_spread=10",
         "--set", "dark.t_fix=50", "--set", f"grid.values=[{carrier}]"]
    )
    assert code == 0, err
    record = parse_trace(out)
    x = (float(carrier) - record.metadata["resonance_mhz"]) / 2.0  # the 2 MHz linewidth
    assert record.column("contrast")[0] == pytest.approx(1.0 - 0.5 / (1.0 + x**2), abs=1e-12)
    assert record.column("contrast")[0] == pytest.approx(0.5, abs=2e-8)


@pytest.mark.parametrize("experiment", ["odmr", "field-odmr"])
def test_init_intensity_changes_the_trace(experiment):
    args = [experiment, "--set", "grid.values=[950,1430,2380]"]
    if experiment == "field-odmr":
        args += ["--set", "field_grid.values=[0,50]"]

    def contrast(*extra):
        code, out, err = run_main([*args, *extra])
        assert code == 0, err
        return parse_trace(out).column("contrast")

    default = contrast()
    assert np.array_equal(contrast("--set", "init.intensity=1"), default)
    assert not np.array_equal(contrast("--set", "init.intensity=0.01"), default)


def test_non_finite_number_in_config_file(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('{"field": {"magnitude": NaN}}')
    err = assert_one_json_error(run_cli("spectrum", "--config", str(conf)), 1, "config")
    assert "field.magnitude" in err["message"]


def test_explicit_grid_spacing_applies_to_the_default_range():
    def delays(*args):
        code, out, err = run_main(["t1", *args])
        assert code == 0, err
        return parse_trace(out).column("delay")

    assert np.array_equal(delays(), np.geomspace(0.5, 2000.0, 200))
    assert np.array_equal(delays("--set", "grid.spacing=linear"), np.linspace(0.5, 2000.0, 200))
    assert np.array_equal(delays("--set", "grid.spacing=log"), delays())
    # a grid given by its bounds stays linear unless told otherwise
    bounds = ("--set", "grid.start=1", "--set", "grid.stop=9", "--set", "grid.count=5")
    assert np.array_equal(delays(*bounds), np.linspace(1.0, 9.0, 5))
    assert np.array_equal(delays(*bounds, "--set", "grid.spacing=log"), np.geomspace(1.0, 9.0, 5))


@pytest.mark.parametrize(
    "argv",
    [
        *((experiment,) for experiment in config.EXPERIMENTS if experiment != "fit"),
        ("deer", "--set", "field.magnitude=5"),
        # six of these fields do not survive a round trip through Tesla
        ("spectrum", "--set", "grid.start=0", "--set", "grid.stop=120", "--set", "grid.count=1201"),
    ],
)
def test_resolved_grid_is_the_trace_axis_bit_for_bit(argv):
    # defaults included: deer and nmr-correlation derive their default range from the physics
    if argv in (("nmr-correlation",), ("deer",)):
        argv = (*argv, "--set", "field.magnitude=190")
    args = cli.build_parser().parse_args(list(argv))
    cfg = config.parse_config(config.apply_overrides({}, args.overrides), args.experiment)
    code, out, err = run_main(list(argv))
    assert code == 0, err
    data = parse_trace(out).data
    grid = cfg.grids["grid"]
    if cfg.experiment == "field-odmr":  # rows run over the frequencies at each field
        assert data[:, 0][:: grid.size].tobytes() == cfg.grids["field_grid"].tobytes()
        axis = data[: grid.size, 1]
    else:  # spectrum writes one row per branch, three per field
        axis = data[::3, 0] if cfg.experiment == "spectrum" else data[:, 0]
    assert axis.tobytes() == grid.tobytes()


def run_main(argv):
    """cli.main in-process: (exit code, stdout bytes, stderr text)."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def test_unexpected_error_is_one_internal_json_line(monkeypatch):
    def boom(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner, "run_experiment", boom)
    code, out, err = run_main(["t1"])
    assert code == 2
    assert out == b""
    assert json.loads(err) == {"error": "internal", "type": "RuntimeError", "message": "boom"}
    assert len(err.splitlines()) == 1
    monkeypatch.setenv("TRIPLETSIM_LOG", "debug")
    code, out, err = run_main(["t1"])
    info, *debug, last = err.splitlines()
    assert code == 2 and info == "INFO tripletsim: running t1 (seed 0)"
    assert debug[0] == "DEBUG tripletsim: unexpected error"
    assert debug[1] == "Traceback (most recent call last):"
    assert debug[-1] == "RuntimeError: boom" and json.loads(last)["type"] == "RuntimeError"


def test_each_in_process_main_writes_its_log_lines_to_the_current_stderr(tmp_path, monkeypatch):
    import logging

    monkeypatch.chdir(tmp_path)
    handlers = list(logging.getLogger().handlers)
    argv = ["echo", "--out", "echo.csv"]
    for level in ("warning", "verbose"):  # an unknown level means warning
        monkeypatch.setenv("TRIPLETSIM_LOG", level)
        assert run_main(argv) == (0, b"", "")
    monkeypatch.setenv("TRIPLETSIM_LOG", "info")
    code, out, err = run_main(argv)
    size = (tmp_path / "echo.csv").stat().st_size
    assert (code, out) == (0, b"")
    assert err.splitlines() == [
        "INFO tripletsim: running echo (seed 0)",
        f"INFO tripletsim: wrote {size} bytes to echo.csv",
    ]
    assert logging.getLogger().handlers == handlers


def _cell_args(experiment, n_rows, n_grid):
    """Overrides for n_rows (field_grid or phase samples) x n_grid (grid) cells."""
    args = ["--set", "grid.start=1", "--set", "grid.stop=2", "--set", f"grid.count={n_grid}"]
    if experiment == "field-odmr":
        return args + ["--set", "field_grid.start=0", "--set", "field_grid.stop=100",
                       "--set", f"field_grid.count={n_rows}"]
    args += ["--set", f"ac.phase_samples={n_rows}"]
    if experiment == "nmr-correlation":
        args += ["--set", "field.magnitude=190"]
    return args


@pytest.mark.parametrize(
    "experiment, target",
    [
        ("field-odmr", "simulate_field_odmr"),
        ("ac-sense", "ac_echo_response"),
        ("nmr-correlation", "correlation_spectroscopy"),
    ],
)
def test_joint_cell_cap_is_checked_before_any_simulation(experiment, target, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    # a regression past the cap meets this stub instead of allocating the array;
    # the runner reads each physics function from its defining module at call time
    module = pulse_engine if target == "simulate_field_odmr" else coherence
    monkeypatch.setattr(module, target, reached)
    code, out, err = run_main([experiment, *_cell_args(experiment, 10_000, 1_001)])
    assert (code, out) == (1, b"")
    assert json.loads(err)["error"] == "config"
    assert "cells, more than the 10000000 allowed" in err
    code, _, err = run_main([experiment, *_cell_args(experiment, 10_000, 1_000)])
    assert code == 2 and json.loads(err)["type"] == "Reached"


def _schema_paths(schema, prefix=""):
    for key, spec in schema.items():
        yield prefix + key
        if "nested" in spec:
            yield from _schema_paths(spec["nested"], f"{prefix}{key}.")


# JSON texts and bare strings: plausible values, edge values and hostile
# ones; the large integers sit just past the caps on counts and fields, and
# every other integer is small so that no draw can ask for a huge grid
_FUZZ_VALUES = (
    "0", "1", "-1", "2", "3", "0.001", "0.5", "10", "190", "-2.5", "1e300", "-1e-300",
    "1e999", "NaN", "Infinity", "-Infinity", "null", "true", "false", "abc", '"log"',
    "4K", "295K", "[]", "[1]", "[0, 2.5, 3]", '["a"]', "[NaN]", "{}", '{"a": 1}',
    '{"preset": null}', "100001", "1000001",
)


_FUZZ_EXPERIMENT = st.shared(
    st.sampled_from(
        ("spectrum", "t1", "echo", "dd-scaling", "nmr-correlation", "ac-sense", "field-odmr")
    ),
    key="experiment",
)


def _fuzz_assignments(experiment):
    # paths from the experiment's own keys as well as the whole schema: a
    # key the experiment does not read stops at parsing, short of the physics
    paths = st.one_of(
        st.sampled_from(sorted(_reads(experiment))),
        st.sampled_from(sorted(_schema_paths(_SCHEMA)) + ["zfs.q", "grid.start.x"]),
    )
    return st.lists(st.tuples(paths, st.sampled_from(_FUZZ_VALUES)), min_size=1, max_size=2)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    experiment=_FUZZ_EXPERIMENT,
    assignments=_FUZZ_EXPERIMENT.flatmap(_fuzz_assignments),
)
@example(experiment="t1", assignments=[("kinetics.preset", "[]")])
@example(experiment="spectrum", assignments=[("dd.preset", '{"a": 1}')])
@example(experiment="spectrum", assignments=[("gamma", "1e300"), ("field.magnitude", "1")])
@example(experiment="nmr-correlation", assignments=[("field.magnitude", "1e300")])
@example(experiment="ac-sense", assignments=[("ac.phase_samples", "1000001")])
def test_fuzz_overrides_keep_the_error_contract(experiment, assignments, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a fuzzed `out` writes here
    argv = [experiment]
    for path, value in assignments:
        argv += ["--set", f"{path}={value}"]
    code, out, err = run_main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and b"Traceback" not in out
    if code == 0:
        if out:
            parse_trace(out)
    else:
        assert out == b""
        lines = err.splitlines()
        assert len(lines) == 1, lines
        # "internal" would mean an input slipped past both validation layers
        assert json.loads(lines[0])["error"] in ("config", "runtime"), lines[0]
