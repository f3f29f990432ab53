"""Print a digest of what a fixed list of `sim` commands produce.

    python tools/trace_digest.py

Each command runs as a fresh `python -m tripletsim` process against the
`src/` tree next to this script, in a temporary working directory, with
relative output and fit-input paths so the trace metadata does not
depend on where it runs. For each command one line is printed: the exit
code, then the SHA-256 of stdout, of stderr and of the output file
("-" when none was written), then the command. Every command writes its
trace to a file given by `--out`, except those in `TO_STDOUT`, which
write it to stdout. Two checkouts give the same lines exactly when they
give the same bytes, so comparing the output of two checkouts is a
byte-identity check of everything the commands touch. `tests/data/trace_digest.txt` holds the expected output,
and the test suite compares each command's line with it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FIT_INPUT = ("--set", "fit.input=t1.csv")

FIT_T1 = ("--set", "fit.model=triple_exponential",
          "--set", "fit.x_column=delay", "--set", "fit.y_column=triplet")

#: a t1 trace of 10,000 rows, written to `long.csv` and to `long.json` for the fits
LONG_T1: tuple[tuple[str, ...], ...] = tuple(
    ("t1", *fmt, "--set", "grid.start=0.5", "--set", "grid.stop=2000",
     "--set", "grid.count=10000", "--set", "grid.spacing=log")
    for fmt in ((), ("--format", "json"))
)

#: the traces the fits of each model read, each written under its own name
FIT_TRACES: tuple[tuple[str, ...], ...] = (
    ("rabi", "--out", "rabi.csv"),
    ("echo", "--out", "echo.csv"),
    ("echo", "--set", "coherence.preset=protonated", "--out", "protonated.csv"),
    ("dd-scaling", "--out", "dd.csv"),
)


def _fit(trace: str, model: str, x: str, y: str, *more: str) -> tuple[str, ...]:
    return ("fit", "--set", f"fit.input={trace}", "--set", f"fit.model={model}",
            "--set", f"fit.x_column={x}", "--set", f"fit.y_column={y}", *more)


#: the commands run without `--out`, whose trace is the stdout digest
TO_STDOUT: tuple[tuple[str, ...], ...] = (
    ("field-odmr", "--format", "json"),
    ("t1", "--format", "csv"),
)

COMMANDS: tuple[tuple[str, ...], ...] = (
    # every experiment with its defaults, plus a fit of the t1 trace
    ("spectrum",),
    ("field-odmr",),
    ("odmr",),
    ("rabi",),
    ("t1",),
    ("echo",),
    ("dd-scaling",),
    ("ac-sense",),
    ("nmr-correlation", "--set", "field.magnitude=190"),
    ("deer", "--set", "field.magnitude=190"),
    ("deer-rabi",),
    ("fit", *FIT_INPUT, *FIT_T1),
    # the same fit read back from a JSON trace
    ("t1", "--format", "json"),
    ("fit", "--set", "fit.input=out.json", *FIT_T1),
    # field maps in both formats
    ("field-odmr", "--set", "field.axis=x", "--set", "kinetics.preset=4K",
     "--set", "field_grid.start=0", "--set", "field_grid.stop=60.0",
     "--set", "field_grid.count=61"),
    ("field-odmr", "--format", "json", "--set", "field.axis=z", "--set", "kinetics.preset=295K",
     "--set", "field_grid.start=0", "--set", "field_grid.stop=120.0",
     "--set", "field_grid.count=61"),
    ("field-odmr", "--set", "field.axis=y", "--set", "kinetics.preset=295K"),
    ("field-odmr", "--set", "field.axis=z", "--set", "field_grid.start=0",
     "--set", "field_grid.stop=300.0", "--set", "field_grid.count=61"),
    ("odmr", "--set", "odmr.multilevel=true", "--set", "field.magnitude=50"),
    # bad inputs
    ("fit", *FIT_INPUT, "--set", "fit.model=linear", "--set", "fit.x_column=false"),
    ("odmr", "--set", "readout.intensity=0"),
    ("field-odmr", "--set", "readout.duration=0"),
    ("t1", "--set", "kinetics.lifetimes=[1,-2,3]"),
    ("t1", "--set", "kinetics.populations=[1,-2,3]"),
    ("t1", "--set", "kinetics.populations=[0,0,0]"),
    ("field-odmr", "--set", "field_grid.values=[0,2e5]"),
    ("field-odmr", "--set", "field_grid.start=-2e5", "--set", "field_grid.stop=0",
     "--set", "field_grid.count=3"),
    ("odmr", "--set", 'grid.values=[1000,"a"]'),
    ("t1", "--set", "seed=x", "--seed", "3"),
    ("nmr-correlation", "--set", "field.magnitude=1e-100", "--set", "nuclear.gamma=1e-300"),
    ("nmr-correlation", "--set", "field.magnitude=1e-30", "--set", "nuclear.gamma=1e-290"),
    ("ac-sense", "--set", "gamma=1e300"),
    ("spectrum", "--set", "gamma=1e300"),
    ("odmr", "--set", "gamma=1e300"),
    ("nmr-correlation", "--set", "field.magnitude=190", "--set", "gamma=1e300"),
    ("nmr-correlation", "--set", "field.magnitude=190", "--set", "nuclear.gamma=1e290",
     "--set", "grid.values=[0,1e20]"),
    ("nmr-correlation", "--set", "field.magnitude=190", "--set", "nuclear.amplitude=1e305"),
    ("deer", "--set", "field.magnitude=1e5", "--set", "dark.g_factor=1e300"),
    ("ac-sense", "--set", "ac.amplitude=1e305"),
    ("ac-sense", "--set", "ac.frequency=1e300", "--set", "grid.values=[1e10]"),
    ("rabi", "--set", "pulse.rabi=1e305"),
    ("deer-rabi", "--set", "dark.drive_rabi=1e305"),
    ("rabi", "--set", "pulse.detuning=1e305"),
    ("deer", "--set", "field.magnitude=190", "--set", "grid.values=[1e305]"),
    # keys the experiment does not read, or that a key set beside them leaves unread
    ("spectrum", "--set", "kinetics.preset=295K", "--set", "pulse.rabi=3",
     "--set", "dark.g_factor=3"),
    ("t1", "--set", "field.magnitude=50", "--set", "zfs.d=1000"),
    ("nmr-correlation", "--set", "field.magnitude=190", "--set", "ac.phase=30"),
    ("t1", "--set", "grid.values=[1,2]", "--set", "grid.start=0"),
    ("field-odmr", "--set", "field_grid.values=[0,50]", "--set", "field_grid.count=3"),
    ("deer", "--set", "field.bz=190", "--set", "field.magnitude=50"),
    ("nmr-correlation", "--set", "field.magnitude=190", "--set", "nuclear.gamma=10",
     "--set", "nuclear.species=deuteron"),
    # deer below about 8.9 mT: a default grid above 0 MHz, and the > 0 rule on given values
    ("deer", "--set", "field.magnitude=5"),
    ("deer", "--set", "field.magnitude=190", "--set", "grid.values=[100,-5]"),
    # a spacing set alone applies to the default grid, or is refused with its reason
    ("rabi", "--set", "grid.spacing=log"),
    ("dd-scaling", "--set", "grid.spacing=linear"),
    ("t1", "--set", "grid.spacing=linear"),
    # a degenerate zero-field pair: the eigenvector labels' tie rule
    ("field-odmr", "--set", "zfs.e=0", "--set", "field.axis=z"),
    # a spectrum axis whose SI round trip would drift: 31.7 mT and five more
    ("spectrum", "--set", "grid.start=0", "--set", "grid.stop=120", "--set", "grid.count=1201"),
    # triplet lifetimes whose reciprocal overflows
    ("t1", "--set", "kinetics.preset=null", "--set", "kinetics.lifetimes=[1e-305,1,1]",
     "--set", "kinetics.populations=[1e-300,1,1]"),
    ("t1", "--set", "kinetics.lifetimes=[1e-305,1,1]"),
    # a coupling spread the fixed echo time averages out: the deficit is 1/2
    ("deer", "--set", "field.magnitude=190", "--set", "dark.coupling_spread=10",
     "--set", "dark.t_fix=50", "--set", "grid.values=[5318.5734]"),
    # a DEER coupling phase 2*pi*mean*t_fix past the float range
    ("deer", "--set", "field.magnitude=190", "--set", "dark.coupling_mean=1e300",
     "--set", "dark.t_fix=1e300"),
    ("deer-rabi", "--set", "dark.coupling_mean=1e300", "--set", "dark.t_fix=1e300"),
    ("deer", "--set", "field.magnitude=190", "--set", "dark.coupling_mean=1e300",
     "--set", "dark.t_fix=1e300", "--set", "dark.coupling_spread=0"),
    # spectrum fields beyond 100 T
    ("spectrum", "--set", "grid.values=[1e305]"),
    ("spectrum", "--set", "grid.values=[1e10]"),
    # overflows whose limit was the exact answer (an envelope, a Lorentzian or a T2 of 0):
    # now each is past the bound of one key
    ("echo", "--set", "coherence.t2=1e-305"),
    ("echo", "--set", "grid.values=[1e305]"),
    ("rabi", "--set", "grid.values=[1e305]"),
    ("dd-scaling", "--set", "dd.t2_1=1e-305"),
    ("deer", "--set", "field.magnitude=190", "--set", "dark.linewidth=1e-305"),
    ("field-odmr", "--set", "odmr.linewidth=1e-305"),
    # a drive that strains the rotating-wave treatment: three warning lines
    ("odmr", "--set", "pulse.rabi=400"),
    # a pump rate x intensity past the float range: the intensity is past its bound
    ("t1", "--set", "init.intensity=1e305"),
    ("odmr", "--set", "init.intensity=1e305"),
    ("odmr", "--set", "readout.intensity=1e305"),
    ("field-odmr", "--set", "init.intensity=1e305"),
    ("field-odmr", "--set", "readout.intensity=1e305"),
    # an echo time past the bound of every grid value (the in-range cells that emit
    # leaves to repr are the last command's)
    ("echo", "--set", "grid.values=[1e-05,0.5,2e16]"),
    # a Rabi detuning spread and an ODMR detuning phase past the float range: config errors
    ("rabi", "--set", "pulse.t2_star=1e-305"),
    ("odmr", "--set", "pulse.rabi=1e-305"),
    # a deer-rabi nutation phase and an echo ESEEM phase past the float range: config errors
    ("deer-rabi", "--set", "grid.values=[1e300]", "--set", "dark.drive_rabi=1e10"),
    ("deer-rabi", "--set", "grid.values=[1e290]", "--set", "dark.linewidth=1e20"),
    ("deer-rabi", "--set", "dark.detuning=1e300", "--set", "grid.values=[1e10]"),
    ("echo", "--set", "coherence.eseem.frequency=1e290", "--set", "grid.values=[1e20]"),
    # written to stdout, not to a file: a field map of several blocks, and a t1 trace
    *TO_STDOUT,
    # a long t1 trace in both formats, and its fit read back from each: the same parameters
    *LONG_T1,
    ("fit", "--set", "fit.input=long.csv", *FIT_T1),
    ("fit", "--set", "fit.input=long.json", *FIT_T1),
    # one fit per model, on a trace of the experiment it serves
    *FIT_TRACES,
    _fit("rabi.csv", "damped_cosine", "duration", "transfer"),
    _fit("echo.csv", "stretched_exp_eseem", "time", "echo"),
    _fit("protonated.csv", "stretched_exp", "time", "echo"),
    # the unmodulated model on the modulated echo: errors far above the rounding floor
    _fit("echo.csv", "stretched_exp", "time", "echo"),
    _fit("dd.csv", "dd_scaling", "n_pulses", "t2"),
    _fit("t1.csv", "linear", "signal", "triplet"),
    # starting points that overflow the model: one error line, and no numpy warning
    _fit("t1.csv", "stretched_exp", "delay", "triplet", "--set", "fit.initial_guess=[1e-300,4,1e300]"),
    _fit("t1.csv", "linear", "delay", "triplet", "--set", "fit.initial_guess=[1e308,1e308]"),
    # lit windows of 300 s and more, whose squarings lost population conservation
    ("field-odmr", "--set", "init.duration=3e8"),
    ("field-odmr", "--set", "readout.duration=3e8"),
    ("odmr", "--set", "init.duration=1e9", "--set", "field.magnitude=50"),
    # each window of field-odmr at the upper bound of every time
    ("field-odmr", "--set", "init.duration=1e9"),
    ("field-odmr", "--set", "readout.duration=1e9"),
    ("field-odmr", "--set", "readout.delay=1e9"),
    # cells outside [1e-4, 1e16), which emit leaves to repr: 0.0 and exponent notation
    ("echo", "--set", "grid.values=[1e-05,0.5,1e9]"),
    # field sweeps across B = 0, each row labeled by its own field: the rows of
    # `[50]` at +50 mT, and a degenerate pair (E = D) mixed along y on both sides
    ("spectrum", "--set", "field.axis=x", "--set", "grid.values=[-50,50]"),
    ("field-odmr", "--set", "field.axis=y", "--set", "field_grid.values=[-50,50]"),
    ("spectrum", "--set", "zfs.e=1905", "--set", "field.axis=y", "--set", "grid.start=-300",
     "--set", "grid.stop=300", "--set", "grid.count=61"),
)


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def out_name(argv: tuple[str, ...]) -> str:
    """The relative output path of a command; the t1 traces the fits read are kept apart."""
    if "--out" in argv:
        return argv[argv.index("--out") + 1]
    name = "t1" if argv == ("t1",) else "long" if argv in LONG_T1 else "out"
    return f"{name}.json" if "json" in argv else f"{name}.csv"


def out_args(argv: tuple[str, ...]) -> tuple[str, ...]:
    """The `--out` arguments a digest command lacks: none for stdout or where it names its own."""
    return () if argv in TO_STDOUT or "--out" in argv else ("--out", out_name(argv))


def digest_line(argv, code: int, stdout: bytes, stderr: bytes, written: bytes | None) -> str:
    return " ".join([str(code), _sha(stdout), _sha(stderr), _sha(written), *argv])


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as workdir:
        for argv in COMMANDS:
            name = out_name(argv)
            out = Path(workdir, name)
            out.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "tripletsim", *argv, *out_args(argv)],
                cwd=workdir,
                env=env,
                stdin=subprocess.DEVNULL,
                capture_output=True,
                timeout=300,
            )
            written = out.read_bytes() if out.exists() else None
            print(digest_line(argv, proc.returncode, proc.stdout, proc.stderr, written))
    return 0


if __name__ == "__main__":
    sys.exit(main())
