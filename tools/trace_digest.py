"""Print a digest of what a fixed list of `sim` commands produce.

    python tools/trace_digest.py

Each command runs as a fresh `python -m tripletsim` process against the
`src/` tree next to this script, in a temporary working directory, with
relative output and fit-input paths so the trace metadata does not
depend on where it runs. For each command one line is printed: the exit
code, then the SHA-256 of stdout, of stderr and of the output file
("-" when none was written), then the command. Two checkouts give the
same lines exactly when they give the same bytes, so comparing the
output of two checkouts is a byte-identity check of everything the
commands touch. `tests/data/trace_digest.txt` holds the expected output,
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
    ("fit", *FIT_INPUT, "--set", "fit.model=triple_exponential",
     "--set", "fit.x_column=delay", "--set", "fit.y_column=triplet"),
    # the same fit read back from a JSON trace
    ("t1", "--format", "json"),
    ("fit", "--set", "fit.input=out.json", "--set", "fit.model=triple_exponential",
     "--set", "fit.x_column=delay", "--set", "fit.y_column=triplet"),
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
    # overflows whose limit is the exact answer: an envelope, a Lorentzian or a T2 of 0
    ("echo", "--set", "coherence.t2=1e-305"),
    ("echo", "--set", "grid.values=[1e305]"),
    ("rabi", "--set", "grid.values=[1e305]"),
    ("dd-scaling", "--set", "dd.t2_1=1e-305"),
    ("deer", "--set", "field.magnitude=190", "--set", "dark.linewidth=1e-305"),
    ("field-odmr", "--set", "odmr.linewidth=1e-305"),
    # a drive that strains the rotating-wave treatment: three warning lines
    ("odmr", "--set", "pulse.rabi=400"),
    # a pump rate x intensity past the float range: a config error
    ("t1", "--set", "init.intensity=1e305"),
    ("odmr", "--set", "init.intensity=1e305"),
    ("odmr", "--set", "readout.intensity=1e305"),
    ("field-odmr", "--set", "init.intensity=1e305"),
    ("field-odmr", "--set", "readout.intensity=1e305"),
    # cells outside [1e-4, 1e16), which emit leaves to repr: 0.0 and exponent notation
    ("echo", "--set", "grid.values=[1e-05,0.5,2e16]"),
)


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def out_name(argv: tuple[str, ...]) -> str:
    """The relative output path of a command; the default t1 trace is kept for the fits."""
    return "t1.csv" if argv == ("t1",) else "out.json" if "json" in argv else "out.csv"


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
                [sys.executable, "-m", "tripletsim", *argv, "--out", name],
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
