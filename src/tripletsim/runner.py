"""Experiment dispatch: validated configuration in, trace record out.

This is the single place where CLI units (MHz, us, mT, degrees, MHz/mT)
are converted to the SI units (Hz, s, T, radians, Hz/T) the physics
modules speak.

Each runner imports the physics it calls inside its own body, so a
`sim` process loads only the modules of the experiment it runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ._version import __version__
from .config import MAX_GRID_CELLS, ExperimentConfig
from .errors import ConfigError
from .trace import Column, TraceRecord, read_trace

if TYPE_CHECKING:
    from .coherence import CoherenceModel, DarkSpin, NuclearSpecies
    from .photokinetics import KineticRates
    from .pulse_engine import LaserPulse, ReadoutPulse
    from .spin_model import FieldVector, GyroRatio, ZfsParams

MHZ = 1.0e6
US = 1.0e-6
MT = 1.0e-3
MHZ_PER_MT = 1.0e9  # to Hz/T


def _zfs(cfg: ExperimentConfig) -> ZfsParams:
    from .spin_model import ZfsParams

    return ZfsParams(d=cfg["zfs"]["d"] * MHZ, e=cfg["zfs"]["e"] * MHZ)


def _gamma(cfg: ExperimentConfig) -> GyroRatio:
    from .spin_model import GyroRatio

    return GyroRatio(gamma=cfg["gamma"] * MHZ_PER_MT)


def _field(cfg: ExperimentConfig) -> FieldVector:
    from .spin_model import FieldVector

    section = cfg["field"]
    components = (section["bx"], section["by"], section["bz"])
    if any(c is not None for c in components):
        bx, by, bz = (0.0 if c is None else c for c in components)
        return FieldVector(bx=bx * MT, by=by * MT, bz=bz * MT)
    return FieldVector.along(section["axis"], section["magnitude"] * MT)


def _rates(cfg: ExperimentConfig) -> KineticRates:
    from .photokinetics import KineticRates

    kin = cfg["kinetics"]
    return KineticRates.from_steady_state(
        populations=tuple(kin["populations"]),
        lifetimes=tuple(t * US for t in kin["lifetimes"]),
        pump_rate=kin["pump_rate"] * MHZ,
        s1_decay_rate=1.0 / (kin["s1_lifetime"] * US),
        isc_yield=kin["isc_yield"],
    )


def _grid(
    cfg: ExperimentConfig,
    key: str = "grid",
    start: float = 0.0,
    stop: float = 1.0,
    count: int = 101,
    spacing: str = "linear",
    values: list[float] | None = None,
) -> np.ndarray:
    """Resolve a grid section against experiment-specific defaults (CLI units).

    An explicit `spacing` always applies; left unset it is linear for a
    grid given by start, stop and count, and the experiment's `spacing`
    for the experiment's own range.
    """
    section = cfg[key]
    if section["values"] is not None:
        return np.asarray(section["values"], dtype=float)
    how = section["spacing"]
    if section["start"] is not None:
        lo, hi, n = section["start"], section["stop"], section["count"]
        how = how or "linear"
    elif values is not None:
        if how is not None:
            raise ConfigError(
                f"{key}.spacing: {cfg.experiment} has a default list of values; "
                f"give {key}.start, {key}.stop and {key}.count with it"
            )
        return np.asarray(values, dtype=float)
    else:
        lo, hi, n = start, stop, count
        how = how or spacing
        if how == "log" and (lo <= 0.0 or hi <= 0.0):
            raise ConfigError(
                f"{key}.spacing: log spacing needs start > 0 and stop > 0, and the default "
                f"range of {cfg.experiment} is {lo:g} to {hi:g}; give {key}.start and {key}.stop"
            )
    if how == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _check_cells(cfg: ExperimentConfig, keys: str, n_rows: int, n_cols: int) -> None:
    """Reject two resolved sizes whose product exceeds MAX_GRID_CELLS."""
    if n_rows * n_cols > MAX_GRID_CELLS:
        raise ConfigError(
            f"{keys}: {cfg.experiment} would compute {n_rows} x {n_cols} cells, "
            f"more than the {MAX_GRID_CELLS} allowed; reduce one of them"
        )


def _check_domain(cfg: ExperimentConfig, values: np.ndarray, ok: np.ndarray, rule: str) -> None:
    """Reject grid values outside the experiment's domain before anything is simulated."""
    if not np.all(ok):
        raise ConfigError(f"grid: {cfg.experiment} needs {rule}; got {values[~ok][0]:g}")


def _init_pulse(cfg: ExperimentConfig) -> LaserPulse:
    from .pulse_engine import LaserPulse

    section = cfg["init"]
    return LaserPulse(duration=section["duration"] * US, intensity=section["intensity"])


def _readout_pulse(cfg: ExperimentConfig) -> ReadoutPulse:
    from .pulse_engine import ReadoutPulse

    section = cfg["readout"]
    return ReadoutPulse(duration=section["duration"] * US, intensity=section["intensity"])


def _readout_delay(cfg: ExperimentConfig) -> float | None:
    delay = cfg["readout"]["delay"]
    return None if delay is None else delay * US


def _nuclear_species(cfg: ExperimentConfig) -> NuclearSpecies:
    from .coherence import DEUTERON, PROTON, NuclearSpecies

    section = cfg["nuclear"]
    if section["gamma"] is not None:
        return NuclearSpecies("custom", section["gamma"] * MHZ_PER_MT)
    if section["species"] == "deuteron":
        return DEUTERON
    return PROTON


def _dark_spin(cfg: ExperimentConfig) -> DarkSpin:
    from .coherence import CouplingDistribution, DarkSpin

    section = cfg["dark"]
    return DarkSpin(
        g_factor=section["g_factor"],
        coupling=CouplingDistribution(
            mean=section["coupling_mean"] * MHZ, spread=section["coupling_spread"] * MHZ
        ),
        linewidth=section["linewidth"] * MHZ,
    )


def _require_field_magnitude(cfg: ExperimentConfig, kind: str) -> float:
    b = _field(cfg).magnitude
    if b <= 0.0:
        raise ConfigError(
            f"{kind} needs a nonzero static field; set field.magnitude (mT), e.g. 190"
        )
    return b


def _run_spectrum(cfg: ExperimentConfig):
    from .spin_model import TRANSITION_PAIRS, field_sweep_spectrum

    b_values = _grid(cfg, values=[0.0]) * MT
    sweep = field_sweep_spectrum(_zfs(cfg), cfg["field"]["axis"], b_values, _gamma(cfg))
    rows = []
    for n, b in enumerate(sweep.field):
        for k, pair in enumerate(TRANSITION_PAIRS):
            rows.append([b / MT, float(k + 1), sweep.branches[pair][n] / MHZ])
    columns = (Column("field", "mT"), Column("branch", "1"), Column("frequency", "MHz"))
    names = {str(k + 1): "-".join(pair) for k, pair in enumerate(TRANSITION_PAIRS)}
    return columns, np.asarray(rows), {"branches": names}


def _run_field_odmr(cfg: ExperimentConfig):
    from .pulse_engine import simulate_field_odmr

    b_grid = _grid(cfg, key="field_grid", start=0.0, stop=120.0, count=61)
    f_grid = _grid(cfg, start=600.0, stop=3000.0, count=241)
    _check_domain(cfg, f_grid, f_grid > 0.0, "carrier frequencies > 0 MHz")
    _check_cells(cfg, "field_grid x grid", b_grid.size, f_grid.size)
    result = simulate_field_odmr(
        _zfs(cfg),
        _rates(cfg),
        cfg["field"]["axis"],
        b_grid * MT,
        f_grid * MHZ,
        gamma=_gamma(cfg),
        linewidth=cfg["odmr"]["linewidth"] * MHZ,
        init=_init_pulse(cfg),
        readout_delay=_readout_delay(cfg),
        readout=_readout_pulse(cfg),
    )
    rows = np.column_stack(
        [np.repeat(b_grid, f_grid.size), np.tile(f_grid, b_grid.size), result.contrast.ravel()]
    )
    columns = (Column("field", "mT"), Column("frequency", "MHz"), Column("contrast", "1"))
    return columns, rows, {}


def _run_odmr(cfg: ExperimentConfig):
    from .pulse_engine import QubitSystem, simulate_pulsed_odmr

    f_grid = _grid(cfg, start=800.0, stop=2600.0, count=361)
    _check_domain(cfg, f_grid, f_grid > 0.0, "carrier frequencies > 0 MHz")
    system = QubitSystem(zfs=_zfs(cfg), rates=_rates(cfg), field=_field(cfg), gamma=_gamma(cfg))
    contrast = simulate_pulsed_odmr(
        system,
        f_grid * MHZ,
        rabi_freq=cfg["pulse"]["rabi"] * MHZ,
        multilevel=cfg["odmr"]["multilevel"],
        init=_init_pulse(cfg),
        readout_delay=_readout_delay(cfg),
        readout=_readout_pulse(cfg),
    )
    columns = (Column("frequency", "MHz"), Column("contrast", "1"))
    return columns, np.column_stack([f_grid, contrast]), {}


def _run_rabi(cfg: ExperimentConfig):
    from .coherence import simulate_rabi

    durations = _grid(cfg, start=0.0, stop=0.6, count=301)
    _check_domain(cfg, durations, durations >= 0.0, "pulse durations >= 0 us")
    t2_star = cfg["pulse"]["t2_star"]
    trace = simulate_rabi(
        rabi_freq=cfg["pulse"]["rabi"] * MHZ,
        durations=durations * US,
        t2_star=math.inf if t2_star is None else t2_star * US,
        detuning=cfg["pulse"]["detuning"] * MHZ,
    )
    columns = (Column("duration", "us"), Column("transfer", "1"))
    return columns, np.column_stack([durations, trace]), {}


def _run_t1(cfg: ExperimentConfig):
    from .photokinetics import t1_relaxation_curve

    delays = _grid(cfg, start=0.5, stop=2000.0, count=200, spacing="log")
    _check_domain(cfg, delays, delays >= 0.0, "delays >= 0 us")
    signal = t1_relaxation_curve(_rates(cfg), delays * US, intensity=cfg["init"]["intensity"])
    columns = (Column("delay", "us"), Column("signal", "1"), Column("triplet", "1"))
    return columns, np.column_stack([delays, signal, 1.0 - signal]), {}


def _coherence_model(cfg: ExperimentConfig) -> CoherenceModel:
    from .coherence import CoherenceModel, EseemParams

    section = cfg["coherence"]
    eseem = section["eseem"]
    return CoherenceModel(
        t2=section["t2"] * US,
        nu=section["nu"],
        eseem=None
        if eseem is None
        else EseemParams(a=eseem["a"], b=eseem["b"], frequency=eseem["frequency"] * MHZ),
    )


def _run_echo(cfg: ExperimentConfig):
    from .coherence import echo_envelope

    times = _grid(cfg, start=0.05, stop=70.0, count=400)
    _check_domain(cfg, times, times >= 0.0, "echo times >= 0 us")
    envelope = echo_envelope(_coherence_model(cfg), times * US)
    columns = (Column("time", "us"), Column("echo", "1"))
    return columns, np.column_stack([times, envelope]), {}


def _run_dd_scaling(cfg: ExperimentConfig):
    from .coherence import DdScalingParams, dd_t2_scaling

    n_pulses = _grid(cfg, values=[float(2**k) for k in range(11)])
    _check_domain(cfg, n_pulses, n_pulses >= 1.0, "pulse numbers >= 1")
    section = cfg["dd"]
    params = DdScalingParams(
        t2_1=section["t2_1"] * US, nu=section["nu"], t1_rho=section["t1_rho"] * US
    )
    t2 = dd_t2_scaling(params, n_pulses)
    columns = (Column("n_pulses", "1"), Column("t2", "us"))
    return columns, np.column_stack([n_pulses, t2 / US]), {}


def _run_ac_sense(cfg: ExperimentConfig):
    from .coherence import AcSignal, ac_echo_response

    taus = _grid(cfg, start=0.2, stop=40.0, count=400)
    _check_domain(cfg, taus, taus >= 0.0, "tau values >= 0 us")
    section = cfg["ac"]
    phase = None if section["phase"] is None else math.radians(section["phase"])
    ac = AcSignal(
        amplitude=section["amplitude"] * MT, frequency=section["frequency"] * MHZ, phase=phase
    )
    if phase is None:
        _check_cells(cfg, "grid x ac.phase_samples", taus.size, section["phase_samples"])
    seed = cfg.seed if section["sampling"] == "random" else None
    contrast = ac_echo_response(
        ac,
        taus * US,
        probe_gamma=abs(cfg["gamma"]) * MHZ_PER_MT,
        n_phase_samples=section["phase_samples"],
        seed=seed,
    )
    columns = (Column("tau", "us"), Column("contrast", "1"))
    return columns, np.column_stack([taus, contrast]), {}


def _run_nmr_correlation(cfg: ExperimentConfig):
    from .coherence import correlation_spectroscopy

    b = _require_field_magnitude(cfg, "nmr-correlation")
    species = _nuclear_species(cfg)
    section = cfg["nuclear"]
    f_n = abs(species.gamma) * b  # Hz
    tau = section["tau"] * US if section["tau"] is not None else 0.5 / f_n
    stop_us = 30.0 / f_n / US
    t_corr = _grid(cfg, start=0.0, stop=stop_us, count=1501)
    _check_domain(cfg, t_corr, t_corr >= 0.0, "storage times >= 0 us")
    _check_cells(cfg, "grid x ac.phase_samples", t_corr.size, cfg["ac"]["phase_samples"])
    signal = correlation_spectroscopy(
        species,
        b,
        t_corr * US,
        tau=tau,
        nuclear_t1=section["t1"] * US,
        ac_amplitude=section["amplitude"] * MT,
        probe_gamma=abs(cfg["gamma"]) * MHZ_PER_MT,
        n_phase_samples=cfg["ac"]["phase_samples"],
    )
    columns = (Column("t_corr", "us"), Column("signal", "1"))
    meta = {"larmor_frequency_mhz": f_n / MHZ, "tau_us": tau / US}
    return columns, np.column_stack([t_corr, signal]), meta


def _run_deer(cfg: ExperimentConfig):
    from .coherence import deer_spectrum

    b = _require_field_magnitude(cfg, "deer")
    dark = _dark_spin(cfg)
    center = dark.resonance(b) / MHZ
    f2 = _grid(cfg, start=center - 250.0, stop=center + 250.0, count=501)
    trace = deer_spectrum(dark, b, f2 * MHZ, t_fix=cfg["dark"]["t_fix"] * US)
    columns = (Column("frequency", "MHz"), Column("contrast", "1"))
    return columns, np.column_stack([f2, trace]), {"resonance_mhz": center}


def _run_deer_rabi(cfg: ExperimentConfig):
    from .coherence import deer_rabi

    dark = _dark_spin(cfg)
    durations = _grid(cfg, start=0.0, stop=0.2, count=401)
    _check_domain(cfg, durations, durations >= 0.0, "pulse durations >= 0 us")
    trace = deer_rabi(
        dark,
        drive_rabi=cfg["dark"]["drive_rabi"] * MHZ,
        durations=durations * US,
        detuning=cfg["dark"]["detuning"] * MHZ,
        t_fix=cfg["dark"]["t_fix"] * US,
    )
    columns = (Column("duration", "us"), Column("contrast", "1"))
    return columns, np.column_stack([durations, trace]), {}


def _run_fit(cfg: ExperimentConfig):
    from .fitting import estimate_initial_guess, fit, get_model

    section = cfg["fit"]
    try:
        record = read_trace(section["input"])
    except OSError as exc:
        raise ConfigError(f"fit.input: cannot read {section['input']!r}: {exc}") from exc

    def pick(sel, role):
        if isinstance(sel, str):
            for k, col in enumerate(record.columns):
                if col.name == sel:
                    return k
            raise ConfigError(
                f"fit.{role}: no column named {sel!r}; have {[c.name for c in record.columns]}"
            )
        if not (0 <= sel < len(record.columns)):
            raise ConfigError(f"fit.{role}: index {sel} out of range for {len(record.columns)} columns")
        return sel

    ix = pick(section["x_column"], "x_column")
    iy = pick(section["y_column"], "y_column")
    x = record.data[:, ix]
    y = record.data[:, iy]
    model = get_model(section["model"])
    if section["initial_guess"] is not None:
        guess = np.asarray(section["initial_guess"], dtype=float)
    else:
        guess = estimate_initial_guess(model, x, y)
    result = fit(model, x, y, initial_guess=guess, max_iter=section["max_iter"])
    columns = []
    row = []
    for name, value, err in zip(result.param_names, result.params, result.std_errors):
        columns.append(Column(name, "1"))
        columns.append(Column(f"{name}_err", "1"))
        row.extend([value, err])
    columns += [Column("rss", "1"), Column("converged", "1"), Column("iterations", "1")]
    row += [result.rss, float(result.converged), float(result.iterations)]
    meta = {
        "model": result.model_name,
        "param_names": list(result.param_names),
        "x_column": record.columns[ix].header,
        "y_column": record.columns[iy].header,
        "n_points": result.n_points,
    }
    return tuple(columns), np.asarray([row]), meta


_RUNNERS = {
    "spectrum": _run_spectrum,
    "field-odmr": _run_field_odmr,
    "odmr": _run_odmr,
    "rabi": _run_rabi,
    "t1": _run_t1,
    "echo": _run_echo,
    "dd-scaling": _run_dd_scaling,
    "ac-sense": _run_ac_sense,
    "nmr-correlation": _run_nmr_correlation,
    "deer": _run_deer,
    "deer-rabi": _run_deer_rabi,
    "fit": _run_fit,
}


def run_experiment(config: ExperimentConfig) -> TraceRecord:
    """Execute the configured experiment and assemble its trace record."""
    runner = _RUNNERS[config.experiment]
    columns, data, extra = runner(config)
    metadata = {
        "version": __version__,
        "experiment": config.experiment,
        "seed": config.seed,
        "config": config.sections,
    }
    metadata.update(extra)
    return TraceRecord(columns=columns, data=np.atleast_2d(data), metadata=metadata)
