"""Experiment dispatch: validated configuration in, trace record out.

The runners convert CLI units (MHz, us, mT, degrees, MHz/mT) to the SI
units (Hz, s, T, radians, Hz/T) the physics modules speak. They read each
grid as `config` resolved and checked it, default ranges that the physics
sets included; its checks repeat the conversions they need.

Each runner imports the physics it calls inside its own body, so a
`sim` process loads only the modules of the experiment it runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ._version import __version__
from .config import ExperimentConfig
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


def _run_spectrum(cfg: ExperimentConfig):
    from .spin_model import TRANSITION_PAIRS, field_sweep_spectrum

    b_values = cfg.grids["grid"] * MT
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

    b_grid, f_grid = cfg.grids["field_grid"], cfg.grids["grid"]
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

    f_grid = cfg.grids["grid"]
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

    durations = cfg.grids["grid"]
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

    delays = cfg.grids["grid"]
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

    times = cfg.grids["grid"]
    envelope = echo_envelope(_coherence_model(cfg), times * US)
    columns = (Column("time", "us"), Column("echo", "1"))
    return columns, np.column_stack([times, envelope]), {}


def _run_dd_scaling(cfg: ExperimentConfig):
    from .coherence import DdScalingParams, dd_t2_scaling

    n_pulses = cfg.grids["grid"]
    section = cfg["dd"]
    params = DdScalingParams(
        t2_1=section["t2_1"] * US, nu=section["nu"], t1_rho=section["t1_rho"] * US
    )
    t2 = dd_t2_scaling(params, n_pulses)
    columns = (Column("n_pulses", "1"), Column("t2", "us"))
    return columns, np.column_stack([n_pulses, t2 / US]), {}


def _run_ac_sense(cfg: ExperimentConfig):
    from .coherence import AcSignal, ac_echo_response

    taus = cfg.grids["grid"]
    section = cfg["ac"]
    phase = section["phase"]
    ac = AcSignal(
        amplitude=section["amplitude"] * MT,
        frequency=section["frequency"] * MHZ,
        phase=None if phase is None else math.radians(phase),
    )
    # a fixed phase takes no phase average, so its samples go unread
    average = {} if phase is not None else {
        "n_phase_samples": section["phase_samples"],
        "seed": cfg.seed if section["sampling"] == "random" else None,
    }
    contrast = ac_echo_response(
        ac, taus * US, probe_gamma=abs(cfg["gamma"]) * MHZ_PER_MT, **average
    )
    columns = (Column("tau", "us"), Column("contrast", "1"))
    return columns, np.column_stack([taus, contrast]), {}


def _run_nmr_correlation(cfg: ExperimentConfig):
    from .coherence import correlation_spectroscopy

    b = _field(cfg).magnitude
    species = _nuclear_species(cfg)
    section = cfg["nuclear"]
    f_n = abs(species.gamma) * b  # Hz
    tau = section["tau"] * US if section["tau"] is not None else 0.5 / f_n
    t_corr = cfg.grids["grid"]
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

    b = _field(cfg).magnitude
    dark = _dark_spin(cfg)
    f2 = cfg.grids["grid"]
    trace = deer_spectrum(dark, b, f2 * MHZ, t_fix=cfg["dark"]["t_fix"] * US)
    columns = (Column("frequency", "MHz"), Column("contrast", "1"))
    return columns, np.column_stack([f2, trace]), {"resonance_mhz": dark.resonance(b) / MHZ}


def _run_deer_rabi(cfg: ExperimentConfig):
    from .coherence import deer_rabi

    dark = _dark_spin(cfg)
    durations = cfg.grids["grid"]
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
    from .fitting import fit

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
    result = fit(
        section["model"], x, y, initial_guess=section["initial_guess"], max_iter=section["max_iter"]
    )
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
        "config": config.read_sections(),
    }
    metadata.update(extra)
    return TraceRecord(columns=columns, data=np.atleast_2d(data), metadata=metadata)
