"""Experiment dispatch: validated configuration in, trace record out.

`config` builds, once, at parse time, everything an experiment calls the
physics with, in the SI units (Hz, s, T, radians, Hz/T) the physics
modules speak: `cfg.inputs` holds the physics objects, each key read in
SI units and each grid in SI units. A runner calls the physics on them,
takes its trace axes from `cfg.grids` and stacks columns in the CLI
units (MHz, us, mT) that the trace reports.

Each runner imports the physics it calls inside its own body, so a
`sim` process loads only the modules of the experiment it runs.
"""

from __future__ import annotations

import math

import numpy as np

from ._version import __version__
from .config import MHZ, US, ExperimentConfig
from .errors import ConfigError, InvalidParameterError
from .trace import Column, TraceRecord, read_trace


def _run_spectrum(cfg: ExperimentConfig):
    from .spin_model import TRANSITION_PAIRS, field_sweep_spectrum

    si, b_grid = cfg.inputs, cfg.grids["grid"]
    sweep = field_sweep_spectrum(si["zfs"], si["field.axis"], si["grid"], si["gamma"])
    branch = np.arange(1.0, len(TRANSITION_PAIRS) + 1)
    frequency = np.column_stack([sweep.branches[pair] for pair in TRANSITION_PAIRS]) / MHZ
    rows = np.column_stack([np.repeat(b_grid, 3), np.tile(branch, b_grid.size), frequency.ravel()])
    columns = (Column("field", "mT"), Column("branch", "1"), Column("frequency", "MHz"))
    names = {str(k + 1): "-".join(pair) for k, pair in enumerate(TRANSITION_PAIRS)}
    return columns, rows, {"branches": names}


def _run_field_odmr(cfg: ExperimentConfig):
    from .pulse_engine import simulate_field_odmr

    si, b_grid, f_grid = cfg.inputs, cfg.grids["field_grid"], cfg.grids["grid"]
    result = simulate_field_odmr(
        si["zfs"],
        si["kinetics"],
        si["field.axis"],
        si["field_grid"],
        si["grid"],
        gamma=si["gamma"],
        linewidth=si["odmr.linewidth"],
        init=si["init"],
        readout_delay=si["readout.delay"],
        readout=si["readout"],
    )
    rows = np.column_stack(
        [np.repeat(b_grid, f_grid.size), np.tile(f_grid, b_grid.size), result.contrast.ravel()]
    )
    columns = (Column("field", "mT"), Column("frequency", "MHz"), Column("contrast", "1"))
    return columns, rows, {}


def _run_odmr(cfg: ExperimentConfig):
    from .pulse_engine import QubitSystem, simulate_pulsed_odmr

    si = cfg.inputs
    system = QubitSystem(zfs=si["zfs"], rates=si["kinetics"], field=si["field"], gamma=si["gamma"])
    contrast = simulate_pulsed_odmr(
        system,
        si["grid"],
        rabi_freq=si["pulse.rabi"],
        multilevel=si["odmr.multilevel"],
        init=si["init"],
        readout_delay=si["readout.delay"],
        readout=si["readout"],
    )
    columns = (Column("frequency", "MHz"), Column("contrast", "1"))
    return columns, np.column_stack([cfg.grids["grid"], contrast]), {}


def _run_rabi(cfg: ExperimentConfig):
    from .coherence import simulate_rabi

    si = cfg.inputs
    t2_star = si["pulse.t2_star"]
    trace = simulate_rabi(
        rabi_freq=si["pulse.rabi"],
        durations=si["grid"],
        t2_star=math.inf if t2_star is None else t2_star,
        detuning=si["pulse.detuning"],
    )
    columns = (Column("duration", "us"), Column("transfer", "1"))
    return columns, np.column_stack([cfg.grids["grid"], trace]), {}


def _run_t1(cfg: ExperimentConfig):
    from .photokinetics import t1_relaxation_curve

    si = cfg.inputs
    signal = t1_relaxation_curve(si["kinetics"], si["grid"], intensity=si["init.intensity"])
    columns = (Column("delay", "us"), Column("signal", "1"), Column("triplet", "1"))
    return columns, np.column_stack([cfg.grids["grid"], signal, 1.0 - signal]), {}


def _run_echo(cfg: ExperimentConfig):
    from .coherence import echo_envelope

    envelope = echo_envelope(cfg.inputs["coherence"], cfg.inputs["grid"])
    columns = (Column("time", "us"), Column("echo", "1"))
    return columns, np.column_stack([cfg.grids["grid"], envelope]), {}


def _run_dd_scaling(cfg: ExperimentConfig):
    from .coherence import dd_t2_scaling

    t2 = dd_t2_scaling(cfg.inputs["dd"], cfg.inputs["grid"])
    columns = (Column("n_pulses", "1"), Column("t2", "us"))
    return columns, np.column_stack([cfg.grids["grid"], t2 / US]), {}


def _run_ac_sense(cfg: ExperimentConfig):
    from .coherence import ac_echo_response

    si = cfg.inputs
    # a fixed phase takes no phase average, so its samples go unread
    average = {} if si["ac"].phase is not None else {
        "n_phase_samples": si["ac.phase_samples"],
        "seed": cfg.seed if si["ac.sampling"] == "random" else None,
    }
    contrast = ac_echo_response(si["ac"], si["grid"], probe_gamma=abs(si["gamma"]), **average)
    columns = (Column("tau", "us"), Column("contrast", "1"))
    return columns, np.column_stack([cfg.grids["grid"], contrast]), {}


def _run_nmr_correlation(cfg: ExperimentConfig):
    from .coherence import correlation_spectroscopy, nmr_frequency

    si = cfg.inputs
    b, tau = si["field"].magnitude, si["nuclear.tau"]
    signal = correlation_spectroscopy(
        si["nuclear"],
        b,
        si["grid"],
        tau=tau,
        nuclear_t1=si["nuclear.t1"],
        ac_amplitude=si["nuclear.amplitude"],
        probe_gamma=abs(si["gamma"]),
        n_phase_samples=si["ac.phase_samples"],
    )
    columns = (Column("t_corr", "us"), Column("signal", "1"))
    meta = {"larmor_frequency_mhz": nmr_frequency(si["nuclear"], b) / MHZ, "tau_us": tau / US}
    return columns, np.column_stack([cfg.grids["grid"], signal]), meta


def _run_deer(cfg: ExperimentConfig):
    from .coherence import deer_spectrum

    si = cfg.inputs
    b = si["field"].magnitude
    trace = deer_spectrum(si["dark"], b, si["grid"], t_fix=si["dark.t_fix"])
    columns = (Column("frequency", "MHz"), Column("contrast", "1"))
    meta = {"resonance_mhz": si["dark"].resonance(b) / MHZ}
    return columns, np.column_stack([cfg.grids["grid"], trace]), meta


def _run_deer_rabi(cfg: ExperimentConfig):
    from .coherence import deer_rabi

    si = cfg.inputs
    trace = deer_rabi(
        si["dark"],
        drive_rabi=si["dark.drive_rabi"],
        durations=si["grid"],
        detuning=si["dark.detuning"],
        t_fix=si["dark.t_fix"],
    )
    columns = (Column("duration", "us"), Column("contrast", "1"))
    return columns, np.column_stack([cfg.grids["grid"], trace]), {}


def _run_fit(cfg: ExperimentConfig):
    from .fitting import fit

    si = cfg.inputs
    try:
        record = read_trace(si["fit.input"])
    except OSError as exc:
        raise ConfigError(f"fit.input: cannot read {si['fit.input']!r}: {exc}") from exc

    def pick(role):
        try:
            return record.column_index(si[f"fit.{role}"])
        except InvalidParameterError as exc:
            raise ConfigError(f"fit.{role}: {exc}") from exc

    ix, iy = pick("x_column"), pick("y_column")
    x = record.data[:, ix]
    y = record.data[:, iy]
    result = fit(
        si["fit.model"], x, y, initial_guess=si["fit.initial_guess"], max_iter=si["fit.max_iter"]
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
