"""Simulation and fitting toolkit for optically addressed molecular triplet qubits.

The package models a five-level optical pumping cycle coupled to a spin-1
zero-field Hamiltonian, pulsed microwave control in the triplet manifold,
coherence decay with nuclear-modulation envelopes, AC magnetometry, double
resonance with dark spins, and curve fitting for the resulting traces.

Modules
-------
spin_model
    Zero-field splitting Hamiltonian, eigensystem, transition frequencies.
photokinetics
    Five-level rate equations, optical pumping, population propagation.
pulse_engine
    Hybrid classical/quantum pulse sequencing, readout and canned experiments.
coherence
    Echo envelopes, dynamical decoupling, AC sensing, dark spins, Rabi transfer.
fitting
    Levenberg-Marquardt fits for the model zoo used by the experiments.
trace
    Column-oriented result container with CSV/JSON serialization.
config, runner, cli
    Configuration schema, experiment dispatch, command line front end.
"""

import importlib

from ._version import __version__

# Each export is imported from its module on first access (PEP 562), so
# `import tripletsim` loads no physics and `sim <experiment>` loads only
# the modules that experiment runs.
_EXPORTS = {
    "AcSignal": "coherence",
    "CoherenceModel": "coherence",
    "Column": "trace",
    "ConfigError": "errors",
    "CouplingDistribution": "coherence",
    "DarkSpin": "coherence",
    "DdScalingParams": "coherence",
    "DegenerateFitError": "errors",
    "DegenerateReadoutError": "errors",
    "DEUTERON": "coherence",
    "EseemParams": "coherence",
    "FieldVector": "spin_model",
    "FitResult": "fitting",
    "FlatDataError": "errors",
    "FREE_ELECTRON_HZ_PER_T": "coherence",
    "GAMMA_ELECTRON_HZ_PER_T": "spin_model",
    "GyroRatio": "spin_model",
    "HybridState": "pulse_engine",
    "InvalidParameterError": "errors",
    "KineticRates": "photokinetics",
    "LaserPulse": "pulse_engine",
    "MwPulse": "pulse_engine",
    "NuclearSpecies": "coherence",
    "PROTON": "coherence",
    "ProtocolViolationError": "errors",
    "QubitSystem": "pulse_engine",
    "ReadoutPulse": "pulse_engine",
    "SimulationError": "errors",
    "TraceRecord": "trace",
    "TripletEigensystem": "spin_model",
    "Wait": "pulse_engine",
    "ZfsParams": "spin_model",
    "ac_collapse_taus": "coherence",
    "ac_echo_response": "coherence",
    "build_hamiltonian": "spin_model",
    "correlation_spectroscopy": "coherence",
    "dd_t2_scaling": "coherence",
    "deer_rabi": "coherence",
    "deer_spectrum": "coherence",
    "echo_envelope": "coherence",
    "eigensystem": "spin_model",
    "emit": "trace",
    "eseem_minimum_times": "coherence",
    "field_sweep_spectrum": "spin_model",
    "fit": "fitting",
    "get_model": "fitting",
    "isc_branching_from_steady_state": "photokinetics",
    "model_eval": "fitting",
    "nmr_frequency": "coherence",
    "parse_trace": "trace",
    "pi_pulse": "pulse_engine",
    "read_trace": "trace",
    "simulate_field_odmr": "pulse_engine",
    "simulate_pulsed_odmr": "pulse_engine",
    "simulate_rabi": "coherence",
    "spin_operators": "spin_model",
    "steady_state": "photokinetics",
    "t1_relaxation_curve": "photokinetics",
    "transition_frequencies": "spin_model",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
