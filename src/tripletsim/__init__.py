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
    Echo envelopes, dynamical decoupling scaling, AC sensing, dark spins.
fitting
    Levenberg-Marquardt fits for the model zoo used by the experiments.
trace
    Column-oriented result container with CSV/JSON serialization.
config, runner, cli
    Configuration schema, experiment dispatch, command line front end.
"""

from ._version import __version__
from .coherence import (
    DEUTERON,
    FREE_ELECTRON_HZ_PER_T,
    PROTON,
    AcSignal,
    CoherenceModel,
    CouplingDistribution,
    DarkSpin,
    DdScalingParams,
    EseemParams,
    NuclearSpecies,
    ac_collapse_taus,
    ac_echo_response,
    correlation_spectroscopy,
    dd_t2_scaling,
    deer_rabi,
    deer_spectrum,
    echo_envelope,
    eseem_minimum_times,
    nmr_frequency,
)
from .errors import (
    ConfigError,
    DegenerateFitError,
    DegenerateReadoutError,
    FlatDataError,
    InvalidParameterError,
    ProtocolViolationError,
    SimulationError,
)
from .fitting import FitResult, fit, get_model, model_eval
from .photokinetics import (
    KineticRates,
    LevelPopulations,
    isc_branching_from_steady_state,
    steady_state,
    t1_relaxation_curve,
)
from .pulse_engine import (
    HybridState,
    LaserPulse,
    MwPulse,
    QubitSystem,
    ReadoutPulse,
    Wait,
    pi_pulse,
    simulate_field_odmr,
    simulate_pulsed_odmr,
    simulate_rabi,
)
from .spin_model import (
    GAMMA_ELECTRON_HZ_PER_T,
    FieldVector,
    GyroRatio,
    TripletEigensystem,
    ZfsParams,
    build_hamiltonian,
    eigensystem,
    field_sweep_spectrum,
    spin_operators,
    transition_frequencies,
)
from .trace import Column, TraceRecord, emit, parse_trace, read_trace

__all__ = [
    "__version__",
    "AcSignal",
    "CoherenceModel",
    "Column",
    "ConfigError",
    "CouplingDistribution",
    "DarkSpin",
    "DdScalingParams",
    "DegenerateFitError",
    "DegenerateReadoutError",
    "DEUTERON",
    "EseemParams",
    "FieldVector",
    "FitResult",
    "FlatDataError",
    "FREE_ELECTRON_HZ_PER_T",
    "GAMMA_ELECTRON_HZ_PER_T",
    "GyroRatio",
    "HybridState",
    "InvalidParameterError",
    "KineticRates",
    "LaserPulse",
    "LevelPopulations",
    "MwPulse",
    "NuclearSpecies",
    "PROTON",
    "ProtocolViolationError",
    "QubitSystem",
    "ReadoutPulse",
    "SimulationError",
    "TraceRecord",
    "TripletEigensystem",
    "Wait",
    "ZfsParams",
    "ac_collapse_taus",
    "ac_echo_response",
    "build_hamiltonian",
    "correlation_spectroscopy",
    "dd_t2_scaling",
    "deer_rabi",
    "deer_spectrum",
    "echo_envelope",
    "eigensystem",
    "emit",
    "eseem_minimum_times",
    "field_sweep_spectrum",
    "fit",
    "get_model",
    "isc_branching_from_steady_state",
    "model_eval",
    "nmr_frequency",
    "parse_trace",
    "pi_pulse",
    "read_trace",
    "simulate_field_odmr",
    "simulate_pulsed_odmr",
    "simulate_rabi",
    "spin_operators",
    "steady_state",
    "t1_relaxation_curve",
    "transition_frequencies",
]
