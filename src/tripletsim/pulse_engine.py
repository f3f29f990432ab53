"""Hybrid classical/quantum pulse-sequence engine for the triplet qubit.

The state is classical populations for (S0, S1) plus a 3x3 density matrix
for the triplet manifold, expressed in the eigenbasis of the static
Hamiltonian and tracked in its interaction picture. Free evolution
(laser, wait, readout) propagates the five diagonal occupations through
the photokinetic rate model at the element's light intensity, 0 for a
wait, while off-diagonal triplet elements damp at the mean of the
connected decay rates; microwave pulses are detuned rotating-wave
rotations embedded in the addressed two-level subspace.
The state may carry leading batch axes: a pulse with an array of
detunings turns it into one state per detuning, so a whole ODMR sweep is
one pass through the sequence.

Rotations on different transitions of the same three-level system are
applied sequentially; this is accurate when at most one transition is
near-resonant (the spectator rotations are suppressed by Omega^2/Delta^2),
which holds for the MHz-scale drives and GHz-scale splittings this engine
is meant for. A warning is emitted when a drive amplitude is large enough
to strain the rotating-wave approximation.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateReadoutError,
    InvalidParameterError,
    ProtocolViolationError,
    check_nonnegative,
    check_positive,
)
from .photokinetics import KineticRates, propagate, propagators
from .spin_model import (
    TRANSITION_PAIRS,
    ZERO_FIELD_LABELS,
    FieldVector,
    GyroRatio,
    SweepSpectrum,
    TripletEigensystem,
    ZfsParams,
    build_hamiltonian,
    eigensystem,
    field_sweep_spectrum,
    transition_frequencies,
)


@dataclass(frozen=True)
class LaserPulse:
    """The one light element: `duration` in seconds at a relative `intensity`."""

    duration: float
    intensity: float = 1.0

    def __post_init__(self) -> None:
        check_nonnegative("duration", self.duration)
        check_nonnegative("intensity", self.intensity)


@dataclass(frozen=True)
class Wait(LaserPulse):
    """Dark free evolution for `duration` seconds: a LaserPulse fixed at intensity 0."""

    intensity: float = field(default=0.0, init=False)


@dataclass(frozen=True)
class ReadoutPulse(LaserPulse):
    """LaserPulse whose integrated emission is recorded; 1 us by default."""

    duration: float = 1.0e-6


@dataclass(frozen=True)
class MwPulse:
    """Rotating-wave drive on one triplet transition.

    `transition` names the addressed pair and `detuning` the drive's
    offset from that pair's resonance in Hz; a 1-D array of detunings
    gives one state per detuning. `rabi_freq` is the on-resonance Rabi
    frequency in Hz, `phase` the drive phase in radians.
    """

    rabi_freq: float
    duration: float
    transition: tuple[str, str]
    phase: float = 0.0
    detuning: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        check_nonnegative("duration", self.duration)
        check_nonnegative("Rabi frequency", self.rabi_freq)
        if tuple(sorted(self.transition)) not in TRANSITION_PAIRS:
            raise InvalidParameterError(
                f"transition must be one of {TRANSITION_PAIRS}, got {self.transition!r}"
            )


PulseElement = LaserPulse | MwPulse


def pi_pulse(transition: tuple[str, str], rabi_freq: float) -> MwPulse:
    """Resonant pi pulse at drive phase 0: duration 1/(2*rabi_freq)."""
    if rabi_freq <= 0.0:
        raise InvalidParameterError("pi pulse needs rabi_freq > 0")
    return MwPulse(rabi_freq=rabi_freq, duration=0.5 / rabi_freq, transition=transition)


@dataclass
class HybridState:
    """Classical (S0, S1) occupations plus the triplet density matrix.

    `singlet` holds (p_S0, p_S1) with shape (..., 2) and `rho` the
    triplet density matrix with shape (..., 3, 3), written in the
    labeled eigenbasis with rows/columns ordered (x, y, z); its trace is
    the total triplet population. The leading batch axes of the two
    arrays broadcast against each other.
    """

    singlet: np.ndarray
    rho: np.ndarray

    @classmethod
    def ground(cls) -> "HybridState":
        return cls(singlet=np.array([1.0, 0.0]), rho=np.zeros((3, 3), dtype=complex))

    def populations(self) -> np.ndarray:
        """(S0, S1, Tx, Ty, Tz) occupations, shape (..., 5)."""
        triplet = np.real(np.diagonal(self.rho, axis1=-2, axis2=-1))
        batch = np.broadcast_shapes(self.singlet.shape[:-1], triplet.shape[:-1])
        return np.concatenate(
            (np.broadcast_to(self.singlet, batch + (2,)), np.broadcast_to(triplet, batch + (3,))),
            axis=-1,
        )

    def total(self) -> np.ndarray:
        return self.populations().sum(axis=-1)

    def copy(self) -> "HybridState":
        return HybridState(self.singlet.copy(), self.rho.copy())


@dataclass(frozen=True)
class QubitSystem:
    """Static description the engine runs against.

    The kinetic rates are given in the zero-field sublevel basis; at
    nonzero field they are mixed into the eigenbasis with the squared
    eigenvector overlaps (lifetimes as decay rates, branching as feeding
    fractions).
    """

    zfs: ZfsParams
    rates: KineticRates
    field: FieldVector = FieldVector()
    gamma: GyroRatio = GyroRatio()

    @cached_property
    def eigen(self) -> TripletEigensystem:
        return eigensystem(build_hamiltonian(self.zfs, self.field, self.gamma))

    @cached_property
    def transitions(self) -> dict[tuple[str, str], float]:
        return transition_frequencies(self.eigen)

    @cached_property
    def effective_rates(self) -> KineticRates:
        """Sublevel kinetics mixed into the labeled eigenbasis."""
        states = np.stack([self.eigen.state_of(lab) for lab in ZERO_FIELD_LABELS], axis=-1)
        return _mix_into_eigenbasis(self.rates, states)


def _mix_into_eigenbasis(rates: KineticRates, states: np.ndarray) -> KineticRates:
    """Sublevel kinetics mixed into each labeled eigenbasis, as one stacked rate set.

    `states` is a (..., 3, 3) stack of eigenvectors as columns in label
    order; the result's lifetimes and branching are (..., 3) arrays. With
    w the squared overlaps of an eigenstate with the sublevels, its
    lifetime is 1/sum(w/tau) and its ISC branching is sum(w*b),
    renormalized over the three eigenstates.
    """
    w = np.abs(np.swapaxes(states, -1, -2)) ** 2
    lifetimes = 1.0 / (w / np.asarray(rates.triplet_lifetimes)).sum(axis=-1)
    branching = (w * np.asarray(rates.isc_branching)).sum(axis=-1)
    branching = branching / branching.sum(axis=-1, keepdims=True)
    return replace(rates, triplet_lifetimes=lifetimes, isc_branching=branching)


def mw_unitary(
    transition: tuple[str, str],
    rabi_freq: float,
    duration: float,
    phase: float = 0.0,
    detuning: float | np.ndarray = 0.0,
) -> np.ndarray:
    """3x3 rotation with the driven two-level block U = expm(-i*2*pi*H2*t).

    H2 = 0.5*[[-detuning, rabi*exp(-i*phase)], [rabi*exp(i*phase), detuning]]
    in Hz, acting on the (lower, upper) labels of `transition`. U is the
    closed-form SU(2) rotation by theta = pi*W*t about the axis of H2,
    with W = hypot(rabi, detuning) the generalized Rabi frequency. An
    array of detunings gives a (..., 3, 3) stack, one rotation each.
    """
    i, j = sorted(ZERO_FIELD_LABELS.index(t) for t in transition)
    detuning = np.asarray(detuning, dtype=float)
    w = np.hypot(rabi_freq, detuning)
    theta = math.pi * w * duration
    sn = np.divide(np.sin(theta), w, out=np.zeros_like(w), where=w > 0.0)
    cs = np.cos(theta)
    off = -1j * rabi_freq * sn
    rot = cmath.exp(1j * phase)
    u = np.broadcast_to(np.eye(3, dtype=complex), detuning.shape + (3, 3)).copy()
    u[..., i, i], u[..., i, j] = cs + 1j * detuning * sn, off * rot.conjugate()
    u[..., j, i], u[..., j, j] = off * rot, cs - 1j * detuning * sn
    return u


def _rwa_check(rabi_freq: float, transition_freq: float) -> None:
    if transition_freq > 0.0 and rabi_freq > 0.1 * transition_freq:
        warnings.warn(
            f"Rabi frequency {rabi_freq:.3g} Hz exceeds 10% of the "
            f"{transition_freq:.3g} Hz transition; rotating-wave treatment is strained",
            stacklevel=3,
        )


def _apply_mw(state: HybridState, pulse: MwPulse, system: QubitSystem) -> None:
    if pulse.rabi_freq == 0.0 or pulse.duration == 0.0:
        return
    pair = tuple(sorted(pulse.transition))
    _rwa_check(pulse.rabi_freq, system.transitions[pair])
    u = mw_unitary(pair, pulse.rabi_freq, pulse.duration, pulse.phase, pulse.detuning)
    state.rho = u @ state.rho @ np.swapaxes(u, -1, -2).conj()


def _evolve_free(
    state: HybridState, rates: KineticRates, duration: float, intensity: float
) -> np.ndarray:
    """Advance the state through an interval at a light intensity (0 is dark).

    The leading axes of a stacked `rates` broadcast against the state's
    batch axes. Returns the integrated S1 occupancy over the interval,
    one per batch element. Populations follow the five-level rate model;
    triplet coherences damp at the pairwise mean decay rate.
    """
    props = propagators(rates, duration, intensity)
    g = 1.0 / np.asarray(rates.triplet_lifetimes, dtype=float)
    pops, emission = propagate(props, state.populations())
    eye = np.eye(3)
    # zero on the diagonal, which takes the propagated populations instead
    damp = np.exp(-0.5 * (g[..., :, None] + g[..., None, :]) * duration) * (1.0 - eye)
    state.singlet = pops[..., :2]
    state.rho = state.rho * damp + pops[..., 2:, None] * eye
    return emission


def apply_elements(
    elements: tuple[PulseElement, ...] | list[PulseElement],
    system: QubitSystem,
    state: HybridState | None = None,
) -> tuple[HybridState, list[np.ndarray]]:
    """Run elements in order from `state` (ground by default).

    Returns the final state and the list of integrated readout emissions,
    one entry per ReadoutPulse encountered, each shaped like the state's
    batch axes.
    """
    out = state.copy() if state is not None else HybridState.ground()
    emissions: list[np.ndarray] = []
    for element in elements:
        if isinstance(element, LaserPulse):
            emission = _evolve_free(out, system.effective_rates, element.duration, element.intensity)
            if isinstance(element, ReadoutPulse):
                emissions.append(emission)
        elif isinstance(element, MwPulse):
            _apply_mw(out, element, system)
        else:
            raise ProtocolViolationError(f"unknown sequence element {element!r}")
    return out, emissions


def _over_reference(signal: np.ndarray, reference: np.ndarray, protocol: str) -> np.ndarray:
    """Readouts over the reference readout, which must not have vanished."""
    if np.any(reference <= 0.0):
        raise DegenerateReadoutError(f"reference emission vanished in {protocol} protocol")
    return signal / reference


# --- canned experiment protocols --------------------------------------------

#: Laser initialization time used by the canned protocols, seconds.
DEFAULT_INIT_DURATION = 15.0e-6
#: Pair whose populations the multilevel ODMR protocol swaps around its probe.
ODMR_PREP_PAIR = ("y", "z")


def default_readout_delay(rates: KineticRates) -> float:
    """Relaxation delay before readout: three of the shortest triplet lifetimes."""
    return 3.0 * min(rates.triplet_lifetimes)


def simulate_pulsed_odmr(
    system: QubitSystem,
    f_grid: np.ndarray,
    rabi_freq: float = 5.0e6,
    multilevel: bool = False,
    init: LaserPulse = LaserPulse(DEFAULT_INIT_DURATION),
    readout_delay: float | None = None,
    readout: ReadoutPulse = ReadoutPulse(),
) -> np.ndarray:
    """Frequency-swept pulsed ODMR contrast at fixed static field.

    Protocol: laser initialization into the polarized triplet, a probe
    swept in carrier frequency, a dark relaxation delay, and a short
    readout window, normalized by the readout of batch member 0: the
    initialized state, which no pulse touched. The probe is one pi-length
    pulse per pair, in `TRANSITION_PAIRS` order, each detuned from its
    pair's resonance by the carrier. The multilevel variant
    swaps the populations of `ODMR_PREP_PAIR` before the probe and swaps
    them back after, which converts an otherwise low-contrast line into a
    strong one while leaving off-resonant carriers with exactly
    cancelling pulses. The whole grid is one batch: the sequence runs once.
    """
    if rabi_freq <= 0.0:
        raise InvalidParameterError("probe needs rabi_freq > 0")
    f_grid = np.asarray(f_grid, dtype=float)
    if np.any(f_grid <= 0.0):
        raise InvalidParameterError(f"carrier frequency must be > 0, got {float(np.min(f_grid))!r}")
    delay = default_readout_delay(system.rates) if readout_delay is None else readout_delay
    prep = pi_pulse(ODMR_PREP_PAIR, rabi_freq)
    probe = tuple(
        MwPulse(rabi_freq, 0.5 / rabi_freq, pair, detuning=f_grid - system.transitions[pair])
        for pair in TRANSITION_PAIRS
    )
    gate = (prep, *probe, prep) if multilevel else probe
    initialized, _ = apply_elements((init,), system)
    gated, _ = apply_elements(gate, system, initialized)
    # member 0, the reference, is the initialized state itself
    branched = HybridState(initialized.singlet, np.concatenate((initialized.rho[None], gated.rho)))
    _, (emission,) = apply_elements((Wait(delay), readout), system, branched)
    return _over_reference(emission[1:], emission[0], "ODMR")


@dataclass(frozen=True)
class FieldOdmrMap:
    """Contrast map over (field, frequency) with the tracked line centers."""

    field: np.ndarray
    frequency: np.ndarray
    contrast: np.ndarray
    spectrum: SweepSpectrum


def simulate_field_odmr(
    zfs: ZfsParams,
    rates: KineticRates,
    axis: str,
    b_values: np.ndarray,
    f_grid: np.ndarray,
    gamma: GyroRatio = GyroRatio(),
    linewidth: float = 20.0e6,
    init: LaserPulse = LaserPulse(DEFAULT_INIT_DURATION),
    readout_delay: float | None = None,
    readout: ReadoutPulse = ReadoutPulse(),
) -> FieldOdmrMap:
    """ODMR contrast map versus field magnitude along one molecular axis.

    Line positions come from the eigenvector-tracked transition branches.
    Line amplitudes use a swap protocol, run for all fields at once: each
    field's state is initialized by a laser pulse and branched into the
    unrotated reference (member 0) and one member per pair whose
    populations an ideal pi rotation swaps. After the relaxation delay,
    each member's readout over the reference's gives the line's contrast
    amplitude. The kinetics at each field are the sublevel rates mixed
    into its eigenstates, labeled by zero-field character as in
    :attr:`QubitSystem.effective_rates`. Each line is painted with a
    unit-peak Lorentzian of HWHM `linewidth`; amplitudes from the three
    lines add. A vanishing reference readout raises DegenerateReadoutError.
    """
    b_values = np.atleast_1d(np.asarray(b_values, dtype=float))
    f_grid = np.asarray(f_grid, dtype=float)
    check_positive("linewidth", linewidth)
    spectrum = field_sweep_spectrum(zfs, axis, b_values, gamma)
    mixed = _mix_into_eigenbasis(rates, spectrum.states)
    delay = default_readout_delay(rates) if readout_delay is None else readout_delay
    state = HybridState.ground()
    _evolve_free(state, mixed, init.duration, init.intensity)
    # the identity (member 0, the reference), then an ideal pi rotation per pair
    swaps = np.stack([np.eye(3), *(mw_unitary(pair, 1.0, 0.5) for pair in TRANSITION_PAIRS)])
    state.rho = swaps[:, None] @ state.rho @ np.swapaxes(swaps, -1, -2).conj()[:, None]
    _evolve_free(state, mixed, delay, 0.0)
    emission = _evolve_free(state, mixed, readout.duration, readout.intensity)
    amplitude = _over_reference(emission[1:], emission[0], "field-ODMR") - 1.0
    contrast = np.ones((b_values.size, f_grid.size))
    # a carrier x linewidths off a line with x^2 past the float range gets the
    # Lorentzian's exact limit there, 1/(1 + inf) = 0
    with np.errstate(over="ignore"):
        for pair, line in zip(TRANSITION_PAIRS, amplitude):
            x = (f_grid - spectrum.branches[pair][:, None]) / linewidth
            contrast += line[:, None] / (1.0 + x**2)
    return FieldOdmrMap(field=b_values, frequency=f_grid, contrast=contrast, spectrum=spectrum)

