"""Coherence envelopes, dynamical-decoupling scaling, and spin sensing.

Phenomenological decay models live here together with the quasi-static
sensing responses built on top of them: AC-field echo phase accumulation,
nuclear-Larmor correlation spectroscopy, and double-resonance detection
of a dark electron spin. Driven Rabi transfer, of the triplet qubit and
of a dark spin, averages over the same Gaussian detuning ensemble.

Conventions: frequencies in Hz (cycles per second, no 2*pi), times in
seconds, fields in Tesla, gyromagnetic ratios in Hz/T. Phase averages and
detuning averages use deterministic quadrature (midpoint phase grids,
Gauss-Hermite nodes for Gaussian distributions) unless a random mode is
requested explicitly; the average over the Gaussian dipolar couplings of
a DEER trace is a closed form, exact at every echo time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    check_entries_at_least,
    check_exponent,
    check_finite,
    check_nonnegative,
    check_positive,
)

#: Free-electron Zeeman conversion, Hz/T per unit g-factor.
FREE_ELECTRON_HZ_PER_T = 13.996245e9

#: Gauss-Hermite nodes of the dark-spin detuning average (`deer_rabi`).
DARK_DETUNING_NODES = 65
#: Gauss-Hermite nodes of the qubit detuning average (`simulate_rabi`).
RABI_DETUNING_NODES = 201


@dataclass(frozen=True)
class EseemParams:
    """Envelope modulation factor a - b*sin^2(pi*frequency*t/2).

    `frequency` is the modulation frequency in Hz; a >= b >= 0 keeps the
    factor nonnegative.
    """

    a: float
    b: float
    frequency: float

    def __post_init__(self) -> None:
        check_positive("ESEEM modulation frequency", self.frequency)
        if not (0.0 <= self.b <= self.a) or not math.isfinite(self.a):
            raise InvalidParameterError(
                f"need a >= b >= 0 for a nonnegative envelope, got a={self.a!r}, b={self.b!r}"
            )


@dataclass(frozen=True)
class CoherenceModel:
    """Stretched-exponential coherence decay with optional modulation.

    envelope(t) = exp[-(t/t2)^nu] * (a - b*sin^2(pi*f*t/2))
    """

    t2: float
    nu: float = 1.0
    eseem: EseemParams | None = None

    def __post_init__(self) -> None:
        check_positive("T2", self.t2)
        check_exponent("stretching exponent", self.nu)


def echo_envelope(model: CoherenceModel, t: np.ndarray | float) -> np.ndarray:
    """Evaluate the coherence envelope at times t >= 0 (seconds)."""
    t = np.asarray(t, dtype=float)
    check_entries_at_least("times", t, 0.0)
    # (t/T2)^nu past the float range is inf, and exp(-inf) = 0 is the exact envelope there
    with np.errstate(over="ignore"):
        env = np.exp(-((t / model.t2) ** model.nu))
    if model.eseem is not None:
        mod = model.eseem
        env = env * (mod.a - mod.b * np.sin(np.pi * mod.frequency * t / 2.0) ** 2)
    return env


def eseem_minimum_times(model: CoherenceModel, count: int) -> np.ndarray:
    """Times where the modulation factor reaches its minima.

    The factor a - b*sin^2(pi*f*t/2) is minimal where sin^2 = 1, i.e. at
    t = (2k+1)/f for k = 0, 1, .... (The minima of the full product
    envelope sit slightly later-weighted by the decay; these are the
    analytic modulation minima.)
    """
    if model.eseem is None:
        raise InvalidParameterError("coherence model has no modulation component")
    k = np.arange(int(count))
    return (2.0 * k + 1.0) / model.eseem.frequency


@dataclass(frozen=True)
class DdScalingParams:
    """Coherence-time scaling under N-pulse dynamical decoupling.

    1/T2(N) = 1/(t2_1 * N^nu) + 1/(2*t1_rho): a power-law gain with
    exponent nu that saturates at the rotating-frame limit 2*t1_rho.
    """

    t2_1: float
    nu: float
    t1_rho: float

    def __post_init__(self) -> None:
        check_positive("single-echo T2", self.t2_1)
        check_positive("T1rho", self.t1_rho)
        check_exponent("scaling exponent", self.nu)


def dd_t2_scaling(params: DdScalingParams, n_pulses: np.ndarray | int) -> np.ndarray:
    """T2(N) in seconds for pulse numbers N >= 1."""
    n = np.asarray(n_pulses, dtype=float)
    check_entries_at_least("pulse number", n, 1.0)
    # a rate 1/(t2_1*N^nu) past the float range is inf, and T2(N) = 1/inf = 0 is its exact limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 / (params.t2_1 * n**params.nu) + 1.0 / (2.0 * params.t1_rho))


@dataclass(frozen=True)
class AcSignal:
    """Sinusoidal test field b(t) = amplitude*cos(2*pi*frequency*t + phase).

    `phase` None means the field phase is unknown shot to shot and is
    averaged over.
    """

    amplitude: float
    frequency: float
    phase: float | None = None

    def __post_init__(self) -> None:
        check_positive("AC frequency", self.frequency)
        check_nonnegative("AC amplitude", self.amplitude)


def _phase_samples(n: int, seed: int | None = None) -> np.ndarray:
    """n field phases: the midpoints of n equal steps of one period, or Philox draws from `seed`."""
    if n < 1:
        raise InvalidParameterError("need at least one phase sample")
    if seed is None:
        return (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    return np.random.Generator(np.random.Philox(seed)).uniform(0.0, 2.0 * np.pi, size=n)


def echo_phase_amplitude(probe_gamma: float, amplitude: float, frequency: float) -> float:
    """4*gamma*A/f: the largest echo phase a field of amplitude A at frequency f imprints."""
    return 4.0 * probe_gamma * amplitude / frequency


def ac_echo_phase(
    ac: AcSignal, tau: np.ndarray | float, phase: float, probe_gamma: float
) -> np.ndarray:
    """Phase picked up across a tau - pi - tau echo under the AC field.

    The two free-evolution halves contribute with opposite sign; for
    b(t) = A*cos(2*pi*f*t + phi) the integral closes to

        Phi = 4*(gamma*A/f) * sin^2(pi*f*tau) * sin(2*pi*f*tau + phi)

    which vanishes for any phi when the echo spans a full AC period
    (2*tau = 1/f) and is extremal at half-period matching.
    """
    tau = np.asarray(tau, dtype=float)
    theta = 2.0 * np.pi * ac.frequency * tau
    amp = echo_phase_amplitude(probe_gamma, ac.amplitude, ac.frequency)
    return amp * np.sin(theta / 2.0) ** 2 * np.sin(theta + phase)


def ac_echo_response(
    ac: AcSignal,
    tau_grid: np.ndarray,
    *,
    probe_gamma: float,
    n_phase_samples: int = 64,
    seed: int | None = None,
) -> np.ndarray:
    """Echo contrast cos(Phi) versus tau, averaged over the AC phase.

    With a fixed signal phase the response is cos(Phi) directly. With
    phase None the average runs over a midpoint phase grid of
    `n_phase_samples` points (deterministic), or over Philox-drawn random
    phases when `seed` is given; both converge to the Bessel-function
    J0(4*gamma*A/f*sin^2(pi*f*tau)) profile whose collapses sit at
    2*tau = (2k+1)/f.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    check_entries_at_least("tau values", tau_grid, 0.0)
    if ac.phase is not None:
        return np.cos(ac_echo_phase(ac, tau_grid, ac.phase, probe_gamma))
    phases = _phase_samples(n_phase_samples, seed)
    phi = ac_echo_phase(ac, tau_grid[:, None], phases[None, :], probe_gamma)
    return np.cos(phi).mean(axis=1)


def ac_collapse_taus(ac: AcSignal, count: int) -> np.ndarray:
    """Echo times tau where the phase-averaged contrast collapses.

    Collapse minima satisfy 2*tau = (2k+1)/f_AC.
    """
    k = np.arange(int(count))
    return (2.0 * k + 1.0) / (2.0 * ac.frequency)


@dataclass(frozen=True)
class NuclearSpecies:
    """A nuclear species: name and gyromagnetic ratio in Hz/T."""

    name: str
    gamma: float

    def __post_init__(self) -> None:
        check_positive("nuclear gamma", abs(self.gamma))


PROTON = NuclearSpecies("proton", 42.58e6)
DEUTERON = NuclearSpecies("deuteron", 6.54e6)


def nmr_frequency(species: NuclearSpecies, b: np.ndarray | float) -> np.ndarray | float:
    """Larmor frequency |gamma_n|*B in Hz."""
    b = np.asarray(b, dtype=float)
    check_entries_at_least("field magnitude", b, 0.0)
    out = abs(species.gamma) * b
    return float(out) if out.ndim == 0 else out


def correlation_spectroscopy(
    species: NuclearSpecies,
    b: float,
    t_corr_grid: np.ndarray,
    tau: float,
    nuclear_t1: float,
    ac_amplitude: float = 1.0e-9,
    *,
    probe_gamma: float,
    n_phase_samples: int = 64,
) -> np.ndarray:
    """Correlation signal of two echo blocks separated by a storage time.

    Each tau - pi - tau block picks up a phase Phi_m*sin(psi) from the
    nuclear-driven field oscillating at the Larmor frequency f_n, with
    Phi_m = 4*gamma*A/f_n*sin^2(pi*f_n*tau) and psi the (uniformly random)
    field phase at the block. During the storage interval the field phase
    advances by 2*pi*f_n*t_corr, so the phase-averaged product of the two
    sine projections

        S(t_corr) = <sin(Phi_m sin psi) * sin(Phi_m sin(psi + 2 pi f_n t_corr))>_psi

    oscillates at exactly f_n. Storage relaxation multiplies on an
    exp(-t_corr/nuclear_t1) decay, i.e. a Lorentzian spectral linewidth
    of 1/(pi*nuclear_t1) FWHM.
    """
    check_positive("nuclear T1", nuclear_t1)
    check_positive("echo half-time tau", tau)
    t_corr_grid = np.asarray(t_corr_grid, dtype=float)
    check_entries_at_least("storage times", t_corr_grid, 0.0)
    f_n = nmr_frequency(species, b)
    if f_n <= 0.0:
        raise InvalidParameterError("correlation spectroscopy needs a nonzero field")
    phi_m = echo_phase_amplitude(probe_gamma, ac_amplitude, f_n) * math.sin(math.pi * f_n * tau) ** 2
    psi = _phase_samples(n_phase_samples)
    advance = 2.0 * np.pi * f_n * t_corr_grid
    first = np.sin(phi_m * np.sin(psi))[None, :]
    second = np.sin(phi_m * np.sin(psi[None, :] + advance[:, None]))
    signal = (first * second).mean(axis=1)
    return signal * np.exp(-t_corr_grid / nuclear_t1)


@dataclass(frozen=True)
class CouplingDistribution:
    """Gaussian distribution of probe-dark dipolar couplings, in Hz."""

    mean: float
    spread: float

    def __post_init__(self) -> None:
        check_finite("coupling mean", self.mean)
        check_nonnegative("coupling spread", self.spread)


@dataclass(frozen=True)
class DarkSpin:
    """An optically dark electron spin addressed by a second drive tone.

    `linewidth` is the half-width at half-maximum of its resonance in Hz,
    also used as the detuning spread when driving it coherently.
    """

    g_factor: float
    coupling: CouplingDistribution
    linewidth: float = 2.0e6

    def __post_init__(self) -> None:
        check_positive("g-factor", self.g_factor)
        check_positive("dark-spin linewidth", self.linewidth)

    def resonance(self, b: float) -> float:
        """Dark-spin resonance frequency g*mu_B/h*B in Hz."""
        return self.g_factor * FREE_ELECTRON_HZ_PER_T * b


def _gauss_nodes(mean: float, sigma: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for a N(mean, sigma^2) average."""
    if sigma == 0.0 or n == 1:
        return np.array([mean]), np.array([1.0])
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(n)
    return mean + math.sqrt(2.0) * sigma * x, w / math.sqrt(math.pi)


def _coupling_deficit(coupling: CouplingDistribution, t_fix: float) -> float:
    """Average of (1 - cos(2*pi*d*t_fix))/2 over d ~ N(mean, spread^2).

    Closed form: (1 - exp(-2*(pi*spread*t_fix)^2) * cos(2*pi*mean*t_fix))/2.
    """
    x = math.pi * coupling.spread * t_fix
    cos = np.cos(2.0 * np.pi * coupling.mean * t_fix)
    return float(0.5 * (1.0 - math.exp(-2.0 * x * x) * cos))


def deer_spectrum(
    dark: DarkSpin,
    b: float,
    f2_grid: np.ndarray,
    t_fix: float = 500.0e-9,
) -> np.ndarray:
    """Echo contrast versus second-tone frequency at fixed echo time.

    Flipping the dark spin mid-echo converts the dipolar coupling d into
    an unrefocused phase 2*pi*d*t_fix, averaging to a contrast deficit
    <(1 - cos(2*pi*d*t_fix))/2> over the coupling distribution. The flip
    probability follows a Lorentzian resonance profile of HWHM
    `dark.linewidth` centered at g*mu_B/h*B, so the trace is a single dip
    whose center moves linearly with field.
    """
    check_positive("fixed echo time", t_fix)
    f2_grid = np.asarray(f2_grid, dtype=float)
    deficit = _coupling_deficit(dark.coupling, t_fix)
    # a detuning of x linewidths with x^2 past the float range is off the line: the
    # Lorentzian 1/(1 + inf) = 0 there is exact
    with np.errstate(over="ignore"):
        x = (f2_grid - dark.resonance(b)) / dark.linewidth
        return 1.0 - deficit / (1.0 + x**2)


def _rabi_ensemble(
    rabi: float, detuning: float, sigma: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Rabi frequencies and transfer amplitudes over N(detuning, sigma^2).

    Each Gauss-Hermite node nutates at hypot(rabi, delta) with amplitude
    (rabi / hypot(rabi, delta))^2, weighted by its quadrature weight.
    """
    delta, w = _gauss_nodes(detuning, sigma, n)
    omega_g = np.hypot(rabi, delta)
    return omega_g, w * (rabi / omega_g) ** 2


def simulate_rabi(
    rabi_freq: float,
    durations: np.ndarray,
    t2_star: float = math.inf,
    detuning: float = 0.0,
) -> np.ndarray:
    """Driven population transfer versus pulse duration.

    The two-level transfer probability is averaged over a Gaussian
    quasi-static detuning ensemble of width sigma = sqrt(2)/(2*pi*T2*)
    (the width whose free-induction decay is exp[-(t/T2*)^2]), and the
    oscillating part carries the matching inhomogeneous envelope
    exp[-(t/T2*)^2]. t2_star=inf gives the undamped on-resonance
    oscillation sin^2(pi*rabi*t).
    """
    check_positive("Rabi frequency", rabi_freq)
    durations = np.asarray(durations, dtype=float)
    check_entries_at_least("durations", durations, 0.0)
    if t2_star == math.inf:
        sigma = 0.0
        envelope = np.ones_like(durations)
    else:
        check_positive("T2*", t2_star)
        sigma = math.sqrt(2.0) / (2.0 * math.pi * t2_star)
        # (t/T2*)^2 past the float range is inf, and exp(-inf) = 0 is the exact envelope there
        with np.errstate(over="ignore"):
            envelope = np.exp(-((durations / t2_star) ** 2))
    omega_g, amp = _rabi_ensemble(rabi_freq, detuning, sigma, RABI_DETUNING_NODES)
    osc = np.cos(2.0 * np.pi * omega_g[None, :] * durations[:, None]) * envelope[:, None]
    return 0.5 * np.sum(amp[None, :] * (1.0 - osc), axis=1)


def deer_rabi(
    dark: DarkSpin,
    drive_rabi: float,
    durations: np.ndarray,
    detuning: float = 0.0,
    t_fix: float = 500.0e-9,
) -> np.ndarray:
    """Echo contrast versus second-tone pulse duration (dark-spin Rabi).

    The dark spin nutates at the generalized Rabi frequency
    sqrt(drive_rabi^2 + delta^2), with delta averaged over a Gaussian
    detuning ensemble of spread `dark.linewidth` around `detuning`. The
    observed contrast is 1 - deficit * <flip probability>.
    drive_rabi = 0 leaves the trace flat at 1.
    """
    check_nonnegative("drive Rabi frequency", drive_rabi)
    durations = np.asarray(durations, dtype=float)
    check_entries_at_least("durations", durations, 0.0)
    if drive_rabi == 0.0:
        return np.ones_like(durations)
    deficit = _coupling_deficit(dark.coupling, t_fix)
    omega_g, weight = _rabi_ensemble(drive_rabi, detuning, dark.linewidth, DARK_DETUNING_NODES)
    flip = weight[None, :] * np.sin(np.pi * omega_g[None, :] * durations[:, None]) ** 2
    return 1.0 - deficit * flip.sum(axis=1)
