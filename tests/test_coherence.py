import math

import numpy as np
import pytest

from oracles import gaussian_coupling_deficit, phase_averaged_ac_contrast
from tripletsim.coherence import (
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
    ac_echo_phase,
    ac_echo_response,
    correlation_spectroscopy,
    dd_t2_scaling,
    deer_rabi,
    deer_spectrum,
    echo_envelope,
    eseem_minimum_times,
    nmr_frequency,
)
from tripletsim.errors import InvalidParameterError

GAMMA = 28.0e9

DEUTERATED = CoherenceModel(
    t2=22.4e-6, nu=1.10, eseem=EseemParams(a=1.0, b=0.5, frequency=140.2e3)
)


def test_echo_envelope_pure_stretched_exponential():
    model = CoherenceModel(t2=2.5e-6, nu=1.05)
    t = np.array([0.0, 2.5e-6, 5.0e-6])
    out = echo_envelope(model, t)
    assert out[0] == 1.0
    assert out[1] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert out[2] == pytest.approx(math.exp(-(2.0**1.05)), rel=1e-12)


def test_echo_envelope_with_modulation():
    t = 22.4e-6
    out = float(echo_envelope(DEUTERATED, t))
    mod = 1.0 - 0.5 * math.sin(math.pi * 140.2e3 * t / 2.0) ** 2
    assert out == pytest.approx(math.exp(-1.0) * mod, rel=1e-12)
    assert float(echo_envelope(DEUTERATED, 0.0)) == 1.0


def test_echo_envelope_rejects_negative_time():
    with pytest.raises(InvalidParameterError):
        echo_envelope(DEUTERATED, -1e-6)


def test_eseem_minimum_times():
    times = eseem_minimum_times(DEUTERATED, 3)
    f = 140.2e3
    assert np.allclose(times, [1.0 / f, 3.0 / f, 5.0 / f], rtol=1e-15)
    assert times[0] == pytest.approx(7.1327e-6, rel=1e-4)
    # and the modulation factor really is minimal there
    mod = lambda t: DEUTERATED.eseem.a - DEUTERATED.eseem.b * np.sin(
        np.pi * f * t / 2.0) ** 2
    eps = 1e-9
    for t0 in times:
        assert mod(t0) <= mod(t0 - eps) and mod(t0) <= mod(t0 + eps)


def test_eseem_requires_modulation():
    with pytest.raises(InvalidParameterError):
        eseem_minimum_times(CoherenceModel(t2=1e-6), 2)


def test_eseem_params_validation():
    with pytest.raises(InvalidParameterError):
        EseemParams(a=0.4, b=0.5, frequency=1e5)
    with pytest.raises(InvalidParameterError):
        EseemParams(a=1.0, b=0.5, frequency=0.0)


def test_coherence_model_validation():
    with pytest.raises(InvalidParameterError):
        CoherenceModel(t2=0.0)
    with pytest.raises(InvalidParameterError):
        CoherenceModel(t2=1e-6, nu=4.5)


def test_dd_scaling_anchor_points():
    params = DdScalingParams(t2_1=22.4e-6, nu=0.53, t1_rho=405e-6)
    # N=1 without the rotating-frame cap returns t2_1 exactly
    free = DdScalingParams(t2_1=22.4e-6, nu=0.53, t1_rho=1e6)
    assert float(dd_t2_scaling(free, 1)) == pytest.approx(22.4e-6, rel=1e-6)
    t2_128 = float(dd_t2_scaling(params, 128))
    assert 195e-6 < t2_128 < 233e-6
    n = 2 ** np.arange(11)
    curve = dd_t2_scaling(params, n)
    assert np.all(np.diff(curve) > 0)
    assert np.all(curve < 2 * 405e-6)


def test_dd_scaling_room_temperature_saturates():
    params = DdScalingParams(t2_1=2.5e-6, nu=1.23, t1_rho=3.2e-6)
    t2 = dd_t2_scaling(params, 2 ** np.arange(11))
    assert 6.0e-6 < t2[-1] < 6.8e-6
    assert np.all(t2 < 6.4e-6)


def test_dd_scaling_validation():
    params = DdScalingParams(t2_1=1e-6, nu=1.0, t1_rho=1e-3)
    with pytest.raises(InvalidParameterError):
        dd_t2_scaling(params, 0)
    with pytest.raises(InvalidParameterError):
        DdScalingParams(t2_1=1e-6, nu=0.0, t1_rho=1e-3)


def test_ac_phase_closed_form_anchor():
    ac = AcSignal(amplitude=1e-6, frequency=1e5)
    # half-period matching with quadrature phase maximizes the pickup
    tau = 0.5 / ac.frequency
    phi = float(ac_echo_phase(ac, tau, -math.pi / 2.0, GAMMA))
    assert phi == pytest.approx(4.0 * GAMMA * 1e-6 / 1e5, rel=1e-9)
    # the analytic form at generic tau
    tau = 1.7e-6
    theta = 2 * math.pi * 1e5 * tau
    want = 4 * GAMMA * 1e-6 / 1e5 * math.sin(theta / 2) ** 2 * math.sin(theta + 0.3)
    assert float(ac_echo_phase(ac, tau, 0.3, GAMMA)) == pytest.approx(want, rel=1e-12)


def test_ac_full_period_cancels():
    ac = AcSignal(amplitude=5e-6, frequency=1e5, phase=0.0)
    tau = 1.0 / ac.frequency  # echo spans two full periods
    out = ac_echo_response(ac, np.array([tau]), probe_gamma=GAMMA)
    assert float(out[0]) == pytest.approx(1.0, abs=1e-12)


def test_ac_zero_amplitude_flat():
    ac = AcSignal(amplitude=0.0, frequency=1e5)
    out = ac_echo_response(ac, np.linspace(0, 40e-6, 50), probe_gamma=GAMMA)
    assert np.allclose(out, 1.0, atol=1e-15)


def test_ac_phase_average_matches_bessel():
    # deterministic midpoint phase grid against the closed-form profile
    ac = AcSignal(amplitude=1.34e-6, frequency=1e5)
    tau = np.linspace(0.2e-6, 40e-6, 97)
    ours = ac_echo_response(ac, tau, probe_gamma=GAMMA, n_phase_samples=64)
    ref = phase_averaged_ac_contrast(1.34e-6, 1e5, tau, GAMMA)
    assert np.max(np.abs(ours - ref)) < 1e-6


def test_ac_random_phases_converge_and_seed_invariance():
    # the random-phase estimate depends on the |Phi| distribution only,
    # so two seeds agree once the Monte Carlo error is beaten down
    ac = AcSignal(amplitude=1.34e-6, frequency=1e5)
    tau = np.linspace(2e-6, 8e-6, 8)
    n = 8_000_000
    a = ac_echo_response(ac, tau, probe_gamma=GAMMA, n_phase_samples=n, seed=1)
    b = ac_echo_response(ac, tau, probe_gamma=GAMMA, n_phase_samples=n, seed=2)
    assert np.max(np.abs(a - b)) < 1e-3
    ref = phase_averaged_ac_contrast(1.34e-6, 1e5, tau, GAMMA)
    assert np.max(np.abs(a - ref)) < 1e-3


def test_ac_collapse_positions():
    ac = AcSignal(amplitude=1.34e-6, frequency=1e5)
    taus = ac_collapse_taus(ac, 3)
    assert np.allclose(taus, [5e-6, 15e-6, 25e-6], rtol=1e-15)
    tau_grid = np.linspace(0.2e-6, 40e-6, 1991)
    contrast = ac_echo_response(ac, tau_grid, probe_gamma=GAMMA)
    step = tau_grid[1] - tau_grid[0]
    for tau_c in taus:
        sel = np.abs(tau_grid - tau_c) <= 1.5 * step
        assert contrast[sel].min() == contrast.min() or contrast[sel].min() < 0.55


def test_ac_signal_validation():
    with pytest.raises(InvalidParameterError):
        AcSignal(amplitude=-1e-6, frequency=1e5)
    with pytest.raises(InvalidParameterError):
        AcSignal(amplitude=1e-6, frequency=0.0)
    with pytest.raises(InvalidParameterError):
        ac_echo_response(AcSignal(1e-6, 1e5), np.array([-1e-6]), probe_gamma=GAMMA)


def test_nuclear_species_constants():
    assert PROTON.gamma == pytest.approx(42.58e6)
    assert DEUTERON.gamma == pytest.approx(6.54e6)
    assert nmr_frequency(PROTON, 0.15) == pytest.approx(6.387e6, rel=1e-12)
    assert nmr_frequency(PROTON, 0.0) == 0.0
    b = np.linspace(0.1, 0.3, 11)
    f = nmr_frequency(PROTON, b)
    slope = np.polyfit(b, f, 1)[0]
    assert slope == pytest.approx(42.58e6, rel=1e-12)


def test_nmr_frequency_rejects_negative_field():
    with pytest.raises(InvalidParameterError):
        nmr_frequency(PROTON, -0.1)
    with pytest.raises(InvalidParameterError):
        NuclearSpecies("bad", 0.0)


def test_correlation_oscillates_at_larmor_frequency():
    b = 0.19
    f_n = nmr_frequency(PROTON, b)
    t1n = 2e-3
    t_corr = np.linspace(0.0, 30.0 / f_n, 4096)
    sig = correlation_spectroscopy(PROTON, b, t_corr, tau=0.5 / f_n,
                                   nuclear_t1=t1n, ac_amplitude=5e-8, probe_gamma=GAMMA)
    spec = np.abs(np.fft.rfft(sig * np.hanning(len(sig))))
    freqs = np.fft.rfftfreq(len(sig), t_corr[1] - t_corr[0])
    peak = freqs[np.argmax(spec[1:]) + 1]
    assert peak == pytest.approx(f_n, rel=2e-2)


def test_correlation_linewidth_from_nuclear_t1():
    # one-sided exponential damping: power-spectral FWHM = 1/(pi*T1)
    b = 0.05
    f_n = nmr_frequency(PROTON, b)
    t1n = 20e-6
    t_corr = np.linspace(0.0, 40 * t1n, 16384)
    sig = correlation_spectroscopy(PROTON, b, t_corr, tau=0.5 / f_n,
                                   nuclear_t1=t1n, ac_amplitude=2e-7, probe_gamma=GAMMA)
    dt = t_corr[1] - t_corr[0]
    freqs = np.fft.rfftfreq(len(sig), dt)
    spec = np.abs(np.fft.rfft(sig)) ** 2
    k0 = int(np.argmax(spec))
    half = spec[k0] / 2.0

    def crossing(direction):
        k = k0
        while spec[k + direction] >= half:
            k += direction
        lo, hi = spec[k + direction], spec[k]
        frac = (half - hi) / (lo - hi)
        return freqs[k] + direction * frac * (freqs[1] - freqs[0])

    fwhm = crossing(+1) - crossing(-1)
    assert fwhm == pytest.approx(1.0 / (math.pi * t1n), rel=0.1)


def test_correlation_decay_envelope():
    # sampling at whole Larmor periods cancels the oscillation factor,
    # leaving the pure storage decay exp(-t/T1)
    b = 0.19
    f_n = nmr_frequency(PROTON, b)
    t1n = 100e-6
    step = round(t1n * f_n) / f_n  # nearest whole number of periods to T1
    t_corr = np.array([0.0, step, 2 * step])
    sig = correlation_spectroscopy(PROTON, b, t_corr, tau=0.5 / f_n,
                                   nuclear_t1=t1n, ac_amplitude=5e-8, probe_gamma=GAMMA)
    assert sig[0] > 0
    assert sig[1] / sig[0] == pytest.approx(math.exp(-step / t1n), rel=1e-9)
    assert sig[2] / sig[0] == pytest.approx(math.exp(-2 * step / t1n), rel=1e-9)


def test_correlation_validation():
    with pytest.raises(InvalidParameterError):
        correlation_spectroscopy(PROTON, 0.0, np.array([0.0]), 1e-6, 1e-3, probe_gamma=GAMMA)
    with pytest.raises(InvalidParameterError):
        correlation_spectroscopy(PROTON, 0.1, np.array([-1.0]), 1e-6, 1e-3, probe_gamma=GAMMA)


def test_deer_dip_center_and_linear_slope():
    dark = DarkSpin(g_factor=2.0, coupling=CouplingDistribution(0.5e6, 0.2e6))
    assert dark.resonance(0.19) == pytest.approx(2.0 * 13.996245e9 * 0.19, rel=1e-12)
    for b in (0.1, 0.19, 0.3):
        center = dark.resonance(b)
        f2 = np.linspace(center - 200e6, center + 200e6, 2001)
        trace = deer_spectrum(dark, b, f2)
        assert f2[np.argmin(trace)] == pytest.approx(center, abs=f2[1] - f2[0])
    # slope over a field grid
    bs = np.linspace(0.1, 0.3, 9)
    centers = [dark.resonance(b) for b in bs]
    slope = np.polyfit(bs, centers, 1)[0]
    assert slope == pytest.approx(27.99e9, rel=5e-3)


def test_deer_dip_depth_matches_coupling_average():
    coupling = CouplingDistribution(0.5e6, 0.2e6)
    dark = DarkSpin(g_factor=2.0, coupling=coupling)
    t_fix = 500e-9
    center = dark.resonance(0.19)
    trace = deer_spectrum(dark, 0.19, np.array([center]), t_fix=t_fix)
    # dense numeric average over the Gaussian distribution
    d = np.linspace(0.5e6 - 8 * 0.2e6, 0.5e6 + 8 * 0.2e6, 20001)
    pdf = np.exp(-((d - 0.5e6) ** 2) / (2 * 0.2e6**2))
    pdf /= pdf.sum()
    deficit = np.sum(pdf * (1 - np.cos(2 * np.pi * d * t_fix)) / 2)
    assert float(trace[0]) == pytest.approx(1.0 - deficit, abs=1e-6)


@pytest.mark.parametrize("spread_t", [0.0, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0])
@pytest.mark.parametrize("mean_t", [0.0, 0.25, 1.3, 55.5])
def test_deer_dip_depth_matches_quadpack_at_every_coupling_spread(spread_t, mean_t):
    # the dip depth is the coupling deficit; sigma*t_fix up to 100, where a fixed
    # set of Gauss-Hermite nodes no longer resolves the cosine
    t_fix = 50e-6
    coupling = CouplingDistribution(mean_t / t_fix, spread_t / t_fix)
    dark = DarkSpin(g_factor=2.0, coupling=coupling)
    center = dark.resonance(0.19)
    trace = deer_spectrum(dark, 0.19, np.array([center]), t_fix=t_fix)
    want = gaussian_coupling_deficit(coupling.mean, coupling.spread, t_fix)
    assert 1.0 - float(trace[0]) == pytest.approx(want, abs=1e-9)


def test_deer_off_resonance_shallow():
    dark = DarkSpin(g_factor=2.0, coupling=CouplingDistribution(0.5e6, 0.2e6))
    center = dark.resonance(0.19)
    trace = deer_spectrum(dark, 0.19, np.array([center, center + 100 * dark.linewidth]))
    on, off = 1 - trace[0], 1 - trace[1]
    assert off < 1e-3 * on


def test_deer_rabi_oscillation():
    dark = DarkSpin(g_factor=2.0, coupling=CouplingDistribution(0.5e6, 0.2e6))
    omega = 35.4e6
    t = np.linspace(0.0, 0.2e-6, 801)
    trace = deer_rabi(dark, omega, t)
    assert trace[0] == pytest.approx(1.0)
    # first contrast minimum at the pi time 1/(2*omega)
    t_pi = t[np.argmin(trace[: len(t) // 2])]
    assert t_pi == pytest.approx(0.5 / omega, abs=2 * (t[1] - t[0]))
    assert np.all(trace <= 1.0 + 1e-12) and np.all(trace >= 0.0)


def test_deer_rabi_zero_drive_flat_and_off_resonance_shallow():
    dark = DarkSpin(g_factor=2.0, coupling=CouplingDistribution(0.5e6, 0.2e6))
    t = np.linspace(0.0, 0.2e-6, 101)
    assert np.array_equal(deer_rabi(dark, 0.0, t), np.ones_like(t))
    omega = 35.4e6
    on = deer_rabi(dark, omega, t)
    far = deer_rabi(dark, omega, t, detuning=10 * omega)
    assert (1 - far.min()) < 0.02 * (1 - on.min())


def test_dark_spin_validation():
    with pytest.raises(InvalidParameterError):
        DarkSpin(g_factor=0.0, coupling=CouplingDistribution(1e6, 0.0))
    with pytest.raises(InvalidParameterError):
        CouplingDistribution(1e6, -1.0)
    with pytest.raises(InvalidParameterError):
        DarkSpin(g_factor=2.0, coupling=CouplingDistribution(1e6, 0.0), linewidth=0.0)


def test_free_electron_constant():
    assert FREE_ELECTRON_HZ_PER_T == pytest.approx(13.996245e9)
