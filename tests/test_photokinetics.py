import numpy as np
import pytest
import scipy.linalg

from oracles import rate_ode_emission, rate_ode_solution
from tripletsim.errors import InvalidParameterError
from tripletsim.photokinetics import (
    KineticRates,
    LevelPopulations,
    dark_initial_state,
    expm,
    isc_branching_from_steady_state,
    propagate,
    propagators,
    rate_matrix,
    steady_state,
    t1_relaxation_curve,
)

LIFETIMES_4K = (514e-6, 21.2e-6, 111e-6)
POPULATIONS_4K = (26.3, 53.8, 19.9)
LIFETIMES_RT = (73e-6, 18.9e-6, 61e-6)
POPULATIONS_RT = (30.5, 41.6, 27.9)


def rates_4k() -> KineticRates:
    return KineticRates.from_steady_state(POPULATIONS_4K, LIFETIMES_4K)


def rates_rt() -> KineticRates:
    return KineticRates.from_steady_state(POPULATIONS_RT, LIFETIMES_RT)


def test_branching_inversion_formula():
    b = isc_branching_from_steady_state(POPULATIONS_4K, LIFETIMES_4K)
    raw = np.array(POPULATIONS_4K) / np.array(LIFETIMES_4K)
    assert np.allclose(b, raw / raw.sum(), rtol=1e-12)
    assert sum(b) == pytest.approx(1.0, abs=1e-12)


def test_branching_inversion_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        isc_branching_from_steady_state((0.0, 0.0, 0.0), LIFETIMES_4K)
    with pytest.raises(InvalidParameterError):
        isc_branching_from_steady_state((1.0, 1.0, -0.1), LIFETIMES_4K)
    with pytest.raises(InvalidParameterError):
        isc_branching_from_steady_state((1.0, 1.0, 1.0), (1.0, 0.0, 1.0))


@pytest.mark.parametrize("make", [rates_4k, rates_rt])
def test_steady_state_reproduces_target_fractions(make):
    # the defining round trip: build rates from fractions, solve for the
    # steady state, recover the same fractions
    rates = make()
    target = np.array(POPULATIONS_4K if make is rates_4k else POPULATIONS_RT)
    ss = steady_state(rates)
    frac = ss.triplet / ss.triplet.sum()
    assert np.allclose(frac, target / target.sum(), rtol=1e-9)


def test_rate_matrix_columns_sum_to_zero():
    m = rate_matrix(rates_4k(), laser_on=True)
    assert np.allclose(m.sum(axis=0), 0.0, atol=1e-12 * np.max(np.abs(m)))
    m_off = rate_matrix(rates_4k(), laser_on=False)
    assert m_off[1, 0] == 0.0
    assert np.allclose(m_off.sum(axis=0), 0.0, atol=1e-12 * np.max(np.abs(m_off)))


def test_rate_matrix_intensity_scales_pump_only():
    rates = rates_4k()
    m1 = rate_matrix(rates, True, intensity=1.0)
    m2 = rate_matrix(rates, True, intensity=0.25)
    assert m2[1, 0] == pytest.approx(0.25 * m1[1, 0])
    assert m2[2, 1] == m1[2, 1]


def test_evolution_matches_adaptive_ode():
    rates = rates_4k()
    m = rate_matrix(rates, laser_on=True)
    p0 = LevelPopulations.ground().as_array()
    for t in (1e-7, 1e-6, 1e-5, 1e-4):
        ours, _ = propagate(propagators((rates,), t, True)[0], p0)
        ref = rate_ode_solution(m, p0, t)
        assert np.allclose(ours, ref, atol=1e-9)


def test_emission_integral_matches_adaptive_ode():
    rates = rates_rt()
    m = rate_matrix(rates, laser_on=True)
    p0 = LevelPopulations.ground().as_array()
    pops, emission = propagate(propagators((rates,), 2e-6, True)[0], p0)
    ref_p, ref_em = rate_ode_emission(m, p0, 2e-6)
    assert np.allclose(pops, ref_p, atol=1e-9)
    assert emission == pytest.approx(ref_em, rel=1e-8)


def test_population_conservation_along_evolution():
    rates = rates_4k()
    state = LevelPopulations.ground().as_array()
    for t, on in ((5e-6, True), (40e-6, False), (1e-6, True), (300e-6, False)):
        state, _ = propagate(propagators((rates,), t, on)[0], state)
        assert state.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(state >= -1e-9)
    # an input that does not conserve population is refused, not renormalised
    with pytest.raises(InvalidParameterError):
        propagate(propagators((rates,), 1e-6, True)[0], np.array([0.5, 0.0, 0.0, 0.0, 0.0]))


def test_long_time_evolution_reaches_steady_state():
    rates = rates_4k()
    ss = steady_state(rates)
    final, _ = propagate(propagators((rates,), 1.0, True)[0], LevelPopulations.ground().as_array())
    assert np.allclose(final, ss.as_array(), atol=1e-9)


def test_steady_state_zero_residual_and_dark_limit():
    rates = rates_4k()
    ss = steady_state(rates)
    m = rate_matrix(rates, laser_on=True)
    assert np.max(np.abs(m @ ss.as_array())) <= 1e-9 * np.max(np.abs(m))
    assert steady_state(rates, intensity=0.0) == LevelPopulations.ground()


def test_dark_initial_state_folds_s1_into_s0():
    rates = rates_4k()
    ss = steady_state(rates)
    d0 = dark_initial_state(rates)
    assert d0.p_s1 == 0.0
    assert d0.p_s0 == pytest.approx(ss.p_s0 + ss.p_s1)
    assert np.array_equal(d0.triplet, ss.triplet)


def test_t1_curve_closed_form():
    rates = rates_4k()
    d0 = dark_initial_state(rates)
    delays = np.array([0.0, 10e-6, 100e-6, 1e-3])
    curve = t1_relaxation_curve(rates, delays)
    tau = np.array(LIFETIMES_4K)
    expected = 1.0 - (d0.triplet[None, :] * np.exp(-delays[:, None] / tau)).sum(axis=1)
    assert np.allclose(curve, expected, rtol=1e-12)
    assert curve[0] == pytest.approx(d0.p_s0)
    assert curve[-1] < 1.0
    assert np.all(np.diff(curve) > 0)


def test_t1_curve_matches_full_rate_model():
    # closed form against propagating the dark generator directly
    rates = rates_rt()
    d0 = dark_initial_state(rates)
    for t in (5e-6, 50e-6, 400e-6):
        full, _ = propagate(propagators((rates,), t, False)[0], d0.as_array())
        closed = t1_relaxation_curve(rates, np.array([t]))[0]
        assert closed == pytest.approx(full[0] + full[1], abs=1e-12)


def _augmented(rates, laser_on, duration):
    a = np.zeros((6, 6))
    a[:5, :5] = rate_matrix(rates, laser_on)
    a[5, 1] = 1.0
    return a * duration


WINDOWS = (0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 4e-4, 1e-3, 2e-3)


@pytest.mark.parametrize("laser_on", [False, True])
def test_expm_matches_scipy_on_augmented_generators(laser_on):
    # A backward-stable expm is accurate to about eps * ||A||_1 and no
    # better. With the laser on (pump and S1 decay 1e8/s) ||A t||_1
    # reaches 4e5 at 2 ms, where scipy and this expm both sit ~1e-12 from
    # a 60-digit reference and miss exact conservation by up to 4e-12.
    # Dark windows have the same stiff S1 decay, yet there this expm stays
    # within 1e-15 of the reference (scipy within 2.2e-13), so they keep
    # the fixed bounds: 1e-12 against scipy and 1e-14 on conservation.
    eps = np.finfo(float).eps
    for rates in (rates_4k(), rates_rt()):
        for t in WINDOWS:
            a = _augmented(rates, laser_on, t)
            ours = expm(a)
            norm = float(np.abs(a).sum(axis=0).max())
            gap = np.max(np.abs(ours - scipy.linalg.expm(a)))
            assert gap <= (max(1e-12, eps * norm) if laser_on else 1e-12), (t, gap)
            conservation = np.max(np.abs(ours[:5, :5].sum(axis=0) - 1.0))
            limit = max(1e-14, eps * norm) if laser_on else 1e-14
            assert conservation <= limit, (t, conservation)
            assert np.all(ours[5, :5] >= 0.0)
    assert np.array_equal(expm(np.zeros((6, 6))), np.eye(6))


def test_expm_of_a_stack_equals_expm_of_each_matrix():
    # norms from 0 to ~4e5 need 0 to 17 squarings: each matrix must be
    # scaled and squared as it would be alone, bit for bit
    stack = np.array(
        [_augmented(r, on, t) for r in (rates_4k(), rates_rt()) for on in (False, True) for t in WINDOWS]
    )
    batched = expm(stack)
    assert batched.shape == stack.shape
    for a, b in zip(stack, batched):
        assert np.array_equal(expm(a), b)
    assert np.array_equal(expm(stack.reshape(4, 9, 6, 6)), batched.reshape(4, 9, 6, 6))


def test_stacked_propagators_match_single_rate_set_calls():
    rates = (rates_4k(), rates_rt())
    p0 = np.array([[0.2, 0.1, 0.3, 0.2, 0.2], [1.0, 0.0, 0.0, 0.0, 0.0]])
    for t, on in ((3e-6, True), (60e-6, False)):
        pops, emission = propagate(propagators(rates, t, on), p0)
        for k, r in enumerate(rates):
            single, single_emission = propagate(propagators((r,), t, on)[0], p0[k])
            assert np.array_equal(pops[k], single)
            assert emission[k] == single_emission
    # one non-conserving row in a stack is refused like a single state
    with pytest.raises(InvalidParameterError):
        propagate(propagators(rates, 1e-6, True), np.array([p0[0], [0.5, 0.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(InvalidParameterError):
        propagators(rates, -1e-6, True)


def test_expm_rejects_non_finite_input():
    a = _augmented(rates_4k(), True, 1e-6)
    a[0, 0] = np.nan
    with pytest.raises(InvalidParameterError, match="non-finite"):
        expm(a)


def test_level_populations_validation():
    with pytest.raises(InvalidParameterError):
        LevelPopulations(0.5, 0.5, 0.5, 0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        LevelPopulations(1.2, -0.2, 0.0, 0.0, 0.0)
    p = LevelPopulations.from_array(np.array([0.2, 0.1, 0.3, 0.2, 0.2]))
    assert p.p_tx == 0.3


def test_kinetic_rates_validation():
    with pytest.raises(InvalidParameterError):
        KineticRates((1e-6, 1e-6, -1e-6), (0.3, 0.3, 0.4))
    with pytest.raises(InvalidParameterError):
        KineticRates((1e-6, 1e-6, 1e-6), (0.5, 0.5, 0.5))
    with pytest.raises(InvalidParameterError):
        KineticRates((1e-6, 1e-6, 1e-6), (0.3, 0.3, 0.4), s1_decay_rate=0.0)
    with pytest.raises(InvalidParameterError):
        KineticRates((1e-6, 1e-6, 1e-6), (0.3, 0.3, 0.4), isc_yield=1.5)


def test_negative_duration_rejected():
    with pytest.raises(InvalidParameterError):
        propagate(propagators((rates_4k(),), -1e-6, True)[0], LevelPopulations.ground().as_array())


def test_shelving_time_scale_with_defaults():
    # with default pump, S1 decay and ISC yield the ground state empties
    # into the triplet on a ~10 us time scale
    rates = rates_4k()
    ground = LevelPopulations.ground().as_array()
    before, _ = propagate(propagators((rates,), 1e-6, True)[0], ground)
    after, _ = propagate(propagators((rates,), 30e-6, True)[0], ground)
    assert before[2:].sum() < 0.2
    assert after[2:].sum() > 0.6

