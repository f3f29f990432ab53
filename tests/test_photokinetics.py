import numpy as np
import pytest
import scipy.linalg

from oracles import rate_ode_emission, rate_ode_solution
from tripletsim import photokinetics
from tripletsim.errors import InvalidParameterError
from tripletsim.photokinetics import (
    LEVELS,
    KineticRates,
    dark_initial_state,
    expm,
    isc_branching_from_steady_state,
    propagate,
    propagators,
    rate_matrix,
    steady_state,
    t1_relaxation_curve,
)

GROUND = np.eye(5)[0]
LIFETIMES_4K = (514e-6, 21.2e-6, 111e-6)
POPULATIONS_4K = (26.3, 53.8, 19.9)
LIFETIMES_RT = (73e-6, 18.9e-6, 61e-6)
POPULATIONS_RT = (30.5, 41.6, 27.9)


def rates_4k() -> KineticRates:
    return KineticRates.from_steady_state(POPULATIONS_4K, LIFETIMES_4K)


def rates_rt() -> KineticRates:
    return KineticRates.from_steady_state(POPULATIONS_RT, LIFETIMES_RT)


def rates_stack() -> KineticRates:
    """`rates_4k()` and `rates_rt()` as one (2, 3) rate set; only their triplet fields differ."""
    pair = (rates_4k(), rates_rt())
    return KineticRates(
        np.array([r.triplet_lifetimes for r in pair]), np.array([r.isc_branching for r in pair])
    )


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
    frac = ss[2:] / ss[2:].sum()
    assert np.allclose(frac, target / target.sum(), rtol=1e-9)


def test_rate_matrix_columns_sum_to_zero():
    m = rate_matrix(rates_4k(), 1.0)
    assert np.allclose(m.sum(axis=0), 0.0, atol=1e-12 * np.max(np.abs(m)))
    m_off = rate_matrix(rates_4k(), 0.0)
    assert m_off[1, 0] == 0.0
    assert np.allclose(m_off.sum(axis=0), 0.0, atol=1e-12 * np.max(np.abs(m_off)))


def test_rate_matrix_intensity_scales_pump_only():
    rates = rates_4k()
    m1 = rate_matrix(rates, intensity=1.0)
    m2 = rate_matrix(rates, intensity=0.25)
    assert m2[1, 0] == pytest.approx(0.25 * m1[1, 0])
    assert m2[2, 1] == m1[2, 1]


def test_pump_rate_times_intensity_must_be_finite():
    # 1e8/s x 1e305 overflows; every generator path raises before building a matrix
    with pytest.raises(InvalidParameterError, match="pump rate x intensity must be finite"):
        rate_matrix(rates_4k(), 1e305)
    with pytest.raises(InvalidParameterError, match="pump rate x intensity must be finite"):
        propagators(rates_stack(), 1e-6, 1e305)


def test_evolution_matches_adaptive_ode():
    rates = rates_4k()
    m = rate_matrix(rates, 1.0)
    p0 = GROUND
    for t in (1e-7, 1e-6, 1e-5, 1e-4):
        ours, _ = propagate(propagators(rates, t, 1.0), p0)
        ref = rate_ode_solution(m, p0, t)
        assert np.allclose(ours, ref, atol=1e-9)


def test_emission_integral_matches_adaptive_ode():
    rates = rates_rt()
    m = rate_matrix(rates, 1.0)
    p0 = GROUND
    pops, emission = propagate(propagators(rates, 2e-6, 1.0), p0)
    ref_p, ref_em = rate_ode_emission(m, p0, 2e-6)
    assert np.allclose(pops, ref_p, atol=1e-9)
    assert emission == pytest.approx(ref_em, rel=1e-8)


def test_population_conservation_along_evolution():
    rates = rates_4k()
    state = GROUND
    for t, intensity in ((5e-6, 1.0), (40e-6, 0.0), (1e-6, 1.0), (300e-6, 0.0)):
        state, _ = propagate(propagators(rates, t, intensity), state)
        assert state.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(state >= -1e-9)
    # an input that does not conserve population is refused, not renormalised
    with pytest.raises(InvalidParameterError):
        propagate(propagators(rates, 1e-6, 1.0), np.array([0.5, 0.0, 0.0, 0.0, 0.0]))


def test_long_time_evolution_reaches_steady_state():
    rates = rates_4k()
    ss = steady_state(rates)
    final, _ = propagate(propagators(rates, 1.0, 1.0), GROUND)
    assert np.allclose(final, ss, atol=1e-9)


def test_steady_state_zero_residual_and_dark_limit():
    rates = rates_4k()
    ss = steady_state(rates)
    m = rate_matrix(rates, 1.0)
    assert np.max(np.abs(m @ ss)) <= 1e-9 * np.max(np.abs(m))
    assert np.array_equal(steady_state(rates, intensity=0.0), GROUND)


def test_dark_initial_state_folds_s1_into_s0():
    rates = rates_4k()
    ss = steady_state(rates)
    d0 = dark_initial_state(rates)
    s0, s1 = LEVELS.index("s0"), LEVELS.index("s1")
    assert d0[s1] == 0.0
    assert d0[s0] == pytest.approx(ss[s0] + ss[s1])
    assert np.array_equal(d0[2:], ss[2:])


def test_t1_curve_closed_form():
    rates = rates_4k()
    d0 = dark_initial_state(rates)
    delays = np.array([0.0, 10e-6, 100e-6, 1e-3])
    curve = t1_relaxation_curve(rates, delays)
    tau = np.array(LIFETIMES_4K)
    expected = 1.0 - (d0[None, 2:] * np.exp(-delays[:, None] / tau)).sum(axis=1)
    assert np.allclose(curve, expected, rtol=1e-12)
    assert curve[0] == pytest.approx(d0[0])
    assert curve[-1] < 1.0
    assert np.all(np.diff(curve) > 0)


def test_t1_curve_matches_full_rate_model():
    # closed form against propagating the dark generator directly
    rates = rates_rt()
    d0 = dark_initial_state(rates)
    for t in (5e-6, 50e-6, 400e-6):
        full, _ = propagate(propagators(rates, t, 0.0), d0)
        closed = t1_relaxation_curve(rates, np.array([t]))[0]
        assert closed == pytest.approx(full[0] + full[1], abs=1e-12)


def _augmented(rates, intensity, duration):
    a = np.zeros((6, 6))
    a[:5, :5] = rate_matrix(rates, intensity)
    a[5, 1] = 1.0
    return a * duration


WINDOWS = (0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 4e-4, 1e-3, 2e-3)


@pytest.mark.parametrize("lit", [False, True])
def test_expm_matches_scipy_on_augmented_generators(lit):
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
            a = _augmented(rates, float(lit), t)
            ours = expm(a)
            norm = float(np.abs(a).sum(axis=0).max())
            gap = np.max(np.abs(ours - scipy.linalg.expm(a)))
            assert gap <= (max(1e-12, eps * norm) if lit else 1e-12), (t, gap)
            conservation = np.max(np.abs(ours[:5, :5].sum(axis=0) - 1.0))
            limit = max(1e-14, eps * norm) if lit else 1e-14
            assert conservation <= limit, (t, conservation)
            assert np.all(ours[5, :5] >= 0.0)
    assert np.array_equal(expm(np.zeros((6, 6))), np.eye(6))


def test_expm_of_a_stack_equals_expm_of_each_matrix():
    # norms from 0 to ~4e5 need 0 to 17 squarings: each matrix must be
    # scaled and squared as it would be alone, bit for bit
    stack = np.array(
        [_augmented(r, i, t) for r in (rates_4k(), rates_rt()) for i in (0.0, 1.0) for t in WINDOWS]
    )
    batched = expm(stack)
    assert batched.shape == stack.shape
    for a, b in zip(stack, batched):
        assert np.array_equal(expm(a), b)
    assert np.array_equal(expm(stack.reshape(4, 9, 6, 6)), batched.reshape(4, 9, 6, 6))


def test_stacked_propagators_match_single_rate_set_calls():
    rates = rates_stack()
    p0 = np.array([[0.2, 0.1, 0.3, 0.2, 0.2], [1.0, 0.0, 0.0, 0.0, 0.0]])
    for t, intensity in ((3e-6, 1.0), (60e-6, 0.0)):
        pops, emission = propagate(propagators(rates, t, intensity), p0)
        for k, r in enumerate((rates_4k(), rates_rt())):
            single, single_emission = propagate(propagators(r, t, intensity), p0[k])
            assert np.array_equal(pops[k], single)
            assert emission[k] == single_emission
    # one non-conserving row in a stack is refused like a single state
    with pytest.raises(InvalidParameterError):
        propagate(propagators(rates, 1e-6, 1.0), np.array([p0[0], [0.5, 0.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(InvalidParameterError):
        propagators(rates, -1e-6, 1.0)


def test_expm_rejects_non_finite_input():
    a = _augmented(rates_4k(), 1.0, 1e-6)
    a[0, 0] = np.nan
    with pytest.raises(InvalidParameterError, match="non-finite"):
        expm(a)


def test_steady_state_range_and_sum_check_raises(monkeypatch):
    # the solve is replaced so that each bad result reaches the check
    rates = rates_4k()
    for bad, needle in (
        ([0.5, 0.5, 0.5, 0.0, 0.0], "sum to 1"),
        ([1.2, -0.2, 0.0, 0.0, 0.0], r"lie in \[0, 1\]"),
    ):
        monkeypatch.setattr(np.linalg, "solve", lambda a, b, bad=bad: np.array(bad))
        monkeypatch.setattr(photokinetics, "rate_matrix", lambda r, i: np.zeros((5, 5)))
        with pytest.raises(InvalidParameterError, match=needle):
            steady_state(rates)
    monkeypatch.undo()
    p = steady_state(rates)
    assert p.shape == (len(LEVELS),)


def test_kinetic_rates_validation():
    with pytest.raises(InvalidParameterError):
        KineticRates((1e-6, 1e-6, -1e-6), (0.3, 0.3, 0.4))
    with pytest.raises(InvalidParameterError):
        KineticRates((1e-6, 1e-6, 1e-6), (0.5, 0.5, 0.5))
    with pytest.raises(InvalidParameterError):
        KineticRates((1e-6, 1e-6, 1e-6), (0.3, 0.3, 0.4), s1_decay_rate=0.0)
    with pytest.raises(InvalidParameterError):
        KineticRates((1e-6, 1e-6, 1e-6), (0.3, 0.3, 0.4), isc_yield=1.5)


@pytest.mark.parametrize(
    "lifetimes, branching",
    [
        ((1e-6, 1e-6, -1e-6), (0.3, 0.3, 0.4)),
        ((1e-6, 1e-6, 1e-6), (0.3, 0.3, 0.3)),
        ((1e-6, 1e-311, 1e-6), (0.3, 0.3, 0.4)),  # 1/lifetime overflows
    ],
)
def test_stacked_rates_check_each_rate_set_with_the_single_set_message(lifetimes, branching):
    with pytest.raises(InvalidParameterError) as single:
        KineticRates(lifetimes, branching)
    good = rates_4k()
    with pytest.raises(InvalidParameterError) as stacked:
        KineticRates(
            np.array([good.triplet_lifetimes, lifetimes]), np.array([good.isc_branching, branching])
        )
    assert str(stacked.value) == str(single.value)
    assert "three triplet sublevels" not in str(single.value)


def test_stacked_rates_need_three_sublevels_and_one_shape():
    lifetimes, branching = np.array(LIFETIMES_4K), np.array(rates_4k().isc_branching)
    for bad in (
        (lifetimes[:2], branching[:2]),
        (np.stack([lifetimes] * 2), branching),
        (lifetimes, np.stack([branching] * 2)),
    ):
        with pytest.raises(InvalidParameterError, match="three triplet sublevels"):
            KineticRates(*bad)


def test_stacked_rate_matrices_match_single_rate_set_calls():
    stacked = rate_matrix(rates_stack(), 1.0)
    assert stacked.shape == (2, 5, 5)
    for k, r in enumerate((rates_4k(), rates_rt())):
        assert np.array_equal(stacked[k], rate_matrix(r, 1.0))
    assert propagators(rates_4k(), 1e-6, 1.0).shape == (6, 6)


def test_negative_duration_rejected():
    with pytest.raises(InvalidParameterError):
        propagate(propagators(rates_4k(), -1e-6, 1.0), GROUND)


def test_shelving_time_scale_with_defaults():
    # with default pump, S1 decay and ISC yield the ground state empties
    # into the triplet on a ~10 us time scale
    rates = rates_4k()
    before, _ = propagate(propagators(rates, 1e-6, 1.0), GROUND)
    after, _ = propagate(propagators(rates, 30e-6, 1.0), GROUND)
    assert before[2:].sum() < 0.2
    assert after[2:].sum() > 0.6

