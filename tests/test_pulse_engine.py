import math

import numpy as np
import pytest
import scipy.linalg

from oracles import rate_ode_emission, rate_ode_solution, two_level_rotation
from tripletsim import photokinetics, pulse_engine
from tripletsim.coherence import simulate_rabi
from tripletsim.errors import (
    DegenerateReadoutError,
    InvalidParameterError,
    ProtocolViolationError,
)
from tripletsim.photokinetics import (
    KineticRates,
    isc_branching_from_steady_state,
    propagate,
    propagators,
    rate_matrix,
)
from tripletsim.pulse_engine import (
    DEFAULT_INIT_DURATION,
    HybridState,
    LaserPulse,
    MwPulse,
    QubitSystem,
    ReadoutPulse,
    Wait,
    apply_elements,
    default_readout_delay,
    mw_unitary,
    pi_pulse,
    simulate_field_odmr,
    simulate_pulsed_odmr,
)
from tripletsim.spin_model import FieldVector, ZfsParams

ZFS = ZfsParams(d=1.905e9, e=-0.475e9)
LIFETIMES_4K = (514.0e-6, 21.2e-6, 111.0e-6)
BRANCHING_4K = isc_branching_from_steady_state((0.263, 0.538, 0.199), LIFETIMES_4K)
RATES_4K = KineticRates(triplet_lifetimes=LIFETIMES_4K, isc_branching=BRANCHING_4K)
LIFETIMES_295K = (73.0e-6, 18.9e-6, 61.0e-6)
RATES_295K = KineticRates(
    triplet_lifetimes=LIFETIMES_295K,
    isc_branching=isc_branching_from_steady_state((0.305, 0.416, 0.279), LIFETIMES_295K),
)
SYSTEM = QubitSystem(zfs=ZFS, rates=RATES_4K)

PAIRS = (("x", "y"), ("x", "z"), ("y", "z"))


def random_density_matrix(rng, triplet_weight=0.6):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho *= triplet_weight / np.real(np.trace(rho))
    return rho


def rotated(rho, u):
    return u @ rho @ u.conj().T


def embedded(u2, pair):
    idx = {"x": 0, "y": 1, "z": 2}
    i, j = sorted(idx[t] for t in pair)
    u = np.eye(3, dtype=complex)
    u[i, i], u[i, j] = u2[0, 0], u2[0, 1]
    u[j, i], u[j, j] = u2[1, 0], u2[1, 1]
    return u


# --- microwave rotations ------------------------------------------------------

def test_mw_unitary_matches_closed_form_rotation():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pair = PAIRS[rng.integers(3)]
        rabi = 10.0 ** rng.uniform(5.0, 8.0)
        duration = 10.0 ** rng.uniform(-9.0, -6.0)
        phase = rng.uniform(-np.pi, np.pi)
        detuning = rng.normal(scale=rabi)
        ours = mw_unitary(pair, rabi, duration, phase, detuning)
        ref = embedded(two_level_rotation(rabi, duration, detuning, phase), pair)
        assert np.max(np.abs(ours - ref)) < 1e-10


def test_mw_unitary_is_unitary():
    rng = np.random.default_rng(8)
    for _ in range(100):
        pair = PAIRS[rng.integers(3)]
        u = mw_unitary(
            pair,
            10.0 ** rng.uniform(5.0, 8.0),
            10.0 ** rng.uniform(-9.0, -5.0),
            rng.uniform(-np.pi, np.pi),
            rng.normal(scale=1e6),
        )
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-12


def test_mw_unitary_matches_scipy_expm():
    # the closed form against expm(-2*pi*i*H2*t), rotation angles up to 2*pi,
    # including zero drive, zero detuning and zero duration
    rng = np.random.default_rng(10)
    cases = [
        (0.0, 1e-6, 0.3, 2e6),
        (5e6, 1e-7, 1.1, 0.0),
        (5e6, 0.0, 0.2, 1e6),
        (0.0, 0.0, 0.0, 0.0),
    ]
    for _ in range(300):
        rabi, detuning = rng.uniform(0.0, 2e7), rng.uniform(-2e7, 2e7)
        duration = rng.uniform(0.0, 2.0 / np.hypot(rabi, detuning))
        cases.append((rabi, duration, rng.uniform(-np.pi, np.pi), detuning))
    for k, (rabi, duration, phase, detuning) in enumerate(cases):
        pair = PAIRS[k % 3]
        h2 = 0.5 * np.array(
            [[-detuning, rabi * np.exp(-1j * phase)], [rabi * np.exp(1j * phase), detuning]]
        )
        ref = embedded(scipy.linalg.expm(-2j * np.pi * h2 * duration), pair)
        u = mw_unitary(pair, rabi, duration, phase, detuning)
        assert np.max(np.abs(u - ref)) <= 1e-14, (rabi, duration, phase, detuning)
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) <= 1e-14
    assert np.array_equal(mw_unitary(("x", "y"), 5e6, 0.0, 0.4, 1e6), np.eye(3))
    assert np.array_equal(mw_unitary(("x", "y"), 0.0, 1e-6, 0.4, 0.0), np.eye(3))


def test_mw_unitary_stack_equals_scalar_calls():
    rng = np.random.default_rng(12)
    detunings = np.concatenate(([0.0], rng.normal(scale=2e7, size=40)))
    for pair in PAIRS:
        for rabi in (0.0, 5e6):
            stack = mw_unitary(pair, rabi, 1e-7, 0.7, detunings)
            assert stack.shape == (detunings.size, 3, 3)
            for u, detuning in zip(stack, detunings):
                assert np.array_equal(u, mw_unitary(pair, rabi, 1e-7, 0.7, float(detuning)))
    assert mw_unitary(("x", "y"), 5e6, 1e-7, 0.0, np.zeros((2, 4))).shape == (2, 4, 3, 3)


def test_rotation_composition_is_exact():
    # two back-to-back drive intervals equal one of the summed duration
    rng = np.random.default_rng(9)
    for _ in range(50):
        pair = PAIRS[rng.integers(3)]
        rabi = 2.0e6
        phase = rng.uniform(-np.pi, np.pi)
        detuning = rng.normal(scale=1e6)
        t1, t2 = rng.uniform(0.0, 1e-6, size=2)
        u_split = mw_unitary(pair, rabi, t2, phase, detuning) @ mw_unitary(
            pair, rabi, t1, phase, detuning
        )
        u_whole = mw_unitary(pair, rabi, t1 + t2, phase, detuning)
        assert np.max(np.abs(u_split - u_whole)) < 1e-10


def test_pi_pulse_swaps_and_squares_to_identity():
    # idempotence holds on states whose coherence lives in the driven pair;
    # spectator cross-coherences would pick up the SU(2) double-cover sign
    rng = np.random.default_rng(10)
    diag = rng.uniform(0.1, 0.3, size=3)
    rho = np.diag(diag).astype(complex)
    rho[1, 2] = 0.05 + 0.02j
    rho[2, 1] = np.conj(rho[1, 2])
    pulse = pi_pulse(("y", "z"), 5.0e6)
    u = mw_unitary(("y", "z"), pulse.rabi_freq, pulse.duration)
    once = rotated(rho, u)
    assert abs(once[1, 1] - rho[2, 2]) < 1e-10
    assert abs(once[2, 2] - rho[1, 1]) < 1e-10
    assert abs(once[0, 0] - rho[0, 0]) < 1e-12
    twice = rotated(once, u)
    assert np.max(np.abs(twice - rho)) < 1e-10
    assert np.max(np.abs(u @ u - np.diag([1.0, -1.0, -1.0]))) < 1e-10


def test_resonant_pi_transfer_is_complete():
    rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
    pulse = pi_pulse(("y", "z"), 1.0e6)
    out = rotated(rho, mw_unitary(("y", "z"), pulse.rabi_freq, pulse.duration))
    assert abs(out[2, 2] - 1.0) < 1e-12
    assert abs(out[1, 1]) < 1e-12


def test_detuned_transfer_follows_generalized_rabi():
    rabi = 2.0e6
    for detuning in (0.0, 1.0e6, 3.0e6, -2.5e6):
        omega_g = math.hypot(rabi, detuning)
        duration = 0.5 / omega_g  # half a generalized-Rabi period
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        out = rotated(rho, mw_unitary(("y", "z"), rabi, duration, detuning=detuning))
        expected = (rabi / omega_g) ** 2
        assert abs(float(np.real(out[2, 2])) - expected) < 1e-12


def test_mw_pulse_validation():
    with pytest.raises(TypeError):
        MwPulse(rabi_freq=1e6, duration=1e-7)  # no transition
    with pytest.raises(InvalidParameterError):
        MwPulse(rabi_freq=1e6, duration=1e-7, transition=("x", "w"))
    with pytest.raises(InvalidParameterError):
        MwPulse(rabi_freq=-1e6, duration=1e-7, transition=("x", "y"))
    with pytest.raises(InvalidParameterError):
        MwPulse(rabi_freq=1e6, duration=-1e-7, transition=("x", "y"))
    with pytest.raises(InvalidParameterError):
        pi_pulse(("x", "y"), 0.0)
    with pytest.raises(ProtocolViolationError):
        apply_elements([object()], SYSTEM)


def test_pulsed_odmr_rejects_a_carrier_at_or_below_zero():
    message = r"^carrier frequency must be > 0, got -2000000000\.0$"
    with pytest.raises(InvalidParameterError, match=message):
        simulate_pulsed_odmr(SYSTEM, [1e9, -2e9])


def test_optical_element_validation():
    for element in (LaserPulse, ReadoutPulse):
        for duration, intensity in ((-1e-6, 1.0), (math.inf, 1.0), (1e-6, -0.5),
                                    (1e-6, math.nan), (1e-6, math.inf)):
            with pytest.raises(InvalidParameterError):
                element(duration, intensity)


def test_rwa_warning_on_strong_drive():
    state = HybridState(singlet=np.array([0.1, 0.0]), rho=np.diag([0.3, 0.3, 0.3]).astype(complex))
    strong = MwPulse(rabi_freq=0.5e9, duration=1e-9, transition=("y", "z"))
    with pytest.warns(UserWarning, match="rotating-wave"):
        apply_elements([strong, ReadoutPulse()], SYSTEM, state)


# --- free evolution -----------------------------------------------------------

def test_population_conservation_through_random_sequences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        elements = [LaserPulse(rng.uniform(0.0, 20e-6))]
        for _ in range(rng.integers(1, 6)):
            kind = rng.integers(3)
            if kind == 0:
                elements.append(Wait(rng.uniform(0.0, 50e-6)))
            elif kind == 1:
                pair = PAIRS[rng.integers(3)]
                elements.append(
                    MwPulse(
                        rabi_freq=5e6,
                        duration=rng.uniform(0.0, 5e-7),
                        transition=pair,
                        phase=rng.uniform(-np.pi, np.pi),
                    )
                )
            else:
                elements.append(LaserPulse(rng.uniform(0.0, 5e-6)))
        elements.append(ReadoutPulse())
        state, _ = apply_elements(elements, SYSTEM)
        assert abs(state.total() - 1.0) < 1e-9
        assert np.max(np.abs(state.rho - state.rho.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(state.rho)) > -1e-10


def test_wait_populations_match_rate_model():
    state, _ = apply_elements([LaserPulse(15e-6)], SYSTEM)
    pops_before = state.populations()
    duration = 40e-6
    after, _ = apply_elements([Wait(duration)], SYSTEM, state)
    expected, _ = propagate(propagators(SYSTEM.effective_rates, duration, 0.0), pops_before)
    assert np.max(np.abs(after.populations() - expected)) < 1e-12


def test_wait_damps_coherence_at_mean_decay_rate():
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.25
    rho[1, 2] = rho[2, 1] = 0.25
    state = HybridState(singlet=np.array([0.5, 0.0]), rho=rho)
    duration = 30e-6
    out, _ = apply_elements([Wait(duration)], SYSTEM, state)
    g = 1.0 / np.asarray(SYSTEM.effective_rates.triplet_lifetimes)
    # populations decay at their own rates; the coherence at the pair mean
    expected = 0.25 * math.exp(-0.5 * (g[1] + g[2]) * duration)
    assert abs(float(np.abs(out.rho[1, 2])) - expected) < 1e-12


def test_wait_is_a_laser_pulse_at_zero_intensity():
    rng = np.random.default_rng(11)
    start = HybridState(singlet=np.array([0.3, 0.1]), rho=random_density_matrix(rng))
    assert np.abs(start.rho[0, 1]) > 0.0
    for duration in (0.0, 63.6e-6, 2e-3):
        dark, _ = apply_elements([Wait(duration)], SYSTEM, start)
        unlit, _ = apply_elements([LaserPulse(duration, intensity=0.0)], SYSTEM, start)
        assert np.array_equal(dark.singlet, unlit.singlet)
        assert np.array_equal(dark.rho, unlit.rho)


def test_effective_rates_reduce_to_bare_at_zero_field():
    eff = SYSTEM.effective_rates
    assert eff.triplet_lifetimes == pytest.approx(LIFETIMES_4K, rel=1e-12)
    assert eff.isc_branching == pytest.approx(BRANCHING_4K, rel=1e-12)


def test_effective_rates_mix_with_eigenvector_overlaps():
    system = QubitSystem(
        zfs=ZFS, rates=RATES_4K, field=FieldVector.along("z", 0.05)
    )
    eig = system.eigen
    tau0 = np.asarray(LIFETIMES_4K)
    for k, label in enumerate(("x", "y", "z")):
        w = np.abs(eig.state_of(label)) ** 2
        expected = 1.0 / float(np.sum(w / tau0))
        assert system.effective_rates.triplet_lifetimes[k] == pytest.approx(
            expected, rel=1e-12
        )


def test_rate_sets_of_every_shape_compare_and_hash_by_identity():
    mixed = [QubitSystem(ZFS, RATES_4K, FieldVector.along("z", 0.05)).effective_rates for _ in "ab"]
    stacked = [
        KineticRates(np.tile(LIFETIMES_4K, (2, 1)), np.tile(BRANCHING_4K, (2, 1))) for _ in "ab"
    ]
    for a, b in (mixed, stacked):
        assert a == a and (a == b) is False and (a != b) is True
        assert len({a, b}) == 2  # each hashes
    hash(QubitSystem(ZFS, RATES_4K))


# --- driven-oscillation protocols --------------------------------------------

def test_simulate_rabi_undamped_is_exact_sine_squared():
    rabi = 58.9e6
    t = np.linspace(0.0, 100e-9, 101)
    out = simulate_rabi(rabi, t)
    assert np.max(np.abs(out - np.sin(np.pi * rabi * t) ** 2)) < 1e-12


def test_simulate_rabi_envelope_decays_toward_half():
    rabi = 58.9e6
    t2_star = 195e-9
    t = np.linspace(0.0, 1.5e-6, 601)
    out = simulate_rabi(rabi, t, t2_star=t2_star)
    assert out[0] == pytest.approx(0.0, abs=1e-9)
    assert np.all(out >= -1e-12) and np.all(out <= 1.0 + 1e-12)
    # far beyond T2* the oscillation is dead and the transfer settles near 1/2
    late = out[t > 5 * t2_star]
    assert np.max(np.abs(late - 0.5)) < 0.05


def test_simulate_rabi_detuned_amplitude_is_suppressed():
    rabi = 5.0e6
    detuning = 15.0e6
    t = np.linspace(0.0, 1e-6, 400)
    out = simulate_rabi(rabi, t, detuning=detuning)
    bound = rabi**2 / (rabi**2 + detuning**2)
    assert np.max(out) <= bound + 1e-9


def test_simulate_rabi_validation():
    with pytest.raises(InvalidParameterError):
        simulate_rabi(0.0, np.linspace(0, 1e-6, 5))
    with pytest.raises(InvalidParameterError):
        simulate_rabi(1e6, np.array([-1e-9]))
    with pytest.raises(InvalidParameterError):
        simulate_rabi(1e6, np.linspace(0, 1e-6, 5), t2_star=-1.0)


# --- ODMR protocols -----------------------------------------------------------

def test_pulsed_odmr_dips_at_transition_lines():
    lines = sorted(SYSTEM.transitions.values())
    f_grid = np.array([l + off for l in lines for off in (0.0, 120e6)])
    contrast = simulate_pulsed_odmr(SYSTEM, f_grid, rabi_freq=5e6)
    on = contrast[0::2]
    off = contrast[1::2]
    assert np.all(np.abs(off - 1.0) < 0.02)
    # the two strong lines dip well below the baseline
    assert np.all(np.abs(on - 1.0) > 0.01)
    # the y-z swap parks the large Ty population in long-lived Tz, so more
    # triplet survives the delay and the readout is darker than the
    # microwave-silenced reference
    yz = simulate_pulsed_odmr(SYSTEM, np.array([SYSTEM.transitions[("y", "z")]]))[0]
    assert 0.0 < yz < 1.0
    # a carrier far from every line leaves the readout equal to its reference
    for multilevel in (False, True):
        far = simulate_pulsed_odmr(SYSTEM, np.array([100e9]), multilevel=multilevel)[0]
        assert far == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("multilevel", [False, True], ids=["plain", "multilevel"])
def test_pulsed_odmr_reference_is_an_unrotated_run(monkeypatch, multilevel):
    # the reference is batch member 0; it must read out exactly as a run
    # of the same sequence with no microwave element at all
    system = QubitSystem(zfs=ZFS, rates=RATES_295K, field=FieldVector.along("z", 50e-3))
    init, readout = LaserPulse(10e-6, intensity=0.7), ReadoutPulse(2e-6)
    delay = 40e-6
    _, (expected,) = apply_elements((init, Wait(delay), readout), system)
    references = []
    original = pulse_engine._over_reference

    def recording(signal, reference, protocol):
        references.append(reference)
        return original(signal, reference, protocol)

    monkeypatch.setattr(pulse_engine, "_over_reference", recording)
    lines = list(system.transitions.values())
    f_grid = np.sort(np.concatenate((np.linspace(0.8e9, 2.6e9, 37), lines)))
    simulate_pulsed_odmr(
        system, f_grid, multilevel=multilevel, init=init, readout_delay=delay, readout=readout
    )
    assert len(references) == 1
    assert references[0].tobytes() == expected.tobytes()


def test_multilevel_gate_amplifies_weak_line():
    f = max(SYSTEM.transitions.values())  # the 2.38 GHz branch
    single = simulate_pulsed_odmr(SYSTEM, np.array([f]), multilevel=False)[0]
    gated = simulate_pulsed_odmr(SYSTEM, np.array([f]), multilevel=True)[0]
    assert abs(1.0 - gated) >= 5.0 * abs(1.0 - single)


def test_multilevel_gate_cancels_off_resonance():
    f = max(SYSTEM.transitions.values()) + 300e6
    gated = simulate_pulsed_odmr(SYSTEM, np.array([f]), multilevel=True)[0]
    single = simulate_pulsed_odmr(SYSTEM, np.array([f]), multilevel=False)[0]
    # the two prep pulses cancel exactly when the probe is off every line
    assert gated == pytest.approx(single, abs=5e-3)


@pytest.mark.parametrize("multilevel", [False, True], ids=["plain", "multilevel"])
@pytest.mark.parametrize("b", [0.0, 50e-3], ids=["0mT", "50mT-z"])
def test_swept_pulsed_odmr_equals_carriers_run_one_at_a_time(b, multilevel):
    system = QubitSystem(zfs=ZFS, rates=RATES_4K, field=FieldVector.along("z", b))
    lines = list(system.transitions.values())
    f_grid = np.sort(np.concatenate((np.linspace(0.8e9, 2.6e9, 358), lines)))
    swept = simulate_pulsed_odmr(system, f_grid, multilevel=multilevel)
    one_at_a_time = [
        simulate_pulsed_odmr(system, np.array([f]), multilevel=multilevel)[0] for f in f_grid
    ]
    assert swept.shape == (361,)
    assert np.array_equal(swept, one_at_a_time)
    # every line sits on the grid and shows in the sweep
    assert np.all(np.abs(swept[np.isin(f_grid, lines)] - 1.0) > 1e-3)
    assert simulate_pulsed_odmr(system, np.array([]), multilevel=multilevel).shape == (0,)


def test_field_odmr_matches_ode_oracle():
    # every step of the swap protocol through the independent solve_ivp
    # route; line positions are the tracked branches, tested in spin_model
    b_values = np.array([0.0, 40e-3, 110e-3])
    f_grid = np.linspace(0.6e9, 3.0e9, 97)
    result = simulate_field_odmr(ZFS, RATES_4K, "x", b_values, f_grid)
    delay = 3.0 * LIFETIMES_4K[1]
    for n, b in enumerate(b_values):
        rates = QubitSystem(zfs=ZFS, rates=RATES_4K, field=FieldVector.along("x", b)).effective_rates
        on, off = rate_matrix(rates, 1.0), rate_matrix(rates, 0.0)

        def readout(p):
            return rate_ode_emission(on, rate_ode_solution(off, p, delay), 1e-6)[1]

        init = rate_ode_solution(on, np.eye(5)[0], DEFAULT_INIT_DURATION)
        reference = readout(init)
        row = np.ones_like(f_grid)
        for pair, (i, j) in zip(PAIRS, ((2, 3), (2, 4), (3, 4))):
            swapped = init.copy()
            swapped[[i, j]] = init[[j, i]]
            x = (f_grid - result.spectrum.branches[pair][n]) / 20e6
            row += (readout(swapped) / reference - 1.0) / (1.0 + x**2)
        assert np.allclose(result.contrast[n], row, rtol=1e-7, atol=0.0)


def field_odmr_per_field(rates, axis, b_values, f_grid, spectrum):
    """The swap protocol run field by field through apply_elements."""
    contrast = np.ones((b_values.size, f_grid.size))
    for n, b in enumerate(b_values):
        system = QubitSystem(zfs=ZFS, rates=rates, field=FieldVector.along(axis, b))
        relax_and_read = (Wait(default_readout_delay(system.rates)), ReadoutPulse())
        init, _ = apply_elements((LaserPulse(DEFAULT_INIT_DURATION),), system)
        _, (reference,) = apply_elements(relax_and_read, system, init)
        for pair, (i, j) in zip(PAIRS, ((0, 1), (0, 2), (1, 2))):
            swapped = init.copy()
            swapped.rho[[i, j], [i, j]] = init.rho[[j, i], [j, i]]
            _, (signal,) = apply_elements(relax_and_read, system, swapped)
            x = (f_grid - spectrum.branches[pair][n]) / 20e6
            contrast[n] += (signal / reference - 1.0) / (1.0 + x**2)
    return contrast


@pytest.mark.parametrize("rates", [RATES_4K, RATES_295K], ids=["4K", "295K"])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_batched_field_odmr_matches_per_field_engine_runs(axis, rates):
    # 0-120 mT takes the x and z maps through a level crossing, where the
    # energy order of the eigenstates changes under their labels
    b_values = np.linspace(0.0, 120e-3, 61)
    f_grid = np.linspace(0.6e9, 3.0e9, 241)
    result = simulate_field_odmr(ZFS, rates, axis, b_values, f_grid)
    expected = field_odmr_per_field(rates, axis, b_values, f_grid, result.spectrum)
    for row, want in zip(result.contrast, expected):
        assert np.allclose(row, want, rtol=1e-12, atol=0.0)


def test_field_odmr_calls_expm_a_fixed_number_of_times(monkeypatch):
    calls, rotated_pairs = [], []
    original, original_mw_unitary = photokinetics.expm, pulse_engine.mw_unitary

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    def counting_mw_unitary(pair, *args):
        rotated_pairs.append(pair)
        return original_mw_unitary(pair, *args)

    monkeypatch.setattr(photokinetics, "expm", counting)
    monkeypatch.setattr(pulse_engine, "mw_unitary", counting_mw_unitary)
    f_grid = np.linspace(0.6e9, 3.0e9, 11)
    for n_fields in (61, 5):
        calls.clear()
        rotated_pairs.clear()
        simulate_field_odmr(ZFS, RATES_4K, "x", np.linspace(0.0, 120e-3, n_fields), f_grid)
        # laser, dark and readout propagators, each one stacked call
        assert calls == [(n_fields, 6, 6)] * 3
        # one swap per pair, shared by every field
        assert rotated_pairs == list(PAIRS)


def test_pulsed_odmr_calls_expm_and_mw_unitary_a_fixed_number_of_times(monkeypatch):
    propagator_shapes, rotated_pairs = [], []
    original_expm, original_mw_unitary = photokinetics.expm, pulse_engine.mw_unitary

    def counting_expm(a):
        propagator_shapes.append(np.shape(a))
        return original_expm(a)

    def counting_mw_unitary(pair, *args):
        rotated_pairs.append(pair)
        return original_mw_unitary(pair, *args)

    monkeypatch.setattr(photokinetics, "expm", counting_expm)
    monkeypatch.setattr(pulse_engine, "mw_unitary", counting_mw_unitary)
    for multilevel, rotations in ((False, 3), (True, 5)):
        for n_carriers in (11, 361):
            propagator_shapes.clear()
            rotated_pairs.clear()
            f_grid = np.linspace(0.8e9, 2.6e9, n_carriers)
            simulate_pulsed_odmr(SYSTEM, f_grid, multilevel=multilevel)
            # laser, dark and readout propagators; the reference is batch member 0
            assert propagator_shapes == [(6, 6)] * 3
            # three swept-carrier pairs, plus the two prep pulses when gated
            assert len(rotated_pairs) == rotations


def test_field_odmr_builds_one_rate_set_for_all_fields(monkeypatch):
    built = []
    original = KineticRates.__post_init__

    def counting(self):
        built.append(np.shape(self.triplet_lifetimes))
        original(self)

    monkeypatch.setattr(KineticRates, "__post_init__", counting)
    f_grid = np.linspace(0.6e9, 3.0e9, 11)
    for n_fields in (61, 5):
        built.clear()
        simulate_field_odmr(ZFS, RATES_4K, "x", np.linspace(0.0, 120e-3, n_fields), f_grid)
        # the sublevel kinetics mixed into every field's eigenbasis at once
        assert built == [(n_fields, 3)]


def test_field_odmr_without_fields_is_an_empty_map():
    result = simulate_field_odmr(ZFS, RATES_4K, "x", np.array([]), np.linspace(0.6e9, 3.0e9, 5))
    assert result.contrast.shape == (0, 5)


def test_field_odmr_zero_duration_readout_is_degenerate():
    for b_values in (np.array([50e-3]), np.linspace(0.0, 120e-3, 61)):
        with pytest.raises(DegenerateReadoutError):
            simulate_field_odmr(
                ZFS, RATES_4K, "z", b_values, np.array([1.0e9]),
                readout=ReadoutPulse(duration=0.0),
            )


# --- protocol defaults --------------------------------------------------------

def test_default_readout_delay_is_three_shortest_lifetimes():
    assert default_readout_delay(SYSTEM.rates) == pytest.approx(3 * LIFETIMES_4K[1])


def test_default_readout_delay_follows_an_x_y_relabel():
    # E -> -E with the x and y lifetimes and populations swapped is the same molecule
    # under other labels: a field along x then reads as the same field along y
    def field_map(e, axis, order):
        lifetimes = tuple(LIFETIMES_4K[k] for k in order)
        populations = tuple((0.263, 0.538, 0.199)[k] for k in order)
        rates = KineticRates.from_steady_state(populations, lifetimes)
        b, f = np.linspace(0.0, 120e-3, 13), np.linspace(0.6e9, 3.0e9, 49)
        return simulate_field_odmr(ZfsParams(d=ZFS.d, e=e), rates, axis, b, f).contrast

    along_x = field_map(ZFS.e, "x", (0, 1, 2))
    np.testing.assert_allclose(field_map(-ZFS.e, "y", (1, 0, 2)), along_x, rtol=0.0, atol=1e-12)


def test_init_duration_constant():
    assert DEFAULT_INIT_DURATION == pytest.approx(15e-6)
