import itertools

import numpy as np
import pytest

from oracles import greedy_label_columns, walked_branches, zeeman_basis_hamiltonian
from tripletsim import spin_model
from tripletsim.config import MAX_FIELD_MT, MT
from tripletsim.errors import InvalidParameterError
from tripletsim.spin_model import (
    GAMMA_ELECTRON_HZ_PER_T,
    SPIN_X,
    SPIN_Y,
    SPIN_Z,
    TRANSITION_PAIRS,
    ZERO_FIELD_LABELS,
    FieldVector,
    GyroRatio,
    ZfsParams,
    build_hamiltonian,
    eigensystem,
    field_sweep_spectrum,
    spin_operators,
    transition_frequencies,
)

ZFS = ZfsParams(d=1.905e9, e=-0.475e9)


def test_spin_operators_commutation():
    ops = {"x": SPIN_X, "y": SPIN_Y, "z": SPIN_Z}
    # [Sx, Sy] = i Sz and cyclic
    for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        comm = ops[a] @ ops[b] - ops[b] @ ops[a]
        assert np.allclose(comm, 1j * ops[c], atol=1e-15)
    # spin-1 Casimir
    s2 = sum(op @ op for op in ops.values())
    assert np.allclose(s2, 2.0 * np.eye(3), atol=1e-15)


def test_spin_operators_returns_copies():
    sx, _, _ = spin_operators()
    sx[0, 0] = 99.0
    assert SPIN_X[0, 0] == 0.0


def test_zero_field_energies():
    h = build_hamiltonian(ZFS)
    eig = eigensystem(h)
    assert eig.energy_of("x") == pytest.approx(1.110e9, rel=1e-12)
    assert eig.energy_of("y") == pytest.approx(0.160e9, rel=1e-12)
    assert eig.energy_of("z") == pytest.approx(-1.270e9, rel=1e-12)
    assert np.trace(h).real == pytest.approx(0.0, abs=1e-3)


def test_zero_field_transition_lines():
    freqs = transition_frequencies(eigensystem(build_hamiltonian(ZFS)))
    assert freqs[("x", "y")] == pytest.approx(0.950e9, rel=1e-6)
    assert freqs[("y", "z")] == pytest.approx(1.430e9, rel=1e-6)
    assert freqs[("x", "z")] == pytest.approx(2.380e9, rel=1e-6)


def test_transition_lines_closed_form():
    # |D-E|, |D+E|, |2E| regardless of sign conventions
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = rng.uniform(-3e9, 3e9)
        e = rng.uniform(-1.0, 1.0) * abs(d)
        freqs = transition_frequencies(eigensystem(build_hamiltonian(ZfsParams(d, e))))
        got = sorted(freqs.values())
        want = sorted((abs(d - e), abs(d + e), abs(2 * e)))
        assert np.allclose(got, want, rtol=1e-9, atol=1e-3)


def test_eigensystem_matches_angular_momentum_basis():
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = rng.uniform(-3e9, 3e9)
        e = rng.uniform(-1.0, 1.0) * abs(d)
        b = rng.normal(scale=0.3, size=3)
        h = build_hamiltonian(ZfsParams(d, e), FieldVector(*b))
        ours = eigensystem(h).energies
        ref = np.linalg.eigvalsh(
            zeeman_basis_hamiltonian(d, e, b, GAMMA_ELECTRON_HZ_PER_T)
        )
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.allclose(ours, ref, atol=1e-9 * scale)


def test_eigensystem_columns_orthonormal_and_reconstruct():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = rng.uniform(0.5e9, 3e9)
        e = rng.uniform(-1.0, 1.0) * d
        b = rng.normal(scale=0.2, size=3)
        h = build_hamiltonian(ZfsParams(d, e), FieldVector(*b))
        eig = eigensystem(h)
        v = eig.states
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)
        assert np.allclose(v @ np.diag(eig.energies) @ v.conj().T, h, atol=1e-6 * d)
        assert sorted(eig.labels) == ["x", "y", "z"]


def test_eigenvector_phase_fixing():
    eig = eigensystem(build_hamiltonian(ZFS, FieldVector(0.01, 0.02, 0.03)))
    for k in range(3):
        pivot = eig.states[np.argmax(np.abs(eig.states[:, k])), k]
        assert pivot.imag == pytest.approx(0.0, abs=1e-12)
        assert pivot.real > 0


def test_zero_field_labels_match_basis_order():
    eig = eigensystem(build_hamiltonian(ZFS))
    for row, lab in enumerate(("x", "y", "z")):
        assert abs(eig.state_of(lab)[row]) == pytest.approx(1.0)


def test_non_hermitian_rejected():
    h = build_hamiltonian(ZFS).astype(complex)
    h[0, 1] += 10.0  # breaks symmetry well above the relative tolerance
    with pytest.raises(InvalidParameterError):
        eigensystem(h)


def test_hermiticity_tolerance_is_scale_relative():
    h = build_hamiltonian(ZFS)
    h[0, 1] += 1e-3  # tiny compared to GHz entries
    eigensystem(h)  # must not raise


def test_wrong_shape_rejected():
    with pytest.raises(InvalidParameterError):
        eigensystem(np.eye(2))


def test_zfs_validation():
    with pytest.raises(InvalidParameterError):
        ZfsParams(d=1e9, e=2e9)
    with pytest.raises(InvalidParameterError):
        ZfsParams(d=np.nan, e=0.0)


def test_gamma_validation():
    with pytest.raises(InvalidParameterError):
        GyroRatio(gamma=0.0)


def test_field_vector_helpers():
    f = FieldVector.along("y", 0.19)
    assert (f.bx, f.by, f.bz) == (0.0, 0.19, 0.0)
    assert f.magnitude == pytest.approx(0.19)
    assert np.array_equal(f.as_array(), [0.0, 0.19, 0.0])
    with pytest.raises(InvalidParameterError):
        FieldVector.along("q", 0.1)


def test_zeeman_term_shifts_lines():
    freqs0 = transition_frequencies(eigensystem(build_hamiltonian(ZFS)))
    freqs1 = transition_frequencies(
        eigensystem(build_hamiltonian(ZFS, FieldVector.along("z", 0.05)))
    )
    assert freqs1[("x", "y")] > freqs0[("x", "y")]  # x,y repel under Bz
    assert freqs1 != freqs0


#: (E, axis) of sweeps near a degeneracy of the two levels the field mixes
NEAR_DEGENERATE = (
    (ZFS.e, "z"),
    (0.0, "z"), (1e-6, "z"), (-1e-6, "z"), (1e-3, "z"), (-1e-3, "z"),
    (ZFS.d, "y"), (ZFS.d - 1e-6, "y"),
    (-ZFS.d, "x"), (-ZFS.d + 1e-6, "x"),
)


def test_field_sweep_branches_continuous():
    b = np.linspace(0.0, 0.3, 121)
    sweep = field_sweep_spectrum(ZFS, "z", b)
    assert set(sweep.branches) == {("x", "y"), ("x", "z"), ("y", "z")}
    for vals in sweep.branches.values():
        assert vals.shape == b.shape
        steps = np.abs(np.diff(vals))
        assert np.max(steps) < 0.2e9  # no branch jumps between grid points
    # at B=0 the branches start on the zero-field lines
    assert sweep.branches[("x", "y")][0] == pytest.approx(0.950e9, rel=1e-9)
    assert sweep.branches[("y", "z")][0] == pytest.approx(1.430e9, rel=1e-9)
    assert sweep.branches[("x", "z")][0] == pytest.approx(2.380e9, rel=1e-9)
    # across +-100 T on a log grid through 0, near a degeneracy too: a level moves
    # at most |gamma| per tesla, so a line moves at most 2*|gamma|*dB per step
    ray = np.logspace(-6.0, 2.0, 3000)
    b = np.concatenate((-ray[::-1], [0.0], ray))
    bound = 2.0 * abs(GAMMA_ELECTRON_HZ_PER_T) * np.diff(b) + 1e3
    for e, axis in NEAR_DEGENERATE:
        sweep = field_sweep_spectrum(ZfsParams(d=ZFS.d, e=e), axis, b)
        for pair, vals in sweep.branches.items():
            assert np.all(np.abs(np.diff(vals)) <= bound), (e, axis, pair)


def test_field_sweep_high_field_zeeman_limit():
    # far above the zero-field splitting the x-y branch approaches 2*|gamma|*B
    b = np.linspace(0.0, 1.0, 201)
    sweep = field_sweep_spectrum(ZFS, "z", b)
    top = sweep.branches[("x", "y")][-1]
    assert top == pytest.approx(2 * abs(GAMMA_ELECTRON_HZ_PER_T) * 1.0, rel=0.01)


def test_label_assignment_matches_the_greedy_walk_on_random_stacks():
    stack = np.random.default_rng(5).uniform(size=(500, 3, 3))
    assert np.array_equal(spin_model._assign_columns(stack), greedy_label_columns(stack))


def test_label_assignment_keeps_the_tie_rule():
    permutations = np.array([np.eye(3)[list(p)] for p in itertools.permutations(range(3))])
    # three levels only: most rows and columns hold ties
    coarse = np.random.default_rng(6).integers(0, 3, size=(500, 3, 3)) / 2.0
    for stack in (np.ones((1, 3, 3)), permutations, coarse):
        assert np.array_equal(spin_model._assign_columns(stack), greedy_label_columns(stack))
    # all equal: each reference row takes the lowest free column
    assert spin_model._assign_columns(np.ones((3, 3))).tolist() == [0, 1, 2]
    assert spin_model._assign_columns(np.empty((0, 3, 3))).shape == (0, 3)


@pytest.mark.parametrize("b", [np.linspace(0.0, 0.3, 61), np.linspace(-0.3, 0.3, 61)])
@pytest.mark.parametrize("e", [0.0, 1e-6, -1e-6])
def test_degenerate_sweep_branches_and_states_read_the_same_columns(e, b):
    # E near 0 leaves Tx and Ty (nearly) degenerate at zero field, and a z field
    # mixes them at once: zero-field character cannot tell them apart at B != 0,
    # zero-field energy can
    zfs = ZfsParams(d=ZFS.d, e=e)
    sweep = field_sweep_spectrum(zfs, "z", b)
    h = build_hamiltonian(zfs) + (GAMMA_ELECTRON_HZ_PER_T * b)[:, None, None] * SPIN_Z
    # the energy of each labeled state, read from the state itself
    energy = np.einsum("nik,nij,njk->nk", sweep.states.conj(), h, sweep.states).real
    for a, c in TRANSITION_PAIRS:
        want = np.abs(energy[:, "xyz".index(a)] - energy[:, "xyz".index(c)])
        np.testing.assert_allclose(sweep.branches[a, c], want, rtol=1e-12, atol=1e-3)
    # the pair keeps its zero-field order at every field: x below y unless E < 0
    low, high = (1, 0) if e < 0 else (0, 1)
    assert np.all(energy[:, low] <= energy[:, high] + 1e-3)
    assert np.all(energy[b != 0.0, low] < energy[b != 0.0, high] - 1e3)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("axis", ZERO_FIELD_LABELS)
def test_sweep_branches_match_the_walk_from_zero_field(seed, axis):
    # each field labeled alone gives the branches a step-by-step walk carries out
    # from B = 0 along either ray, on a fine log grid up to the largest field
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.1e9, 3.0e9) * rng.choice([-1.0, 1.0])
    zfs = ZfsParams(d=d, e=rng.uniform(-1.0, 1.0) * abs(d))
    ray = np.concatenate(([0.0], np.logspace(-6.0, np.log10(MAX_FIELD_MT * MT), 1500)))
    for sign in (1.0, -1.0):
        sweep = field_sweep_spectrum(zfs, axis, sign * ray)
        walk = walked_branches(zfs.d, zfs.e, axis, sign * ray, GAMMA_ELECTRON_HZ_PER_T)
        scale = abs(zfs.d) + abs(GAMMA_ELECTRON_HZ_PER_T) * ray
        for pair in TRANSITION_PAIRS:
            assert np.all(np.abs(sweep.branches[pair] - walk[pair]) <= 1e-9 * scale), pair


def test_sweep_states_are_the_eigensystem_states_in_label_order():
    b = np.linspace(0.0, 0.12, 25)
    sweep = field_sweep_spectrum(ZFS, "x", b)
    for n, bx in enumerate(b):
        eig = eigensystem(build_hamiltonian(ZFS, FieldVector(bx=bx)))
        for k, label in enumerate(ZERO_FIELD_LABELS):
            assert np.allclose(sweep.states[n][:, k], eig.state_of(label), atol=1e-12)


@pytest.mark.parametrize("n_fields", [0, 1, 2, 61, 1000])
def test_a_sweep_calls_the_label_assignment_once(monkeypatch, n_fields):
    calls, original = [], spin_model._assign_columns

    def counting(overlap_sq):
        calls.append(np.shape(overlap_sq))
        return original(overlap_sq)

    monkeypatch.setattr(spin_model, "_assign_columns", counting)
    sweep = field_sweep_spectrum(ZFS, "z", np.linspace(0.0, 0.3, n_fields))
    # the zero-field columns of every field; each field's labels follow from its own
    assert calls == [(n_fields, 3, 3)]
    assert sweep.states.shape == (n_fields, 3, 3)
