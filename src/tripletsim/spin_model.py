"""Spin-1 zero-field-splitting Hamiltonian, eigensystem, and field-swept lines.

All energies and frequencies are plain Hz (the 2*pi and hbar factors are
absorbed into the parameters), magnetic fields are Tesla, gyromagnetic
ratios are Hz/T. The working basis is the molecular zero-field triplet
basis {Tx, Ty, Tz}, in which the spin operators are (S_a)_{bc} = -i*eps_abc
and the zero-field Hamiltonian is diagonal:

    diag(D/3 - E, D/3 + E, -2*D/3)

so the three zero-field transition frequencies are |D - E|, |D + E| and
|2*E|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, check_finite

#: Electron gyromagnetic ratio in Hz/T (negative: gamma = -g*mu_B/h).
GAMMA_ELECTRON_HZ_PER_T = -28.0e9

#: Zero-field state labels, in basis order.
ZERO_FIELD_LABELS = ("x", "y", "z")

#: Canonical ordering of the three transition pairs.
TRANSITION_PAIRS = (("x", "y"), ("x", "z"), ("y", "z"))

# Spin-1 operators in the {Tx, Ty, Tz} basis: (S_a)_{bc} = -i*eps_abc.
SPIN_X = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
SPIN_Y = np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]], dtype=complex)
SPIN_Z = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)


def spin_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return copies of (Sx, Sy, Sz) in the zero-field basis."""
    return SPIN_X.copy(), SPIN_Y.copy(), SPIN_Z.copy()


@dataclass(frozen=True)
class ZfsParams:
    """Zero-field-splitting parameters D and E, in Hz.

    The conventional principal-axis ordering |E| <= |D| is enforced.
    """

    d: float
    e: float

    def __post_init__(self) -> None:
        check_finite("zfs parameter", self.d, self.e)
        if abs(self.e) > abs(self.d):
            raise InvalidParameterError(
                f"|E| must not exceed |D|, got D={self.d!r}, E={self.e!r}"
            )


@dataclass(frozen=True)
class FieldVector:
    """Static magnetic field in Tesla, components in the molecular frame."""

    bx: float = 0.0
    by: float = 0.0
    bz: float = 0.0

    def __post_init__(self) -> None:
        check_finite("field component", self.bx, self.by, self.bz)

    @classmethod
    def along(cls, axis: str, magnitude: float) -> "FieldVector":
        """Build a field of given magnitude along one molecular axis."""
        if axis not in ZERO_FIELD_LABELS:
            raise InvalidParameterError(f"axis must be one of {ZERO_FIELD_LABELS}, got {axis!r}")
        return cls(**{f"b{axis}": magnitude})

    @property
    def magnitude(self) -> float:
        return math.sqrt(self.bx**2 + self.by**2 + self.bz**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.bx, self.by, self.bz], dtype=float)


@dataclass(frozen=True)
class GyroRatio:
    """Gyromagnetic ratio in Hz/T. Defaults to the electron value."""

    gamma: float = GAMMA_ELECTRON_HZ_PER_T

    def __post_init__(self) -> None:
        check_finite("gamma", self.gamma)
        if self.gamma == 0.0:
            raise InvalidParameterError("gamma must be nonzero")


@dataclass(frozen=True)
class TripletEigensystem:
    """Eigen-decomposition of a triplet Hamiltonian.

    Attributes
    ----------
    energies : ndarray, shape (3,)
        Eigenvalues in Hz, ascending.
    states : ndarray, shape (3, 3), complex
        Orthonormal eigenvectors as columns, in the zero-field basis,
        phase-fixed so the largest-magnitude component of each column is
        real positive.
    labels : tuple of str
        Zero-field character ('x', 'y', 'z') of each column, assigned by
        maximum squared overlap with the zero-field states.
    """

    energies: np.ndarray
    states: np.ndarray
    labels: tuple[str, str, str]

    def energy_of(self, label: str) -> float:
        """Eigenvalue of the state with the given zero-field character."""
        return float(self.energies[self.labels.index(label)])

    def state_of(self, label: str) -> np.ndarray:
        return self.states[:, self.labels.index(label)]


@dataclass(frozen=True)
class SweepSpectrum:
    """Transition frequencies along a field sweep, one branch per pair.

    `states` holds each field's eigenvectors as columns in zero-field label
    order, labeled as :func:`eigensystem` labels them; near an avoided
    crossing those labels can differ from the tracked branches.
    """

    field: np.ndarray
    branches: dict[tuple[str, str], np.ndarray]
    states: np.ndarray


def build_hamiltonian(
    zfs: ZfsParams,
    field: FieldVector = FieldVector(),
    gamma: GyroRatio = GyroRatio(),
) -> np.ndarray:
    """Assemble the triplet Hamiltonian, in Hz, in the zero-field basis.

    H = D*(Sz^2 - S^2/3) + E*(Sx^2 - Sy^2) + gamma*(B . S).
    """
    h = np.diag(
        [zfs.d / 3.0 - zfs.e, zfs.d / 3.0 + zfs.e, -2.0 * zfs.d / 3.0]
    ).astype(complex)
    g = gamma.gamma
    if field.bx != 0.0:
        h += g * field.bx * SPIN_X
    if field.by != 0.0:
        h += g * field.by * SPIN_Y
    if field.bz != 0.0:
        h += g * field.bz * SPIN_Z
    return h


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-|.| component is real positive.

    Works on a single (3, 3) matrix of column vectors or a (..., 3, 3) stack.
    """
    idx = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    pivot = np.take_along_axis(vecs, idx, axis=-2)
    mag = np.abs(pivot)
    nonzero = mag > 0.0
    return vecs * np.where(nonzero, np.conj(pivot) / np.where(nonzero, mag, 1.0), 1.0)


def _assign_columns(overlap_sq: np.ndarray) -> np.ndarray:
    """Greedy unique assignment of reference rows to columns, per matrix.

    overlap_sq[..., i, k] is |<ref_i | vec_k>|^2; returns the (..., 3) column
    of each reference row. The largest overlap left goes first; ties break
    toward the lower row, then the lower column (a row-major argmax).
    """
    left = np.array(overlap_sq, dtype=float).reshape(-1, 3, 3)
    n = np.arange(len(left))
    columns = np.empty((len(left), 3), dtype=int)
    for _ in range(3):
        ref, col = np.divmod(left.reshape(-1, 9).argmax(axis=1), 3)
        columns[n, ref] = col
        left[n, ref, :] = -np.inf
        left[n, :, col] = -np.inf
    return columns.reshape(np.shape(overlap_sq)[:-1])


def _diagonalize(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalize a (N, 3, 3) stack of Hermitian Hamiltonians with one eigh call.

    Returns energies (N, 3), phase-fixed eigenvectors (N, 3, 3) and, per
    matrix, the column of each zero-field state (N, 3), in label order.
    """
    energies, vecs = np.linalg.eigh(h)
    vecs = _fix_phases(vecs)
    # reference states are the basis vectors
    return energies, vecs, _assign_columns(np.abs(vecs) ** 2)


def eigensystem(h: np.ndarray) -> TripletEigensystem:
    """Diagonalize a 3x3 triplet Hamiltonian.

    The input must be Hermitian to within a scale-relative 1e-9. Energies
    come back ascending; labels track zero-field character by maximum
    squared overlap with the basis states, each label used exactly once.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (3, 3):
        raise InvalidParameterError(f"expected a 3x3 Hamiltonian, got shape {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h))))
    if float(np.max(np.abs(h - h.conj().T))) > 1e-9 * scale:
        raise InvalidParameterError("Hamiltonian is not Hermitian within tolerance")
    energies, vecs, columns = _diagonalize(h[None])
    labels = tuple(ZERO_FIELD_LABELS[i] for i in np.argsort(columns[0]))
    return TripletEigensystem(energies=energies[0], states=vecs[0], labels=labels)


def transition_frequencies(eig: TripletEigensystem) -> dict[tuple[str, str], float]:
    """Positive transition frequencies keyed by label pair.

    Keys follow the canonical ordering ('x','y'), ('x','z'), ('y','z').
    """
    by_label = {lab: float(eig.energies[k]) for k, lab in enumerate(eig.labels)}
    return {
        (a, b): abs(by_label[a] - by_label[b]) for a, b in TRANSITION_PAIRS
    }


def field_sweep_spectrum(
    zfs: ZfsParams,
    axis: str,
    b_values: np.ndarray,
    gamma: GyroRatio = GyroRatio(),
) -> SweepSpectrum:
    """Track the three transition branches along a field sweep.

    All Hamiltonians of the sweep are diagonalized in one stacked call,
    and labeled as one stack: one greedy assignment gives every field's
    zero-field columns, a second every step's column-to-column map.
    Branch identity is carried from point to point by maximum squared
    eigenvector overlap with the previous point, so labels stay attached
    to adiabatic branches through avoided crossings. The first point is
    labeled by zero-field character.

    Parameters
    ----------
    zfs : ZfsParams
    axis : {'x', 'y', 'z'}
        Molecular axis along which the field is applied.
    b_values : array_like
        Field magnitudes in Tesla.
    gamma : GyroRatio

    Returns
    -------
    SweepSpectrum
        Fields, for each canonical pair the branch frequencies in Hz, and
        the eigenvectors at each field as columns in zero-field label order.
    """
    b_values = np.atleast_1d(np.asarray(b_values, dtype=float))
    if axis not in ZERO_FIELD_LABELS:
        raise InvalidParameterError(f"axis must be one of {ZERO_FIELD_LABELS}, got {axis!r}")
    check_finite("field component", *b_values.tolist())
    spin = (SPIN_X, SPIN_Y, SPIN_Z)[ZERO_FIELD_LABELS.index(axis)]
    h = build_hamiltonian(zfs) + (gamma.gamma * b_values)[:, None, None] * spin
    energies, vecs, zero_field = _diagonalize(h)
    # the column each previous column's branch moves to, for every step at once
    steps = _assign_columns(np.abs(np.conj(vecs[:-1]).swapaxes(-1, -2) @ vecs[1:]) ** 2)
    # column holding each tracked branch label (x, y, z) at each field
    tracked = zero_field[:1].tolist()
    for step in steps.tolist():
        tracked.append([step[k] for k in tracked[-1]])
    by_label = np.take_along_axis(energies, np.array(tracked, dtype=int).reshape(-1, 3), axis=1)
    index = {lab: k for k, lab in enumerate(ZERO_FIELD_LABELS)}
    branches = {
        (a, c): np.abs(by_label[:, index[a]] - by_label[:, index[c]]) for a, c in TRANSITION_PAIRS
    }
    states = np.take_along_axis(vecs, zero_field[:, None, :], axis=-1)
    return SweepSpectrum(field=b_values, branches=branches, states=states)
