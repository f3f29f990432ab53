"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against different formulations
than the package uses: a different spin basis, a different integrator,
closed forms instead of matrix exponentials, and scipy's optimizer
instead of the hand-rolled one. Agreement between the two routes is the
point; none of these helpers may be imported by package code.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import least_squares
from scipy.special import j0

SQ2 = np.sqrt(2.0)

# Spin-1 operators in the |+1>, |0>, |-1> angular-momentum basis.
SZ_ZEEMAN = np.diag([1.0, 0.0, -1.0]).astype(complex)
SX_ZEEMAN = np.array(
    [[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQ2
SY_ZEEMAN = np.array(
    [[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQ2


def zeeman_basis_hamiltonian(d, e, b_vec, gamma):
    """ZFS + Zeeman Hamiltonian built in the angular-momentum basis.

    Same physics as the package's zero-field-basis construction, so the
    eigenvalue spectra must agree even though the matrices differ.
    """
    sx, sy, sz = SX_ZEEMAN, SY_ZEEMAN, SZ_ZEEMAN
    ident = np.eye(3, dtype=complex)
    h = d * (sz @ sz - 2.0 / 3.0 * ident) + e * (sx @ sx - sy @ sy)
    bx, by, bz = b_vec
    h = h + gamma * (bx * sx + by * sy + bz * sz)
    return h


def rate_ode_solution(matrix, p0, t_final, rtol=1e-10, atol=1e-13):
    """Integrate dp/dt = M p with an adaptive RK integrator."""
    sol = solve_ivp(
        lambda _, p: matrix @ p,
        (0.0, t_final),
        np.asarray(p0, dtype=float),
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    return sol.y[:, -1]


def rate_ode_emission(matrix, p0, t_final, s1_index=1, rtol=1e-10):
    """Time integral of the S1 population along the same ODE solution."""
    n = len(p0)

    def rhs(_, y):
        dp = matrix @ y[:n]
        return np.concatenate([dp, [y[s1_index]]])

    sol = solve_ivp(
        rhs,
        (0.0, t_final),
        np.concatenate([np.asarray(p0, dtype=float), [0.0]]),
        method="DOP853",
        rtol=rtol,
        atol=1e-14,
    )
    return sol.y[:n, -1], sol.y[n, -1]


def two_level_rotation(rabi, duration, detuning=0.0, phase=0.0):
    """Closed-form SU(2) rotation for the detuned Rabi problem.

    The generator is 0.5*(rabi*cos(phase)*sx + rabi*sin(phase)*sy
    - detuning*sz) in frequency units; the propagator over `duration`
    follows the axis-angle (Rodrigues) form with generalized Rabi
    frequency sqrt(rabi^2 + detuning^2).
    """
    omega_g = np.hypot(rabi, detuning)
    ident = np.eye(2, dtype=complex)
    if omega_g == 0.0:
        return ident
    nx = rabi * np.cos(phase) / omega_g
    ny = rabi * np.sin(phase) / omega_g
    nz = -detuning / omega_g
    sigma = (
        nx * np.array([[0, 1], [1, 0]], dtype=complex)
        + ny * np.array([[0, -1j], [1j, 0]], dtype=complex)
        + nz * np.array([[1, 0], [0, -1]], dtype=complex)
    )
    angle = np.pi * omega_g * duration
    return np.cos(angle) * ident - 1j * np.sin(angle) * sigma


def phase_averaged_ac_contrast(amplitude, frequency, tau, probe_gamma):
    """Bessel closed form for the random-phase AC echo contrast."""
    theta = np.pi * frequency * tau
    arg = 4.0 * probe_gamma * amplitude / frequency * np.sin(theta) ** 2
    return j0(arg)


def greedy_label_columns(overlap_sq):
    """Column of each reference row, one 3x3 matrix at a time.

    The (row, column) pairs are walked in a Python sort by decreasing
    overlap_sq[..., row, column], ties toward the lower row, then the lower
    column; a pair is taken when neither its row nor its column is taken.
    """
    overlap_sq = np.asarray(overlap_sq, dtype=float)
    columns = np.empty(overlap_sq.shape[:-1], dtype=int)
    for index in np.ndindex(overlap_sq.shape[:-2]):
        o = overlap_sq[index]
        order = sorted(
            ((i, k) for i in range(3) for k in range(3)), key=lambda ik: (-o[ik], *ik)
        )
        rows, cols = set(), set()
        for i, k in order:
            if i not in rows and k not in cols:
                columns[index + (i,)] = k
                rows.add(i)
                cols.add(k)
    return columns


def gaussian_coupling_deficit(mean, spread, t):
    """<(1 - cos(2*pi*d*t))/2> over d ~ N(mean, spread^2) by QUADPACK.

    The Gaussian density is integrated against quad's cosine weight
    cos(2*pi*t*d) over mean +- 40 spreads, which holds all of its mass.
    """
    omega = 2.0 * np.pi * t
    if spread == 0.0:
        return 0.5 * (1.0 - np.cos(omega * mean))

    def density(d):
        return np.exp(-0.5 * ((d - mean) / spread) ** 2) / (spread * np.sqrt(2.0 * np.pi))

    lo, hi = mean - 40.0 * spread, mean + 40.0 * spread
    average, _ = quad(density, lo, hi, weight="cos", wvar=omega, limit=2000, epsabs=1e-13)
    return 0.5 * (1.0 - average)


def scipy_fit(func, x, y, p0, bounds=(-np.inf, np.inf)):
    """Least-squares reference fit returning the parameter vector."""
    res = least_squares(
        lambda p: func(x, p) - y, np.asarray(p0, dtype=float),
        bounds=bounds, xtol=1e-14, ftol=1e-14, gtol=1e-14)
    return res.x
