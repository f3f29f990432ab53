"""Five-level optical pumping and triplet decay kinetics.

The level set is (S0, S1, Tx, Ty, Tz), evolving under a linear rate
equation dp/dt = M p. The generator M collects optical pumping S0 -> S1,
S1 decay split between fluorescence back to S0 and intersystem crossing
into the three triplet sublevels with fixed branching, and sublevel-
selective triplet decay back to S0. Columns of M sum to zero, which is
asserted when the matrix is built.

Rates are 1/s throughout. Populations are occupation probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    check_entries_at_least,
    check_finite,
    check_nonnegative,
    check_positive,
    check_unit_interval,
)

#: Level ordering used by every array in this module.
LEVELS = ("s0", "s1", "tx", "ty", "tz")

_S1 = LEVELS.index("s1")

#: Default S1 decay rate, 1/s.
DEFAULT_S1_DECAY_RATE = 1.0e8
#: Default intersystem-crossing yield per S1 decay.
DEFAULT_ISC_YIELD = 2.0e-3
#: Default saturating pump rate, 1/s. With the defaults above the net
#: optical shelving time into the triplet is ~10 us.
DEFAULT_PUMP_RATE = 1.0e8


@dataclass(frozen=True, eq=False)
class KineticRates:
    """Rate parameters of the five-level model.

    The two triplet fields are 3-tuples for one rate set, or (..., 3)
    arrays of one shape for a stack: each entry of the leading axes is
    one rate set, checked alone, and the functions below batch over them.
    Rate sets of every shape compare and hash by identity.

    Attributes
    ----------
    triplet_lifetimes : tuple of float or (..., 3) array
        (tau_x, tau_y, tau_z) in seconds, each > 0.
    isc_branching : tuple of float or (..., 3) array
        ISC branching fractions into (Tx, Ty, Tz); nonnegative, sum 1.
    pump_rate : float
        S0 -> S1 rate under unit illumination intensity, 1/s, >= 0.
    s1_decay_rate : float
        Total S1 decay rate, 1/s, > 0.
    isc_yield : float
        Fraction of S1 decays that cross into the triplet, in [0, 1].
    """

    triplet_lifetimes: tuple[float, float, float] | np.ndarray
    isc_branching: tuple[float, float, float] | np.ndarray
    pump_rate: float = DEFAULT_PUMP_RATE
    s1_decay_rate: float = DEFAULT_S1_DECAY_RATE
    isc_yield: float = DEFAULT_ISC_YIELD

    def __post_init__(self) -> None:
        lifetimes, branching = np.asarray(self.triplet_lifetimes), np.asarray(self.isc_branching)
        if lifetimes.shape[-1:] != (3,) or branching.shape != lifetimes.shape:
            raise InvalidParameterError(
                "need exactly three triplet sublevels, and lifetimes and branching of one shape"
            )
        for tau in lifetimes.ravel().tolist():
            check_positive("triplet lifetime", tau)
            check_finite("triplet decay rate 1/lifetime", 1.0 / tau)
        for row in branching.reshape(-1, 3).tolist():
            for b in row:
                check_unit_interval("ISC branching fraction", b)
            total = sum(row)
            if abs(total - 1.0) > 1e-9:
                raise InvalidParameterError(
                    f"ISC branching must sum to 1 within 1e-9, got {total!r}"
                )
        check_nonnegative("pump rate", self.pump_rate)
        check_positive("S1 decay rate", self.s1_decay_rate)
        check_unit_interval("ISC yield", self.isc_yield)

    @classmethod
    def from_steady_state(
        cls,
        populations: tuple[float, float, float],
        lifetimes: tuple[float, float, float],
        pump_rate: float = DEFAULT_PUMP_RATE,
        s1_decay_rate: float = DEFAULT_S1_DECAY_RATE,
        isc_yield: float = DEFAULT_ISC_YIELD,
    ) -> "KineticRates":
        """Build rates that reproduce given steady-state triplet fractions.

        `populations` are relative steady-state triplet populations under
        continuous illumination (any normalization); `lifetimes` in seconds.
        """
        branching = isc_branching_from_steady_state(populations, lifetimes)
        return cls(
            triplet_lifetimes=tuple(float(t) for t in lifetimes),
            isc_branching=branching,
            pump_rate=pump_rate,
            s1_decay_rate=s1_decay_rate,
            isc_yield=isc_yield,
        )


def isc_branching_from_steady_state(
    populations: tuple[float, float, float] | np.ndarray,
    lifetimes: tuple[float, float, float] | np.ndarray,
) -> tuple[float, float, float]:
    """Invert steady-state triplet fractions to ISC branching fractions.

    In steady state the sublevel balance is b_i * flux = p_i / tau_i, so
    b_i is proportional to p_i / tau_i. The result is normalized to sum 1
    and is independent of the overall flux.
    """
    p = np.asarray(populations, dtype=float)
    tau = np.asarray(lifetimes, dtype=float)
    if p.shape != (3,) or tau.shape != (3,):
        raise InvalidParameterError("need three populations and three lifetimes")
    if np.any(p < 0.0) or p.sum() <= 0.0:
        raise InvalidParameterError(f"populations must be nonnegative with a positive sum, got {p}")
    if np.any(tau <= 0.0):
        raise InvalidParameterError(f"lifetimes must be > 0, got {tau}")
    for t in tau.tolist():
        check_finite("triplet decay rate 1/lifetime", 1.0 / t)
    b = p / tau
    b = b / b.sum()
    return (float(b[0]), float(b[1]), float(b[2]))


def _generators(rates: KineticRates, intensity: float) -> np.ndarray:
    """Augmented (..., 6, 6) generators, one per rate set of `rates`.

    The top-left 5x5 block is the generator M of dp/dt = M p; row 5
    accumulates the time integral of p_S1. A dark interval is
    intensity 0.
    """
    check_nonnegative("intensity", intensity)
    pump = rates.pump_rate * intensity
    check_finite("pump rate x intensity", pump)
    k_s1, y = rates.s1_decay_rate, rates.isc_yield
    decay = 1.0 / np.asarray(rates.triplet_lifetimes, dtype=float)
    a = np.zeros(decay.shape[:-1] + (6, 6))
    # S0 -> S1 pumping
    a[..., 0, 0] -= pump
    a[..., 1, 0] += pump
    # S1 decay: fluorescence back to S0 plus ISC into the sublevels
    a[..., 1, 1] -= k_s1
    a[..., 0, 1] += (1.0 - y) * k_s1
    a[..., 2:5, 1] += y * k_s1 * np.asarray(rates.isc_branching, dtype=float)
    # sublevel-selective triplet decay to S0
    sub = np.arange(2, 5)
    a[..., sub, sub] -= decay
    a[..., 0, 2:5] += decay
    a[..., 5, _S1] = 1.0
    m = a[..., :5, :5]
    col_sums = np.abs(m.sum(axis=-2)).max(axis=-1, initial=0.0)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    assert np.all(col_sums <= 1e-12 * scale), "generator columns must sum to zero"
    return a


def rate_matrix(rates: KineticRates, intensity: float) -> np.ndarray:
    """Generators M of dp/dt = M p, (..., 5, 5), with columns summing to zero."""
    return _generators(rates, intensity)[..., :5, :5].copy()


#: Coefficients b_0..b_13 of the degree-13 Padé approximant (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
#: Rows hold the coefficients of (I, A^2, A^4, A^6) in the four even
#: polynomials W0..W3 with U = A (A^6 W0 + W1) and V = A^6 W2 + W3.
_PADE13_TERMS = np.array(
    [
        [0.0, *_PADE13[9::2]],  # b9, b11, b13
        _PADE13[1:9:2],  # b1, b3, b5, b7
        [0.0, *_PADE13[8::2]],  # b8, b10, b12
        _PADE13[0:8:2],  # b0, b2, b4, b6
    ]
)
#: Largest 1-norm for which r_13 meets double-precision unit roundoff.
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Padé-13 scaling and squaring.

    Follows Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179, but
    carries the squaring phase as E = exp(A) - I, using
    exp(2A) - I = 2E + E @ E. For a rate generator E stays small where
    exp(A) is close to I, so the many squarings of a stiff window do
    not wash out the exact zero column sums the way R <- R @ R does.
    Like any backward-stable method it is accurate to about
    eps * ||A||_1 in absolute terms.

    `a` may be a single (n, n) matrix or a (..., n, n) stack; each matrix
    of a stack gets its own scaling exponent, so it comes out exactly as
    it would alone.
    """
    a = np.asarray(a, dtype=float)
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.all(np.isfinite(norm)):
        raise InvalidParameterError("matrix exponential of a non-finite matrix")
    # s = ceil(log2(norm / theta)) where norm > theta, else 0; frexp is exact
    mantissa, exponent = np.frexp(norm / _THETA13)
    s = np.where(norm > _THETA13, exponent - (mantissa == 0.5), 0)
    a = a / np.ldexp(1.0, s)[:, None, None]
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    powers = np.stack((np.broadcast_to(ident, a.shape), a2, a4, a6), axis=1)
    w = (_PADE13_TERMS @ powers.reshape(-1, 4, n * n)).reshape(-1, 4, n, n)
    u = a @ (a6 @ w[:, 0] + w[:, 1])
    v = a6 @ w[:, 2] + w[:, 3]
    # r_13 - I = (V - U)^-1 (V + U) - I = (V - U)^-1 (2U)
    e = np.linalg.solve(v - u, 2.0 * u)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        e[sq] = 2.0 * e[sq] + e[sq] @ e[sq]
    return (e + ident).reshape(shape)


def propagators(rates: KineticRates, duration: float, intensity: float) -> np.ndarray:
    """Augmented (..., 6, 6) propagators over `duration`, one per rate set.

    Row 5 of each maps the (S0, S1, Tx, Ty, Tz, 0) state to the integral
    of p_S1 over the interval; see :func:`propagate`.
    """
    check_nonnegative("duration", duration)
    return expm(_generators(rates, intensity) * duration)


def propagate(prop: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply augmented propagators (..., 6, 6) to populations (..., 5).

    The two shapes broadcast against each other. Returns the propagated
    populations and the integrated S1 occupancy over the interval. That
    integral is proportional to the collected fluorescence; the constant
    radiative rate cancels from any contrast ratio, so it is left out.
    The generator conserves total population exactly, so a sum off 1 by
    more than 1e-6 (or a population below -1e-6) is a real error and
    raises InvalidParameterError.
    """
    p = np.asarray(p, dtype=float)
    augmented = np.concatenate((p, np.zeros(p.shape[:-1] + (1,))), axis=-1)
    out = (prop @ augmented[..., None])[..., 0]
    pops = out[..., :5]
    if np.any(np.abs(pops.sum(axis=-1) - 1.0) > 1e-6) or np.any(pops < -1e-6):
        raise InvalidParameterError(f"propagation lost population conservation: {pops}")
    return pops, out[..., 5]


def steady_state(rates: KineticRates, intensity: float = 1.0) -> np.ndarray:
    """Continuous-illumination steady state of the rate equation.

    Returns the (5,) populations in `LEVELS` order. Solves M p = 0 with
    the normalization sum(p) = 1 by replacing one row of the (rank-4)
    generator with the normalization constraint. With the pump off, all
    population sits in S0.
    """
    if rates.pump_rate * intensity == 0.0:
        return np.eye(5)[0]
    m = rate_matrix(rates, intensity)
    a = m.copy()
    a[0, :] = 1.0
    b = np.zeros(5)
    b[0] = 1.0
    p = np.linalg.solve(a, b)
    # scaled residual of the original system; see tests for the bound
    residual = float(np.max(np.abs(m @ p)))
    scale = float(np.max(np.abs(m))) * float(np.max(np.abs(p)))
    if residual > 1e-9 * scale:
        raise InvalidParameterError("steady-state solve failed to converge")
    if np.any(p < -1e-9) or np.any(p > 1.0 + 1e-9):
        raise InvalidParameterError(f"populations must lie in [0, 1], got {p}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvalidParameterError(f"populations must sum to 1 within 1e-9, got {total!r}")
    return p


def dark_initial_state(rates: KineticRates, intensity: float = 1.0) -> np.ndarray:
    """State right after switching the laser off from steady state.

    The residual S1 population decays orders of magnitude faster than any
    triplet sublevel, so it is folded into S0 for the closed-form decay
    curve below.
    """
    p = steady_state(rates, intensity)
    return np.array([p[0] + p[1], 0.0, *p[2:]])


def t1_relaxation_curve(
    rates: KineticRates,
    delays: np.ndarray,
    intensity: float = 1.0,
) -> np.ndarray:
    """Ground-state recovery after switching off the pump.

    Starting from the illuminated steady state, the S0 population after a
    dark delay tau is 1 - sum_i p_i * exp(-tau/tau_i) with p_i the initial
    triplet sublevel populations: a triple-exponential recovery whose
    amplitudes are the steady-state sublevel populations.
    """
    delays = np.asarray(delays, dtype=float)
    check_entries_at_least("delays", delays, 0.0)
    start = dark_initial_state(rates, intensity)
    tau = np.asarray(rates.triplet_lifetimes)
    surviving = start[None, 2:] * np.exp(-delays[..., None] / tau[None, :])
    return 1.0 - surviving.sum(axis=-1)

