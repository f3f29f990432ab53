"""Model registry and Levenberg-Marquardt least-squares fitting.

The fitter is self-contained: damped normal equations with a Marquardt
diagonal, forward-difference Jacobians, and smooth reparameterization to
enforce parameter domains (log for positive parameters, scaled logit for
exponents constrained to (0, EXPONENT_CAP]), each stated once in `DOMAINS`.
Covariances are reported in the original parameter space as
sigma_i = sqrt(RSS/(n-k) * [(J^T J)^-1]_ii) * |dp_i/dq_i|.

Models are unit-agnostic: `x` and the parameters just have to be
expressed consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    EXPONENT_CAP,
    DegenerateFitError,
    FlatDataError,
    InvalidParameterError,
    check_exponent,
    check_finite,
    check_positive,
)

# Parameter domain kinds, the keys of `DOMAINS`.
FREE = "free"
POSITIVE = "positive"
STRETCH = "stretch"  # (0, EXPONENT_CAP]


class Domain(NamedTuple):
    """A parameter domain: the check of a finite value p, the map to the
    internal coordinate q the fit searches over and back, and |dp/dq| at p."""

    check: Callable[[str, float], None]
    to_q: Callable[[float], float]
    to_p: Callable[[float], float]
    dp_dq: Callable[[float], float]


def _logit(p: float) -> float:
    p = min(max(p, 1e-300), EXPONENT_CAP * (1.0 - 1e-12))
    return math.log(p / (EXPONENT_CAP - p))


#: q -> p clamps q to [-700, 700]: exp() must neither overflow nor underflow
#: to an exact zero that poisons downstream divisions. A collapsed component
#: can underflow exp() to exactly zero, whose q is -745.
DOMAINS: dict[str, Domain] = {
    FREE: Domain(lambda name, p: None, lambda p: p, lambda q: q, lambda p: 1.0),
    POSITIVE: Domain(
        check_positive, lambda p: math.log(p) if p > 0.0 else -745.0,
        lambda q: math.exp(min(max(q, -700.0), 700.0)), lambda p: p,
    ),
    STRETCH: Domain(
        check_exponent, _logit,
        lambda q: EXPONENT_CAP / (1.0 + math.exp(-min(max(q, -700.0), 700.0))),
        lambda p: p * (1.0 - p / EXPONENT_CAP),
    ),
}

_LM_LAMBDA_INIT = 1.0e-3
_LM_LAMBDA_GROW = 10.0
_LM_LAMBDA_SHRINK = 10.0
_LM_LAMBDA_MAX = 1.0e12
_FD_REL_STEP = 1.0e-6
#: Convergence thresholds of `fit`: relative RSS gain and normalized gradient.
_REL_TOL = 1.0e-10
_GRAD_TOL = 1.0e-8


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares fit, parameters in original space."""

    model_name: str
    param_names: tuple[str, ...]
    params: np.ndarray
    std_errors: np.ndarray
    rss: float
    converged: bool
    iterations: int
    n_points: int

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])

    def error_of(self, name: str) -> float:
        return float(self.std_errors[self.param_names.index(name)])


class FitModel:
    """Base class: a named parametric curve with domain metadata."""

    name: str = ""
    param_names: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()

    def evaluate(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def initial_guess(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def canonicalize(self, params: np.ndarray) -> np.ndarray:
        """Map parameters to a canonical representative (identity by default)."""
        return np.asarray(params, dtype=float)

    def validate(self, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        if params.shape != (len(self.param_names),):
            raise InvalidParameterError(
                f"{self.name} expects {len(self.param_names)} parameters "
                f"{self.param_names}, got shape {params.shape}"
            )
        for value, pname, kind in zip(params.tolist(), self.param_names, self.kinds):
            check_finite(f"{self.name}.{pname}", value)
            DOMAINS[kind].check(f"{self.name}.{pname}", value)
        return params


def _require_data(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InvalidParameterError(f"x and y must be 1-d and equal length, got {x.shape} / {y.shape}")
    if x.size < 2:
        raise InvalidParameterError("need at least two data points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidParameterError("data must be finite")
    return x, y


def _require_structure(y: np.ndarray) -> None:
    if float(np.ptp(y)) <= 1.0e-12 * max(1.0, float(np.max(np.abs(y)))):
        raise FlatDataError("data are constant within tolerance; nothing to fit")


def _dominant_frequency(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(frequency, phase) of the strongest oscillation via padded FFT.

    Assumes a near-uniform grid; the peak bin is refined by parabolic
    interpolation of the log magnitude, and the phase comes from the
    coherent projection onto exp(-2*pi*i*f*x).
    """
    n = x.size
    dt = (x[-1] - x[0]) / (n - 1)
    if dt <= 0.0:
        raise InvalidParameterError("x grid must be increasing for a frequency guess")
    yd = (y - y.mean()) * np.hanning(n)
    pad = 8
    spec = np.abs(np.fft.rfft(yd, n * pad))
    lo = pad  # skip leakage below one cycle per record
    if spec[lo:].size == 0:
        raise FlatDataError("record too short for a frequency guess")
    k = lo + int(np.argmax(spec[lo:]))
    if 0 < k < spec.size - 1 and spec[k] > 0.0:
        with np.errstate(divide="ignore"):
            s = np.log(spec[k - 1 : k + 2] + 1e-300)
        denom = s[0] - 2.0 * s[1] + s[2]
        shift = 0.5 * (s[0] - s[2]) / denom if denom != 0.0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    freq = (k + shift) / (n * pad * dt)
    proj = np.sum((y - y.mean()) * np.exp(-2j * np.pi * freq * x))
    return freq, float(np.angle(proj))


class Linear(FitModel):
    """y = slope*x + intercept."""

    name = "linear"
    param_names = ("slope", "intercept")
    kinds = (FREE, FREE)

    def evaluate(self, params, x):
        slope, intercept = params
        return slope * x + intercept

    def initial_guess(self, x, y):
        slope, intercept = np.polyfit(x, y, 1)
        return np.array([slope, intercept])


class TripleExponential(FitModel):
    """Sum of three decaying exponentials with positive amplitudes.

    Canonical form orders the components by ascending lifetime.
    """

    name = "triple_exponential"
    param_names = ("a1", "a2", "a3", "tau1", "tau2", "tau3")
    kinds = (POSITIVE,) * 6

    def evaluate(self, params, x):
        a = np.asarray(params[:3])
        tau = np.asarray(params[3:])
        return np.sum(a[None, :] * np.exp(-x[..., None] / tau[None, :]), axis=-1)

    def canonicalize(self, params):
        params = np.asarray(params, dtype=float)
        order = np.argsort(params[3:])
        return np.concatenate([params[:3][order], params[3:][order]])

    def initial_guess(self, x, y):
        """Peel components off the slow tail with log-linear regressions."""
        floor = max(float(np.max(np.abs(y))) * 1e-9, 1e-300)
        resid = y.astype(float).copy()
        comps: list[tuple[float, float]] = []
        span = float(x[-1] - x[0])
        for _ in range(3):
            mask = resid > max(float(resid.max()), floor) * 0.02
            idx = np.nonzero(mask)[0]
            if idx.size < 4:
                break
            tail = idx[-max(6, idx.size // 3):]
            yy = np.log(np.clip(resid[tail], floor, None))
            slope, intercept = np.polyfit(x[tail], yy, 1)
            if slope >= 0.0:
                break
            tau = -1.0 / slope
            amp = float(np.exp(intercept))
            comps.append((amp, tau))
            resid = resid - amp * np.exp(-x / tau)
        while len(comps) < 3:
            # split the fastest component, or seed a generic spread
            if comps:
                amp, tau = min(comps, key=lambda c: c[1])
                comps.append((max(amp, floor) * 0.5, tau / 4.0))
            else:
                comps.append((max(float(y.max()), floor) / 3.0, max(span, 1e-12) / 3.0))
        amps = np.array([max(c[0], floor) for c in comps[:3]])
        taus = np.array([max(c[1], 1e-300) for c in comps[:3]])
        return self.canonicalize(np.concatenate([amps, taus]))


class StretchedExp(FitModel):
    """y = amplitude * exp[-(x/t2)^nu], x >= 0."""

    name = "stretched_exp"
    param_names = ("t2", "nu", "amplitude")
    kinds = (POSITIVE, STRETCH, POSITIVE)

    def evaluate(self, params, x):
        t2, nu, amplitude = params
        return amplitude * np.exp(-((x / t2) ** nu))

    def initial_guess(self, x, y):
        amplitude = float(np.max(y))
        if amplitude <= 0.0:
            raise FlatDataError("stretched-exponential data must have positive values")
        t2 = _crossing_time(x, y / amplitude, math.exp(-1.0))
        return np.array([t2, 1.0, amplitude])


def _crossing_time(x: np.ndarray, y_norm: np.ndarray, level: float) -> float:
    """First x where the (noisy, decaying) trace drops below `level`."""
    below = np.nonzero(y_norm < level)[0]
    if below.size == 0:
        return float(x[-1])
    i = int(below[0])
    if i == 0:
        return float(max(x[0], (x[1] - x[0]) * 0.5))
    x0, x1 = x[i - 1], x[i]
    y0, y1 = y_norm[i - 1], y_norm[i]
    if y1 == y0:
        return float(x1)
    return float(x0 + (level - y0) / (y1 - y0) * (x1 - x0))


class StretchedExpEseem(FitModel):
    """Stretched exponential with a periodic modulation factor.

    y = exp[-(x/t2)^nu] * (a - b*sin^2(pi*frequency*x/2)). The overall
    amplitude is absorbed into `a` (a separate amplitude would be exactly
    degenerate with scaling a and b).
    """

    name = "stretched_exp_eseem"
    param_names = ("t2", "nu", "a", "b", "frequency")
    kinds = (POSITIVE, STRETCH, POSITIVE, POSITIVE, POSITIVE)

    def evaluate(self, params, x):
        t2, nu, a, b, frequency = params
        decay = np.exp(-((x / t2) ** nu))
        return decay * (a - b * np.sin(np.pi * frequency * x / 2.0) ** 2)

    def initial_guess(self, x, y):
        a = float(np.max(y))
        if a <= 0.0:
            raise FlatDataError("modulated-echo data must have positive values")
        t2 = _crossing_time(x, y / a, math.exp(-1.0))
        # divide out a rough decay (capped at three e-folds so tail noise
        # is not amplified) so the modulation line dominates the spectrum
        flat = y * np.exp(np.minimum(x / t2, 3.0))
        # sin^2(pi*f*x/2) oscillates at f/2, so the FFT peak sits at half the parameter
        f_osc, _ = _dominant_frequency(x, flat)
        return np.array([t2, 1.0, a, 0.4 * a, max(2.0 * f_osc, 1.0 / (x[-1] - x[0]))])


class DampedCosine(FitModel):
    """y = offset + amplitude * cos(2*pi*frequency*x + phase) * exp[-(x/decay_time)^decay_power].

    Canonical form has amplitude >= 0 and phase wrapped to (-pi, pi].
    """

    name = "damped_cosine"
    param_names = ("frequency", "phase", "decay_time", "decay_power", "amplitude", "offset")
    kinds = (POSITIVE, FREE, POSITIVE, STRETCH, FREE, FREE)

    def evaluate(self, params, x):
        frequency, phase, decay_time, decay_power, amplitude, offset = params
        env = np.exp(-((np.abs(x) / decay_time) ** decay_power))
        return offset + amplitude * np.cos(2.0 * np.pi * frequency * x + phase) * env

    def canonicalize(self, params):
        params = np.asarray(params, dtype=float).copy()
        if params[4] < 0.0:
            params[4] = -params[4]
            params[1] += np.pi
        params[1] = math.remainder(params[1], 2.0 * np.pi)
        if params[1] <= -np.pi:
            params[1] += 2.0 * np.pi
        return params

    def initial_guess(self, x, y):
        offset = float(np.mean(y))
        amplitude = float(np.ptp(y)) / 2.0
        frequency, phase = _dominant_frequency(x, y)
        span = float(x[-1] - x[0])
        return self.canonicalize(
            np.array([frequency, phase, max(span / 2.0, 1e-300), 2.0, amplitude, offset])
        )


class DdScaling(FitModel):
    """Decoupling gain with saturation: 1/y = 1/(t2_1 * x^nu) + 1/(2*t1_rho)."""

    name = "dd_scaling"
    param_names = ("t2_1", "nu", "t1_rho")
    kinds = (POSITIVE, STRETCH, POSITIVE)

    def evaluate(self, params, x):
        t2_1, nu, t1_rho = params
        return 1.0 / (1.0 / (t2_1 * x**nu) + 1.0 / (2.0 * t1_rho))

    def initial_guess(self, x, y):
        if np.any(y <= 0.0) or np.any(x < 1.0):
            raise InvalidParameterError("decoupling data need y > 0 and pulse numbers >= 1")
        t2_1 = float(y[np.argmin(x)])
        t1_rho = float(np.max(y))  # saturation bound: T2 <= 2*T1rho
        half = x <= max(2.0, float(np.median(x)))
        if np.count_nonzero(half) >= 2 and np.ptp(np.log(x[half])) > 0.0:
            nu = float(np.polyfit(np.log(x[half]), np.log(y[half]), 1)[0])
        else:
            nu = 0.7
        nu = float(np.clip(nu, 0.05, 2.0))
        return np.array([t2_1, nu, t1_rho])


MODELS: dict[str, FitModel] = {
    model.name: model
    for model in (
        Linear(),
        TripleExponential(),
        StretchedExp(),
        StretchedExpEseem(),
        DampedCosine(),
        DdScaling(),
    )
}


def get_model(model: FitModel | str) -> FitModel:
    """The model of a name, or a model itself."""
    if isinstance(model, FitModel):
        return model
    if model not in MODELS:
        raise InvalidParameterError(f"unknown model {model!r}; available: {sorted(MODELS)}")
    return MODELS[model]


def model_eval(model: FitModel | str, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate a model on a grid after validating parameter domains."""
    model = get_model(model)
    params = model.validate(params)
    return model.evaluate(params, np.asarray(x, dtype=float))


def estimate_initial_guess(model: FitModel | str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Data-driven starting point for `fit`; raises FlatDataError on constant input."""
    model = get_model(model)
    x, y = _require_data(x, y)
    _require_structure(y)
    return model.validate(model.initial_guess(x, y))


def _fd_jacobian(func, q: np.ndarray, r0: np.ndarray) -> np.ndarray:
    jac = np.empty((r0.size, q.size))
    for i in range(q.size):
        step = _FD_REL_STEP * max(1.0, abs(q[i]))
        qs = q.copy()
        qs[i] += step
        jac[:, i] = (func(qs) - r0) / step
    return jac


@np.errstate(over="ignore")  # a non-finite residual is refused below, not warned of
def fit(
    model: FitModel | str,
    x: np.ndarray,
    y: np.ndarray,
    initial_guess: np.ndarray | None = None,
    max_iter: int = 200,
) -> FitResult:
    """Least-squares fit of `model` to (x, y) by Levenberg-Marquardt.

    Domains are enforced through smooth reparameterization, so every
    iterate is feasible. The step is accepted when it lowers the residual
    sum of squares; the damping factor grows by 10 on rejection and
    shrinks by 10 on acceptance. Convergence is declared when the
    relative RSS improvement of an accepted step (or the improvement the
    local linear model can still promise) falls below 1e-10, or the
    normalized gradient falls below 1e-8. A fit that exhausts
    `max_iter` or whose damping diverges while real improvement is still
    predicted comes back with converged=False rather than raising.

    Raises
    ------
    FlatDataError
        If the data are constant within tolerance.
    DegenerateFitError
        If the normal equations are singular beyond recovery, or the
        Jacobian at the solution is rank-deficient, or there are not
        more points than parameters.
    """
    model = get_model(model)
    x, y = _require_data(x, y)
    _require_structure(y)
    k = len(model.param_names)
    if x.size <= k:
        raise DegenerateFitError(
            f"{model.name} has {k} parameters; need more than {k} points, got {x.size}"
        )
    if initial_guess is None:
        start = estimate_initial_guess(model, x, y)
    else:
        start = model.validate(initial_guess)

    domains = [DOMAINS[kind] for kind in model.kinds]

    def each(field: str, values: np.ndarray) -> np.ndarray:
        """One `Domain` field (to_q, to_p or dp_dq) applied to each parameter."""
        return np.array([getattr(d, field)(v) for d, v in zip(domains, values)])

    def residual(q: np.ndarray) -> np.ndarray:
        return model.evaluate(each("to_p", q), x) - y

    q = each("to_q", start)
    r = residual(q)
    if not np.all(np.isfinite(r)):
        raise DegenerateFitError("model is non-finite at the starting point")
    rss = float(r @ r)
    lam = _LM_LAMBDA_INIT
    converged = False
    iterations = 0
    tiny = 1e-300
    # below this the residual is double-precision rounding noise
    rss_floor = (1e-13 * max(1.0, float(np.max(np.abs(y))))) ** 2 * x.size

    for iterations in range(1, max_iter + 1):
        jac = _fd_jacobian(residual, q, r)
        grad = jac.T @ r
        # scale-free first-order criterion: cosine of the angle between
        # the residual vector and each Jacobian column
        col_norms = np.sqrt(np.sum(jac * jac, axis=0))
        r_norm = math.sqrt(rss)
        cosines = np.abs(grad) / np.maximum(col_norms * r_norm, tiny)
        if float(np.max(cosines)) < _GRAD_TOL or rss <= rss_floor:
            converged = True
            break
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag < 1e-12 * max(float(diag.max()), 1.0)] = 1e-12 * max(float(diag.max()), 1.0)
        accepted = False
        while lam <= _LM_LAMBDA_MAX:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= _LM_LAMBDA_GROW
                continue
            q_try = q + delta
            r_try = residual(q_try)
            rss_try = float(r_try @ r_try) if np.all(np.isfinite(r_try)) else math.inf
            if rss_try < rss:
                rel_gain = (rss - rss_try) / max(rss, tiny)
                q, r, rss = q_try, r_try, rss_try
                lam = max(lam / _LM_LAMBDA_SHRINK, 1e-15)
                accepted = True
                if rel_gain < _REL_TOL or rss <= rss_floor:
                    converged = True
                break
            # rejected: if even the local linear model promises less than
            # _REL_TOL relative improvement, no step at any damping can
            # help; that is convergence, not divergence
            r_lin = r + jac @ delta
            pred_gain = (rss - float(r_lin @ r_lin)) / max(rss, tiny)
            if abs(pred_gain) < _REL_TOL:
                converged = True
                break
            lam *= _LM_LAMBDA_GROW
        if converged:
            break
        if not accepted:
            break  # damping diverged; report non-convergence

    params = model.canonicalize(each("to_p", q))
    q_canon = each("to_q", params)
    r_final = model.evaluate(params, x) - y
    rss = float(r_final @ r_final)

    # covariance in internal coordinates, mapped back elementwise via the
    # (diagonal) derivative of the reparameterization at the solution
    jac_final = _fd_jacobian(residual, q_canon, r_final)
    jtj_final = jac_final.T @ jac_final
    rank = int(np.linalg.matrix_rank(jtj_final))
    if rank < k:
        raise DegenerateFitError(
            f"Jacobian at the solution has rank {rank} < {k}; "
            "parameters are not independently determined"
        )
    try:
        cov = np.linalg.inv(jtj_final) * (rss / (x.size - k))
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError(f"normal equations singular at the solution: {exc}") from exc
    std = np.sqrt(np.clip(np.diag(cov), 0.0, None)) * each("dp_dq", params)

    return FitResult(
        model_name=model.name,
        param_names=model.param_names,
        params=params,
        std_errors=std,
        rss=rss,
        converged=converged,
        iterations=iterations,
        n_points=int(x.size),
    )
