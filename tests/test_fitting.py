import math

import numpy as np
import pytest

from oracles import scipy_fit
from tripletsim.errors import (
    DegenerateFitError,
    FlatDataError,
    InvalidParameterError,
)
from tripletsim.fitting import (
    MODELS,
    estimate_initial_guess,
    fit,
    get_model,
    model_eval,
)

# one synthetic truth per model, with evaluation grids that resolve them
CASES = {
    "linear": (np.linspace(0.0, 10.0, 60), np.array([3.2, -1.4])),
    "triple_exponential": (
        np.geomspace(0.5e-6, 2000e-6, 200),
        np.array([0.206, 0.421, 0.156, 514e-6, 21.2e-6, 111e-6]),
    ),
    "stretched_exp": (np.linspace(0.05e-6, 70e-6, 200), np.array([22.4e-6, 1.10, 0.97])),
    "stretched_exp_eseem": (
        np.linspace(0.05e-6, 70e-6, 200),
        np.array([22.4e-6, 1.10, 1.0, 0.5, 140.2e3]),
    ),
    "damped_cosine": (
        np.linspace(0.0, 0.6e-6, 301),
        np.array([58.9e6, 0.0, 195e-9, 2.0, 0.5, 0.5]),
    ),
    "dd_scaling": (
        2.0 ** np.arange(11),
        np.array([22.4e-6, 0.53, 405e-6]),
    ),
}


def canonical(name, params):
    return get_model(name).canonicalize(np.asarray(params, dtype=float))


SEEDS = {name: 1000 + i for i, name in enumerate(sorted(CASES))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_round_trip_noiseless_from_perturbed_start(name):
    x, truth = CASES[name]
    y = model_eval(name, truth, x)
    rng = np.random.default_rng(SEEDS[name])
    truth_c = canonical(name, truth)
    for trial in range(5):
        start = truth * rng.uniform(0.85, 1.15, size=truth.shape)
        if name == "damped_cosine":
            # frequency beyond ~1/(2*span) off lands in a different local
            # basin of the oscillatory residual; keep the local test local
            start[0] = truth[0] * rng.uniform(0.99, 1.01)
            start[1] = truth[1] + rng.uniform(-0.3, 0.3)
        result = fit(name, x, y, initial_guess=start)
        assert result.converged
        assert np.allclose(result.params, truth_c, rtol=1e-3), (
            f"{name} trial {trial}: {result.params} vs {truth_c}")
        assert result.rss < 1e-12
        assert result.n_points == x.size


@pytest.mark.parametrize("name", sorted(CASES))
def test_round_trip_from_automatic_guess(name):
    x, truth = CASES[name]
    y = model_eval(name, truth, x)
    result = fit(name, x, y)
    assert result.converged
    assert np.allclose(result.params, canonical(name, truth), rtol=1e-3)


@pytest.mark.parametrize("name", sorted(CASES))
def test_agreement_with_scipy_reference(name):
    x, truth = CASES[name]
    y0 = model_eval(name, truth, x)
    rng = np.random.default_rng(42)
    y = y0 + rng.normal(scale=2e-3 * float(np.max(np.abs(y0))), size=x.size)
    start = estimate_initial_guess(name, x, y)
    ours = fit(name, x, y, initial_guess=start)
    model = get_model(name)
    ref = scipy_fit(lambda xx, p: model.evaluate(p, xx), x, y, start)
    ref = model.canonicalize(ref)
    # same minimum means agreement to a small fraction of the statistical
    # uncertainty; the relative floor covers sharply determined parameters
    tol = np.maximum(5e-4 * np.abs(ref), 0.2 * ours.std_errors)
    assert np.all(np.abs(ours.params - ref) <= tol)


def test_noisy_fit_recovers_parameters():
    # relative noise mirrors photon-counting statistics and keeps the tail
    # informative; seed-averaged parameters beat down scatter, exposing bias
    x, truth = CASES["triple_exponential"]
    y0 = model_eval("triple_exponential", truth, x)
    rng = np.random.default_rng(0)
    fitted = []
    for _ in range(20):
        y = y0 * (1.0 + 0.01 * rng.standard_normal(x.size))
        result = fit("triple_exponential", x, y, initial_guess=truth)
        assert result.converged
        fitted.append(result.params)
    mean_params = np.mean(fitted, axis=0)
    rel = np.abs(mean_params / canonical("triple_exponential", truth) - 1.0)
    assert rel.max() < 0.05


def test_std_errors_scale_with_point_count():
    truth = np.array([2.0, 1.0])
    rng = np.random.default_rng(5)
    sigmas = []
    for n in (100, 1600):
        x = np.linspace(0.0, 10.0, n)
        reps = []
        for _ in range(6):
            y = truth[0] * x + truth[1] + rng.normal(scale=0.1, size=n)
            reps.append(fit("linear", x, y).error_of("slope"))
        sigmas.append(np.mean(reps))
    # 16x the points -> 4x smaller standard error (x-range fixed)
    assert sigmas[0] / sigmas[1] == pytest.approx(4.0, rel=0.25)


def test_std_error_catches_truth_for_linear_noise():
    rng = np.random.default_rng(9)
    x = np.linspace(0.0, 10.0, 400)
    hits = 0
    for _ in range(20):
        y = 2.0 * x + 1.0 + rng.normal(scale=0.2, size=x.size)
        res = fit("linear", x, y)
        if abs(res["slope"] - 2.0) < 2.0 * res.error_of("slope"):
            hits += 1
    assert hits >= 15  # ~95% expected within 2 sigma


def test_canonicalization_triple_exponential_ordering():
    x, truth = CASES["triple_exponential"]
    shuffled = truth[[1, 0, 2, 4, 3, 5]]  # swap first two components
    y = model_eval("triple_exponential", shuffled, x)
    res = fit("triple_exponential", x, y, initial_guess=shuffled)
    assert np.all(np.diff(res.params[3:]) > 0)
    assert np.allclose(res.params, canonical("triple_exponential", truth), rtol=1e-6)


def test_triple_exponential_guess_splits_a_lone_component():
    # one resolvable component: the guess splits it twice to seed three
    x = np.linspace(0.0, 10.0, 60)
    guess = estimate_initial_guess("triple_exponential", x, 2.0 * np.exp(-x / 1.5))
    model = get_model("triple_exponential")
    assert np.array_equal(model.validate(guess), guess)
    assert np.all(np.diff(guess[3:]) > 0)
    assert guess == pytest.approx([0.5, 1.0, 2.0, 0.09375, 0.375, 1.5], rel=1e-12)
    assert (guess[2], guess[5]) == pytest.approx((2.0, 1.5), rel=1e-12)


def test_canonicalization_damped_cosine_sign_and_phase():
    model = get_model("damped_cosine")
    raw = np.array([5e6, 4.0, 1e-6, 2.0, -0.3, 0.1])
    canon = model.canonicalize(raw)
    assert canon[4] > 0
    assert -np.pi < canon[1] <= np.pi
    x = np.linspace(0.0, 1e-6, 50)
    assert np.allclose(model.evaluate(raw, x), model.evaluate(canon, x), atol=1e-12)


def test_flat_data_raises():
    x = np.linspace(0.0, 1.0, 50)
    with pytest.raises(FlatDataError):
        fit("linear", x, np.full(50, 3.7))
    with pytest.raises(FlatDataError):
        estimate_initial_guess("stretched_exp", x, np.full(50, 1.0))


def test_underdetermined_raises():
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([1.0, 0.5, 0.25])
    with pytest.raises(DegenerateFitError):
        fit("triple_exponential", x, y)


def test_degenerate_jacobian_raises():
    # two exactly equal lifetimes leave amplitude splitting undetermined
    x = np.linspace(0.1e-6, 50e-6, 100)
    truth = np.array([0.4, 0.3, 0.3, 10e-6, 10e-6, 10e-6])
    y = model_eval("triple_exponential", truth, x)
    with pytest.raises(DegenerateFitError):
        fit("triple_exponential", x, y, initial_guess=truth)


def test_validation_rejects_out_of_domain():
    with pytest.raises(InvalidParameterError):
        model_eval("stretched_exp", np.array([-1e-6, 1.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(InvalidParameterError):
        model_eval("stretched_exp", np.array([1e-6, 4.5, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(InvalidParameterError):
        model_eval("linear", np.array([1.0]), np.array([0.0, 1.0]))
    with pytest.raises(InvalidParameterError):
        get_model("no_such_model")


def test_non_finite_data_rejected():
    x = np.linspace(0.0, 1.0, 10)
    y = x.copy()
    y[3] = np.nan
    with pytest.raises(InvalidParameterError):
        fit("linear", x, y)


def test_eseem_guess_doubles_fft_frequency():
    # the modulation factor oscillates at half its frequency parameter
    x = np.linspace(0.05e-6, 70e-6, 400)
    truth = np.array([22.4e-6, 1.10, 1.0, 0.5, 140.2e3])
    guess = estimate_initial_guess("stretched_exp_eseem", x, model_eval(
        "stretched_exp_eseem", truth, x))
    assert guess[4] == pytest.approx(140.2e3, rel=0.15)


def test_max_iter_exhaustion_reports_nonconvergence():
    x, truth = CASES["stretched_exp"]
    y = model_eval("stretched_exp", truth, x)
    res = fit("stretched_exp", x, y, initial_guess=truth * np.array([3.0, 1.5, 2.0]),
              max_iter=2)
    assert not res.converged
    assert res.iterations <= 2


def test_model_registry_complete():
    assert set(MODELS) == {
        "linear", "triple_exponential", "stretched_exp",
        "stretched_exp_eseem", "damped_cosine", "dd_scaling",
    }
    for model in MODELS.values():
        assert len(model.kinds) == len(model.param_names)
