"""Numerical divergence, Monte-Carlo predictions under posterior draws, and
the scores the pipelines compute from them."""

import numpy as np
import pytest

from fsvi import (
    Grid2D,
    VariationalPosterior,
    exact_blr_posterior,
    gaussian_logdensity_fn,
    kld_numerical_2d,
    mc_accuracy,
    reconstruction_error,
)
from fsvi.exceptions import (
    ConfigError,
    CoverageError,
    DimensionError,
)
from fsvi.experiments import _mean_draw_mse
from fsvi.models import (
    LogisticModel,
    RbfDesign,
    RbfRegressionModel,
    SkewTarget,
    synth_classification_data,
    synth_regression_data,
)
from references import skew_logdensity


def closed_form_gaussian_kld(mean_p, cov_p, mean_q, cov_q):
    """KL(N_p || N_q) from the standard determinant-trace expression."""
    m = mean_p.size
    inv_q = np.linalg.inv(cov_q)
    d = mean_q - mean_p
    return 0.5 * (
        np.log(np.linalg.det(cov_q) / np.linalg.det(cov_p))
        - m
        + float(np.trace(inv_q @ cov_p))
        + float(d @ inv_q @ d)
    )


# ------------------------------------------------------------------ divergence


def _kld(log_p, log_q, direction="p-to-q", grid=None):
    """The divergence between two log-density callables, on `grid`."""
    grid = grid or Grid2D.build()
    return kld_numerical_2d(log_p(grid.points), log_q(grid.points), grid, direction)


def test_kld_zero_for_identical_densities():
    log_p = gaussian_logdensity_fn(np.zeros(2), np.eye(2))
    assert abs(_kld(log_p, log_p)) < 1e-8


def test_kld_matches_gaussian_closed_form():
    mean_p = np.array([0.4, -0.3])
    cov_p = np.array([[1.0, 0.2], [0.2, 0.7]])
    mean_q = np.array([-0.5, 0.1])
    cov_q = np.array([[1.5, -0.3], [-0.3, 1.1]])
    log_p = gaussian_logdensity_fn(mean_p, cov_p)
    log_q = gaussian_logdensity_fn(mean_q, cov_q)

    expected = closed_form_gaussian_kld(mean_p, cov_p, mean_q, cov_q)
    value = _kld(log_p, log_q)
    assert abs(value - expected) < 1e-6, f"grid {value} vs closed form {expected}"

    swapped = _kld(log_p, log_q, "q-to-p")
    expected_swapped = closed_form_gaussian_kld(mean_q, cov_q, mean_p, cov_p)
    assert abs(swapped - expected_swapped) < 1e-6


def test_kld_direction_is_asymmetric():
    log_p = gaussian_logdensity_fn(np.zeros(2), np.eye(2))
    log_q = gaussian_logdensity_fn(np.array([1.0, 0.0]), np.diag([1.5, 0.5]))
    forward = _kld(log_p, log_q)
    backward = _kld(log_p, log_q, "q-to-p")
    assert abs(forward - backward) > 0.1


def test_kld_stable_under_grid_refinement():
    coeff = np.array([-3.0, 1.0, -1.0, -1.0, -1.0, -1.0])

    def log_p(points):
        return skew_logdensity(points, coeff)[0]

    log_q = gaussian_logdensity_fn(np.array([0.2, 0.1]), 1.2 * np.eye(2))
    coarse = _kld(log_p, log_q, grid=Grid2D.build(resolution=128))
    fine = _kld(log_p, log_q, grid=Grid2D.build(resolution=256))
    assert abs(coarse - fine) / abs(fine) < 0.01, f"{coarse} vs {fine}"


def test_kld_nonnegative_on_random_gaussian_pairs():
    rng = np.random.default_rng(3)

    def bounded_cov():
        # Eigenvalues capped near one keep the 5-sigma tails on the grid.
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        return q @ np.diag(rng.uniform(0.3, 1.2, 2)) @ q.T

    for _ in range(10):
        mean_p = rng.uniform(-1.0, 1.0, 2)
        mean_q = rng.uniform(-1.0, 1.0, 2)
        log_p = gaussian_logdensity_fn(mean_p, bounded_cov())
        log_q = gaussian_logdensity_fn(mean_q, bounded_cov())
        assert _kld(log_p, log_q) >= -1e-9


def test_kld_reports_poor_coverage():
    log_p = gaussian_logdensity_fn(np.zeros(2), np.eye(2))
    log_q = gaussian_logdensity_fn(np.array([40.0, 0.0]), np.eye(2))
    with pytest.raises(CoverageError) as excinfo:
        _kld(log_p, log_q)
    masses = excinfo.value.masses
    assert masses is not None and masses[0] > 0.999 and masses[1] < 0.5


def test_kld_rejects_unknown_direction():
    log_p = gaussian_logdensity_fn(np.zeros(2), np.eye(2))
    with pytest.raises(ConfigError):
        _kld(log_p, log_p, "sideways")


def test_kld_takes_densities_as_grid_values():
    grid = Grid2D.build(resolution=(96, 80))
    pts = grid.points
    lp = SkewTarget([-3.0, 1.0, -1.0, -1.0, -1.0, -1.0]).log_lik_batch(pts)
    lq = gaussian_logdensity_fn(np.array([-0.5, 0.2]), np.array([[1.2, 0.3], [0.3, 0.9]]))(pts)
    # "q-to-p" only swaps the roles of the two value arrays.
    assert kld_numerical_2d(lp, lq, grid, "q-to-p") == kld_numerical_2d(lq, lp, grid, "p-to-q")
    with pytest.raises(DimensionError):
        kld_numerical_2d(lp[:-1], lq, grid, "p-to-q")


def test_grid_validation_and_weights():
    with pytest.raises(ConfigError):
        Grid2D.build(resolution=32)
    with pytest.raises(ConfigError):
        Grid2D.build(bounds=((0.0, 0.0), (-1.0, 1.0)))
    grid = Grid2D.build(bounds=((0.0, 1.0), (0.0, 2.0)), resolution=(64, 128))
    # Trapezoidal weights integrate a constant exactly to the area.
    assert abs(grid.integrate(np.ones(64 * 128)) - 2.0) < 1e-12
    assert grid.points.shape == (64 * 128, 2)


# ------------------------------------------------------------------ predictive


def _small_blr(seed=0):
    x, y = synth_regression_data(25, seed=seed)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=4)
    return x, y, RbfRegressionModel(x, y, design)


def test_predictive_mean_approaches_mean_prediction():
    x, y, model = _small_blr()
    exact = exact_blr_posterior(model.design_matrix, y, 0.5, 25.0)
    factor = np.linalg.cholesky(exact.cov)
    post = VariationalPosterior(exact.mean, factor)
    grid = np.linspace(-5.0, 5.0, 9)
    preds = model.predict_batch(post.sample(100_000, np.random.default_rng(0)), grid)
    mean, var = preds.mean(axis=0), preds.var(axis=0)
    # For a linear model the predictive mean is the prediction at mu; with
    # 1e5 draws the Monte-Carlo error is within three standard errors.
    centre = model.predict_batch(post.mu[None, :], grid)[0]
    se = np.sqrt(var / 100_000)
    assert np.all(np.abs(mean - centre) < 3.0 * se + 1e-12), (
        f"max gap {np.max(np.abs(mean - centre))}"
    )
    assert np.all(var >= 0.0)


def test_predictive_classification_layout():
    x, labels = synth_classification_data(2, 30, seed=2)
    design = RbfDesign.from_inputs(x, 2.0, n_centres=3)
    model = LogisticModel(x, labels, design)
    post = VariationalPosterior(
        0.1 * np.ones(model.dim), 0.05 * np.eye(model.dim)
    )
    probs = model.predict_batch(post.sample(64, np.random.default_rng(1)), x)
    assert probs.shape == (64, 30, 2)
    assert np.max(np.abs(probs.sum(axis=2) - 1.0)) < 1e-12
    assert np.max(np.abs(probs.mean(axis=0).sum(axis=1) - 1.0)) < 1e-12


# --------------------------------------------------------------------- metrics


class _FixedPredictions:
    """A model whose predictions are the same array under every draw."""

    def __init__(self, predictions):
        self._p = np.asarray(predictions, dtype=float)

    def predict_batch(self, w_batch, inputs):
        return np.broadcast_to(self._p, (len(w_batch),) + self._p.shape)


_ONE_PARAMETER = VariationalPosterior(np.zeros(1), np.eye(1))


def test_accuracy_values_and_tie_break():
    model = _FixedPredictions([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    inputs = np.zeros((3, 2))
    assert mc_accuracy(_ONE_PARAMETER, model, inputs, [0, 1, 0]) == 1.0
    # Ties go to the lowest class index.
    assert mc_accuracy(_ONE_PARAMETER, model, inputs, [0, 1, 1]) == pytest.approx(2.0 / 3.0)
    with pytest.raises(DimensionError):
        mc_accuracy(_ONE_PARAMETER, model, inputs, [0, 1])


def test_accuracy_random_guessing_level():
    rng = np.random.default_rng(0)
    probs = rng.uniform(size=(10_000, 2))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 2, 10_000)
    score = mc_accuracy(_ONE_PARAMETER, _FixedPredictions(probs), probs, labels)
    assert abs(score - 0.5) < 0.02


def test_mse_values():
    def score(predictions, targets):
        model = _FixedPredictions(predictions)
        rng = np.random.default_rng(0)
        return _mean_draw_mse(_ONE_PARAMETER, model, np.zeros(2), targets, rng)

    assert score([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert score([0.0, 4.0], [0.0, 0.0]) == 8.0
    with pytest.raises(DimensionError):
        score([1.0, 2.0], [1.0])


def test_reconstruction_error_values():
    y = np.array([3.0, 4.0])
    assert reconstruction_error(y, y) == 0.0
    # A zero reconstruction leaves the full signal as error.
    assert reconstruction_error(y, np.zeros(2)) == 1.0
    assert reconstruction_error(y, 2.0 * y) == 1.0
    with pytest.raises(ValueError):
        reconstruction_error(np.zeros(2), y)
    with pytest.raises(DimensionError):
        reconstruction_error(y, np.zeros(3))
