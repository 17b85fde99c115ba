"""Alternating fit loop: recovery of known optima, traces, monitoring."""

import numpy as np
import pytest

from conftest import PriorOnlyModel
from fsvi import (
    FitConfig,
    Hyperparameters,
    exact_blr_posterior,
    fit,
    fit_cauchy_ppca,
    monitor_generalisation,
    synth_image_data,
)
from fsvi.exceptions import (
    ConfigError,
    InsufficientDataError,
    NumericalFailureError,
)
from fsvi.models import (
    GaussianTarget,
    RbfDesign,
    RbfRegressionModel,
    SoftmaxModel,
    one_hot,
    synth_classification_data,
    synth_regression_data,
)
from fsvi.models.base import TargetModel


class NegInfModel(TargetModel):
    """Log-likelihood is -inf everywhere; any fit must fail at iteration zero."""

    prior = "flat"
    dim = 2

    def log_lik_and_grad_batch(self, w_batch):
        w = np.asarray(w_batch, dtype=float)
        return np.full(w.shape[0], -np.inf), np.zeros_like(w)


def test_prior_only_fit_recovers_the_prior():
    model = PriorOnlyModel(2)
    config = FitConfig(
        n_samples=8, max_iter=60, tol=1e-12, fix_alpha=True, init_alpha=1.0
    )
    report = fit(model, config, seed=0)
    assert np.max(np.abs(report.posterior.mu)) < 1e-4, (
        f"mean should collapse to zero, got {report.posterior.mu}"
    )
    cov = report.posterior.covariance()
    assert np.max(np.abs(cov - np.eye(2))) < 1e-3, f"covariance {cov}"
    final_bound = report.trace[-1][1]
    assert abs(final_bound) < 1e-6, f"bound should approach zero, got {final_bound}"


def test_conjugate_regression_matches_exact_posterior():
    x, y = synth_regression_data(40, seed=2)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=5)
    model = RbfRegressionModel(x, y, design)
    alpha, beta = 0.7, 25.0
    config = FitConfig(
        n_samples=200,
        max_iter=200,
        tol=1e-7,
        fix_alpha=True,
        fix_beta=True,
        init_alpha=alpha,
        init_beta=beta,
    )
    report = fit(model, config, seed=0)
    exact = exact_blr_posterior(model.design_matrix, y, alpha, beta)
    gap = np.max(np.abs(report.posterior.mu - exact.mean))
    assert gap < 0.05, f"fitted mean deviates from the exact posterior by {gap}"
    cov_gap = np.linalg.norm(report.posterior.covariance() - exact.covariance)
    assert cov_gap < 0.05, f"covariance Frobenius gap {cov_gap}"


def test_fit_is_deterministic():
    x, y = synth_regression_data(15, seed=3)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=3)
    model = RbfRegressionModel(x, y, design)
    config = FitConfig(n_samples=20, max_iter=10)
    a = fit(model, config, seed=5)
    b = fit(model, FitConfig(n_samples=20, max_iter=10), seed=5)
    assert np.array_equal(a.posterior.mu, b.posterior.mu)
    assert np.array_equal(a.posterior.L, b.posterior.L)
    assert a.trace == b.trace
    c = fit(model, FitConfig(n_samples=20, max_iter=10), seed=6)
    assert not np.array_equal(a.posterior.mu, c.posterior.mu)


def test_trace_invariants():
    x, y = synth_regression_data(12, seed=1)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=3)
    model = RbfRegressionModel(x, y, design)
    report = fit(model, FitConfig(n_samples=15, max_iter=25), seed=0)
    assert len(report.trace) >= 1
    assert report.iterations == len(report.trace)
    assert report.iterations <= 25
    indices = [row[0] for row in report.trace]
    assert indices == list(range(1, report.iterations + 1))
    values = np.asarray([(row[1], row[2]) for row in report.trace])
    assert np.all(np.isfinite(values))
    if report.converged:
        assert abs(report.trace[-1][1] - report.trace[-2][1]) < 1e-4


def test_training_bound_mostly_increases():
    model = GaussianTarget([0.3, -0.2], [[1.0, 0.3], [0.3, 0.8]])
    report = fit(model, FitConfig(n_samples=30, max_iter=40, tol=1e-10), seed=1)
    train = np.asarray([row[1] for row in report.trace])
    assert train[-1] > train[0], "fit made no progress on the bound"
    assert not report.bound_decreased, "bound fell between outer iterations"


def test_gaussian_target_reaches_draw_conditional_optimum():
    mean = np.array([0.3, -0.2])
    cov = np.array([[1.0, 0.3], [0.3, 0.8]])
    report = fit(
        GaussianTarget(mean, cov),
        FitConfig(n_samples=50, max_iter=300, tol=1e-10),
        seed=0,
    )
    # With fixed draws the optimum solves mu + L zbar = m and L Chat L^T =
    # Sigma, zbar and Chat being the draw mean and covariance; both follow
    # from differentiating the quadratic draw-averaged objective.
    z = report.samples.draws
    zbar = z.mean(axis=0)
    centred = z - zbar
    chat = centred.T @ centred / z.shape[0]
    post = report.posterior
    mu_gap = np.max(np.abs(post.mu + post.L @ zbar - mean))
    assert mu_gap < 1e-4, f"draw-conditional mean condition violated by {mu_gap}"
    cov_gap = np.max(np.abs(post.L @ chat @ post.L.T - cov))
    assert cov_gap < 1e-4, f"draw-conditional factor condition violated by {cov_gap}"
    # The gap to the true target shrinks as draws grow.
    big = fit(
        GaussianTarget(mean, cov),
        FitConfig(n_samples=4000, max_iter=300, tol=1e-10),
        seed=0,
    )
    assert np.max(np.abs(big.posterior.mu - mean)) < 0.05
    assert np.max(np.abs(big.posterior.covariance() - cov)) < 0.08


def test_non_finite_bound_raises_at_iteration_zero():
    with pytest.raises(NumericalFailureError) as excinfo:
        fit(NegInfModel(), FitConfig(n_samples=5, max_iter=5), seed=0)
    assert excinfo.value.iteration == 0


def test_softmax_factor_is_block_diagonal():
    x, labels = synth_classification_data(3, 12, seed=0)
    design = RbfDesign.from_inputs(x, 2.0, n_centres=2)
    model = SoftmaxModel(x, one_hot(labels, 3), design)
    report = fit(model, FitConfig(n_samples=10, max_iter=3), seed=0)
    m = model.dim
    block = design.n_features
    assert report.posterior.L.shape == (3, block, block)
    factor = report.posterior.dense_factor()
    assert factor.shape == (m, m)
    for i in range(m):
        for j in range(m):
            if i // block != j // block:
                assert factor[i, j] == 0.0, f"off-block entry at ({i}, {j})"


def test_fit_config_validation():
    with pytest.raises(ConfigError):
        FitConfig(n_samples=0)
    with pytest.raises(ConfigError):
        FitConfig(max_iter=0)
    with pytest.raises(ConfigError):
        FitConfig(tol=-1.0)
    with pytest.raises(ConfigError):
        FitConfig(init_alpha=0.0)
    with pytest.raises(ConfigError):
        FitConfig(n_holdout=0)
    # JSON integers are unbounded: 10**400 overflows a float.
    for tol in (float("nan"), float("inf"), 10**400):
        with pytest.raises(ConfigError, match="tol must be finite"):
            FitConfig(tol=tol)


def test_holdout_defaults_to_five_times_draws():
    config = FitConfig(n_samples=30)
    assert config.n_holdout == 150


# ---------------------------------------------------------------- monitoring


def _trace(train, hold):
    return [(i + 1, t, h) for i, (t, h) in enumerate(zip(train, hold))]


def test_monitor_ok_when_holdout_tracks_training():
    train = np.linspace(-100.0, -10.0, 15)
    hold = np.linspace(-110.0, -20.0, 15)
    assert monitor_generalisation(_trace(train, hold)) == "ok"


def test_monitor_flags_holdout_drop():
    train = np.linspace(-100.0, -10.0, 20)
    hold = np.concatenate([np.linspace(-50.0, -20.0, 10), np.linspace(-21.0, -45.0, 10)])
    assert monitor_generalisation(_trace(train, hold)) == "overfitting"


def test_monitor_ignores_drop_within_margin():
    train = np.linspace(-100.0, -10.0, 12)
    hold = -30.0 + 0.001 * np.sin(np.arange(12.0))
    # The early climb from -60 sets a 30-wide range, so the one-percent
    # margin is 0.3 and the later 0.2 dip stays inside it.
    hold[5] = -30.2
    hold[0] = -60.0
    assert monitor_generalisation(_trace(train, hold)) == "ok"


def test_monitor_requires_both_to_diverge():
    # Holdout falls while training also falls: not the overfitting pattern.
    train = np.concatenate([np.linspace(-100.0, -10.0, 10), np.linspace(-10.0, -60.0, 10)])
    hold = np.concatenate([np.linspace(-110.0, -20.0, 10), np.linspace(-20.0, -70.0, 10)])
    assert monitor_generalisation(_trace(train, hold)) == "ok"


def test_monitor_needs_enough_iterations():
    train = np.linspace(-5.0, -1.0, 9)
    with pytest.raises(InsufficientDataError):
        monitor_generalisation(_trace(train, train))


# ------------------------------------------------------------ ppca warm start


def test_fit_cauchy_ppca_smoke():
    clean, _, _ = synth_image_data(24, seed=0, shape=(4, 5), latent_dim=2)
    config = FitConfig(n_samples=10, max_iter=4)
    report, fitted = fit_cauchy_ppca(clean, 2, config, seed=0)
    assert fitted.params.loading.shape == (20, 2)
    assert fitted.params.scale > 0.0
    latents = report.posterior.mu.reshape(-1, 2)
    assert latents.shape == (24, 2)
    assert report.posterior.blocks.shape == (24, 2, 2)
    recon = fitted.reconstruct(latents)
    # Low-rank images with mild noise: the robust reconstruction should sit
    # well inside the pixel scale.
    assert float(np.mean(np.abs(recon - clean))) < 10.0
