"""Exact conjugate regression, the Laplace approximation, and ML PPCA."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from conftest import QuarticTarget
from fsvi import (
    Hyperparameters,
    baselines,
    exact_blr_posterior,
    laplace_approximation,
    log_joint,
    ml_ppca_fit,
)
from fsvi.exceptions import (
    DimensionError,
    FsviError,
    IndefiniteHessianError,
    RankError,
)
from fsvi.experiments import BIVARIATE_COEFFS
from fsvi.models import (
    GaussianTarget,
    RbfDesign,
    RbfRegressionModel,
    SkewTarget,
    synth_regression_data,
)
from references import ml_ppca_loglik


# ---------------------------------------------------------- exact regression


def test_blr_mean_solves_normal_equations():
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((25, 6))
    y = rng.standard_normal(25)
    alpha, beta = 0.4, 3.0
    post = exact_blr_posterior(phi, y, alpha, beta)
    precision = alpha * np.eye(6) + beta * phi.T @ phi
    resid = precision @ post.mean - beta * phi.T @ y
    assert np.max(np.abs(resid)) < 1e-10, f"normal equations violated by {resid}"
    assert np.max(np.abs(precision @ post.cov - np.eye(6))) < 1e-10


def test_blr_scalar_case():
    post = exact_blr_posterior(np.array([[1.0]]), np.array([1.0]), 1.0, 1.0)
    assert abs(post.mean[0] - 0.5) < 1e-14
    assert abs(post.cov[0, 0] - 0.5) < 1e-14


def test_blr_prior_limit_as_noise_dominates():
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    post = exact_blr_posterior(phi, y, 2.0, 1e-12)
    assert np.max(np.abs(post.mean)) < 1e-9
    assert np.max(np.abs(post.cov - np.eye(3) / 2.0)) < 1e-9


def test_blr_validation():
    with pytest.raises(DimensionError):
        exact_blr_posterior(np.zeros((4, 2)), np.zeros(5), 1.0, 1.0)
    with pytest.raises(ValueError) as excinfo:
        exact_blr_posterior(np.zeros((4, 2)), np.zeros(4), -1.0, 1.0)
    assert isinstance(excinfo.value, FsviError)


def test_exact_posterior_logpdf_matches_scipy():
    rng = np.random.default_rng(2)
    phi, y = rng.standard_normal((8, 2)), rng.standard_normal(8)
    post = exact_blr_posterior(phi, y, 1.0, 2.0)
    pts = post.mean + rng.standard_normal((6, 2))
    ref = multivariate_normal(post.mean, post.cov).logpdf(pts)
    assert np.max(np.abs(post.log_lik_batch(pts) - ref)) < 1e-12


# ------------------------------------------------------------------- log joint


def test_log_joint_adds_the_prior():
    x, y = synth_regression_data(8, seed=0)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=2)
    model = RbfRegressionModel(x, y, design)
    hyper = Hyperparameters(0.5, 2.0)
    w = np.full(model.dim, 0.3)
    expected = model.log_lik(w, 2.0) + (
        0.5 * model.dim * (np.log(0.5) - np.log(2.0 * np.pi))
        - 0.25 * float(w @ w)
    )
    assert abs(log_joint(model, w, hyper) - expected) < 1e-12


def test_log_joint_requires_hyperparameters():
    x, y = synth_regression_data(8, seed=0)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=2)
    model = RbfRegressionModel(x, y, design)
    with pytest.raises(ValueError) as excinfo:
        log_joint(model, np.zeros(model.dim))
    assert isinstance(excinfo.value, FsviError)
    with pytest.raises(ValueError) as excinfo:
        log_joint(model, np.zeros(model.dim), Hyperparameters(alpha=None, beta=2.0))
    assert isinstance(excinfo.value, FsviError)


# --------------------------------------------------------------------- laplace


def test_laplace_is_exact_on_a_gaussian():
    mean = np.array([0.3, -0.2])
    cov = np.array([[1.0, 0.3], [0.3, 0.8]])
    post = laplace_approximation(GaussianTarget(mean, cov), Hyperparameters(None))
    assert np.max(np.abs(post.mean - mean)) < 1e-6
    assert np.max(np.abs(post.cov - cov)) < 1e-5


def test_laplace_finds_distant_mode_through_restarts():
    mean = np.array([6.0, -5.0, 4.0])
    cov = np.diag([0.5, 1.0, 2.0])
    post = laplace_approximation(
        GaussianTarget(mean, cov), Hyperparameters(None), seed=3
    )
    assert np.max(np.abs(post.mean - mean)) < 1e-6


# Ceilings on the model passes Laplace makes over seeds 0-2, per bivariate
# target (222-683 passes per seed). A mode search that stalls with its
# gradient norm just above grad_tol and runs out its budget instead of
# stopping makes 12,000-14,500.
_LAPLACE_PASS_CEILINGS = (1250, 1300, 2000)


class _CountingSkewTarget(SkewTarget):
    passes = 0

    def log_lik_and_grad_batch(self, w_batch):
        self.passes += 1
        return super().log_lik_and_grad_batch(w_batch)


@pytest.mark.parametrize("index", range(len(BIVARIATE_COEFFS)))
def test_laplace_model_passes_on_the_bivariate_targets(index):
    passes = 0
    for seed in range(3):
        target = _CountingSkewTarget(BIVARIATE_COEFFS[index])
        laplace_approximation(target, seed=seed)
        passes += target.passes
    assert passes <= _LAPLACE_PASS_CEILINGS[index], passes


def test_laplace_rejects_flat_curvature():
    with pytest.raises(IndefiniteHessianError) as excinfo:
        laplace_approximation(QuarticTarget(), Hyperparameters(None))
    assert excinfo.value.eigenvalues is not None


def test_laplace_rejects_non_finite_curvature(monkeypatch):
    # NaN fails every comparison, so a bare `min <= floor` test lets it by.
    def nan_hessian(grad_fn, w, step):
        return np.full((w.size, w.size), np.nan)

    monkeypatch.setattr(baselines, "_fd_hessian", nan_hessian)
    with pytest.raises(IndefiniteHessianError) as excinfo:
        laplace_approximation(GaussianTarget([0.0, 0.0], np.eye(2)))
    assert excinfo.value.exit_code == 4


def test_laplace_on_conjugate_regression_matches_exact():
    x, y = synth_regression_data(30, seed=4)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=4)
    model = RbfRegressionModel(x, y, design)
    alpha, beta = 1.0, 25.0
    post = laplace_approximation(model, Hyperparameters(alpha, beta))
    exact = exact_blr_posterior(model.design_matrix, y, alpha, beta)
    # The log joint is quadratic, so mode and curvature are the posterior
    # itself up to finite-difference error in the Hessian.
    assert np.max(np.abs(post.mean - exact.mean)) < 1e-6
    assert np.max(np.abs(post.cov - exact.cov)) < 1e-5


def test_laplace_needs_beta_for_noise_models():
    x, y = synth_regression_data(8, seed=5)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=2)
    model = RbfRegressionModel(x, y, design)
    with pytest.raises(ValueError) as excinfo:
        laplace_approximation(model, Hyperparameters(alpha=1.0, beta=None))
    assert isinstance(excinfo.value, FsviError)


# --------------------------------------------------------------------- ml ppca


def test_ppca_recovers_noiseless_low_rank_data():
    rng = np.random.default_rng(6)
    loading = rng.standard_normal((7, 2))
    latents = rng.standard_normal((40, 2))
    data = latents @ loading.T + 3.0
    result = ml_ppca_fit(data, 2)
    assert result.noise_variance < 1e-12
    recon = result.reconstruct(data)
    assert np.max(np.abs(recon - data)) < 1e-8


def test_ppca_isotropic_data_has_no_preferred_direction():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((20_000, 5))
    result = ml_ppca_fit(data, 1)
    # Every eigenvalue of the sample covariance is near one, so the top
    # loading magnitude (eigenvalue minus noise) is close to zero.
    assert float(result.loading.ravel() @ result.loading.ravel()) < 0.15


def test_ppca_is_a_likelihood_optimum():
    rng = np.random.default_rng(8)
    loading = rng.standard_normal((5, 2))
    data = rng.standard_normal((60, 2)) @ loading.T + 0.3 * rng.standard_normal((60, 5))
    result = ml_ppca_fit(data, 2)

    def loglik(loading):
        return ml_ppca_loglik(data, loading, result.offset, result.noise_variance)

    base = loglik(result.loading)
    for k in range(20):
        noise = 1e-3 * rng.standard_normal(result.loading.shape)
        assert loglik(result.loading + noise) <= base + 1e-9, (
            f"perturbation {k} beat the closed-form solution"
        )


def test_ppca_rank_validation():
    with pytest.raises(RankError):
        ml_ppca_fit(np.zeros((10, 5)), 5)
    with pytest.raises(RankError):
        ml_ppca_fit(np.random.default_rng(0).standard_normal((2, 5)), 3)
    with pytest.raises(DimensionError):
        ml_ppca_fit(np.zeros(10), 2)


def test_ppca_reconstruction_improves_with_rank():
    rng = np.random.default_rng(9)
    loading = rng.standard_normal((6, 3))
    data = rng.standard_normal((80, 3)) @ loading.T + 0.2 * rng.standard_normal((80, 6))
    errors = []
    for q in (1, 2, 3, 4, 5):
        recon = ml_ppca_fit(data, q).reconstruct(data)
        errors.append(float(np.mean((recon - data) ** 2)))
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:])), (
        f"reconstruction error not monotone in rank: {errors}"
    )
