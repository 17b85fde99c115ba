"""Alternating fit loop: recovery of known optima, traces, monitoring."""

import importlib

import numpy as np
import pytest

from conftest import PriorOnlyModel
from fsvi import (
    FitConfig,
    Hyperparameters,
    SampleSet,
    VariationalPosterior,
    exact_blr_posterior,
    fit,
    fit_cauchy_ppca,
    fit_steps,
    lower_bound_fs,
    ml_ppca_fit,
    monitor_generalisation,
    synth_image_data,
)
from fsvi.bound import mu_objective
from fsvi.exceptions import (
    ConfigError,
    InsufficientDataError,
    NumericalFailureError,
)
from fsvi.fit import _optimise
from fsvi.models import (
    CauchyPpcaModel,
    GaussianTarget,
    RbfDesign,
    RbfRegressionModel,
    SoftmaxModel,
    one_hot,
    synth_classification_data,
    synth_regression_data,
)
from fsvi.models.base import TargetModel

# The package re-exports the function `fit` under the submodule's name.
fit_module = importlib.import_module("fsvi.fit")


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
    cov_gap = np.linalg.norm(report.posterior.covariance() - exact.cov)
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


def test_mean_block_factors_its_fixed_factor_once(monkeypatch):
    # L is fixed in the mean block: its log-determinant is computed when
    # the block's objective is built, not at each of its evaluations.
    x, y = synth_regression_data(60, 0, noise_sd=0.2)
    model = RbfRegressionModel(x, y, RbfDesign.from_inputs(x, 1.0, n_centres=20))
    rng = np.random.default_rng(0)
    post = VariationalPosterior(rng.standard_normal(model.dim), 0.1 * np.eye(model.dim))
    samples = SampleSet.generate(100, model.dim, seed=1)
    calls = []
    slogdet = np.linalg.slogdet

    def counted(a):
        calls.append(a.shape)
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", counted)
    objective = mu_objective(model, post, Hyperparameters(0.1, 0.1), samples)
    moved = _optimise(objective, post.mu, 10)
    assert not np.array_equal(moved, post.mu)
    assert len(calls) <= 1


def test_non_finite_bound_raises_at_iteration_zero():
    with pytest.raises(NumericalFailureError) as excinfo:
        fit(NegInfModel(), FitConfig(n_samples=5, max_iter=5), seed=0)
    assert excinfo.value.iteration == 0
    assert str(excinfo.value) == "bound non-finite at start"


def test_fit_steps_are_the_fit_without_its_held_out_scores():
    model = GaussianTarget([0.3, -0.2], [[1.0, 0.3], [0.3, 0.8]])

    def steps(max_iter, tol):
        config = FitConfig(n_samples=10, max_iter=max_iter, tol=tol)
        return list(fit_steps(model, config, seed=1)), fit(model, config, seed=1)

    free, report = steps(100, 1e-6)
    assert [s.iteration for s in free] == list(range(len(free)))
    assert [s.bound for s in free[1:]] == [row[1] for row in report.trace]
    last = free[-1]
    assert np.array_equal(last.posterior.mu, report.posterior.mu)
    assert np.array_equal(last.posterior.L, report.posterior.L)
    assert last.converged is report.converged is True
    assert [s.converged for s in free] == [False] * (len(free) - 1) + [True]
    assert report.bound_decreased == any(
        b.bound < a.bound for a, b in zip(free, free[1:])
    )

    # The same tolerance met on the last allowed iteration, then missed
    # one iteration short of it.
    n = last.iteration
    assert steps(n, 1e-6)[0][-1].converged
    short, report = steps(n - 1, 1e-6)
    assert len(short) == n and not short[-1].converged and not report.converged
    # At tol=0 no step converges.
    assert not any(s.converged for s in steps(n + 5, 0.0)[0])

    # At max_iter=1 the one move decides.
    first, _ = steps(1, 0.0)
    moved = abs(first[1].bound - first[0].bound)
    assert [s.converged for s in steps(1, 2.0 * moved)[0]] == [False, True]
    assert [s.converged for s in steps(1, 0.5 * moved)[0]] == [False, False]


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
    report, warm = fit_cauchy_ppca(clean, 2, config, seed=0)
    fitted = report.model
    assert np.array_equal(warm.loading, ml_ppca_fit(clean, 2).loading)
    assert fitted.params.loading.shape == (20, 2)
    assert fitted.params.scale > 0.0
    latents = report.posterior.mu.reshape(-1, 2)
    assert latents.shape == (24, 2)
    assert report.posterior.blocks.shape == (24, 2, 2)
    recon = fitted.reconstruct(latents)
    # Low-rank images with mild noise: the robust reconstruction should sit
    # well inside the pixel scale.
    assert float(np.mean(np.abs(recon - clean))) < 10.0


def test_cauchy_fit_probes_form_no_values_and_reuses_its_bound(monkeypatch):
    # The curvature probes take the gradient-only passes, which form no
    # per-draw log. The training bound is the next mean block's start
    # evaluation, so it costs no model pass of its own: outside the SCG
    # blocks the fit makes one training-draw pass at its start and one per
    # iteration, and each mean block one per evaluation but its start.
    # The counters below are not thread-safe. They hold because a 4 x 5
    # image's slab is below the split gate, so every pass runs on this
    # thread; on images of the denoising size the worker would call
    # `_value` too.
    clean, _, _ = synth_image_data(24, seed=0, shape=(4, 5), latent_dim=2)
    config = FitConfig(n_samples=10, max_iter=3, tol=0.0)
    counts = {"logs": 0, "probe_logs": 0, "probes": 0, "passes": 0, "in_blocks": 0}
    value_only_rows = []
    bound_rows = []

    value = CauchyPpcaModel._value

    def counted_value(self, denom, with_value=True):
        counts["logs"] += with_value
        return value(self, denom, with_value)

    monkeypatch.setattr(CauchyPpcaModel, "_value", counted_value)

    def counted_pass(name, probe):
        method = getattr(CauchyPpcaModel, name)

        def wrapped(self, w_batch):
            assert len(w_batch) == config.n_samples, name
            logs = counts["logs"]
            out = method(self, w_batch)
            counts["passes"] += 1
            if probe:
                counts["probes"] += 1
                counts["probe_logs"] += counts["logs"] - logs
            return out

        monkeypatch.setattr(CauchyPpcaModel, name, wrapped)

    for name in ("log_lik_and_grad_batch", "model_params_value_and_grad"):
        counted_pass(name, probe=False)
    for name in ("grad_log_lik_batch", "model_params_grad"):
        counted_pass(name, probe=True)

    log_lik_batch = CauchyPpcaModel.log_lik_batch

    def value_only(self, w_batch):
        value_only_rows.append(len(w_batch))
        return log_lik_batch(self, w_batch)

    monkeypatch.setattr(CauchyPpcaModel, "log_lik_batch", value_only)

    scg = fit_module.scg_maximise

    def counted_scg(*args, **kwargs):
        passes = counts["passes"]
        result = scg(*args, **kwargs)
        counts["in_blocks"] += counts["passes"] - passes
        if args[0].__qualname__.startswith("mu_objective."):
            assert kwargs["start"] is not None
            assert counts["passes"] - passes == result.n_evals - 1
        return result

    monkeypatch.setattr(fit_module, "scg_maximise", counted_scg)
    bound = fit_module.lower_bound_fs

    def counted_bound(model, post, hyper, samples):
        bound_rows.append(samples.size)
        return bound(model, post, hyper, samples)

    monkeypatch.setattr(fit_module, "lower_bound_fs", counted_bound)

    report, _ = fit_cauchy_ppca(clean, 2, config, seed=0)
    assert report.iterations == 3
    assert counts["probes"] > 0 and counts["probe_logs"] == 0
    assert counts["passes"] - counts["in_blocks"] == 1 + report.iterations
    # Only the held-out draws are scored apart from the blocks.
    assert bound_rows == value_only_rows == [config.n_holdout] * 3
    monkeypatch.undo()
    assert report.trace[-1][1] == lower_bound_fs(
        report.model, report.posterior, report.hyper, report.samples
    )


def test_model_params_trial_whose_scale_underflows_is_a_rejected_step():
    # exp(-800) is 0.0, a scale the model rejects; as a trial point of the
    # model-parameter block it is a rejected step, as at the factor barrier.
    clean, _, _ = synth_image_data(6, seed=0, shape=(4, 5), latent_dim=2)
    report, _ = fit_cauchy_ppca(clean, 2, FitConfig(n_samples=4, max_iter=1), seed=0)
    model = report.model
    w = report.posterior.transform(report.samples.draws)
    objective = fit_module._model_params_objective(model, w)
    theta = model.model_params
    assert np.isfinite(objective(theta)[0])
    theta[-1] = -800.0
    with pytest.raises(ConfigError, match="scale must be positive"):
        model.with_model_params(theta)
    value, grad = objective(theta)
    assert value == -np.inf and np.array_equal(grad, np.zeros_like(theta))
    assert np.isnan(objective.grad(theta)).all()
