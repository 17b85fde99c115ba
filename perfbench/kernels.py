"""Fixed-shape layer timings, taken at a workload's own shapes.

Each kernel is checked against a reference path before it is timed, then
timed as the median of several repeats. The ROADMAP's layer list maps to:

- kernel.model_ms: one batched log-likelihood value plus gradient;
- kernel.bound_ms: lower_bound_fs + grad_mu + grad_L;
- kernel.scg_block_ms: one 10-iteration SCG block on the mean;
- kernel.outer_iter_ms: fit with max_iter=1;
- kernel.laplace_ms: laplace_approximation with its defaults;
- kernel.ppca_outer_iter_ms.n400: one Cauchy-PPCA outer iteration at
  N=400 (M=800), the second point of an N-series for the posterior factor.
"""

import statistics
import time

import numpy as np

from fsvi import (
    FitConfig,
    SampleSet,
    VariationalPosterior,
    corrupt_pixels,
    fit,
    grad_L,
    grad_mu,
    laplace_approximation,
    log_joint,
    lower_bound_fs,
    scg_maximise,
    synth_image_data,
)
from fsvi.models import GaussianNoiseModel, RbfRegressionModel

import workloads

SCG_BLOCK_ITERS = 10
PPCA_SERIES_N = 400
_MIN_REPEATS = 3
_MAX_REPEATS = 25
_MIN_TOTAL_S = 0.3
_MAX_TOTAL_S = 3.0


def median_ms(fn, check=None):
    """Median wall time of fn() in ms. The first call's result is passed to
    `check`.

    Cheap kernels repeat until at least three calls and 0.3 s; a kernel
    whose calls take seconds repeats only while the total stays under 3 s
    (at least once), which bounds the length of a traced run.
    """
    times = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t)
        if check is not None and len(times) == 1:
            check(result)
        elapsed = time.perf_counter() - start
        if len(times) >= _MAX_REPEATS or elapsed + times[-1] > _MAX_TOTAL_S:
            break
        if len(times) >= _MIN_REPEATS and elapsed >= _MIN_TOTAL_S:
            break
    return 1e3 * statistics.median(times)


def _close(a, b, rtol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b))))
    return bool(np.all(np.abs(a - b) <= rtol * scale))


def _loglik_fns(model, hyper):
    if isinstance(model, GaussianNoiseModel):
        return (
            lambda w: model.log_lik_batch(w, hyper.beta),
            lambda w: model.grad_log_lik_batch(w, hyper.beta),
            lambda w: model.log_lik(w, hyper.beta),
            lambda w: model.grad_log_lik(w, hyper.beta),
        )
    return (model.log_lik_batch, model.grad_log_lik_batch, model.log_lik,
            model.grad_log_lik)


def _start_posterior(case):
    m = case.model.dim
    return VariationalPosterior(case.mu0, case.fit_config.init_factor_scale * np.eye(m))


def _own_bound(model, post, hyper, point_values):
    """The bound from per-point log-likelihoods and a numpy KL / entropy."""
    m = post.dim
    logdet = np.linalg.slogdet(post.L)[1]
    if model.prior == "flat":
        return np.mean(point_values) + 0.5 * m * (np.log(2 * np.pi) + 1.0) + logdet
    a = hyper.alpha
    sq = np.sum(post.L**2) + post.mu @ post.mu
    return np.mean(point_values) - 0.5 * (a * sq - m - m * np.log(a) - 2.0 * logdet)


def _check_outer_iter(report, label, problems):
    if report.iterations != 1 or len(report.trace) != 1:
        problems.append(f"{label}: expected one outer iteration, got {report.iterations}")
        return
    value = lower_bound_fs(report.model, report.posterior, report.hyper, report.samples)
    if not (np.isfinite(value) and value == report.trace[0][1]):
        problems.append(f"{label}: traced bound {report.trace[0][1]!r} != "
                        f"recomputed {value!r}")


def measure(case, seed, problems):
    """kernel.* metrics for one KernelCase; check failures go to `problems`."""
    model, hyper = case.model, case.hyper
    rng = np.random.default_rng(seed)
    samples = SampleSet.generate(case.n_samples, model.dim, seed)
    post = _start_posterior(case)
    w = post.transform(samples.draws)
    out = {}

    # Batched model evaluation against a loop over the per-point methods.
    batch_value, batch_grad, point_value, point_grad = _loglik_fns(model, hyper)
    ref_values = np.array([point_value(row) for row in w])
    ref_grads = np.stack([point_grad(row) for row in w])

    def check_model(result):
        if not (_close(result[0], ref_values, 1e-9) and _close(result[1], ref_grads, 1e-9)):
            problems.append("kernel.model: batched evaluation differs from per-point loop")

    out["kernel.model_ms"] = median_ms(lambda: (batch_value(w), batch_grad(w)), check_model)

    # Bound value against numpy, gradients against central differences.
    def bound_at(mu, factor):
        return lower_bound_fs(model, VariationalPosterior(mu, factor), hyper, samples)

    def check_bound(result):
        value, g_mu, g_l = result
        own = _own_bound(model, post, hyper, ref_values)
        if not _close(value, own, 1e-9):
            problems.append(f"kernel.bound: lower_bound_fs {value!r} != numpy {own!r}")
        d_mu = rng.standard_normal(model.dim)
        d_l = rng.standard_normal(post.L.shape) * (post.L != 0.0)
        eps = 1e-6
        for label, g, d, f in (
            ("mu", g_mu, d_mu, lambda t: bound_at(post.mu + t * d_mu, post.L)),
            ("L", g_l, d_l, lambda t: bound_at(post.mu, post.L + t * d_l)),
        ):
            fd = (f(eps) - f(-eps)) / (2.0 * eps)
            an = float(np.sum(g * d))
            if not abs(fd - an) <= 1e-4 * max(abs(an), 1.0):
                problems.append(f"kernel.bound: grad_{label} directional derivative "
                                f"{an!r} vs finite difference {fd!r}")

    out["kernel.bound_ms"] = median_ms(lambda: (
        lower_bound_fs(model, post, hyper, samples),
        grad_mu(model, post, hyper, samples),
        grad_L(model, post, hyper, samples),
    ), check_bound)

    # One SCG block on the mean, through the public bound functions.
    def objective(x):
        cand = VariationalPosterior(x, post.L)
        return (lower_bound_fs(model, cand, hyper, samples),
                grad_mu(model, cand, hyper, samples))

    def check_scg(res):
        start_value = bound_at(post.mu, post.L)
        if not (res.value == bound_at(res.x, post.L) and res.value >= start_value):
            problems.append(f"kernel.scg_block: value {res.value!r} from start "
                            f"{start_value!r} does not match the bound at x")

    out["kernel.scg_block_ms"] = median_ms(lambda: scg_maximise(
        objective, post.mu, max_iters=SCG_BLOCK_ITERS, grad_tol=1e-9), check_scg)

    out["kernel.outer_iter_ms"] = median_ms(
        lambda: fit(model, case.fit_config, seed=seed),
        lambda report: _check_outer_iter(report, "kernel.outer_iter", problems))

    out["kernel.laplace_ms"] = median_ms(
        lambda: laplace_approximation(model, hyper, start=case.laplace_start, seed=seed),
        lambda lap: _check_laplace(model, hyper, lap, rng, problems))

    out["kernel.ppca_outer_iter_ms.n400"] = _ppca_series_point(seed, problems)
    return out


def _check_laplace(model, hyper, lap, rng, problems):
    if isinstance(model, RbfRegressionModel):
        # Gaussian posterior: the Laplace mean is the conjugate mean.
        exact = workloads.conjugate_mean(model.design_matrix, model.targets,
                                         hyper.alpha, hyper.beta)
        if not _close(lap.mean, exact, 1e-6):
            problems.append("kernel.laplace: mode differs from the conjugate mean")
        return
    at_mode = log_joint(model, lap.mean, hyper)
    for _ in range(8):
        step = 1e-3 * rng.standard_normal(model.dim) * (1.0 + np.abs(lap.mean))
        if log_joint(model, lap.mean + step, hyper) > at_mode + 1e-9 * abs(at_mode):
            problems.append("kernel.laplace: a nearby point beats the returned mode")
            return


def _ppca_series_point(seed, problems):
    clean, _, _ = synth_image_data(PPCA_SERIES_N, seed, workloads.IMAGE_SHAPE,
                                   workloads.LATENT_DIM)
    train = corrupt_pixels(clean, workloads.CORRUPTION, seed + 1)
    start = workloads.ppca_start(train)
    # The default init_factor_scale of 0.1 gives |det L| = 1e-800 at M=800,
    # which the posterior rejects as singular (|det L| < 1e-300), so the
    # series point starts from the identity factor instead.
    config = FitConfig(n_samples=20, max_iter=1, fix_alpha=True, init_alpha=1.0,
                       init_mu=start["init_mu"], init_factor_scale=1.0)
    return median_ms(
        lambda: fit(start["model"], config, seed=seed),
        lambda report: _check_outer_iter(report, "kernel.ppca_outer_iter.n400", problems))
