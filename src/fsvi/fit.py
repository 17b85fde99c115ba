"""Alternating variational fit with fixed latent draws.

One outer iteration runs a short conjugate-gradient block on the posterior
mean, another on the posterior factor, then applies the closed-form
hyperparameter updates (and, for models that have them, a gradient block
on model parameters). The loop stops when the bound change falls below a
tolerance. `fit_steps` yields each iteration's state; `fit` drives it and
scores a second, larger draw set after each iteration, so generalisation
of the bound can be monitored afterwards.
"""

import sys
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .bound import (
    factor_objective,
    lower_bound_fs,
    mu_objective,
    update_alpha,
    update_beta,
)
from .exceptions import (
    ConfigError,
    InsufficientDataError,
    NumericalFailureError,
)
from .models.base import GaussianNoiseModel
from .posterior import Hyperparameters, SampleSet, VariationalPosterior
from .scg import scg_maximise

_INNER_GRAD_TOL = 1e-9
# Monitor verdict needs at least this many recorded iterations.
_MIN_MONITOR_ITERS = 10
# A held-out drop counts once it exceeds this fraction of the held-out range.
_MONITOR_MARGIN = 0.01


@dataclass
class FitConfig:
    """Knobs of the alternating fit; defaults follow the reference recipe."""

    n_samples: int = 100
    n_holdout: int | None = None  # defaults to 5 * n_samples
    max_iter: int = 1000
    inner_iters: int = 10
    tol: float = 1e-4
    init_alpha: float = 0.1
    init_beta: float = 0.1
    init_factor_scale: float = 0.1
    init_mu: np.ndarray | None = None
    fix_alpha: bool = False
    fix_beta: bool = False
    optimise_model_params: bool = True

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.n_holdout is None:
            self.n_holdout = 5 * self.n_samples
        if self.n_holdout < 1:
            raise ConfigError(f"n_holdout must be >= 1, got {self.n_holdout}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.inner_iters < 1:
            raise ConfigError(f"inner_iters must be >= 1, got {self.inner_iters}")
        # Compared, not converted: float() overflows on a huge int.
        if not 0.0 <= self.tol <= sys.float_info.max:
            raise ConfigError(f"tol must be finite and >= 0, got {self.tol}")
        if not self.init_alpha > 0.0:
            raise ConfigError(f"init_alpha must be positive, got {self.init_alpha}")
        if not self.init_beta > 0.0:
            raise ConfigError(f"init_beta must be positive, got {self.init_beta}")
        if not self.init_factor_scale > 0.0:
            raise ConfigError(
                f"init_factor_scale must be positive, got {self.init_factor_scale}"
            )


@dataclass
class FitReport:
    """Outcome of a fit: posterior, hyperparameters, and the bound trace.

    `trace` rows are (iteration, training bound, holdout bound), one per
    outer iteration, so `iterations` is the trace length.
    `bound_decreased` flags any outer iteration whose training bound fell
    below the previous one. `model` is the fitted model instance, which
    differs from the input only when model parameters were optimised.
    """

    posterior: VariationalPosterior
    hyper: Hyperparameters
    trace: list = field(repr=False)
    converged: bool
    bound_decreased: bool
    model: object = field(repr=False, default=None)
    samples: SampleSet = field(repr=False, default=None)

    @property
    def iterations(self):
        return len(self.trace)


def _optimise(objective, x0, iters, start=None):
    """Run one SCG block of `iters` iterations from x0; returns its end point.

    The curvature probes call the objective's gradient-only form,
    `objective.grad`; `start` is `objective(x0)` when the caller holds it.
    """
    return scg_maximise(
        objective, x0, max_iters=iters, grad_tol=_INNER_GRAD_TOL,
        grad=objective.grad, start=start,
    ).x


def _model_params_objective(model, w):
    """The mean log-likelihood over draws w and its model_params gradient.

    A trial that the model rejects as out of range (a Cauchy scale whose
    exp underflows to zero) is a rejected step, as at the factor barrier:
    it evaluates to (-inf, zero gradient) and its `grad` form to NaN.
    """

    def evaluate(theta, with_value):
        try:
            trial = model.with_model_params(theta)
        except ConfigError:
            return (-np.inf, np.zeros_like(theta)) if with_value else np.full_like(theta, np.nan)
        return trial.model_params_value_and_grad(w) if with_value else trial.model_params_grad(w)

    def objective(theta):
        return evaluate(theta, True)

    objective.grad = lambda theta: evaluate(theta, False)
    return objective


def _optimise_model_params(model, post, samples, iters):
    objective = _model_params_objective(model, post.transform(samples.draws))
    return model.with_model_params(_optimise(objective, model.model_params, iters))


FitStep = namedtuple(
    "FitStep", "iteration model posterior hyper bound converged samples holdout"
)


def fit_steps(model, config=None, seed=0):
    """Yield a `FitStep` at the start (iteration 0) and after each outer iteration.

    `bound` is the training bound; `converged` is set on a last step whose
    bound moved by less than `tol`. The draw sets, the initial mean, and
    therefore the whole trajectory are determined by `seed`. The held-out
    draws ride along unscored: `fit` scores them.
    """
    config = config or FitConfig()
    m = model.dim
    rng = np.random.default_rng(seed)

    if config.init_mu is not None:
        mu = np.asarray(config.init_mu, dtype=float).copy()
    else:
        mu = rng.standard_normal(m)
    k = model.n_posterior_blocks
    eye = np.eye(m) if k == 1 else np.tile(np.eye(m // k), (k, 1, 1))
    factor = config.init_factor_scale * eye

    alpha = config.init_alpha if model.prior == "gaussian" else None
    beta = config.init_beta if isinstance(model, GaussianNoiseModel) else None
    hyper = Hyperparameters(alpha=alpha, beta=beta)

    seed_train, seed_holdout = (int(s) for s in rng.integers(2**63, size=2))
    samples = SampleSet.generate(config.n_samples, m, seed_train)
    holdout = SampleSet.generate(config.n_holdout, m, seed_holdout)

    post = VariationalPosterior(mu, factor)
    has_model_params = (
        model.model_params is not None and config.optimise_model_params
    )

    iters = config.inner_iters
    for iteration in range(config.max_iter + 1):
        if iteration:
            mu = _optimise(objective, post.mu, iters, start)
            post = VariationalPosterior(mu, post.L)
            flat_l = _optimise(
                factor_objective(model, post, hyper, samples), post.L.ravel(), iters
            )
            post = VariationalPosterior(post.mu, flat_l.reshape(post.L.shape))
            if hyper.alpha is not None and not config.fix_alpha:
                hyper = replace(hyper, alpha=update_alpha(post))
            if hyper.beta is not None and not config.fix_beta:
                hyper = replace(hyper, beta=update_beta(model, post, samples))
            if has_model_params:
                model = _optimise_model_params(model, post, samples, iters)

        # The training bound is the mean block's objective at its start point,
        # so the next mean block starts from that same evaluation.
        objective = mu_objective(model, post, hyper, samples)
        start = objective(post.mu)
        bound = start[0]
        if not np.isfinite(bound):
            where = f"iteration {iteration}" if iteration else "start"
            raise NumericalFailureError(f"bound non-finite at {where}", iteration=iteration)
        converged = bool(iteration and abs(bound - bound_prev) < config.tol)
        yield FitStep(iteration, model, post, hyper, bound, converged, samples, holdout)
        if converged:
            return
        bound_prev = bound


def fit(model, config=None, seed=0):
    """Fit a Gaussian posterior to `model` by maximising the finite-sample bound.

    Runs `fit_steps` and scores the held-out draws after each iteration;
    two fits with identical arguments produce identical traces.
    """
    bounds = []
    trace = []
    for step in fit_steps(model, config, seed):
        bounds.append(step.bound)
        if step.iteration:
            hold = lower_bound_fs(step.model, step.posterior, step.hyper, step.holdout)
            if not np.isfinite(hold):
                raise NumericalFailureError(
                    f"bound non-finite at iteration {step.iteration}",
                    iteration=step.iteration,
                )
            trace.append((step.iteration, step.bound, hold))

    return FitReport(
        posterior=step.posterior,
        hyper=step.hyper,
        trace=trace,
        converged=step.converged,
        bound_decreased=any(b < a for a, b in zip(bounds, bounds[1:])),
        model=step.model,
        samples=step.samples,
    )


def monitor_generalisation(trace):
    """Classify a fit trace as "ok" or "overfitting".

    Overfitting is declared when the holdout bound has dropped from its
    running maximum by more than `_MONITOR_MARGIN` of its overall range
    while the training bound kept increasing over the same stretch.
    Requires at least 10 recorded iterations.
    """
    if len(trace) < _MIN_MONITOR_ITERS:
        raise InsufficientDataError(
            f"monitor needs >= {_MIN_MONITOR_ITERS} iterations, got {len(trace)}"
        )
    rows = np.asarray([(row[1], row[2]) for row in trace], dtype=float)
    train = rows[:, 0]
    hold = rows[:, 1]
    margin = _MONITOR_MARGIN * (hold.max() - hold.min())

    best = hold[0]
    best_at = 0
    for t in range(1, len(hold)):
        if hold[t] > best:
            best = hold[t]
            best_at = t
        elif best - hold[t] > margin and train[t] > train[best_at]:
            return "overfitting"
    return "ok"
