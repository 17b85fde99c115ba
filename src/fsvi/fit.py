"""Alternating variational fit with fixed latent draws.

One outer iteration runs a short conjugate-gradient block on the posterior
mean, another on the posterior factor, then applies the closed-form
hyperparameter updates (and, for models that have them, a gradient block
on model parameters). The loop stops when the bound change falls below a
tolerance. A second, larger draw set is scored every iteration so
generalisation of the bound can be monitored afterwards.
"""

from dataclasses import dataclass, field

import numpy as np

from .bound import (
    _value_and_grad_L,
    _value_and_grad_mu,
    lower_bound_fs,
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

_LOG_DET_FLOOR = np.log(1e-300)
_INNER_GRAD_TOL = 1e-9
# Monitor verdict needs at least this many recorded iterations.
_MIN_MONITOR_ITERS = 10


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
    init_factor: np.ndarray | None = None
    fix_alpha: bool = False
    fix_beta: bool = False
    ml_warm_start: bool = False
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
        if self.tol < 0.0:
            raise ConfigError(f"tol must be >= 0, got {self.tol}")
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

    `trace` rows are (iteration, training bound, holdout bound).
    `bound_decreased` flags any outer iteration whose training bound fell
    below the previous one. `model` is the fitted model instance, which
    differs from the input only when model parameters were optimised.
    """

    posterior: VariationalPosterior
    hyper: Hyperparameters
    trace: list = field(repr=False)
    converged: bool
    iterations: int
    bound_decreased: bool
    model: object = field(repr=False, default=None)
    samples: SampleSet = field(repr=False, default=None)


def _block_mask(blocks, m):
    mask = np.zeros((m, m), dtype=bool)
    offset = 0
    for b in blocks:
        mask[offset : offset + b, offset : offset + b] = True
        offset += b
    if offset != m:
        raise ConfigError(f"posterior blocks {blocks} do not sum to dimension {m}")
    return mask


def _optimise_mu(model, post, hyper, samples, iters):
    def objective(mu_vec):
        cand = VariationalPosterior(mu_vec, post.L)
        return _value_and_grad_mu(model, cand, hyper, samples)

    res = scg_maximise(objective, post.mu, max_iters=iters, grad_tol=_INNER_GRAD_TOL)
    return VariationalPosterior(res.x, post.L)


def _optimise_factor(model, post, hyper, samples, iters, mask):
    m = post.dim
    sign0 = np.sign(np.linalg.slogdet(post.L)[0])

    def unpack(x):
        if mask is None:
            return x.reshape(m, m)
        factor = np.zeros((m, m))
        factor[mask] = x
        return factor

    def objective(x):
        factor = unpack(x)
        sign, logdet = np.linalg.slogdet(factor)
        if sign != sign0 or logdet < _LOG_DET_FLOOR:
            # Candidate crossed the singular barrier; reject the step.
            return -np.inf, np.zeros_like(x)
        cand = VariationalPosterior(post.mu, factor)
        value, grad = _value_and_grad_L(model, cand, hyper, samples)
        return value, grad[mask] if mask is not None else grad.ravel()

    x0 = post.L[mask] if mask is not None else post.L.ravel()
    res = scg_maximise(objective, x0, max_iters=iters, grad_tol=_INNER_GRAD_TOL)
    return VariationalPosterior(post.mu, unpack(res.x))


def _optimise_model_params(model, post, samples, iters):
    w = post.transform(samples.draws)

    def objective(theta):
        return model.with_model_params(theta).model_params_value_and_grad(w)

    res = scg_maximise(
        objective, model.model_params, max_iters=iters, grad_tol=_INNER_GRAD_TOL
    )
    return model.with_model_params(res.x)


def _ml_start(model, hyper, dim, iters=200):
    def objective(w):
        if isinstance(model, GaussianNoiseModel):
            return model.log_lik(w, hyper.beta), model.grad_log_lik(w, hyper.beta)
        return model.log_lik(w), model.grad_log_lik(w)

    return scg_maximise(objective, np.zeros(dim), max_iters=iters, grad_tol=1e-8).x


def fit(model, config=None, seed=0):
    """Fit a Gaussian posterior to `model` by maximising the finite-sample bound.

    The draw sets, the initial mean, and therefore the whole trajectory
    are determined by `seed`; two fits with identical arguments produce
    identical traces.
    """
    config = config or FitConfig()
    m = model.dim
    rng = np.random.default_rng(seed)

    if config.init_mu is not None:
        mu = np.asarray(config.init_mu, dtype=float).copy()
    else:
        mu = rng.standard_normal(m)
    if config.init_factor is not None:
        factor = np.asarray(config.init_factor, dtype=float).copy()
    else:
        factor = config.init_factor_scale * np.eye(m)

    alpha = config.init_alpha if model.prior == "gaussian" else None
    beta = config.init_beta if isinstance(model, GaussianNoiseModel) else None
    hyper = Hyperparameters(alpha=alpha, beta=beta)

    seed_train, seed_holdout = (int(s) for s in rng.integers(2**63, size=2))
    samples = SampleSet.generate(config.n_samples, m, seed_train)
    holdout = SampleSet.generate(config.n_holdout, m, seed_holdout)

    if config.ml_warm_start:
        mu = _ml_start(model, hyper, m)

    post = VariationalPosterior(mu, factor)
    mask = _block_mask(model.posterior_blocks, m) if model.posterior_blocks else None
    has_model_params = (
        model.model_params is not None and config.optimise_model_params
    )

    bound_prev = lower_bound_fs(model, post, hyper, samples)
    if not np.isfinite(bound_prev):
        raise NumericalFailureError("bound non-finite at start", iteration=0)

    trace = []
    converged = False
    bound_decreased = False
    iteration = 0
    for iteration in range(1, config.max_iter + 1):
        post = _optimise_mu(model, post, hyper, samples, config.inner_iters)
        post = _optimise_factor(model, post, hyper, samples, config.inner_iters, mask)
        if model.prior == "gaussian" and not config.fix_alpha:
            hyper = Hyperparameters(alpha=update_alpha(post), beta=hyper.beta)
        if isinstance(model, GaussianNoiseModel) and not config.fix_beta:
            hyper = Hyperparameters(
                alpha=hyper.alpha, beta=update_beta(model, post, samples)
            )
        if has_model_params:
            model = _optimise_model_params(model, post, samples, config.inner_iters)

        bound_new = lower_bound_fs(model, post, hyper, samples)
        bound_hold = lower_bound_fs(model, post, hyper, holdout)
        if not np.isfinite(bound_new) or not np.isfinite(bound_hold):
            raise NumericalFailureError(
                f"bound non-finite at iteration {iteration}", iteration=iteration
            )
        trace.append((iteration, bound_new, bound_hold))
        if bound_new < bound_prev:
            bound_decreased = True
        if abs(bound_new - bound_prev) < config.tol:
            converged = True
            break
        bound_prev = bound_new

    return FitReport(
        posterior=post,
        hyper=hyper,
        trace=trace,
        converged=converged,
        iterations=iteration,
        bound_decreased=bound_decreased,
        model=model,
        samples=samples,
    )


def monitor_generalisation(trace, margin_fraction=0.01):
    """Classify a fit trace as "ok" or "overfitting".

    Overfitting is declared when the holdout bound has dropped from its
    running maximum by more than `margin_fraction` of its overall range
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
    margin = margin_fraction * (hold.max() - hold.min())

    best = hold[0]
    best_at = 0
    for t in range(1, len(hold)):
        if hold[t] > best:
            best = hold[t]
            best_at = t
        elif best - hold[t] > margin and train[t] > train[best_at]:
            return "overfitting"
    return "ok"
