"""Finite-sample lower bound on the log marginal likelihood and its gradients.

The bound keeps the latent standard-normal draws fixed: with samples
z_(1..S) and the reparameterisation w = mu + L z, it reads

    (1/S) sum_s log p(Y | mu + L z_s) - KL(q || prior)

for Gaussian priors, and mean log-density plus the Gaussian entropy for
flat priors. All constants are retained so values are comparable across
posteriors and hyperparameters within a fit.
"""

import math

import numpy as np

from .exceptions import (
    ConfigError,
    DegenerateFitError,
    DegeneratePosteriorError,
    DimensionError,
)
from .models.base import GaussianNoiseModel, _LN_2PI, _noise_args
from .posterior import _factor_times, _is_singular, _slogdet_blocks


def _check_dims(model, post, samples):
    if post.dim != model.dim:
        raise DimensionError(
            f"posterior dimension {post.dim} != model dimension {model.dim}"
        )
    if samples.dim != model.dim:
        raise DimensionError(
            f"sample dimension {samples.dim} != model dimension {model.dim}"
        )


def _prior_term(prior, alpha, m):
    """The prior term as a function of E_q[w^T w] and ln|det L|.

    Under a flat prior, the entropy of q = N(mu, L L^T); under a Gaussian
    one, -KL(q || N(0, I/alpha)), whose log-determinant of alpha L L^T is
    assembled as M ln(alpha) + 2 ln|det L| rather than formed from the
    product matrix.
    """
    if prior == "flat":
        const = 0.5 * m * (_LN_2PI + 1.0)
        return lambda sq, logdet: const + logdet
    if alpha is None or alpha <= 0.0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    m_log_alpha = m * np.log(alpha)
    return lambda sq, logdet: -0.5 * (alpha * sq - m - m_log_alpha - 2.0 * logdet)


def kl_gaussian_prior(post, alpha):
    """KL(q || N(0, I/alpha)) for q = N(mu, L L^T), in closed form."""
    neg_kl = _prior_term("gaussian", alpha, post.dim)
    return -neg_kl(post.second_moment(), post.log_abs_det_factor())


def gaussian_entropy(post):
    """Differential entropy of q = N(mu, L L^T)."""
    return _prior_term("flat", None, post.dim)(None, post.log_abs_det_factor())


def _setup(model, post, hyper, samples):
    """(noise arguments, prior term, Gaussian precision or None, ln|det L|)."""
    _check_dims(model, post, samples)
    noise = _noise_args(model, hyper)
    prior = model.prior
    alpha = hyper.alpha if prior == "gaussian" else None
    return noise, _prior_term(prior, alpha, post.dim), alpha, post.log_abs_det_factor()


def lower_bound_fs(model, post, hyper, samples):
    """The finite-sample lower bound at the given posterior and draws.

    Deterministic given `samples`; two calls with the same arguments
    return the identical value. Evaluates the likelihood values only.
    """
    noise, prior, _, logdet = _setup(model, post, hyper, samples)
    w = post.transform(samples.draws)
    mean_ll = float(np.add.reduce(model.log_lik_batch(w, *noise))) / samples.size
    return mean_ll + prior(post.second_moment(), logdet)


def _model_pass(model, w, noise, with_value):
    """(values, grads) of the fused pass, or (None, grads) of the gradient-only one."""
    if with_value:
        return model.log_lik_and_grad_batch(w, *noise)
    return None, model.grad_log_lik_batch(w, *noise)


def _finish(values, prior_value, g):
    """(mean of values + prior term, gradient), or the gradient alone if values is None.

    The gradient alone is NaN throughout where the prior term is not
    finite. The gradient-only pass has already given a NaN row to each draw
    whose value is not finite, so the gradient is non-finite wherever the
    value would be, save one case it cannot see: finite values whose mean
    overflows.
    """
    if values is not None:
        return float(np.add.reduce(values)) / len(values) + prior_value, g
    return g if math.isfinite(prior_value) else np.full_like(g, np.nan)


def mu_objective(model, post, hyper, samples):
    """The bound and its gradient as a function of the mean, L held at post.L.

    Everything that depends only on L and the draws (L z, ln|det L|,
    tr(L L^T)) is computed here, once; each evaluation is one model pass.
    The objective's `grad` attribute is its gradient-only form, for SCG's
    curvature probes: the same gradient bits, non-finite wherever the
    value is, from a model pass that need not form the values.
    Raises InvalidPosteriorError if post.L is singular.
    """
    noise, prior, alpha, logdet = _setup(model, post, hyper, samples)
    lz = post.apply_factor(samples.draws)
    tr_llt = float(np.add.reduce(post.L * post.L, axis=None))

    def evaluate(mu, with_value):
        values, grads = _model_pass(model, mu + lz, noise, with_value)
        g = np.add.reduce(grads, axis=0) / samples.size
        if alpha is not None:
            g = g - alpha * mu
        sq = float(mu @ mu) + tr_llt
        return _finish(values, prior(sq, logdet), g)

    def objective(mu):
        return evaluate(mu, True)

    objective.grad = lambda mu: evaluate(mu, False)
    return objective


def factor_objective(model, post, hyper, samples):
    """The bound and its gradient as a function of L (flattened), mu held.

    The likelihood term of the gradient is (1/S) sum_s grad_w log p(Y|w_s)
    z_s^T, restricted to the blocks of L; the prior/entropy term
    contributes the transposed inverse of each block (and -alpha L under
    a Gaussian prior). A candidate whose determinant changes sign from
    post.L's, or that `posterior._is_singular` rejects, has crossed the
    singular barrier: it evaluates to (-inf, zero gradient), which SCG
    rejects, and its gradient-only form (the `grad` attribute, as in
    `mu_objective`) to NaN. Raises InvalidPosteriorError if post.L itself
    is singular.
    """
    noise, prior, alpha, _ = _setup(model, post, hyper, samples)
    sign0 = post.factor_slogdet[0]
    shape = post.blocks.shape
    k, b, _ = shape
    z = samples.draws
    s = samples.size
    zk = z.reshape(s, k, b).swapaxes(0, 1)
    mu = post.mu
    mu_sq = float(mu @ mu)

    def evaluate(x, with_value):
        blocks = x.reshape(shape)
        sign, logdet = _slogdet_blocks(blocks)
        if sign != sign0 or _is_singular(sign, logdet):
            # The candidate crossed the singular barrier; SCG rejects it.
            if with_value:
                return -np.inf, np.zeros_like(x)
            return np.full_like(x, np.nan)
        w = mu + _factor_times(blocks, zk, z.shape)
        values, grads = _model_pass(model, w, noise, with_value)
        g = grads.reshape(s, k, b).transpose(1, 2, 0) @ zk / s
        if alpha is not None:
            g = g - alpha * blocks
        sq = mu_sq + float(np.add.reduce(blocks * blocks, axis=None))
        g = g + np.linalg.inv(blocks).swapaxes(-1, -2)
        return _finish(values, prior(sq, logdet), g.reshape(x.shape))

    def objective(x):
        return evaluate(x, True)

    objective.grad = lambda x: evaluate(x, False)
    return objective


def grad_mu(model, post, hyper, samples):
    """Gradient of the bound with respect to the posterior mean."""
    return mu_objective(model, post, hyper, samples)(post.mu)[1]


def grad_L(model, post, hyper, samples):
    """Gradient of the bound with respect to the posterior factor L."""
    grad = factor_objective(model, post, hyper, samples)(post.L.ravel())[1]
    return grad.reshape(post.L.shape)


def update_alpha(post):
    """Analytic prior-precision update alpha = M / (mu^T mu + tr(L L^T)).

    For a posterior factorised over blocks (stacked block-diagonal L) the
    per-block update with a shared alpha reduces to this same expression
    on the stacked quantities.
    """
    denom = post.second_moment()
    if denom <= 0.0:
        raise DegeneratePosteriorError(
            "posterior mean and factor are both zero; alpha update undefined"
        )
    return post.dim / denom


def _residual_total(model, post, samples, what):
    """sum_s ||Y - f(X; w_s)||^2 over the draws of a Gaussian-noise model."""
    if not isinstance(model, GaussianNoiseModel):
        raise DimensionError(f"{what} requires a Gaussian-noise model")
    _check_dims(model, post, samples)
    return float(np.add.reduce(model.residual_sq_batch(post.transform(samples.draws))))


def update_beta(model, post, samples):
    """Analytic noise-precision update beta = S N / sum_s ||Y - f(X; w_s)||^2."""
    total = _residual_total(model, post, samples, "beta update")
    if total == 0.0:
        raise DegenerateFitError("all residuals are zero; beta update undefined")
    return samples.size * model.n_obs / total


def dbound_dalpha(post, alpha):
    """Analytic partial derivative of the bound with respect to alpha."""
    return -0.5 * (post.second_moment() - post.dim / alpha)


def dbound_dbeta(model, post, samples, beta):
    """Analytic partial derivative of the bound with respect to beta."""
    total = _residual_total(model, post, samples, "beta derivative")
    return 0.5 * model.n_obs / beta - 0.5 * total / samples.size


__all__ = [
    "kl_gaussian_prior",
    "gaussian_entropy",
    "lower_bound_fs",
    "mu_objective",
    "factor_objective",
    "grad_mu",
    "grad_L",
    "update_alpha",
    "update_beta",
    "dbound_dalpha",
    "dbound_dbeta",
]
