"""Finite-sample lower bound on the log marginal likelihood and its gradients.

The bound keeps the latent standard-normal draws fixed: with samples
z_(1..S) and the reparameterisation w = mu + L z, it reads

    (1/S) sum_s log p(Y | mu + L z_s) - KL(q || prior)

for Gaussian priors, and mean log-density plus the Gaussian entropy for
flat priors. All constants are retained so values are comparable across
posteriors and hyperparameters within a fit.
"""

import numpy as np

from .exceptions import (
    ConfigError,
    DegenerateFitError,
    DegeneratePosteriorError,
    DimensionError,
)
from .models.base import GaussianNoiseModel, _LN_2PI, _noise_args


def _check_dims(model, post, samples):
    if post.dim != model.dim:
        raise DimensionError(
            f"posterior dimension {post.dim} != model dimension {model.dim}"
        )
    if samples.dim != model.dim:
        raise DimensionError(
            f"sample dimension {samples.dim} != model dimension {model.dim}"
        )


def kl_gaussian_prior(post, alpha):
    """KL(q || N(0, I/alpha)) for q = N(mu, L L^T), in closed form.

    The log-determinant of alpha L L^T is assembled as M ln(alpha)
    + 2 ln|det L| rather than formed from the product matrix.
    """
    if alpha is None or alpha <= 0.0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    m = post.dim
    logdet = post.log_abs_det_factor()
    sq = post.second_moment()
    return 0.5 * (alpha * sq - m - m * np.log(alpha) - 2.0 * logdet)


def gaussian_entropy(post):
    """Differential entropy of q = N(mu, L L^T)."""
    return 0.5 * post.dim * (_LN_2PI + 1.0) + post.log_abs_det_factor()


def _prior_term(model, post, hyper):
    """The Gaussian entropy under a flat prior, else the negated prior KL."""
    if model.prior == "flat":
        return gaussian_entropy(post)
    return -kl_gaussian_prior(post, hyper.alpha)


def lower_bound_fs(model, post, hyper, samples):
    """The finite-sample lower bound at the given posterior and draws.

    Deterministic given `samples`; two calls with the same arguments
    return the identical value. Evaluates the likelihood values only.
    """
    _check_dims(model, post, samples)
    w = post.transform(samples.draws)
    mean_ll = float(np.mean(model.log_lik_batch(w, *_noise_args(model, hyper))))
    return mean_ll + _prior_term(model, post, hyper)


def _model_pass(model, post, hyper, samples):
    """Mean log-likelihood and per-draw gradients from one fused model pass."""
    _check_dims(model, post, samples)
    w = post.transform(samples.draws)
    values, grads = model.log_lik_and_grad_batch(w, *_noise_args(model, hyper))
    return float(np.mean(values)), grads


def _value_and_grad_mu(model, post, hyper, samples):
    """Bound value and its gradient with respect to the posterior mean."""
    mean_ll, grads = _model_pass(model, post, hyper, samples)
    g = np.mean(grads, axis=0)
    if model.prior == "gaussian":
        g = g - hyper.alpha * post.mu
    return mean_ll + _prior_term(model, post, hyper), g


def _value_and_grad_L(model, post, hyper, samples):
    """Bound value and its gradient with respect to the posterior factor L.

    The likelihood term is (1/S) sum_s grad_w log p(Y|w_s) z_s^T, restricted
    to the blocks of L; the prior/entropy term contributes the transposed
    inverse of each block (and -alpha L under a Gaussian prior). The
    gradient has L's own shape.
    """
    mean_ll, grads = _model_pass(model, post, hyper, samples)
    blocks = post.blocks
    k, b, _ = blocks.shape
    s = samples.size
    g = grads.reshape(s, k, b).transpose(1, 2, 0) @ (
        samples.draws.reshape(s, k, b).swapaxes(0, 1)
    ) / s
    if model.prior == "gaussian":
        g = g - hyper.alpha * blocks
    # The prior term comes first: it raises InvalidPosteriorError on a
    # singular L before the inverse would fail.
    value = mean_ll + _prior_term(model, post, hyper)
    g = g + np.linalg.inv(blocks).swapaxes(-1, -2)
    return value, g.reshape(post.L.shape)


def grad_mu(model, post, hyper, samples):
    """Gradient of the bound with respect to the posterior mean."""
    return _value_and_grad_mu(model, post, hyper, samples)[1]


def grad_L(model, post, hyper, samples):
    """Gradient of the bound with respect to the posterior factor L."""
    return _value_and_grad_L(model, post, hyper, samples)[1]


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
    return float(np.sum(model.residual_sq_batch(post.transform(samples.draws))))


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
    "grad_mu",
    "grad_L",
    "update_alpha",
    "update_beta",
    "dbound_dalpha",
    "dbound_dbeta",
]
