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
    DegenerateFitError,
    DegeneratePosteriorError,
    DimensionError,
)
from .models.base import GaussianNoiseModel

_LN_2PI = np.log(2.0 * np.pi)


def _check_dims(model, post, samples):
    if post.dim != model.dim:
        raise DimensionError(
            f"posterior dimension {post.dim} != model dimension {model.dim}"
        )
    if samples.dim != model.dim:
        raise DimensionError(
            f"sample dimension {samples.dim} != model dimension {model.dim}"
        )


def _noise_args(model, hyper):
    """Extra likelihood arguments: beta for Gaussian-noise models, else none."""
    return (hyper.beta,) if isinstance(model, GaussianNoiseModel) else ()


def kl_gaussian_prior(post, alpha):
    """KL(q || N(0, I/alpha)) for q = N(mu, L L^T), in closed form.

    The log-determinant of alpha L L^T is assembled as M ln(alpha)
    + 2 ln|det L| rather than formed from the product matrix.
    """
    if alpha is None or alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    m = post.dim
    logdet = post.log_abs_det_factor()
    sq = float(np.sum(post.L * post.L)) + float(post.mu @ post.mu)
    return 0.5 * (alpha * sq - m - m * np.log(alpha) - 2.0 * logdet)


def gaussian_entropy(post):
    """Differential entropy of q = N(mu, L L^T)."""
    return 0.5 * post.dim * (_LN_2PI + 1.0) + post.log_abs_det_factor()


def lower_bound_fs(model, post, hyper, samples):
    """The finite-sample lower bound at the given posterior and draws.

    Deterministic given `samples`; two calls with the same arguments
    return the identical value.
    """
    _check_dims(model, post, samples)
    w = post.transform(samples.draws)
    mean_ll = float(np.mean(model.log_lik_batch(w, *_noise_args(model, hyper))))
    if model.prior == "flat":
        return mean_ll + gaussian_entropy(post)
    return mean_ll - kl_gaussian_prior(post, hyper.alpha)


def _factor_pinv_t(L):
    # SVD pseudo-inverse; cutoff max(M) * eps relative to the top singular value.
    rcond = max(L.shape) * np.finfo(float).eps
    return np.linalg.pinv(L, rcond=rcond).T


def grad_mu(model, post, hyper, samples):
    """Gradient of the bound with respect to the posterior mean."""
    _check_dims(model, post, samples)
    w = post.transform(samples.draws)
    g = np.mean(model.grad_log_lik_batch(w, *_noise_args(model, hyper)), axis=0)
    if model.prior == "flat":
        return g
    return g - hyper.alpha * post.mu


def grad_L(model, post, hyper, samples):
    """Gradient of the bound with respect to the posterior factor L.

    The likelihood term is (1/S) sum_s grad_w log p(Y|w_s) z_s^T; the
    prior/entropy term contributes the transposed pseudo-inverse of L
    (and -alpha L under a Gaussian prior).
    """
    _check_dims(model, post, samples)
    z = samples.draws
    w = post.transform(z)
    grads = model.grad_log_lik_batch(w, *_noise_args(model, hyper))
    cross = grads.T @ z / samples.size
    if model.prior == "flat":
        return cross + _factor_pinv_t(post.L)
    return cross - hyper.alpha * post.L + _factor_pinv_t(post.L)


def update_alpha(post):
    """Analytic prior-precision update alpha = M / (mu^T mu + tr(L L^T)).

    For a posterior factorised over blocks (stacked block-diagonal L) the
    per-block update with a shared alpha reduces to this same expression
    on the stacked quantities.
    """
    denom = float(post.mu @ post.mu) + float(np.sum(post.L * post.L))
    if denom <= 0.0:
        raise DegeneratePosteriorError(
            "posterior mean and factor are both zero; alpha update undefined"
        )
    return post.dim / denom


def update_beta(model, post, samples):
    """Analytic noise-precision update beta = S N / sum_s ||Y - f(X; w_s)||^2."""
    if not isinstance(model, GaussianNoiseModel):
        raise DimensionError("beta update requires a Gaussian-noise model")
    _check_dims(model, post, samples)
    w = post.transform(samples.draws)
    total = float(np.sum(model.residual_sq_batch(w)))
    if total == 0.0:
        raise DegenerateFitError("all residuals are zero; beta update undefined")
    return samples.size * model.n_obs / total


def dbound_dalpha(post, alpha):
    """Analytic partial derivative of the bound with respect to alpha."""
    sq = float(post.mu @ post.mu) + float(np.sum(post.L * post.L))
    return -0.5 * (sq - post.dim / alpha)


def dbound_dbeta(model, post, samples, beta):
    """Analytic partial derivative of the bound with respect to beta."""
    if not isinstance(model, GaussianNoiseModel):
        raise DimensionError("beta derivative requires a Gaussian-noise model")
    w = post.transform(samples.draws)
    total = float(np.sum(model.residual_sq_batch(w)))
    return 0.5 * model.n_obs / beta - 0.5 * total / samples.size


def _value_and_grad_mu(model, post, hyper, samples):
    """Bound value and mu-gradient from one model pass over the draws.

    Bitwise equal to (lower_bound_fs, grad_mu) at the same arguments.
    """
    w = post.transform(samples.draws)
    values, grads = model.log_lik_and_grad_batch(w, *_noise_args(model, hyper))
    mean_ll = float(np.mean(values))
    g = np.mean(grads, axis=0)
    if model.prior == "flat":
        return mean_ll + gaussian_entropy(post), g
    return (
        mean_ll - kl_gaussian_prior(post, hyper.alpha),
        g - hyper.alpha * post.mu,
    )


def _value_and_grad_L(model, post, hyper, samples):
    """Bound value and L-gradient from one model pass over the draws.

    Bitwise equal to (lower_bound_fs, grad_L) at the same arguments.
    """
    z = samples.draws
    w = post.transform(z)
    values, grads = model.log_lik_and_grad_batch(w, *_noise_args(model, hyper))
    mean_ll = float(np.mean(values))
    cross = grads.T @ z / samples.size
    pinv_t = _factor_pinv_t(post.L)
    if model.prior == "flat":
        return mean_ll + gaussian_entropy(post), cross + pinv_t
    return (
        mean_ll - kl_gaussian_prior(post, hyper.alpha),
        cross - hyper.alpha * post.L + pinv_t,
    )


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
