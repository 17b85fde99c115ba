"""Reference likelihoods the models' batched passes are checked against.

Each function is written from its model's formula with numpy and scipy
alone: the module imports nothing from `fsvi`, nor from another test
module, so a reference cannot share code with the pass it checks
(`test_package.py` enforces this). Every function evaluates one
parameter vector and returns the value and its gradient.
"""

import numpy as np
from scipy.special import expit, log_ndtr, logsumexp, softmax
from scipy.stats import multivariate_normal

LN_2PI = np.log(2.0 * np.pi)


def gaussian_logdensity(w, mean, cov):
    """log N(w | mean, cov) and its gradient -cov^{-1} (w - mean)."""
    w = np.asarray(w, dtype=float)
    value = multivariate_normal(mean, cov).logpdf(w)
    return value, -np.linalg.solve(cov, w - np.asarray(mean, dtype=float))


def skew_logdensity(w, coeff):
    """log 2 N(w | 0, I_2) Phi(h(w)) and its gradient, for the odd cubic
    h(w) = a . (w1, w2, w1 w2^2, w1^2 w2, w1^3, w2^3).

    w may hold one point or rows of points, shape (..., 2); the value has
    the leading shape and the gradient the shape of w.
    """
    w = np.asarray(w, dtype=float)
    a = np.asarray(coeff, dtype=float)
    w1, w2 = w[..., 0], w[..., 1]
    h = (a[0] * w1 + a[1] * w2 + a[2] * w1 * w2**2 + a[3] * w1**2 * w2
         + a[4] * w1**3 + a[5] * w2**3)
    dh = np.stack(
        [
            a[0] + a[2] * w2**2 + 2.0 * a[3] * w1 * w2 + 3.0 * a[4] * w1**2,
            a[1] + 2.0 * a[2] * w1 * w2 + a[3] * w1**2 + 3.0 * a[5] * w2**2,
        ],
        axis=-1,
    )
    log_cdf = log_ndtr(h)
    value = np.log(2.0) - LN_2PI - 0.5 * np.sum(w * w, axis=-1) + log_cdf
    # phi(h) / Phi(h), taken in logs so it stays finite far in the tail.
    ratio = np.exp(-0.5 * h * h - 0.5 * LN_2PI - log_cdf)
    return value[()], -w + ratio[..., None] * dh


def rbf_regression_loglik(w, design_matrix, targets, beta):
    """Gaussian log-likelihood of Y = Phi w + noise of precision beta:
    (N/2) ln(beta / (2 pi)) - (beta/2) ||Y - Phi w||^2, and its gradient."""
    phi = np.asarray(design_matrix, dtype=float)
    y = np.asarray(targets, dtype=float)
    r = y - phi @ np.asarray(w, dtype=float)
    value = 0.5 * y.size * (np.log(beta) - LN_2PI) - 0.5 * beta * float(r @ r)
    return value, beta * (phi.T @ r)


def logistic_loglik(w, design_matrix, labels):
    """Bernoulli log-likelihood sum y t - log(1 + e^t) with t = Phi w, and
    its gradient, for labels in {0, 1}."""
    phi = np.asarray(design_matrix, dtype=float)
    y = np.asarray(labels, dtype=float)
    t = phi @ np.asarray(w, dtype=float)
    value = float(y @ t - np.sum(np.logaddexp(0.0, t)))
    return value, phi.T @ (y - expit(t))


def softmax_loglik(w_stacked, design_matrix, onehot):
    """Categorical log-likelihood under 1-of-K labels and its gradient.

    w_stacked concatenates one weight vector per class; the gradient comes
    back in the same layout.
    """
    phi = np.asarray(design_matrix, dtype=float)
    y = np.asarray(onehot, dtype=float)
    w = np.asarray(w_stacked, dtype=float).reshape(y.shape[1], phi.shape[1])
    logits = phi @ w.T
    value = float(np.sum(y * logits) - np.sum(logsumexp(logits, axis=1)))
    return value, ((y - softmax(logits, axis=1)).T @ phi).ravel()


def cauchy_ppca_loglik(latents, loading, offset, scale, data):
    """Elementwise Cauchy log-likelihood of data given latents, with gradients.

    value = sum_{n,j} [-ln pi - ln gamma - ln(1 + ((y_nj - W_j x_n - xi_j)/gamma)^2)]

    Returns (value, grad_latents, grad_loading, grad_offset, grad_scale);
    grad_scale is with respect to gamma itself, not its logarithm.
    """
    x = np.asarray(latents, dtype=float)
    y = np.asarray(data, dtype=float)
    w = np.asarray(loading, dtype=float)
    u = (y - x @ w.T - np.asarray(offset, dtype=float)) / scale
    denom = 1.0 + u * u
    value = -y.size * (np.log(np.pi) + np.log(scale)) - float(np.sum(np.log(denom)))
    t = (2.0 / scale) * u / denom
    grad_scale = float(np.sum((u * u - 1.0) / denom)) / scale
    return value, t @ w, t.T @ x, t.sum(axis=0), grad_scale


def spectrum_amplitude(w, source_idx, distances, frequencies):
    """g = exp(s_e) r^(-eta) exp(-kappa f) / (1 + (f / exp(c))^2) at each
    observation, for w = [s_1..s_E, eta, kappa, c]."""
    w = np.asarray(w, dtype=float)
    e = np.asarray(source_idx, dtype=int)
    r = np.asarray(distances, dtype=float)
    f = np.asarray(frequencies, dtype=float)
    eta, kappa, c = w[-3:]
    return np.exp(w[e]) * r**-eta * np.exp(-kappa * f) / (1.0 + (f / np.exp(c)) ** 2)


def spectrum_loglik(w, source_idx, distances, frequencies, targets, beta):
    """Gaussian log-likelihood of the targets around the amplitudes g, with
    noise precision beta, and its gradient in w = [s_1..s_E, eta, kappa, c].

    dg/ds_k = g [e = k], dg/deta = -g ln r, dg/dkappa = -g f and
    dg/dc = g 2u / (1 + u) with u = (f / exp(c))^2.
    """
    w = np.asarray(w, dtype=float)
    e = np.asarray(source_idx, dtype=int)
    r = np.asarray(distances, dtype=float)
    f = np.asarray(frequencies, dtype=float)
    y = np.asarray(targets, dtype=float)
    g = spectrum_amplitude(w, e, r, f)
    resid = y - g
    value = 0.5 * y.size * (np.log(beta) - LN_2PI) - 0.5 * beta * float(resid @ resid)
    u = (f / np.exp(w[-1])) ** 2
    jac = np.zeros((y.size, w.size))
    jac[np.arange(y.size), e] = g
    jac[:, -3] = -g * np.log(r)
    jac[:, -2] = -g * f
    jac[:, -1] = g * 2.0 * u / (1.0 + u)
    return value, beta * (jac.T @ resid)


def ml_ppca_loglik(data, loading, offset, noise_variance):
    """Marginal log-likelihood of the rows of data, each N(offset, W W^T + s2 I)."""
    w = np.asarray(loading, dtype=float)
    cov = w @ w.T + noise_variance * np.eye(w.shape[0])
    return float(np.sum(multivariate_normal(offset, cov).logpdf(data)))
