"""Skew-normal style bivariate test densities and a plain Gaussian target.

Both are normalised log-densities over R^2 (or R^M for the Gaussian) and
carry a flat prior, so fitting them maximises mean log-density plus
entropy: direct density fitting.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import log_ndtr

from ..exceptions import DimensionError
from .base import TargetModel

_LN_2PI = np.log(2.0 * np.pi)


def _h_and_grad(points, coeff):
    """Odd cubic h(w) = a . (w1, w2, w1 w2^2, w1^2 w2, w1^3, w2^3) and its gradient."""
    w1 = points[..., 0]
    w2 = points[..., 1]
    a = coeff
    h = (
        a[0] * w1
        + a[1] * w2
        + a[2] * w1 * w2**2
        + a[3] * w1**2 * w2
        + a[4] * w1**3
        + a[5] * w2**3
    )
    dh1 = a[0] + a[2] * w2**2 + 2.0 * a[3] * w1 * w2 + 3.0 * a[4] * w1**2
    dh2 = a[1] + 2.0 * a[2] * w1 * w2 + a[3] * w1**2 + 3.0 * a[5] * w2**2
    return h, np.stack([dh1, dh2], axis=-1)


def _phi_over_cumnorm(h):
    # Stable density/CDF ratio: exp(log phi(h) - log Phi(h)); for very
    # negative h this tends to |h| rather than overflowing.
    log_phi = -0.5 * h * h - 0.5 * _LN_2PI
    return np.exp(log_phi - log_ndtr(h))


def skew_logdensity(w, coeff):
    """Log of 2 N(w | 0, I_2) Phi(h(w)) and its gradient at a single point.

    h is odd, so the density integrates to one for any coefficient vector.
    log Phi is evaluated through its dedicated stable routine and never
    underflows to -inf for finite h.
    """
    w = np.asarray(w, dtype=float)
    a = np.asarray(coeff, dtype=float)
    if w.shape != (2,):
        raise DimensionError(f"w must have shape (2,), got {w.shape}")
    if a.shape != (6,):
        raise DimensionError(f"coeff must have shape (6,), got {a.shape}")
    h, dh = _h_and_grad(w, a)
    value = np.log(2.0) - _LN_2PI - 0.5 * float(w @ w) + float(log_ndtr(h))
    grad = -w + _phi_over_cumnorm(h) * dh
    return float(value), grad


class SkewTarget(TargetModel):
    """Bivariate density 2 N(w | 0, I) Phi(h(w)) with an odd cubic h."""

    prior = "flat"

    def __init__(self, coeff):
        coeff = np.asarray(coeff, dtype=float)
        if coeff.shape != (6,):
            raise DimensionError(f"coeff must have shape (6,), got {coeff.shape}")
        self.coeff = coeff

    @property
    def dim(self):
        return 2

    def log_lik(self, w):
        return skew_logdensity(w, self.coeff)[0]

    def grad_log_lik(self, w):
        return skew_logdensity(w, self.coeff)[1]

    def log_lik_batch(self, w_batch):
        return self.log_lik_and_grad_batch(w_batch)[0]

    def grad_log_lik_batch(self, w_batch):
        return self.log_lik_and_grad_batch(w_batch)[1]

    def log_lik_and_grad_batch(self, w_batch):
        w = np.asarray(w_batch, dtype=float)
        h, dh = _h_and_grad(w, self.coeff)
        value = np.log(2.0) - _LN_2PI - 0.5 * np.sum(w * w, axis=-1) + log_ndtr(h)
        return value, -w + _phi_over_cumnorm(h)[..., None] * dh


class GaussianTarget(TargetModel):
    """Exact multivariate normal log-density as a flat-prior target."""

    prior = "flat"

    def __init__(self, mean, cov):
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        m = self.mean.size
        if self.cov.shape != (m, m):
            raise DimensionError(
                f"covariance shape {self.cov.shape} does not match mean size {m}"
            )
        self._cho = cho_factor(self.cov, lower=True)
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(self._cho[0]))))

    @property
    def dim(self):
        return self.mean.size

    def log_lik(self, w):
        d = np.asarray(w, dtype=float) - self.mean
        maha = float(d @ cho_solve(self._cho, d))
        return -0.5 * (self.dim * _LN_2PI + self._logdet + maha)

    def grad_log_lik(self, w):
        d = np.asarray(w, dtype=float) - self.mean
        return -cho_solve(self._cho, d)

    def log_lik_batch(self, w_batch):
        d = np.asarray(w_batch, dtype=float) - self.mean
        maha = np.sum(d * cho_solve(self._cho, d.T).T, axis=1)
        return -0.5 * (self.dim * _LN_2PI + self._logdet + maha)

    def grad_log_lik_batch(self, w_batch):
        d = np.asarray(w_batch, dtype=float) - self.mean
        return -cho_solve(self._cho, d.T).T
