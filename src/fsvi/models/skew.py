"""Skew-normal style bivariate test densities and a plain Gaussian target.

Both are normalised log-densities over R^2 (or R^M for the Gaussian) and
carry a flat prior, so fitting them maximises mean log-density plus
entropy: direct density fitting.
"""

import numpy as np

from ..exceptions import DimensionError
from .base import TargetModel, _LN_2PI


def _terms(points):
    """(w1, w2, w1^2, w2^2): the two coordinates as contiguous arrays, and
    their squares, which h and its gradient share."""
    w1 = points[..., 0].copy()
    w2 = points[..., 1].copy()
    return w1, w2, w1**2, w2**2


def _h(terms, coeff):
    """Odd cubic h(w) = a . (w1, w2, w1 w2^2, w1^2 w2, w1^3, w2^3), given `_terms(w)`."""
    w1, w2, w1_sq, w2_sq = terms
    a = coeff
    return (
        a[0] * w1
        + a[1] * w2
        + a[2] * w1 * w2_sq
        + a[3] * w1_sq * w2
        + a[4] * w1**3
        + a[5] * w2**3
    )


def _h_and_grad(points, coeff):
    """h(w) and its gradient."""
    terms = _terms(points)
    w1, w2, w1_sq, w2_sq = terms
    a = coeff
    # Written into one array: cheaper than stacking the two columns.
    dh = np.empty(np.shape(points))
    dh[..., 0] = a[0] + a[2] * w2_sq + 2.0 * a[3] * w1 * w2 + 3.0 * a[4] * w1_sq
    dh[..., 1] = a[1] + 2.0 * a[2] * w1 * w2 + a[3] * w1_sq + 3.0 * a[5] * w2_sq
    return _h(terms, coeff), dh


def _phi_over_cumnorm(h, log_cdf):
    # Stable density/CDF ratio: exp(log phi(h) - log Phi(h)), given
    # log_cdf = log Phi(h); for very negative h this tends to |h| rather
    # than overflowing.
    log_phi = -0.5 * h * h - 0.5 * _LN_2PI
    return np.exp(log_phi - log_cdf)


def _log_density(w, log_cdf):
    """log 2 N(w | 0, I_2) Phi(h(w)) at each row of w, given log_cdf = log Phi(h)."""
    return np.log(2.0) - _LN_2PI - 0.5 * np.add.reduce(w * w, axis=-1) + log_cdf


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
    from scipy.special import log_ndtr

    h, dh = _h_and_grad(w, a)
    log_cdf = log_ndtr(h)
    value = np.log(2.0) - _LN_2PI - 0.5 * float(w @ w) + float(log_cdf)
    grad = -w + _phi_over_cumnorm(h, log_cdf) * dh
    return float(value), grad


class SkewTarget(TargetModel):
    """Bivariate density 2 N(w | 0, I) Phi(h(w)) with an odd cubic h."""

    prior = "flat"

    def __init__(self, coeff):
        coeff = np.asarray(coeff, dtype=float)
        if coeff.shape != (6,):
            raise DimensionError(f"coeff must have shape (6,), got {coeff.shape}")
        self.coeff = coeff
        # Bound here, so scipy.special loads only with a model that calls it.
        from scipy.special import log_ndtr

        self._log_ndtr = log_ndtr

    @property
    def dim(self):
        return 2

    def log_lik_batch(self, w_batch):
        w = np.asarray(w_batch, dtype=float)
        return _log_density(w, self._log_ndtr(_h(_terms(w), self.coeff)))

    def log_lik_and_grad_batch(self, w_batch):
        w = np.asarray(w_batch, dtype=float)
        h, dh = _h_and_grad(w, self.coeff)
        log_cdf = self._log_ndtr(h)
        grad = -w + _phi_over_cumnorm(h, log_cdf)[..., None] * dh
        return _log_density(w, log_cdf), grad


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
        eigvals, self._eigvecs = np.linalg.eigh(self.cov)
        if not eigvals.min() > 0.0:
            raise DimensionError("covariance must be positive definite")
        self._eigvals = eigvals
        self._logdet = float(np.sum(np.log(eigvals)))

    @property
    def dim(self):
        return self.mean.size

    def _project(self, w_batch):
        """(eigenbasis coordinates of w - mean, log-density) at each row."""
        d = np.asarray(w_batch, dtype=float) - self.mean
        proj = d @ self._eigvecs
        maha = np.sum(proj * proj / self._eigvals, axis=1)
        return proj, -0.5 * (self.dim * _LN_2PI + self._logdet + maha)

    def log_lik_batch(self, w_batch):
        return self._project(w_batch)[1]

    def log_lik_and_grad_batch(self, w_batch):
        proj, value = self._project(w_batch)
        return value, -(proj / self._eigvals) @ self._eigvecs.T
