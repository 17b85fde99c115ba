"""Probabilistic PCA with elementwise Cauchy observation noise.

The latent coordinates of every datum carry a standard-normal prior and a
per-datum Gaussian posterior; stacking them gives one posterior whose
factor is block-diagonal with N blocks of size q. The loading matrix,
offset, and noise scale are model parameters trained by gradient steps on
the same bound (the scale in log-space to stay positive).
"""

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigError, DimensionError
from .base import TargetModel


@dataclass
class CauchyPpcaParams:
    """Loading matrix (d, q), offset (d,), positive noise scale.

    `latent_posteriors` optionally carries the fitted per-datum posterior
    pairs (mu_n, L_n); pipelines fill it in after a fit.
    """

    loading: np.ndarray
    offset: np.ndarray
    scale: float
    latent_posteriors: list | None = field(default=None, repr=False)

    def __post_init__(self):
        self.loading = np.asarray(self.loading, dtype=float)
        self.offset = np.asarray(self.offset, dtype=float)
        self.scale = float(self.scale)
        if self.loading.ndim != 2:
            raise DimensionError(f"loading must be (d, q), got {self.loading.shape}")
        d, q = self.loading.shape
        if q >= d:
            raise DimensionError(f"latent dimension {q} must be below data dimension {d}")
        if self.offset.shape != (d,):
            raise DimensionError(
                f"offset shape {self.offset.shape} does not match loading rows {d}"
            )
        if not self.scale > 0.0:
            raise ConfigError(f"scale must be positive, got {self.scale}")


def cauchy_ppca_loglik(latents, params, data):
    """Elementwise Cauchy log-likelihood of data given latents, with gradients.

    value = sum_{n,j} [-ln pi - ln gamma - ln(1 + ((y_nj - W_j x_n - xi_j)/gamma)^2)]

    Returns (value, grad_latents, grad_loading, grad_offset, grad_scale);
    grad_scale is with respect to gamma itself, not its logarithm.
    """
    x = np.asarray(latents, dtype=float)
    y = np.asarray(data, dtype=float)
    w = params.loading
    gamma = params.scale
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise DimensionError(
            f"latents shape {x.shape} does not match loading {w.shape}"
        )
    if y.shape != (x.shape[0], w.shape[0]):
        raise DimensionError(
            f"data shape {y.shape}, expected ({x.shape[0]}, {w.shape[0]})"
        )
    r = y - x @ w.T - params.offset
    u = r / gamma
    denom = 1.0 + u * u
    value = -y.size * (np.log(np.pi) + np.log(gamma)) - float(
        np.sum(np.log(denom))
    )
    t = u / denom
    grad_x = (2.0 / gamma) * (t @ w)
    grad_w = (2.0 / gamma) * (t.T @ x)
    grad_xi = (2.0 / gamma) * t.sum(axis=0)
    grad_gamma = float(np.sum((u * u - 1.0) / denom)) / gamma
    return value, grad_x, grad_w, grad_xi, grad_gamma


class CauchyPpcaModel(TargetModel):
    """Latent-coordinate target for Cauchy-noise PPCA on a fixed data set.

    The parameter vector is the row-major flattening of the (N, q) latent
    matrix. Model parameters are [vec(loading), offset, ln(scale)].
    """

    def __init__(self, data, params):
        self._y = np.asarray(data, dtype=float)
        if self._y.ndim != 2:
            raise DimensionError(f"data must be (N, d), got {self._y.shape}")
        if self._y.shape[1] != params.loading.shape[0]:
            raise DimensionError(
                f"data dimension {self._y.shape[1]} does not match loading rows "
                f"{params.loading.shape[0]}"
            )
        self.params = params

    @property
    def n_data(self):
        return self._y.shape[0]

    @property
    def latent_dim(self):
        return self.params.loading.shape[1]

    @property
    def data(self):
        return self._y

    @property
    def dim(self):
        return self.n_data * self.latent_dim

    @property
    def posterior_blocks(self):
        return (self.latent_dim,) * self.n_data

    def _latents(self, w):
        return np.asarray(w, dtype=float).reshape(self.n_data, self.latent_dim)

    def log_lik(self, w):
        return cauchy_ppca_loglik(self._latents(w), self.params, self._y)[0]

    def grad_log_lik(self, w):
        return cauchy_ppca_loglik(self._latents(w), self.params, self._y)[1].ravel()

    def _residual_stats(self, w_batch):
        """Latents x, scaled residuals u = (y - x W^T - xi) / gamma, and 1 + u^2.

        One pass over the (S, N, d) residual tensor, built in place.
        """
        w = np.asarray(w_batch, dtype=float)
        x = w.reshape(w.shape[0], self.n_data, self.latent_dim)
        u = x @ self.params.loading.T
        np.subtract(self._y, u, out=u)
        u -= self.params.offset
        u /= self.params.scale
        denom = u * u
        denom += 1.0
        return x, u, denom

    # The helpers below consume the residual stats: `_values` overwrites
    # denom with its logarithm and `_latent_grads` overwrites u with
    # t = u / denom, so `_values` must run last.
    def _values(self, denom):
        const = -self._y.size * (np.log(np.pi) + np.log(self.params.scale))
        return const - np.sum(np.log(denom, out=denom), axis=(1, 2))

    def _latent_grads(self, u, denom):
        t = np.divide(u, denom, out=u)
        g = (2.0 / self.params.scale) * (t @ self.params.loading)
        return g.reshape(u.shape[0], -1)

    def _param_grads(self, x, u, denom):
        s = x.shape[0]
        gamma = self.params.scale
        # d/d ln(gamma) = gamma * d/d gamma.
        q = u * u
        q -= 1.0
        q /= denom
        grad_rho = float(np.sum(q)) / s
        t = np.divide(u, denom, out=u)
        grad_w = (2.0 / gamma) * np.einsum("snd,snq->dq", t, x) / s
        grad_xi = (2.0 / gamma) * t.sum(axis=(0, 1)) / s
        return np.concatenate([grad_w.ravel(), grad_xi, [grad_rho]])

    def log_lik_batch(self, w_batch):
        _, _, denom = self._residual_stats(w_batch)
        return self._values(denom)

    def grad_log_lik_batch(self, w_batch):
        _, u, denom = self._residual_stats(w_batch)
        return self._latent_grads(u, denom)

    def log_lik_and_grad_batch(self, w_batch):
        _, u, denom = self._residual_stats(w_batch)
        grads = self._latent_grads(u, denom)
        return self._values(denom), grads

    @property
    def model_params(self):
        p = self.params
        return np.concatenate([p.loading.ravel(), p.offset, [np.log(p.scale)]])

    def with_model_params(self, theta):
        theta = np.asarray(theta, dtype=float)
        d, q = self.params.loading.shape
        loading = theta[: d * q].reshape(d, q)
        offset = theta[d * q : d * q + d]
        scale = float(np.exp(theta[-1]))
        return CauchyPpcaModel(self._y, CauchyPpcaParams(loading, offset, scale))

    def grad_model_params_batch(self, w_batch):
        return self._param_grads(*self._residual_stats(w_batch))

    def model_params_value_and_grad(self, w_batch):
        x, u, denom = self._residual_stats(w_batch)
        grad = self._param_grads(x, u, denom)
        return float(np.mean(self._values(denom))), grad

    def reconstruct(self, latents):
        """Map latent coordinates back to data space."""
        x = np.asarray(latents, dtype=float)
        return x @ self.params.loading.T + self.params.offset


def split_latent_posterior(post, n_data, latent_dim):
    """Per-datum (mu_n, L_n) pairs from a stacked block-diagonal posterior."""
    if post.dim != n_data * latent_dim:
        raise DimensionError(
            f"posterior dimension {post.dim} != {n_data} x {latent_dim}"
        )
    out = []
    for n in range(n_data):
        lo = n * latent_dim
        hi = lo + latent_dim
        out.append((post.mu[lo:hi].copy(), post.L[lo:hi, lo:hi].copy()))
    return out
