"""Probabilistic PCA with elementwise Cauchy observation noise.

The latent coordinates of every datum carry a standard-normal prior and a
per-datum Gaussian posterior; stacking them gives one posterior whose
factor is block-diagonal with N blocks of size q. The loading matrix,
offset, and noise scale are model parameters trained by gradient steps on
the same bound (the scale in log-space to stay positive).
"""

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigError, DimensionError
from .base import TargetModel


@dataclass
class CauchyPpcaParams:
    """Loading matrix (d, q), offset (d,), positive noise scale."""

    loading: np.ndarray
    offset: np.ndarray
    scale: float

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
    def n_posterior_blocks(self):
        return self.n_data

    def _draw_stats(self, w_batch):
        """Per draw s: latents x_s, u_s = (y - x_s W^T - xi) / gamma, and 1 + u_s^2.

        The draws are passed one at a time so each (N, d) slab stays in
        cache; the two slabs are buffers reused across draws, so a consumer
        may overwrite them but must copy anything it keeps.
        """
        w = np.asarray(w_batch, dtype=float)
        x = w.reshape(w.shape[0], self.n_data, self.latent_dim)
        u = np.empty_like(self._y)
        denom = np.empty_like(self._y)
        for x_s in x:
            np.matmul(x_s, self.params.loading.T, out=u)
            np.subtract(self._y, u, out=u)
            u -= self.params.offset
            u /= self.params.scale
            np.multiply(u, u, out=denom)
            denom += 1.0
            yield x_s, u, denom

    # The value overwrites denom with its logarithm and the gradients
    # overwrite u with t = u / denom, so a draw's value is taken last.
    def _value(self, denom):
        const = -self._y.size * (np.log(np.pi) + np.log(self.params.scale))
        return const - np.sum(np.log(denom, out=denom))

    def log_lik_batch(self, w_batch):
        stats = self._draw_stats(w_batch)
        return np.array([self._value(denom) for *_, denom in stats])

    def log_lik_and_grad_batch(self, w_batch):
        s = len(w_batch)
        values = np.empty(s)
        grads = np.empty((s, self.n_data, self.latent_dim))
        for i, (_, u, denom) in enumerate(self._draw_stats(w_batch)):
            t = np.divide(u, denom, out=u)
            np.matmul(t, self.params.loading, out=grads[i])
            values[i] = self._value(denom)
        grads *= 2.0 / self.params.scale
        return values, grads.reshape(s, -1)

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

    def model_params_value_and_grad(self, w_batch):
        s = len(w_batch)
        gamma = self.params.scale
        values = np.empty(s)
        grad_w = np.zeros(self.params.loading.shape)
        grad_xi = np.zeros(self.params.offset.shape)
        grad_rho = 0.0
        for i, (x_s, u, denom) in enumerate(self._draw_stats(w_batch)):
            # d/d ln(gamma) = gamma * d/d gamma.
            q = u * u
            q -= 1.0
            q /= denom
            grad_rho += np.sum(q)
            t = np.divide(u, denom, out=u)
            grad_w += t.T @ x_s
            grad_xi += t.sum(axis=0)
            values[i] = self._value(denom)
        grad_w = (2.0 / gamma) * grad_w / s
        grad_xi = (2.0 / gamma) * grad_xi / s
        grad = np.concatenate([grad_w.ravel(), grad_xi, [grad_rho / s]])
        return float(np.mean(values)), grad

    def reconstruct(self, latents):
        """Map latent coordinates back to data space."""
        x = np.asarray(latents, dtype=float)
        return x @ self.params.loading.T + self.params.offset

