"""Radial-basis-function regression under Gaussian observation noise."""

import numpy as np

from ..exceptions import ConfigError, DimensionError
from .base import GaussianNoiseModel, _LN_2PI


class RbfDesign:
    """Feature map phi(x) = [exp(-||x - c_k||^2 / (2 r^2)), ..., 1].

    Gaussian bumps around each centre plus a trailing bias column; every
    entry lies in (0, 1] and the last column is identically one.
    """

    def __init__(self, centres, width):
        centres = np.asarray(centres, dtype=float)
        if centres.ndim == 1:
            centres = centres[:, None]
        if centres.ndim != 2 or centres.shape[0] < 1:
            raise DimensionError(f"centres must be (K,) or (K, p), got {centres.shape}")
        if not width > 0.0:
            raise ConfigError(f"width must be positive, got {width}")
        self.centres = centres
        self.width = float(width)

    @classmethod
    def from_inputs(cls, inputs, width, n_centres=None):
        """Place centres on the inputs themselves, optionally subsampled.

        With n_centres set, an evenly spaced subset is taken (after sorting
        for one-dimensional inputs), which keeps the choice deterministic.
        """
        x = np.asarray(inputs, dtype=float)
        if x.ndim == 1:
            x = np.sort(x)[:, None]
        if n_centres is None or n_centres >= x.shape[0]:
            return cls(x, width)
        if n_centres < 1:
            raise ConfigError(f"n_centres must be >= 1, got {n_centres}")
        idx = np.unique(np.linspace(0, x.shape[0] - 1, n_centres).round().astype(int))
        return cls(x[idx], width)

    @property
    def n_features(self):
        return self.centres.shape[0] + 1

    def matrix(self, x):
        """Design matrix on inputs x, shape (n, n_features)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != self.centres.shape[1]:
            raise DimensionError(
                f"inputs have {x.shape[1]} coordinates, centres have "
                f"{self.centres.shape[1]}"
            )
        sq = np.sum((x[:, None, :] - self.centres[None, :, :]) ** 2, axis=2)
        phi = np.exp(-0.5 * sq / self.width**2)
        return np.hstack([phi, np.ones((x.shape[0], 1))])


def rbf_regression_loglik(w, design_matrix, targets, beta):
    """Gaussian log-likelihood of a linear-in-features regression and its gradient.

    Returns (value, gradient) with all constants retained:
    value = (N/2) ln(beta) - (N/2) ln(2 pi) - (beta/2) ||Y - Phi w||^2.
    """
    phi = np.asarray(design_matrix, dtype=float)
    y = np.asarray(targets, dtype=float)
    w = np.asarray(w, dtype=float)
    r = y - phi @ w
    n = y.size
    value = 0.5 * n * (np.log(beta) - _LN_2PI) - 0.5 * beta * float(r @ r)
    return value, beta * (phi.T @ r)


class RbfRegressionModel(GaussianNoiseModel):
    """Bayesian linear regression on RBF features with Gaussian noise."""

    def __init__(self, inputs, targets, design):
        self.design = design
        self._phi = design.matrix(inputs)
        self._y = np.asarray(targets, dtype=float)
        if self._y.ndim != 1 or self._y.size != self._phi.shape[0]:
            raise DimensionError(
                f"targets shape {self._y.shape} does not match "
                f"{self._phi.shape[0]} inputs"
            )

    @property
    def dim(self):
        return self._phi.shape[1]

    @property
    def n_obs(self):
        return self._y.size

    @property
    def targets(self):
        return self._y

    @property
    def design_matrix(self):
        return self._phi

    def predict_outputs_batch(self, w_batch):
        return np.asarray(w_batch, dtype=float) @ self._phi.T

    def vjp_batch(self, w_batch, r):
        return r @ self._phi

    def predict_batch(self, w_batch, inputs):
        return np.asarray(w_batch, dtype=float) @ self.design.matrix(inputs).T


def true_regression_curve(x):
    """Noise-free curve behind the synthetic regression data."""
    x = np.asarray(x, dtype=float)
    return 2.0 * np.cos(x) * np.sin(x) - 0.1 * x**2


def synth_regression_data(n, seed, noise_sd=0.2, x_range=(-6.0, 6.0)):
    """Sample (x, y) pairs from the synthetic curve with Gaussian noise.

    Inputs are uniform on x_range and y = 2 cos(x) sin(x) - 0.1 x^2 plus
    N(0, noise_sd^2) noise. Fully determined by the seed.
    """
    if n < 1:
        raise ConfigError(f"need at least one datum, got {n}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(x_range[0], x_range[1], size=n)
    y = true_regression_curve(x) + noise_sd * rng.standard_normal(n)
    return x, y
