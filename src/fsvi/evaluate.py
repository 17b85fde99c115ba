"""Numerical divergence on a plane grid, Monte-Carlo predictives, metrics."""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConfigError,
    CoverageError,
    DataFormatError,
    DimensionError,
)
from .models.skew import GaussianTarget

_MIN_RESOLUTION = 64
_COVERAGE = 1.0 - 1e-6


@dataclass(frozen=True)
class Grid2D:
    """Tensor-product trapezoidal quadrature grid on a rectangle."""

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, bounds=((-8.0, 8.0), (-8.0, 8.0)), resolution=(256, 256)):
        if isinstance(resolution, int):
            resolution = (resolution, resolution)
        (x_lo, x_hi), (y_lo, y_hi) = bounds
        nx, ny = resolution
        if nx < _MIN_RESOLUTION or ny < _MIN_RESOLUTION:
            raise ConfigError(
                f"resolution must be >= {_MIN_RESOLUTION} per axis, got {resolution}"
            )
        if not (x_hi > x_lo and y_hi > y_lo):
            raise ConfigError(f"degenerate bounds {bounds}")
        x = np.linspace(x_lo, x_hi, nx)
        y = np.linspace(y_lo, y_hi, ny)
        wx = np.full(nx, x[1] - x[0])
        wx[[0, -1]] *= 0.5
        wy = np.full(ny, y[1] - y[0])
        wy[[0, -1]] *= 0.5
        return cls(x=x, y=y, weights=np.outer(wx, wy))

    @property
    def points(self):
        """All grid nodes as rows of an (nx * ny, 2) array."""
        xx, yy = np.meshgrid(self.x, self.y, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    @property
    def flat_weights(self):
        return self.weights.ravel()

    def integrate(self, values):
        # A fixed-order (pairwise) sum, not a BLAS dot: its bits do not
        # depend on the BLAS thread count.
        return float(np.sum(self.flat_weights * np.asarray(values, dtype=float).ravel()))


def gaussian_logdensity_fn(mean, cov):
    """Callable evaluating the N(mean, cov) log-density on rows of points."""
    return GaussianTarget(mean, cov).log_lik_batch


def kld_numerical_2d(log_p, log_q, grid, direction):
    """Trapezoidal-quadrature Kullback-Leibler divergence between 2-D densities.

    log_p and log_q are the log-densities' values at `grid.points`, so a
    density scored in several divergences is evaluated on the grid once.
    Both densities are renormalised on the grid before integration, the
    convention 0 ln 0 = 0 applies where the leading density underflows,
    and the grid must capture at least 1 - 1e-6 of each density's mass or
    a CoverageError (carrying both measured masses) is raised.

    direction "p-to-q" integrates p ln(p/q); "q-to-p" swaps the roles.
    """
    if direction not in ("p-to-q", "q-to-p"):
        raise ConfigError(f"unknown direction {direction!r}")
    n = grid.weights.size
    lp = np.asarray(log_p, dtype=float)
    lq = np.asarray(log_q, dtype=float)
    if lp.shape != (n,) or lq.shape != (n,):
        raise DimensionError("log-densities must have one value per grid point")

    mass_p = grid.integrate(np.exp(lp))
    mass_q = grid.integrate(np.exp(lq))
    if mass_p < _COVERAGE or mass_q < _COVERAGE:
        raise CoverageError(
            f"grid captures masses {mass_p:.8f} and {mass_q:.8f}",
            masses=(mass_p, mass_q),
        )
    lp = lp - np.log(mass_p)
    lq = lq - np.log(mass_q)
    if direction == "q-to-p":
        lp, lq = lq, lp

    lead = np.exp(lp)
    integrand = np.where(lead > 0.0, lead * (lp - lq), 0.0)
    return grid.integrate(integrand)


def predictive_mc(post, model, inputs, n_draws=200, seed=0):
    """Monte-Carlo predictive under parameter draws w ~ N(mu, L L^T).

    Classification models (predictions of shape (n, K)) yield averaged
    class probabilities. Regression models (predictions of shape (n,))
    yield a (mean, variance) pair of arrays.
    """
    if n_draws < 1:
        raise ConfigError(f"n_draws must be >= 1, got {n_draws}")
    post.log_abs_det_factor()  # raises InvalidPosteriorError on singular L
    rng = np.random.default_rng(seed)
    draws = post.sample(n_draws, rng)
    preds = model.predict_batch(draws, inputs)
    if preds.ndim == 3:
        return preds.mean(axis=0)
    return preds.mean(axis=0), preds.var(axis=0)


def accuracy(probabilities, labels):
    """Fraction of argmax decisions (lowest index wins ties) matching labels."""
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(labels)
    if p.ndim != 2 or p.shape[0] != y.size:
        raise DimensionError(
            f"probabilities {p.shape} and labels {y.shape} are inconsistent"
        )
    return float(np.mean(np.argmax(p, axis=1) == y.astype(int)))


def mse(predictions, targets):
    """Mean squared error between two equally long vectors."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise DimensionError(f"shapes {p.shape} and {t.shape} differ")
    return float(np.mean((p - t) ** 2))


def reconstruction_error(original, reconstructed):
    """Relative squared reconstruction error ||y - y_rec||^2 / ||y||^2."""
    y = np.asarray(original, dtype=float).ravel()
    r = np.asarray(reconstructed, dtype=float).ravel()
    if y.shape != r.shape:
        raise DimensionError(f"shapes {y.shape} and {r.shape} differ")
    denom = float(y @ y)
    if denom == 0.0:
        raise DataFormatError("original vector has zero norm")
    diff = y - r
    return float(diff @ diff) / denom
