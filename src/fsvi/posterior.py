"""Gaussian variational posterior, fixed latent draws, and hyperparameters."""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .exceptions import ConfigError, DimensionError, InvalidPosteriorError

# |det L| below this is treated as singular everywhere.
_DET_FLOOR = 1e-300
_LOG_DET_FLOOR = np.log(_DET_FLOOR)


@dataclass
class VariationalPosterior:
    """Gaussian q(w) = N(mu, L L^T) parameterised by its square factor L.

    L is either a dense (M, M) matrix, a full factor, or a (K, b, b) stack
    of equal diagonal blocks with K b = M, a block-diagonal factor. Blocks
    are general square matrices, not required to be triangular. Instances
    are treated as immutable; fitting code builds new ones instead of
    mutating in place.
    """

    mu: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.L = np.asarray(self.L, dtype=float)
        if self.mu.ndim != 1:
            raise DimensionError(f"mu must be a vector, got shape {self.mu.shape}")
        m = self.mu.size
        shape = self.L.shape
        full = shape == (m, m)
        stacked = (
            len(shape) == 3 and shape[1] == shape[2] and shape[0] * shape[1] == m
        )
        if not (full or stacked):
            raise DimensionError(
                f"L must be {m}x{m}, or a (K, b, b) stack with K*b = {m}, "
                f"to match mu; got shape {shape}"
            )

    @property
    def dim(self):
        return self.mu.size

    @property
    def blocks(self):
        """The factor as a (K, b, b) stack of diagonal blocks; K = 1 if full."""
        return self.L[None] if self.L.ndim == 2 else self.L

    def dense_factor(self):
        """The factor as one (M, M) matrix."""
        return self.L if self.L.ndim == 2 else block_diag(*self.L)

    @functools.cached_property
    def factor_slogdet(self):
        """(sign, ln|det L|) of the factor, from one LU per block."""
        # Python reductions: numpy's cost more than the work for small K.
        sign, logdet = np.linalg.slogdet(self.blocks)
        return math.prod(sign.tolist()), sum(logdet.tolist())

    def log_abs_det_factor(self):
        """ln|det L| via pivoted LU factorisation.

        Raises InvalidPosteriorError when |det L| falls below 1e-300.
        """
        sign, logdet = self.factor_slogdet
        if sign == 0.0 or logdet < _LOG_DET_FLOOR:
            raise InvalidPosteriorError("posterior factor L is singular")
        return logdet

    def second_moment(self):
        """E_q[w^T w] = mu^T mu + tr(L L^T)."""
        return float(self.mu @ self.mu) + float(np.sum(self.L * self.L))

    def covariance(self):
        factor = self.dense_factor()
        return factor @ factor.T

    def transform(self, z):
        """Map standard-normal draws z to parameter space, w = mu + L z.

        Accepts a single draw of shape (M,) or a batch of shape (S, M);
        the result has the same leading shape.
        """
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.dim:
            raise DimensionError(
                f"draws have dimension {z.shape[-1]}, posterior has {self.dim}"
            )
        blocks = self.blocks
        k, b, _ = blocks.shape
        per_block = z.reshape(-1, k, b).swapaxes(0, 1) @ blocks.swapaxes(-1, -2)
        return self.mu + per_block.swapaxes(0, 1).reshape(z.shape)

    def sample(self, n_draws, rng):
        """Draw n_draws parameter vectors using the supplied Generator."""
        z = rng.standard_normal((n_draws, self.dim))
        return self.transform(z)


@dataclass(frozen=True)
class SampleSet:
    """Standard-normal draws z_(1..S), fixed for the lifetime of a fit.

    The draws are generated once from `seed` and never refreshed; the
    stochastic lower bound is a deterministic function of them.
    """

    draws: np.ndarray
    seed: int

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        if draws.ndim != 2 or draws.shape[0] < 1:
            raise DimensionError(
                f"draws must have shape (S, M) with S >= 1, got {draws.shape}"
            )
        object.__setattr__(self, "draws", draws)

    @classmethod
    def generate(cls, n_draws, dim, seed):
        if n_draws < 1:
            raise ConfigError(f"need at least one draw, got {n_draws}")
        rng = np.random.default_rng(seed)
        try:
            draws = rng.standard_normal((n_draws, dim))
        except (MemoryError, ValueError) as exc:
            # numpy refuses shapes it cannot address with ValueError.
            raise ConfigError(
                f"cannot allocate {n_draws} draws of dimension {dim}: {exc}"
            ) from exc
        return cls(draws=draws, seed=seed)

    @property
    def size(self):
        return self.draws.shape[0]

    @property
    def dim(self):
        return self.draws.shape[1]


@dataclass
class Hyperparameters:
    """Prior precision alpha and, for Gaussian-noise models, noise precision beta.

    alpha is None for flat-prior targets, beta is None for models whose
    likelihood has no separate noise precision.
    """

    alpha: float | None
    beta: float | None = None

    def __post_init__(self):
        if self.alpha is not None:
            self.alpha = float(self.alpha)
            if not np.isfinite(self.alpha) or self.alpha <= 0.0:
                raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.beta is not None:
            self.beta = float(self.beta)
            if not np.isfinite(self.beta) or self.beta <= 0.0:
                raise ConfigError(f"beta must be positive, got {self.beta}")
