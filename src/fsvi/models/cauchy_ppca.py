"""Probabilistic PCA with elementwise Cauchy observation noise.

The latent coordinates of every datum carry a standard-normal prior and a
per-datum Gaussian posterior; stacking them gives one posterior whose
factor is block-diagonal with N blocks of size q. The loading matrix,
offset, and noise scale are model parameters trained by gradient steps on
the same bound (the scale in log-space to stay positive).
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .._parallel import _DRAW_THREAD_PREFIX, usable_cpus as _usable_cpus
from ..exceptions import ConfigError, DimensionError
from .base import TargetModel


@dataclass(frozen=True)
class CauchyPpcaParams:
    """Loading matrix (d, q), offset (d,), positive noise scale.

    Frozen: a model folds its parameters into its data when it is built,
    so a field reassigned afterwards would leave that model stale.
    `CauchyPpcaModel.with_model_params` builds a model for new parameters.
    """

    loading: np.ndarray
    offset: np.ndarray
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "loading", np.asarray(self.loading, dtype=float))
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float))
        object.__setattr__(self, "scale", float(self.scale))
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


# A pass splits its draws between two threads only when one draw's (N, d)
# slab has at least this many entries; below it, handing half the draws to
# the worker costs more than the worker saves. On a 2-core machine with one
# BLAS thread, a split pass over 20 draws took 1.9x the one-thread time
# at 3,000 entries, 1.2x at 10,000, 0.9-1.2x at 12,000-15,000, 0.8x at
# 20,000 and 0.6x at 50,000 and at 200,000.
_SPLIT_MIN_ENTRIES = 20_000

# (pid, pool) of the one worker thread; a forked child finds another pid
# and makes its own. Two threads that race on the first call may each make
# a pool; the spare one serves its caller's pass and is then collected.
_worker = (None, None)


def _draw_worker():
    global _worker
    pid, pool = _worker
    if pid != os.getpid():
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix=_DRAW_THREAD_PREFIX)
        _worker = (os.getpid(), pool)
    return pool


# Each thread's scratch slabs, kept between its passes. A slab of the
# denoising size is large enough that freeing it returns it to the OS, so
# a new one is faulted back in page by page on every pass. A thread holds
# the most slabs any of its passes asked for, all of its latest pass's
# shape. The worker's set is its own: it runs one pass's half at a time.
_scratch = threading.local()


def _thread_slabs(shape, n):
    """n (N, d) scratch arrays of the calling thread; their contents are stale."""
    slabs = getattr(_scratch, "slabs", [])
    if slabs and slabs[0].shape != shape:
        slabs = []
    if len(slabs) < n:
        slabs = slabs + [np.empty(shape) for _ in range(n - len(slabs))]
        _scratch.slabs = slabs
    return slabs[:n]


def _run_in_slabs(run, lo, hi, slab, n_buffers):
    run(lo, hi, *_thread_slabs(slab, n_buffers))


def _over_draws(run, s, slab, n_buffers=2):
    """Run `run(lo, hi, *buffers)` over draws [0, s), in two fixed halves when it pays.

    Each call of `run` gets `n_buffers` arrays of shape `slab`, the scratch
    slabs of the thread it runs on. With two usable CPUs, two or more
    draws and a slab of at least `_SPLIT_MIN_ENTRIES` entries, the caller
    runs draws [0, s // 2) while the worker thread runs [s // 2, s);
    otherwise the caller runs them all. The halves depend on s alone, never
    on timing, and each half must write only its own draws' outputs, so a
    pass gives the same bits either way. The worker is always waited for,
    whether the caller's half returns or raises; an error in either half
    reaches the caller.
    """
    if s < 2 or np.prod(slab) < _SPLIT_MIN_ENTRIES or _usable_cpus() < 2:
        _run_in_slabs(run, 0, s, slab, n_buffers)
        return
    h = s // 2
    future = _draw_worker().submit(_run_in_slabs, run, h, s, slab, n_buffers)
    try:
        _run_in_slabs(run, 0, h, slab, n_buffers)
    finally:
        wait((future,))
    future.result()


class CauchyPpcaModel(TargetModel):
    """Latent-coordinate target for Cauchy-noise PPCA on a fixed data set.

    The parameter vector is the row-major flattening of the (N, q) latent
    matrix. Model parameters are [vec(loading), offset, ln(scale)].

    The offset and scale are folded into the data when the model is built,
    so a draw's scaled residual takes one product and one difference;
    `with_model_params` builds a new model, which folds the new values.
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
        gamma = params.scale
        self._centred = (self._y - params.offset) / gamma
        self._loading_t = params.loading.T / gamma
        self._const = -self._y.size * (np.log(np.pi) + np.log(gamma))

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

    def _latents(self, w_batch):
        """The draws as (S, N, q) latent matrices."""
        w = np.asarray(w_batch, dtype=float)
        return w.reshape(w.shape[0], self.n_data, self.latent_dim)

    def _draw_stats(self, x_s, u, denom):
        """Fill u = (y - xi) / gamma - x_s (W^T / gamma) and denom = 1 + u^2.

        u and denom are (N, d) buffers owned by the caller: each pass takes
        them from `_over_draws`, which hands out the scratch slabs of the
        thread the draws run on, and reuses them across its draws, so one
        draw's consumer may overwrite them but must copy anything it keeps.
        """
        np.matmul(x_s, self._loading_t, out=u)
        np.subtract(self._centred, u, out=u)
        np.multiply(u, u, out=denom)
        denom += 1.0

    # The value overwrites denom with its logarithm and the gradients
    # overwrite u with t = u / denom, so a draw's value is taken last.
    def _value(self, denom, with_value=True):
        """A draw's log-likelihood; without the value, 0.0 where it is finite, else NaN.

        Each entry of denom = 1 + u^2 is at least 1, so its log is finite
        exactly where the entry is and the logs cannot overflow their sum:
        the finiteness test needs no log, and max propagates a NaN.
        """
        if with_value:
            return self._const - np.add.reduce(np.log(denom, out=denom), axis=None)
        return 0.0 if np.isfinite(self._const) and np.isfinite(denom.max()) else np.nan

    def log_lik_batch(self, w_batch):
        x = self._latents(w_batch)
        values = np.empty(len(x))

        def run(lo, hi, u, denom):
            for i in range(lo, hi):
                self._draw_stats(x[i], u, denom)
                values[i] = self._value(denom)

        _over_draws(run, len(x), self._y.shape)
        return values

    def _latent_pass(self, w_batch, with_value):
        """(values, gradient rows), the values as `_value` gives them."""
        x = self._latents(w_batch)
        s = len(x)
        values = np.empty(s)
        grads = np.empty((s, self.n_data, self.latent_dim))

        def run(lo, hi, u, denom):
            for i in range(lo, hi):
                self._draw_stats(x[i], u, denom)
                t = np.divide(u, denom, out=u)
                np.matmul(t, self.params.loading, out=grads[i])
                values[i] = self._value(denom, with_value)

        _over_draws(run, s, self._y.shape)
        grads *= 2.0 / self.params.scale
        return values, grads.reshape(s, -1)

    def log_lik_and_grad_batch(self, w_batch):
        return self._latent_pass(w_batch, True)

    def grad_log_lik_batch(self, w_batch):
        values, grads = self._latent_pass(w_batch, False)
        grads[np.isnan(values)] = np.nan
        return grads

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

    def _model_params_pass(self, w_batch, with_value):
        x = self._latents(w_batch)
        s = len(x)
        gamma = self.params.scale
        values = np.empty(s)
        grad_w = np.zeros(self.params.loading.shape)
        grad_xi = np.zeros(self.params.offset.shape)
        grad_rho = 0.0
        n_entries = float(self._y.size)

        def add(rho_i, w_i, xi_i):
            nonlocal grad_rho, grad_w, grad_xi
            grad_rho += rho_i
            grad_w += w_i
            grad_xi += xi_i

        # The worker keeps its draws' terms; the caller adds them after its
        # own, in draw order, so the sums are the one-thread sums.
        later = []

        def run(lo, hi, u, denom, r):
            for i in range(lo, hi):
                self._draw_stats(x[i], u, denom)
                np.divide(1.0, denom, out=r)
                t = np.multiply(u, r, out=u)
                # d/d ln(gamma) = gamma * d/d gamma = sum (u^2 - 1) / (1 + u^2),
                # which is N d - 2 sum r for r = 1 / (1 + u^2).
                terms = (
                    n_entries - 2.0 * np.add.reduce(r, axis=None),
                    t.T @ x[i],
                    np.add.reduce(t, axis=0),
                )
                values[i] = self._value(denom, with_value)
                if lo:
                    later.append(terms)
                else:
                    add(*terms)

        _over_draws(run, s, self._y.shape, n_buffers=3)
        for terms in later:
            add(*terms)
        value = float(np.mean(values))
        grad_w = (2.0 / gamma) * grad_w / s
        grad_xi = (2.0 / gamma) * grad_xi / s
        grad = np.concatenate([grad_w.ravel(), grad_xi, [grad_rho / s]])
        if with_value:
            return value, grad
        return grad if math.isfinite(value) else np.full_like(grad, np.nan)

    def model_params_value_and_grad(self, w_batch):
        return self._model_params_pass(w_batch, True)

    def model_params_grad(self, w_batch):
        return self._model_params_pass(w_batch, False)

    def reconstruct(self, latents):
        """Map latent coordinates back to data space."""
        x = np.asarray(latents, dtype=float)
        return x @ self.params.loading.T + self.params.offset

