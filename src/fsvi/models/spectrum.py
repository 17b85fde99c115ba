"""Multi-source amplitude-spectrum regression with nonlinear decay terms.

Each observation is an amplitude measured at some (source, distance,
frequency) triple. The amplitude model combines a per-source log-strength,
a power-law distance decay, an exponential high-frequency attenuation, and
a smooth rolloff with a corner frequency kept positive through a log
parameterisation:

    g = exp(s_e) * r^(-eta) * exp(-kappa f) / (1 + (f / exp(c))^2)

With E sources the parameter vector is [s_1..s_E, eta, kappa, c], so the
default eight-source setup has 11 free parameters. The model is fitted
under a flat prior and Gaussian observation noise.
"""

import numpy as np

from ..exceptions import ConfigError, DimensionError
from .base import GaussianNoiseModel

# Cap on exp() arguments so squared residuals stay finite at arbitrary
# search points; the data scale sits sixty orders of magnitude below it.
_EXP_CAP = 150.0


class SpectrumDecayModel(GaussianNoiseModel):
    """Gaussian-noise regression of amplitudes on (source, distance, frequency)."""

    prior = "flat"

    def __init__(self, source_idx, distances, frequencies, targets, n_sources=8):
        self._e = np.asarray(source_idx, dtype=int)
        self._r = np.asarray(distances, dtype=float)
        self._f = np.asarray(frequencies, dtype=float)
        self._y = np.asarray(targets, dtype=float)
        n = self._e.size
        if not (self._r.shape == self._f.shape == self._y.shape == (n,)):
            raise DimensionError(
                "source_idx, distances, frequencies, targets must share one length"
            )
        if n_sources < 1:
            raise ConfigError(f"n_sources must be >= 1, got {n_sources}")
        if self._e.size and (self._e.min() < 0 or self._e.max() >= n_sources):
            raise ConfigError(
                f"source indices must lie in [0, {n_sources - 1}], found "
                f"[{self._e.min()}, {self._e.max()}]"
            )
        if np.any(self._r <= 0.0) or np.any(self._f <= 0.0):
            raise ConfigError("distances and frequencies must be positive")
        self._n_sources = n_sources
        self._log_r = np.log(self._r)
        self._source_onehot = (self._e[:, None] == np.arange(n_sources)).astype(float)

    @property
    def n_sources(self):
        return self._n_sources

    @property
    def dim(self):
        return self._n_sources + 3

    @property
    def n_obs(self):
        return self._e.size

    @property
    def targets(self):
        return self._y

    def _amplitude_batch(self, w_batch, e, log_r, f):
        """Amplitudes g and rolloff terms u = (f / exp(c))^2, both (S, n)."""
        w = np.asarray(w_batch, dtype=float)
        eta, kappa, c = (w[:, self._n_sources + i, None] for i in range(3))
        u = (f * np.exp(np.minimum(-c, _EXP_CAP))) ** 2
        log_g = w[:, e] - eta * log_r - kappa * f
        return np.exp(np.minimum(log_g, _EXP_CAP)) / (1.0 + u), u

    def predict_outputs_batch(self, w_batch):
        return self._amplitude_batch(w_batch, self._e, self._log_r, self._f)[0]

    def vjp_batch(self, w_batch, r):
        # Per-row reductions, so a row's result does not depend on the batch.
        g, u = self._amplitude_batch(w_batch, self._e, self._log_r, self._f)
        gr = g * r
        return np.column_stack(
            [
                np.einsum("sn,nk->sk", gr, self._source_onehot),
                -np.sum(gr * self._log_r, axis=1),
                -np.sum(gr * self._f, axis=1),
                np.sum(gr * (2.0 * u / (1.0 + u)), axis=1),
            ]
        )

    def predict_batch(self, w_batch, inputs):
        """Amplitudes at (source_idx, distance, frequency) rows of `inputs`."""
        e, r, f = self._unpack_inputs(inputs)
        return self._amplitude_batch(w_batch, e, np.log(r), f)[0]

    def _unpack_inputs(self, inputs):
        arr = np.asarray(inputs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise DimensionError(
                f"inputs must be (n, 3) = (source, distance, frequency), "
                f"got {arr.shape}"
            )
        return arr[:, 0].astype(int), arr[:, 1], arr[:, 2]


def synth_spectrum_data(n, seed, n_sources=8, noise_sd=0.05):
    """Sample (inputs, targets, true_w) for the amplitude decay model.

    Inputs are (source, distance, frequency) rows with distances and
    frequencies log-uniform over [5, 50] and [0.5, 20]. True parameters are
    drawn once per seed around physically plausible magnitudes.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    true_w = np.concatenate(
        [
            rng.normal(1.0, 0.3, size=n_sources),
            [1.0 + 0.1 * rng.standard_normal()],  # eta
            [0.04 + 0.01 * rng.standard_normal()],  # kappa
            [np.log(8.0) + 0.2 * rng.standard_normal()],  # log corner frequency
        ]
    )
    e = rng.integers(0, n_sources, size=n)
    r = np.exp(rng.uniform(np.log(5.0), np.log(50.0), size=n))
    f = np.exp(rng.uniform(np.log(0.5), np.log(20.0), size=n))
    inputs = np.column_stack([e.astype(float), r, f])
    model = SpectrumDecayModel(e, r, f, np.zeros(n), n_sources=n_sources)
    clean = model.predict(true_w, inputs)
    targets = clean + noise_sd * rng.standard_normal(n)
    return inputs, targets, true_w
