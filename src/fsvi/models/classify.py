"""Logistic and softmax classification likelihoods on shared feature maps."""

import numpy as np

from ..exceptions import ConfigError, DimensionError, InvalidLabelError
from .base import TargetModel


def _validate_binary(labels):
    y = np.asarray(labels)
    if y.ndim != 1:
        raise DimensionError(f"labels must be a vector, got shape {y.shape}")
    if not np.isin(y, (0, 1)).all():
        bad = np.unique(y[~np.isin(y, (0, 1))])
        raise InvalidLabelError(f"binary labels must be 0 or 1, found {bad}")
    return y.astype(float)


def _validate_onehot(onehot):
    y = np.asarray(onehot)
    if y.ndim != 2 or y.shape[1] < 2:
        raise DimensionError(f"one-hot labels must be (N, K>=2), got {y.shape}")
    ok = np.isin(y, (0, 1)).all() and (y.sum(axis=1) == 1).all()
    if not ok:
        rows = np.nonzero(
            ~np.isin(y, (0, 1)).all(axis=1) | (y.sum(axis=1) != 1)
        )[0]
        raise InvalidLabelError(f"rows {rows.tolist()} are not one-hot coded")
    return y.astype(float)


class LogisticModel(TargetModel):
    """Binary classification with a Bernoulli likelihood on RBF features."""

    def __init__(self, inputs, labels, design):
        self.design = design
        self._phi = design.matrix(inputs)
        self._y = _validate_binary(labels)
        if self._y.size != self._phi.shape[0]:
            raise DimensionError(
                f"{self._y.size} labels for {self._phi.shape[0]} inputs"
            )
        # Bound here, so scipy.special loads only with a model that calls it.
        from scipy.special import expit

        self._expit = expit

    @property
    def dim(self):
        return self._phi.shape[1]

    def _values(self, t):
        return t @ self._y - np.sum(np.logaddexp(0.0, t), axis=1)

    def log_lik_batch(self, w_batch):
        return self._values(np.asarray(w_batch, dtype=float) @ self._phi.T)

    def log_lik_and_grad_batch(self, w_batch):
        t = np.asarray(w_batch, dtype=float) @ self._phi.T
        return self._values(t), (self._y - self._expit(t)) @ self._phi

    def predict_batch(self, w_batch, inputs):
        """Class probabilities, shape (S, n, 2); column 1 is P(label = 1)."""
        t = self.design.matrix(inputs) @ np.asarray(w_batch, dtype=float).T
        p = self._expit(t).T
        return np.stack([1.0 - p, p], axis=2)


class SoftmaxModel(TargetModel):
    """K-class classification with a categorical likelihood on RBF features.

    The posterior over the stacked weight vector factorises per class,
    exposed through `n_posterior_blocks` as K blocks of n_features each.
    """

    def __init__(self, inputs, onehot, design):
        self.design = design
        self._phi = design.matrix(inputs)
        self._y = _validate_onehot(onehot)
        if self._y.shape[0] != self._phi.shape[0]:
            raise DimensionError(
                f"{self._y.shape[0]} label rows for {self._phi.shape[0]} inputs"
            )
        self._k = self._y.shape[1]

    @property
    def dim(self):
        return self._k * self._phi.shape[1]

    @property
    def n_posterior_blocks(self):
        return self._k

    def _logits(self, w_batch, phi):
        """Logits of each draw on feature rows phi, shape (S, K, n), by one matmul."""
        w = np.asarray(w_batch, dtype=float)
        s = w.shape[0]
        return (w.reshape(s * self._k, -1) @ phi.T).reshape(s, self._k, -1)

    def _values(self, logits, top, z):
        fit = np.sum(logits * self._y.T, axis=(1, 2))
        return fit - np.sum(top + np.log(z), axis=(1, 2))

    def log_lik_batch(self, w_batch):
        logits = self._logits(w_batch, self._phi)
        top, _, z = _shifted_exp(logits)
        return self._values(logits, top, z)

    def log_lik_and_grad_batch(self, w_batch):
        logits = self._logits(w_batch, self._phi)
        top, e, z = _shifted_exp(logits)
        diff = self._y.T - e / z
        s = logits.shape[0]
        grads = diff.reshape(s * self._k, -1) @ self._phi
        return self._values(logits, top, z), grads.reshape(s, -1)

    def predict_batch(self, w_batch, inputs):
        """Class probabilities, shape (S, n, K); rows sum to one."""
        _, e, z = _shifted_exp(self._logits(w_batch, self.design.matrix(inputs)))
        return (e / z).transpose(0, 2, 1)


def _shifted_exp(logits):
    """(max, exp(logits - max), sum of that exp) over the class axis 1.

    Shared by the log-normaliser max + ln(sum) and the class probabilities
    exp / sum, so one pass serves both.
    """
    top = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - top)
    return top, e, e.sum(axis=1, keepdims=True)


def one_hot(labels, n_classes):
    """1-of-K coding for integer labels in {0, ..., n_classes - 1}."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise DimensionError(f"labels must be a vector, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise InvalidLabelError(
            f"labels must lie in [0, {n_classes - 1}], found "
            f"[{y.min()}, {y.max()}]"
        )
    out = np.zeros((y.size, n_classes))
    out[np.arange(y.size), y.astype(int)] = 1.0
    return out


def synth_classification_data(n_classes, n, seed, separation=6.0, spread=1.0):
    """Gaussian blobs in the plane, one per class, balanced within one datum.

    Class centres sit on a circle whose radius scales with `separation`;
    labels are assigned round-robin so class counts differ by at most one.
    Returns (inputs, integer labels).
    """
    if n_classes < 2:
        raise ConfigError(f"need at least two classes, got {n_classes}")
    if n < n_classes:
        raise ConfigError(f"need at least one datum per class, got n={n}")
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    radius = 0.5 * separation / max(np.sin(np.pi / n_classes), 1e-12)
    centres = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    labels = np.arange(n) % n_classes
    x = centres[labels] + spread * rng.standard_normal((n, 2))
    perm = rng.permutation(n)
    return x[perm], labels[perm]
