"""Shared fixtures: finite-difference helpers, toy models, the model zoo."""

import numpy as np
import pytest

from fsvi import Hyperparameters
from fsvi.models import (
    CauchyPpcaModel,
    CauchyPpcaParams,
    GaussianTarget,
    LogisticModel,
    RbfDesign,
    RbfRegressionModel,
    SkewTarget,
    SoftmaxModel,
    SpectrumDecayModel,
    one_hot,
    synth_classification_data,
    synth_regression_data,
    synth_spectrum_data,
)
from fsvi.models.base import GaussianNoiseModel, TargetModel

_ACCEPTANCE_LINES = []


def fd_grad(fun, x, step=1e-5):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        grad[i] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return grad


def rel_err(approx, exact):
    """Norm of the difference relative to the exact norm (floored at 1)."""
    approx = np.asarray(approx, dtype=float).ravel()
    exact = np.asarray(exact, dtype=float).ravel()
    return float(np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1.0))


class PriorOnlyModel(TargetModel):
    """Zero log-likelihood: the bound reduces to the negated prior KL."""

    def __init__(self, dim):
        self._dim = dim

    @property
    def dim(self):
        return self._dim

    def log_lik_and_grad_batch(self, w_batch):
        w = np.asarray(w_batch, dtype=float)
        return np.zeros(w.shape[0]), np.zeros_like(w)


class LineModel(GaussianNoiseModel):
    """One observation per parameter, f(w) = w; keeps residuals explicit."""

    def __init__(self, targets):
        self._y = np.atleast_1d(np.asarray(targets, dtype=float))

    @property
    def dim(self):
        return self._y.size

    @property
    def n_obs(self):
        return self._y.size

    @property
    def targets(self):
        return self._y

    def predict_outputs_batch(self, w_batch):
        return np.asarray(w_batch, dtype=float)

    def vjp_batch(self, w_batch, r):
        return r


class QuarticTarget(TargetModel):
    """log p(w) = -w^4 in one dimension; curvature vanishes at the mode."""

    prior = "flat"

    @property
    def dim(self):
        return 1

    def log_lik_and_grad_batch(self, w_batch):
        w = np.asarray(w_batch, dtype=float)
        return -w[:, 0] ** 4, -4.0 * w**3


def make_model_zoo(seed=0):
    """Small instances of every concrete likelihood, with matching hyperparameters.

    Returns (name, model, hyper) triples. Data sizes are kept tiny so the
    full finite-difference contract stays fast.
    """
    rng = np.random.default_rng(seed)
    zoo = []

    zoo.append(
        (
            "gaussian",
            GaussianTarget([0.3, -0.2], [[1.0, 0.3], [0.3, 0.8]]),
            Hyperparameters(None),
        )
    )
    zoo.append(
        (
            "skew",
            SkewTarget([-3.0, 1.0, -1.0, -1.0, -1.0, -1.0]),
            Hyperparameters(None),
        )
    )

    x, y = synth_regression_data(12, seed)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=3)
    zoo.append(
        (
            "rbf-regression",
            RbfRegressionModel(x, y, design),
            Hyperparameters(0.7, 2.5),
        )
    )

    xc, labels = synth_classification_data(2, 10, seed, separation=2.0, spread=0.6)
    cdesign = RbfDesign.from_inputs(xc, 1.0, n_centres=3)
    zoo.append(
        (
            "logistic",
            LogisticModel(xc, labels, cdesign),
            Hyperparameters(0.5),
        )
    )

    xm, ml = synth_classification_data(3, 12, seed, separation=2.0, spread=0.6)
    mdesign = RbfDesign.from_inputs(xm, 1.0, n_centres=2)
    zoo.append(
        (
            "softmax",
            SoftmaxModel(xm, one_hot(ml, 3), mdesign),
            Hyperparameters(0.5),
        )
    )

    loading = rng.standard_normal((5, 2))
    offset = rng.standard_normal(5)
    data = rng.standard_normal((3, 2)) @ loading.T + offset
    data += 0.3 * rng.standard_normal(data.shape)
    zoo.append(
        (
            "cauchy-ppca",
            CauchyPpcaModel(data, CauchyPpcaParams(loading, offset, 0.8)),
            Hyperparameters(1.0),
        )
    )

    inputs, targets, _ = synth_spectrum_data(15, seed, n_sources=3)
    zoo.append(
        (
            "spectrum",
            SpectrumDecayModel(
                inputs[:, 0].astype(int),
                inputs[:, 1],
                inputs[:, 2],
                targets,
                n_sources=3,
            ),
            Hyperparameters(None, 4.0),
        )
    )
    return zoo


@pytest.fixture
def model_zoo():
    return make_model_zoo()


@pytest.fixture
def criterion_verdict():
    """Record and assert one acceptance-criterion verdict line."""

    def record(number, passed, detail):
        line = f"criterion {number:02d}: {'PASS' if passed else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line, flush=True)
        assert passed, line

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
