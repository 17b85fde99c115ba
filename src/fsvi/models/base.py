"""Abstract target models: differentiable log-likelihoods over a parameter vector.

Models are immutable and their evaluations are pure, so a single instance
can safely be shared across threads or evaluated on batches of parameter
vectors at once.

A model implements one fused batched pass, `log_lik_and_grad_batch`; every
other likelihood method is derived from it here.
"""

import abc

import numpy as np

from ..exceptions import ConfigError

_LN_2PI = np.log(2.0 * np.pi)


def _one_row(w):
    return np.asarray(w, dtype=float)[None, :]


class TargetModel(abc.ABC):
    """A log-likelihood (or directly a log-density) over R^dim.

    `prior` is "gaussian" for models fitted under a zero-mean isotropic
    Gaussian prior with precision alpha, and "flat" for targets fitted
    under an improper uniform prior (direct density fitting included).

    Likelihood methods take the draws first and then any extra arguments
    the model needs (the noise precision beta for Gaussian-noise models;
    see `_noise_args`).
    """

    prior = "gaussian"

    @property
    @abc.abstractmethod
    def dim(self):
        """Number of parameters the likelihood is evaluated at."""

    @abc.abstractmethod
    def log_lik_and_grad_batch(self, w_batch, *args):
        """(values[S], grads[S, dim]) at the rows of w_batch in one pass."""

    def log_lik_batch(self, w_batch, *args):
        """Log-likelihood at each row of w_batch.

        Override where the value alone is cheaper than the fused pass; the
        override must return exactly the fused pass's values.
        """
        return self.log_lik_and_grad_batch(w_batch, *args)[0]

    def grad_log_lik_batch(self, w_batch, *args):
        """The fused pass's gradient rows, a NaN row wherever its value is not finite.

        SCG's curvature probes call this: they read the gradient alone, and
        the NaN rows reject a probe exactly where a non-finite value would.
        Override where the gradient alone is cheaper than the fused pass.
        """
        values, grads = self.log_lik_and_grad_batch(w_batch, *args)
        return np.where(np.isfinite(values)[:, None], grads, np.nan)

    # Per-point forms, each a batch of one; perfbench/kernels.py times them.
    def log_lik(self, w, *args):
        return float(self.log_lik_batch(_one_row(w), *args)[0])

    def grad_log_lik(self, w, *args):
        return self.grad_log_lik_batch(_one_row(w), *args)[0]

    @property
    def n_posterior_blocks(self):
        """Number K of equal diagonal blocks the posterior factor L has.

        With K > 1 the fit keeps L block-diagonal, as a (K, dim/K, dim/K)
        stack; K = 1 is a full factor.
        """
        return 1

    # Models with trainable internal parameters (beyond w) override these.
    @property
    def model_params(self):
        return None

    def with_model_params(self, theta):
        raise NotImplementedError(f"{type(self).__name__} has no model parameters")

    def model_params_value_and_grad(self, w_batch):
        """(mean log-likelihood over w_batch, its model_params gradient)."""
        raise NotImplementedError(f"{type(self).__name__} has no model parameters")

    def model_params_grad(self, w_batch):
        """The model_params gradient alone, NaN wherever the value is not finite."""
        value, grad = self.model_params_value_and_grad(w_batch)
        return grad if np.isfinite(value) else np.full_like(grad, np.nan)

    def predict_batch(self, w_batch, inputs):
        """Per-datum predictions at each row of w_batch (model specific)."""
        raise NotImplementedError(f"{type(self).__name__} does not predict")


class GaussianNoiseModel(TargetModel):
    """Models with observation noise y ~ N(f(x; w), 1/beta).

    The noise precision beta is a fit-level hyperparameter, so unlike the
    base class the likelihood methods take it explicitly. Subclasses
    supply the regression function through `predict_outputs_batch` and its
    transposed-Jacobian product `vjp_batch`; the Gaussian algebra lives
    here. Subclasses pass their observed targets to `__init__`.
    """

    def __init__(self, targets):
        self.targets = np.asarray(targets, dtype=float)

    @property
    def n_obs(self):
        return self.targets.size

    @abc.abstractmethod
    def predict_outputs_batch(self, w_batch):
        """f(X; w_s) on the training inputs for each row, shape (S, n_obs)."""

    @abc.abstractmethod
    def vjp_batch(self, w_batch, r, outputs):
        """J(w_s)^T r_s for each row s, shape (S, dim), with J = d f(X; w) / d w.

        `outputs` is `predict_outputs_batch(w_batch)`, which the fused pass
        has already computed. Each row must depend on its own draw and
        residual only, so a row's result does not change with the batch
        size.
        """

    def residual_sq_batch(self, w_batch):
        """Squared residual norm ||Y - f(X; w)||^2 for each row of w_batch."""
        r = self.targets - self.predict_outputs_batch(w_batch)
        return np.sum(r * r, axis=1)

    def _log_lik_of_sq(self, sq, beta):
        """Log-likelihood from squared residual norms sq."""
        return 0.5 * self.n_obs * (np.log(beta) - _LN_2PI) - 0.5 * beta * sq

    def log_lik_batch(self, w_batch, beta):
        return self._log_lik_of_sq(self.residual_sq_batch(w_batch), beta)

    def log_lik_and_grad_batch(self, w_batch, beta):
        w = np.asarray(w_batch, dtype=float)
        outputs = self.predict_outputs_batch(w)
        r = self.targets - outputs
        value = self._log_lik_of_sq(np.sum(r * r, axis=1), beta)
        return value, beta * self.vjp_batch(w, r, outputs)


def _noise_args(model, hyper):
    """Extra likelihood arguments: (beta,) for Gaussian-noise models, else ()."""
    if not isinstance(model, GaussianNoiseModel):
        return ()
    if hyper is None or hyper.beta is None:
        raise ConfigError("Gaussian-noise model needs hyper.beta")
    return (hyper.beta,)
