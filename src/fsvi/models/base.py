"""Abstract target models: differentiable log-likelihoods over a parameter vector.

Models are immutable and their evaluations are pure, so a single instance
can safely be shared across threads or evaluated on batches of parameter
vectors at once.
"""

import abc

import numpy as np

_LN_2PI = np.log(2.0 * np.pi)


class TargetModel(abc.ABC):
    """A log-likelihood (or directly a log-density) over R^dim.

    `prior` is "gaussian" for models fitted under a zero-mean isotropic
    Gaussian prior with precision alpha, and "flat" for targets fitted
    under an improper uniform prior (direct density fitting included).
    """

    prior = "gaussian"

    @property
    @abc.abstractmethod
    def dim(self):
        """Number of parameters the likelihood is evaluated at."""

    @abc.abstractmethod
    def log_lik(self, w):
        ...

    @abc.abstractmethod
    def grad_log_lik(self, w):
        ...

    def log_lik_batch(self, w_batch):
        """Log-likelihood at each row of w_batch; override for speed."""
        return np.array([self.log_lik(w) for w in np.asarray(w_batch, dtype=float)])

    def grad_log_lik_batch(self, w_batch):
        return np.stack(
            [self.grad_log_lik(w) for w in np.asarray(w_batch, dtype=float)]
        )

    def log_lik_and_grad_batch(self, w_batch):
        """(values[S], grads[S, dim]) at the rows of w_batch in one call.

        Bitwise equal to (log_lik_batch, grad_log_lik_batch). Models whose
        value and gradient share work override this to do it once.
        """
        return self.log_lik_batch(w_batch), self.grad_log_lik_batch(w_batch)

    @property
    def posterior_blocks(self):
        """Block sizes of a factorised posterior, or None for a full factor.

        When set, the fit restricts the posterior factor L to this
        block-diagonal support.
        """
        return None

    # Models with trainable internal parameters (beyond w) override these.
    @property
    def model_params(self):
        return None

    def with_model_params(self, theta):
        raise NotImplementedError(f"{type(self).__name__} has no model parameters")

    def grad_model_params_batch(self, w_batch):
        """Gradient of the mean log-likelihood over w_batch w.r.t. model_params."""
        raise NotImplementedError(f"{type(self).__name__} has no model parameters")

    def model_params_value_and_grad(self, w_batch):
        """(mean log-likelihood over w_batch, its model_params gradient)."""
        return (
            float(np.mean(self.log_lik_batch(w_batch))),
            self.grad_model_params_batch(w_batch),
        )

    def predict(self, w, inputs):
        """Per-datum predictions at parameter vector w (model specific)."""
        raise NotImplementedError(f"{type(self).__name__} does not predict")

    def predict_batch(self, w_batch, inputs):
        return np.stack([self.predict(w, inputs) for w in np.asarray(w_batch)])


class GaussianNoiseModel(TargetModel):
    """Models with observation noise y ~ N(f(x; w), 1/beta).

    The noise precision beta is a fit-level hyperparameter, so unlike the
    base class the likelihood methods take it explicitly. Subclasses
    supply the regression function through `predict_outputs` and its
    Jacobian; the Gaussian algebra lives here.
    """

    @property
    @abc.abstractmethod
    def n_obs(self):
        ...

    @property
    @abc.abstractmethod
    def targets(self):
        ...

    @abc.abstractmethod
    def predict_outputs(self, w):
        """f(X; w) on the training inputs, shape (n_obs,)."""

    @abc.abstractmethod
    def jacobian(self, w):
        """d f(X; w) / d w on the training inputs, shape (n_obs, dim)."""

    def predict_outputs_batch(self, w_batch):
        return np.stack(
            [self.predict_outputs(w) for w in np.asarray(w_batch, dtype=float)]
        )

    def residuals(self, w):
        return self.targets - self.predict_outputs(w)

    def residual_sq_batch(self, w_batch):
        """Squared residual norm ||Y - f(X; w)||^2 for each row of w_batch."""
        r = self.targets - self.predict_outputs_batch(w_batch)
        return np.sum(r * r, axis=1)

    def log_lik(self, w, beta):
        r = self.residuals(w)
        return 0.5 * self.n_obs * (np.log(beta) - _LN_2PI) - 0.5 * beta * float(r @ r)

    def grad_log_lik(self, w, beta):
        return beta * (self.jacobian(w).T @ self.residuals(w))

    def log_lik_batch(self, w_batch, beta):
        return self._log_lik_of_sq(self.residual_sq_batch(w_batch), beta)

    def _log_lik_of_sq(self, sq, beta):
        """Log-likelihood from squared residual norms sq."""
        return 0.5 * self.n_obs * (np.log(beta) - _LN_2PI) - 0.5 * beta * sq

    def grad_log_lik_batch(self, w_batch, beta):
        return np.stack(
            [self.grad_log_lik(w, beta) for w in np.asarray(w_batch, dtype=float)]
        )

    def log_lik_and_grad_batch(self, w_batch, beta):
        return self.log_lik_batch(w_batch, beta), self.grad_log_lik_batch(w_batch, beta)
