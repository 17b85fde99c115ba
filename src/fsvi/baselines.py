"""Classical baselines: exact conjugate regression, Laplace, and ML PPCA."""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConfigError,
    DimensionError,
    IndefiniteHessianError,
    RankError,
)
from .models.base import _LN_2PI, _noise_args
from .models.skew import GaussianTarget
from .scg import scg_maximise

# Eigenvalues of -H at or below this are treated as a flat direction.
_CURVATURE_FLOOR = 1e-8
# Laplace mode search: starting points, and SCG iterations from each.
_LAPLACE_STARTS = 10
_LAPLACE_MODE_ITERS = 500
# Relative step of the finite-difference Hessian.
_FD_STEP = 1e-5


def exact_blr_posterior(design_matrix, targets, alpha, beta):
    """Closed-form posterior of conjugate Bayesian linear regression.

    covariance = (alpha I + beta Phi^T Phi)^{-1} and mean = beta *
    covariance * Phi^T Y, both formed from the inverse of the precision's
    Cholesky factor rather than from an unfactorised inverse.
    """
    phi = np.asarray(design_matrix, dtype=float)
    y = np.asarray(targets, dtype=float)
    if phi.ndim != 2 or y.shape != (phi.shape[0],):
        raise DimensionError(
            f"design {phi.shape} and targets {y.shape} are inconsistent"
        )
    if not (alpha > 0.0 and beta > 0.0):
        raise ConfigError(f"alpha and beta must be positive, got {alpha}, {beta}")
    m = phi.shape[1]
    precision = alpha * np.eye(m) + beta * (phi.T @ phi)
    # precision = C C^T, so covariance = C^-T C^-1.
    inv_factor = np.linalg.inv(np.linalg.cholesky(precision))
    cov = inv_factor.T @ inv_factor
    cov = 0.5 * (cov + cov.T)
    return GaussianTarget(cov @ (beta * (phi.T @ y)), cov)


def log_joint(model, w, hyper=None):
    """Unnormalised log-posterior: log-likelihood plus log-prior at w."""
    value, _ = _log_joint_and_grad(model, w, hyper)
    return value


def _log_joint_and_grad(model, w, hyper):
    w = np.asarray(w, dtype=float)
    values, grads = model.log_lik_and_grad_batch(w[None], *_noise_args(model, hyper))
    value, grad = float(values[0]), grads[0]
    if model.prior == "gaussian":
        if hyper is None or hyper.alpha is None:
            raise ConfigError("Gaussian-prior model needs hyper.alpha for the log joint")
        a = hyper.alpha
        value += 0.5 * model.dim * (np.log(a) - _LN_2PI) - 0.5 * a * float(w @ w)
        grad = grad - a * w
    return value, grad


def _fd_hessian(grad_fn, w, step_scale):
    m = w.size
    hess = np.empty((m, m))
    for i in range(m):
        h = step_scale * (1.0 + abs(w[i]))
        e = np.zeros(m)
        e[i] = h
        hess[:, i] = (grad_fn(w + e) - grad_fn(w - e)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def laplace_approximation(model, hyper=None, start=None, seed=0):
    """Gaussian approximation N(mode, (-H)^{-1}) around the posterior mode.

    The mode search runs scaled conjugate gradients from `_LAPLACE_STARTS`
    seed-derived starting points and keeps the best. The Hessian H comes
    from central finite differences of the analytic gradient with step
    `_FD_STEP` * (1 + |w_i|) per coordinate. A -H that is not positive
    definite (any eigenvalue at or below a small floor, or not finite)
    raises IndefiniteHessianError carrying the eigenvalues.
    """
    rng = np.random.default_rng(seed)
    base = (
        np.zeros(model.dim)
        if start is None
        else np.asarray(start, dtype=float).copy()
    )
    starts = [base]
    starts.extend(
        base + rng.standard_normal(model.dim) for _ in range(_LAPLACE_STARTS - 1)
    )

    def objective(w):
        return _log_joint_and_grad(model, w, hyper)

    best = None
    for x0 in starts:
        res = scg_maximise(
            objective, x0, max_iters=_LAPLACE_MODE_ITERS, grad_tol=1e-10
        )
        if best is None or res.value > best.value:
            best = res
    mode = best.x

    hess = _fd_hessian(lambda w: _log_joint_and_grad(model, w, hyper)[1], mode, _FD_STEP)
    eigvals, eigvecs = np.linalg.eigh(-hess)
    # Written so that a NaN eigenvalue (a non-finite Hessian) fails too.
    if not eigvals.min() > _CURVATURE_FLOOR:
        raise IndefiniteHessianError(
            f"-H has eigenvalues down to {eigvals.min():.3e} at the mode",
            eigenvalues=eigvals,
        )
    cov = (eigvecs / eigvals) @ eigvecs.T
    return GaussianTarget(mode, 0.5 * (cov + cov.T))


@dataclass
class MlPpcaFit:
    """Maximum-likelihood PPCA solution: loading, offset, noise variance."""

    loading: np.ndarray
    offset: np.ndarray
    noise_variance: float

    def latents(self, data):
        """Posterior-mean latent of each row of data, shape (N, latent_dim)."""
        w = self.loading
        m = w.T @ w + self.noise_variance * np.eye(w.shape[1])
        return np.linalg.solve(m, w.T @ (np.asarray(data, dtype=float) - self.offset).T).T

    def reconstruct(self, data):
        """Posterior-mean latent of each row mapped back to data space."""
        return self.latents(data) @ self.loading.T + self.offset


def ml_ppca_fit(data, latent_dim):
    """Closed-form maximum-likelihood PPCA (eigendecomposition solution).

    offset is the sample mean, the loading spans the top latent_dim
    principal directions scaled by sqrt(eigenvalue - noise variance), and
    the noise variance is the mean of the discarded eigenvalues.
    """
    y = np.asarray(data, dtype=float)
    if y.ndim != 2:
        raise DimensionError(f"data must be (N, d), got {y.shape}")
    n, d = y.shape
    if not 0 < latent_dim < d:
        raise RankError(f"latent dimension must be in (0, {d}), got {latent_dim}")
    offset = y.mean(axis=0)
    centred = y - offset
    # Eigenpairs of the sample covariance via the economy SVD of the data.
    _, svals, vt = np.linalg.svd(centred, full_matrices=False)
    eigvals = np.zeros(d)
    eigvals[: svals.size] = svals**2 / n
    if np.sum(eigvals > max(eigvals.max(), 1.0) * 1e-12) < latent_dim:
        raise RankError(
            f"data support fewer than {latent_dim} positive eigenvalues"
        )
    noise = float(np.sum(eigvals[latent_dim:])) / (d - latent_dim)
    gap = np.clip(eigvals[:latent_dim] - noise, 0.0, None)
    loading = vt[:latent_dim].T * np.sqrt(gap)
    return MlPpcaFit(loading=loading, offset=offset, noise_variance=noise)

