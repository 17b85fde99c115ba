"""Scaled conjugate gradient maximiser.

Implements Moller's scaled conjugate gradient scheme: second-order
information along the search direction is estimated from two gradient
evaluations and regularised by an adaptive scale, so no line search and
no Hessian are ever needed. The public entry point maximises; internally
the negated objective is minimised.

A run ends in one of four ways: the gradient norm falls below `grad_tol`
(the only one reported as converged), the iteration budget runs out,
`_MAX_FAILURES` consecutive steps are rejected, or the loop reaches a
fixed point, where every further iteration would repeat the last one.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidStartError

# Moller's recommended defaults.
_SIGMA0 = 1.0e-4
_LAMBDA_INIT = 1.0e-6
_LAMBDA_MIN = 1.0e-15
_LAMBDA_MAX = 1.0e15

# Give up after this many consecutive rejected steps (trust scale exhausted).
_MAX_FAILURES = 50


@dataclass
class ScgResult:
    x: np.ndarray
    value: float
    iterations: int
    converged: bool
    n_evals: int


def scg_maximise(fun, x0, max_iters=500, grad_tol=1e-8):
    """Maximise a differentiable objective with scaled conjugate gradients.

    Parameters
    ----------
    fun : callable
        Maps a point x to a pair (value, gradient) of the objective being
        maximised. It must be pure: the same x always gives the same pair.
        A non-finite value or gradient mid-run, at a trial step or at a
        curvature probe, is treated as a rejected step.
    x0 : array_like
        Starting point.
    max_iters : int
        Iteration budget; each iteration costs at most two evaluations.
    grad_tol : float
        Terminate once the 2-norm of the gradient falls below this.

    Returns
    -------
    ScgResult
        Final point, objective value, iteration count, and convergence flag.
        Accepted iterates never decrease the objective, so the returned
        point is the best one seen.

    The run stops when the gradient norm falls below `grad_tol` (converged),
    after `max_iters` iterations, after `_MAX_FAILURES` consecutive rejected
    steps, or at a fixed point: an iteration that starts in exactly the
    state the previous one started in. That happens near a maximum whose
    gradient norm stays above `grad_tol`: the scale grows until the step no
    longer moves x in floating point, and an unchanged objective counts as
    an accepted step. `fun` is pure, and the iteration count only picks
    between two direction updates that agree once the gradient stops
    changing, so every later iteration would repeat the same one; stopping
    returns the point and value the full budget would.
    """
    x = np.array(x0, dtype=float).ravel()
    n = x.size

    f0, g0 = fun(x)
    n_evals = 1
    if not np.isfinite(f0) or not np.all(np.isfinite(g0)):
        raise InvalidStartError("objective or gradient non-finite at start")

    # Minimisation variables: E = -f, r = -E'(x) = gradient of f.
    e_now = -float(f0)
    r = np.asarray(g0, dtype=float).copy()
    p = r.copy()

    lam = _LAMBDA_INIT
    lam_bar = 0.0
    success = True
    failures = 0
    delta = 0.0
    probe = _SIGMA0
    k = 0
    converged = float(np.linalg.norm(r)) < grad_tol
    # The loop state an iteration started in, kept only when that
    # iteration's accepted step left x unchanged.
    stalled = None

    while not converged and k < max_iters:
        state = (x, r, p, e_now, lam, lam_bar, success, failures, delta, probe)
        if stalled is not None and all(map(np.array_equal, state, stalled)):
            break
        stalled = None
        k += 1
        if success:
            mu = float(p @ r)
            if mu <= 0.0:
                # Not an ascent direction; restart from the gradient.
                p = r.copy()
                mu = float(p @ r)
            p_sq = float(p @ p)
            if p_sq < 1e-300 or mu <= 0.0:
                break
            sigma = probe / np.sqrt(p_sq)
            f_probe, g_probe = fun(x + sigma * p)
            n_evals += 1
            if not (np.isfinite(f_probe) and np.all(np.isfinite(g_probe))):
                # No curvature estimate next to x: a rejected step. The
                # retry probes along p again, ten times closer.
                failures += 1
                if failures >= _MAX_FAILURES:
                    break
                probe *= 0.1
                continue
            probe = _SIGMA0
            # Curvature of E along p: s = (E'(x + sigma p) - E'(x)) / sigma.
            s = (r - np.asarray(g_probe, dtype=float)) / sigma
            delta = float(p @ s)

        delta_k = delta + (lam - lam_bar) * p_sq
        if delta_k <= 0.0:
            # Make the scaled curvature positive definite.
            lam_bar = 2.0 * (lam - delta_k / p_sq)
            delta_k = -delta_k + lam * p_sq
            lam = lam_bar

        alpha = mu / delta_k
        x_new = x + alpha * p
        f_new, g_new = fun(x_new)
        n_evals += 1

        if np.isfinite(f_new):
            e_new = -float(f_new)
            comparison = 2.0 * delta_k * (e_now - e_new) / mu**2
        else:
            e_new = np.inf
            comparison = -1.0

        if comparison >= 0.0:
            # Accept the step.
            # An unchanged x leaves the value unchanged; test that first.
            if e_new == e_now and np.array_equal(x_new, x):
                stalled = state
            x = x_new
            e_now = e_new
            r_old = r
            r = np.asarray(g_new, dtype=float).copy()
            if not np.all(np.isfinite(r)):
                converged = False
                break
            lam_bar = 0.0
            success = True
            failures = 0
            grad_norm = float(np.linalg.norm(r))
            if grad_norm < grad_tol:
                converged = True
                break
            if k % n == 0:
                p = r.copy()
            else:
                beta = float(r @ r - r @ r_old) / mu
                p = r + beta * p
            if comparison >= 0.75:
                lam = max(0.25 * lam, _LAMBDA_MIN)
        else:
            lam_bar = lam
            success = False
            failures += 1
            if failures >= _MAX_FAILURES:
                break

        if comparison < 0.25:
            lam = lam + delta_k * (1.0 - comparison) / p_sq
            if not np.isfinite(lam) or lam > _LAMBDA_MAX:
                lam = _LAMBDA_MAX

    return ScgResult(
        x=x, value=-e_now, iterations=k, converged=bool(converged), n_evals=n_evals
    )
