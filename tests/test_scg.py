"""Scaled conjugate gradient ascent on functions with known maxima."""

import numpy as np
import pytest

from fsvi import scg_maximise
from fsvi.baselines import _log_joint_and_grad
from fsvi.exceptions import InvalidStartError
from fsvi.experiments import BIVARIATE_COEFFS
from fsvi.models import SkewTarget
from fsvi.scg import _MAX_FAILURES


def neg_quadratic(x):
    return -float(x @ x), -2.0 * x


def neg_rosenbrock(x):
    a, b = x
    value = -((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2)
    grad = np.array(
        [
            2.0 * (1.0 - a) + 400.0 * a * (b - a * a),
            -200.0 * (b - a * a),
        ]
    )
    return value, grad


def test_spherical_quadratic_reaches_origin():
    res = scg_maximise(neg_quadratic, np.array([3.0, -4.0]))
    assert res.converged, "optimiser did not report convergence"
    assert np.linalg.norm(res.x) < 1e-8, f"stopped at {res.x}"
    assert res.value > -1e-12


def test_general_quadratic_reaches_known_maximiser():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((5, 5))
    a = raw @ raw.T + 0.5 * np.eye(5)
    target = np.ones(5)

    def fun(x):
        d = x - target
        return -float(d @ a @ d), -2.0 * (a @ d)

    res = scg_maximise(fun, np.zeros(5))
    assert res.converged
    assert np.max(np.abs(res.x - target)) < 1e-6, f"stopped at {res.x}"


def test_rosenbrock_valley():
    res = scg_maximise(neg_rosenbrock, np.array([-1.2, 1.0]), max_iters=5000)
    assert res.converged, f"no convergence in {res.iterations} iterations"
    assert np.max(np.abs(res.x - 1.0)) < 1e-4, f"stopped at {res.x}"


@pytest.mark.parametrize("seed", range(10))
def test_random_concave_quadratics(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 12))
    eigs = rng.uniform(0.1, 10.0, m)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    a = q @ np.diag(eigs) @ q.T
    target = rng.standard_normal(m)

    def fun(x):
        d = x - target
        return -float(d @ a @ d), -2.0 * (a @ d)

    res = scg_maximise(fun, rng.standard_normal(m))
    assert res.converged
    assert np.max(np.abs(res.x - target)) < 1e-6


def test_value_never_decreases_across_accepted_steps():
    values = []

    def fun(x):
        value, grad = neg_rosenbrock(x)
        values.append(value)
        return value, grad

    res = scg_maximise(fun, np.array([-1.2, 1.0]), max_iters=2000)
    # Probe evaluations may dip, but the final value must dominate the start
    # and the best value seen equals the returned one.
    assert res.value >= values[0]
    assert abs(max(values) - res.value) < 1e-12


def test_iteration_budget_respected():
    res = scg_maximise(neg_rosenbrock, np.array([-1.2, 1.0]), max_iters=3)
    assert res.iterations <= 3
    assert not res.converged


def test_rejects_non_finite_start():
    with pytest.raises(InvalidStartError):
        scg_maximise(neg_quadratic, np.array([np.nan, 0.0]))


def test_rejects_non_finite_objective_at_start():
    def fun(x):
        return np.nan, np.zeros_like(x)

    with pytest.raises(InvalidStartError):
        scg_maximise(fun, np.zeros(2))


def test_already_at_maximum_returns_immediately():
    res = scg_maximise(neg_quadratic, np.zeros(2))
    assert res.converged
    assert res.iterations == 0
    assert np.all(res.x == 0.0)


def _fails_off(edge, failure):
    """-||x - (1, 1)||^2, but `failure` (value, gradient) in x[0] > edge, x[1] < 0.5.

    From the origin the gradient points into the failing corner, while the
    maximiser lies outside it.
    """

    def fun(x):
        if x[0] > edge and x[1] < 0.5:
            return failure(x)
        d = x - 1.0
        return -float(d @ d), -2.0 * d

    return fun


_FAILURES = {
    "nan-gradient": lambda x: (0.0, np.full_like(x, np.nan)),
    "nan-value": lambda x: (np.nan, np.ones_like(x)),
    # The form the factor barrier in `fit` returns.
    "barrier": lambda x: (-np.inf, np.zeros_like(x)),
}


@pytest.mark.parametrize("failure", sorted(_FAILURES))
def test_failed_probes_are_rejected_steps(failure):
    # With the edge at the start, every probe along the gradient fails: each
    # counts as one rejected step, and the run ends after _MAX_FAILURES of
    # them, at the start.
    fun = _fails_off(0.0, _FAILURES[failure])
    x0 = np.zeros(2)
    evaluated = []
    res = scg_maximise(lambda x: evaluated.append(x.copy()) or fun(x), x0)
    assert not res.converged
    assert np.array_equal(res.x, x0) and res.value == -2.0
    assert res.n_evals == len(evaluated) == 1 + _MAX_FAILURES
    # Never a trial step built from a failed probe: every call after the
    # first is a probe along the gradient, each closer than the last.
    steps = [np.linalg.norm(x - x0) for x in evaluated[1:]]
    assert all(b < a for a, b in zip(steps, steps[1:]))


@pytest.mark.parametrize("failure", sorted(_FAILURES))
def test_objective_failing_just_off_the_start(failure):
    # Non-finite a hair from the start along the gradient: the probes close
    # in until one is finite, and the step it scales reaches the maximiser.
    res = scg_maximise(_fails_off(1e-7, _FAILURES[failure]), np.zeros(2))
    assert res.converged
    assert np.max(np.abs(res.x - 1.0)) < 1e-8, f"stopped at {res.x}"


def _gradient_only(fun):
    """fun's gradient alone, NaN wherever fun's value is not finite."""

    def grad(x):
        value, g = fun(x)
        return g if np.isfinite(value) else np.full_like(x, np.nan)

    return grad


@pytest.mark.parametrize("edge", [0.0, 1e-7])
@pytest.mark.parametrize("failure", sorted(_FAILURES))
def test_gradient_only_probes_repeat_the_run(failure, edge):
    # Probes that call `grad` in place of `fun` evaluate the same points,
    # reject the same failures and return the same result.
    fun = _fails_off(edge, _FAILURES[failure])
    grad_only = _gradient_only(fun)
    runs = []
    for use_grad in (False, True):
        evaluated, probes = [], []

        def evaluate(x):
            evaluated.append(x.copy())
            return fun(x)

        def grad(x):
            evaluated.append(x.copy())
            probes.append(x.copy())
            return grad_only(x)

        res = scg_maximise(evaluate, np.zeros(2), grad=grad if use_grad else None)
        runs.append((res, evaluated, probes))
    (full, full_points, _), (probed, probed_points, probes) = runs
    assert probes, "no probe called the gradient-only form"
    assert probed.n_evals == full.n_evals == len(full_points) == len(probed_points)
    assert all(np.array_equal(a, b) for a, b in zip(full_points, probed_points))
    assert np.array_equal(probed.x, full.x) and probed.value == full.value
    assert probed.iterations == full.iterations
    assert probed.converged == full.converged


def test_start_pair_repeats_the_run():
    # A start pair equal to fun(x0) gives the bitwise-identical result,
    # and the run does not evaluate x0 again.
    x0 = np.array([-1.2, 1.0])
    evaluated = []

    def fun(x):
        evaluated.append(x.copy())
        return neg_rosenbrock(x)

    res = scg_maximise(neg_rosenbrock, x0, max_iters=50)
    started = scg_maximise(fun, x0, max_iters=50, start=neg_rosenbrock(x0))
    assert started.x.tobytes() == res.x.tobytes()
    assert float(started.value).hex() == float(res.value).hex()
    assert (started.iterations, started.converged, started.n_evals) == (
        res.iterations, res.converged, res.n_evals
    )
    assert len(evaluated) == res.n_evals - 1


def test_stops_at_its_own_fixed_point():
    # Restart 5 of the Laplace mode search on the first bivariate target
    # reaches the mode in a few iterations, with a gradient norm (~1.4e-10)
    # just above grad_tol. The scale then grows until the step no longer
    # moves x, and each later iteration repeats the previous one: without
    # the fixed-point stop the run spends its whole budget (999 evaluations).
    target = SkewTarget(BIVARIATE_COEFFS[0])
    rng = np.random.default_rng(0)
    x0 = [rng.standard_normal(2) for _ in range(5)][-1]
    evaluated = []

    def fun(x):
        evaluated.append(x.copy())
        return _log_joint_and_grad(target, x, None)

    res = scg_maximise(fun, x0, max_iters=500, grad_tol=1e-10)
    assert res.n_evals == len(evaluated) < 200
    assert not res.converged
    # The last iteration evaluated the same probe and trial points as the
    # one before it.
    assert all(np.array_equal(a, b) for a, b in zip(evaluated[-2:], evaluated[-4:-2]))
    # The point and value the full 500-iteration budget returns.
    assert [float(v).hex() for v in res.x] == [
        "-0x1.d09b956fb4a31p-2",
        "0x1.c39a15e6d9b69p-4",
    ]
    assert float(res.value).hex() == "-0x1.5113013a4dce7p+0"
