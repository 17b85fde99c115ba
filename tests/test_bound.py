"""Bound, KL term, gradients, and hyperparameter updates.

Every derived quantity is checked against an independently coded oracle:
a direct-summation bound that never calls the library's vectorised path,
a Monte-Carlo KL estimate, and central finite differences.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LineModel, PriorOnlyModel, fd_grad, rel_err
from fsvi import (
    Hyperparameters,
    SampleSet,
    VariationalPosterior,
    dbound_dalpha,
    dbound_dbeta,
    gaussian_entropy,
    grad_L,
    grad_mu,
    kl_gaussian_prior,
    lower_bound_fs,
    scg_maximise,
    update_alpha,
    update_beta,
)
from fsvi.bound import factor_objective, mu_objective
from fsvi.exceptions import (
    ConfigError,
    DegenerateFitError,
    DegeneratePosteriorError,
    DimensionError,
    InvalidPosteriorError,
)
from fsvi.models import (
    CauchyPpcaModel,
    CauchyPpcaParams,
    RbfDesign,
    RbfRegressionModel,
    synth_regression_data,
)
from fsvi.models.base import TargetModel

_LN_2PI = np.log(2.0 * np.pi)


def naive_bound(model, post, hyper, samples):
    """Direct-summation oracle: explicit loop over draws, explicit KL formula."""
    total = 0.0
    for z in samples.draws:
        w = post.mu + post.L @ z
        if hyper.beta is not None:
            total += model.log_lik(w, hyper.beta)
        else:
            total += model.log_lik(w)
    mean_ll = total / samples.size
    m = post.dim
    sign, logdet_l = np.linalg.slogdet(post.L)
    if model.prior == "flat":
        return mean_ll + 0.5 * m * (_LN_2PI + 1.0) + logdet_l
    a = hyper.alpha
    sq = float(np.trace(post.L @ post.L.T)) + float(post.mu @ post.mu)
    kl = 0.5 * (a * sq - m - m * np.log(a) - 2.0 * logdet_l)
    return mean_ll - kl


def mc_kl_estimate(post, alpha, n_draws, seed):
    """Monte-Carlo KL(q || N(0, I/alpha)) via E_q[log q - log p]."""
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(seed)
    w = post.sample(n_draws, rng)
    m = post.dim
    log_q = multivariate_normal(post.mu, post.covariance()).logpdf(w)
    log_p = multivariate_normal(np.zeros(m), np.eye(m) / alpha).logpdf(w)
    return float(np.mean(log_q - log_p))


def random_posterior(rng, m, factor_scale=1.0, n_blocks=None):
    """A random posterior with a well-conditioned factor.

    With `n_blocks` the factor is a (n_blocks, b, b) stack of diagonal blocks.
    """
    mu = rng.standard_normal(m)
    if n_blocks is None:
        return VariationalPosterior(
            mu, factor_scale * (np.eye(m) + 0.3 * rng.standard_normal((m, m)))
        )
    b = m // n_blocks
    noise = 0.3 * rng.standard_normal((n_blocks, b, b))
    return VariationalPosterior(mu, factor_scale * (np.eye(b) + noise))


# ---------------------------------------------------------------- bound value


def test_bound_is_zero_when_posterior_equals_prior():
    model = PriorOnlyModel(2)
    post = VariationalPosterior(np.zeros(2), np.eye(2))
    samples = SampleSet.generate(16, 2, seed=3)
    value = lower_bound_fs(model, post, Hyperparameters(1.0), samples)
    assert abs(value) < 1e-12, f"bound at the prior should vanish, got {value}"


@pytest.mark.parametrize("m", [1, 2, 5])
def test_bound_identity_factor_alpha_two(m):
    model = PriorOnlyModel(m)
    post = VariationalPosterior(np.zeros(m), np.eye(m))
    samples = SampleSet.generate(4, m, seed=0)
    value = lower_bound_fs(model, post, Hyperparameters(2.0), samples)
    expected = -(m / 2.0) * (1.0 - np.log(2.0))
    assert abs(value - expected) < 1e-12, f"expected {expected}, got {value}"


def test_bound_matches_direct_summation_oracle():
    x, y = synth_regression_data(5, seed=11)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=2)
    model = RbfRegressionModel(x, y, design)
    rng = np.random.default_rng(7)
    post = random_posterior(rng, model.dim)
    hyper = Hyperparameters(0.6, 3.0)
    samples = SampleSet.generate(8, model.dim, seed=21)

    expected = naive_bound(model, post, hyper, samples)
    value = lower_bound_fs(model, post, hyper, samples)
    assert rel_err(value, expected) < 1e-10, (
        f"vectorised bound {value} deviates from direct summation {expected}"
    )


def test_bound_flat_prior_matches_direct_summation_oracle():
    from fsvi.models import SkewTarget

    model = SkewTarget([1.0, 0.0, 2.0, 1.0, -1.0, 0.0])
    rng = np.random.default_rng(5)
    post = random_posterior(rng, 2, factor_scale=0.5)
    samples = SampleSet.generate(8, 2, seed=2)
    hyper = Hyperparameters(None)

    expected = naive_bound(model, post, hyper, samples)
    value = lower_bound_fs(model, post, hyper, samples)
    assert rel_err(value, expected) < 1e-10


def test_bound_deterministic_for_fixed_samples():
    model = PriorOnlyModel(3)
    rng = np.random.default_rng(0)
    post = random_posterior(rng, 3)
    samples = SampleSet.generate(32, 3, seed=9)
    hyper = Hyperparameters(0.4)
    assert lower_bound_fs(model, post, hyper, samples) == lower_bound_fs(
        model, post, hyper, samples
    )


def test_bound_rejects_dimension_mismatch():
    model = PriorOnlyModel(3)
    post = VariationalPosterior(np.zeros(2), np.eye(2))
    samples = SampleSet.generate(4, 3, seed=0)
    with pytest.raises(DimensionError):
        lower_bound_fs(model, post, Hyperparameters(1.0), samples)


def test_bound_rejects_singular_factor():
    model = PriorOnlyModel(2)
    post = VariationalPosterior(np.zeros(2), np.zeros((2, 2)))
    samples = SampleSet.generate(4, 2, seed=0)
    with pytest.raises(InvalidPosteriorError):
        lower_bound_fs(model, post, Hyperparameters(1.0), samples)


def test_bound_needs_beta_for_noise_models():
    model = LineModel([0.5, -0.5])
    post = VariationalPosterior(np.zeros(2), np.eye(2))
    samples = SampleSet.generate(3, 2, seed=0)
    with pytest.raises(ConfigError):
        lower_bound_fs(model, post, Hyperparameters(1.0, None), samples)


# -------------------------------------------------------------------- KL term


def test_kl_rejects_nonpositive_alpha():
    post = VariationalPosterior(np.zeros(2), np.eye(2))
    for alpha in (0.0, -1.0, None):
        with pytest.raises(ConfigError):
            kl_gaussian_prior(post, alpha)


def test_kl_zero_at_prior():
    post = VariationalPosterior(np.zeros(3), np.eye(3))
    assert abs(kl_gaussian_prior(post, 1.0)) < 1e-14


def test_kl_mean_shift_only():
    post = VariationalPosterior(np.array([1.0, 0.0]), np.eye(2))
    assert abs(kl_gaussian_prior(post, 1.0) - 0.5) < 1e-14


def test_kl_matches_monte_carlo_estimate():
    rng = np.random.default_rng(13)
    post = random_posterior(rng, 2, factor_scale=0.8)
    alpha = 1.7
    exact = kl_gaussian_prior(post, alpha)
    estimate = mc_kl_estimate(post, alpha, n_draws=1_000_000, seed=99)
    assert abs(estimate - exact) / abs(exact) < 0.01, (
        f"closed form {exact} vs Monte-Carlo {estimate}"
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    st.floats(0.05, 20.0),
)
def test_kl_nonnegative(mu, l_entries, alpha):
    factor = np.eye(2) + 0.4 * np.asarray(l_entries).reshape(2, 2)
    if abs(np.linalg.det(factor)) < 1e-6:
        return
    post = VariationalPosterior(np.asarray(mu), factor)
    assert kl_gaussian_prior(post, alpha) >= -1e-10


def test_kl_zero_only_at_prior():
    rng = np.random.default_rng(1)
    for _ in range(200):
        post = random_posterior(rng, 2)
        alpha = float(rng.uniform(0.1, 5.0))
        kl = kl_gaussian_prior(post, alpha)
        at_prior = (
            np.linalg.norm(post.mu) < 1e-10
            and np.linalg.norm(alpha * post.covariance() - np.eye(2)) < 1e-10
        )
        if kl < 1e-10:
            assert at_prior, f"KL {kl} near zero away from the prior"


def test_entropy_closed_form():
    rng = np.random.default_rng(4)
    post = random_posterior(rng, 3)
    sign, logdet = np.linalg.slogdet(post.L)
    expected = 0.5 * 3 * (_LN_2PI + 1.0) + logdet
    assert abs(gaussian_entropy(post) - expected) < 1e-12


# ------------------------------------------------------------------ gradients


def test_grad_mu_prior_only():
    model = PriorOnlyModel(2)
    post = VariationalPosterior(np.array([2.0, -1.0]), np.eye(2))
    samples = SampleSet.generate(4, 2, seed=0)
    g = grad_mu(model, post, Hyperparameters(1.0), samples)
    assert np.allclose(g, [-2.0, 1.0], atol=1e-12), f"got {g}"


def test_grad_L_cancels_at_identity():
    model = PriorOnlyModel(2)
    post = VariationalPosterior(np.zeros(2), np.eye(2))
    samples = SampleSet.generate(4, 2, seed=0)
    g = grad_L(model, post, Hyperparameters(1.0), samples)
    assert np.allclose(g, 0.0, atol=1e-12), f"got {g}"


def test_grad_L_diagonal_factor():
    model = PriorOnlyModel(2)
    post = VariationalPosterior(np.zeros(2), np.diag([2.0, 1.0]))
    samples = SampleSet.generate(4, 2, seed=0)
    g = grad_L(model, post, Hyperparameters(1.0), samples)
    assert np.allclose(g, np.diag([-1.5, 0.0]), atol=1e-12), f"got {g}"


def test_gradients_match_finite_differences():
    x, y = synth_regression_data(10, seed=3)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=3)
    model = RbfRegressionModel(x, y, design)
    m = model.dim
    rng = np.random.default_rng(17)
    post = random_posterior(rng, m, factor_scale=0.7)
    hyper = Hyperparameters(0.9, 4.0)
    samples = SampleSet.generate(16, m, seed=31)

    g_mu = grad_mu(model, post, hyper, samples)
    fd_mu = fd_grad(
        lambda v: lower_bound_fs(
            model, VariationalPosterior(v, post.L), hyper, samples
        ),
        post.mu,
    )
    assert rel_err(g_mu, fd_mu) < 1e-5, f"mu gradient off by {rel_err(g_mu, fd_mu)}"

    # A full factor, and the same model under a stack of two 2x2 blocks.
    for post in (post, random_posterior(rng, m, factor_scale=0.7, n_blocks=2)):
        g_l = grad_L(model, post, hyper, samples)
        assert g_l.shape == post.L.shape
        fd_l = fd_grad(
            lambda v, post=post: lower_bound_fs(
                model,
                VariationalPosterior(post.mu, v.reshape(post.L.shape)),
                hyper,
                samples,
            ),
            post.L.ravel(),
        )
        assert rel_err(g_l, fd_l) < 1e-5, f"L gradient off by {rel_err(g_l, fd_l)}"


def _block_support(post):
    """Boolean (M, M) mask of the entries inside the diagonal blocks."""
    idx = np.arange(post.dim) // post.blocks.shape[1]
    return idx[:, None] == idx[None, :]


def test_block_factor_matches_its_dense_view(model_zoo):
    rng = np.random.default_rng(29)
    for name, model, hyper in model_zoo:
        if model.n_posterior_blocks == 1:
            continue
        m = model.dim
        block = random_posterior(
            rng, m, factor_scale=0.3, n_blocks=model.n_posterior_blocks
        )
        dense = VariationalPosterior(block.mu, block.dense_factor())
        assert dense.L.shape == (m, m), name
        samples = SampleSet.generate(6, m, seed=31)

        z = samples.draws
        assert rel_err(block.transform(z), dense.transform(z)) < 1e-12, name
        assert rel_err(block.transform(z[0]), dense.transform(z[0])) < 1e-12, name
        assert rel_err(block.covariance(), dense.covariance()) < 1e-12, name
        assert (
            rel_err(block.log_abs_det_factor(), dense.log_abs_det_factor()) < 1e-12
        ), name
        assert rel_err(
            lower_bound_fs(model, block, hyper, samples),
            lower_bound_fs(model, dense, hyper, samples),
        ) < 1e-12, name
        assert rel_err(
            grad_mu(model, block, hyper, samples),
            grad_mu(model, dense, hyper, samples),
        ) < 1e-12, name
        g_block = grad_L(model, block, hyper, samples)
        g_dense = grad_L(model, dense, hyper, samples)
        assert g_block.shape == block.L.shape, name
        support = _block_support(block)
        # The dense gradient restricted to the blocks, in row-major order,
        # is the stacked gradient.
        assert rel_err(g_block.ravel(), g_dense[support]) < 1e-12, name


@pytest.mark.parametrize(
    "shape",
    [(4,), (2, 2, 3), (3, 2, 2), (2, 4, 4), (4, 1), (1, 1, 4, 4)],
)
def test_malformed_factor_is_a_dimension_error(shape):
    with pytest.raises(DimensionError):
        VariationalPosterior(np.zeros(4), np.ones(shape))


def test_full_factor_is_one_block():
    post = VariationalPosterior(np.zeros(3), 2.0 * np.eye(3))
    assert post.blocks.shape == (1, 3, 3)
    assert post.dense_factor() is post.L
    stacked = VariationalPosterior(np.zeros(4), np.stack([np.eye(2), 3.0 * np.eye(2)]))
    assert stacked.blocks is stacked.L
    assert np.array_equal(stacked.dense_factor(), np.diag([1.0, 1.0, 3.0, 3.0]))
    assert abs(stacked.log_abs_det_factor() - 2.0 * np.log(3.0)) < 1e-15


def test_dense_factor_of_a_block_stack_is_block_diag_bit_for_bit():
    from scipy.linalg import block_diag

    blocks = np.random.default_rng(3).standard_normal((4, 3, 3))
    blocks[0, 0, 1] = -0.0
    blocks[2, 1, 0] = 0.0
    blocks[3, 2, 1] = -0.0
    dense = VariationalPosterior(np.zeros(12), blocks).dense_factor()
    expected = block_diag(*blocks)
    assert dense.dtype == expected.dtype and dense.shape == expected.shape
    assert dense.tobytes() == expected.tobytes()


def test_fused_bound_matches_public_bound_bitwise(model_zoo):
    # The fit optimises the block objectives; they must be the public bound.
    rng = np.random.default_rng(19)
    for name, model, hyper in model_zoo:
        m = model.dim
        post = random_posterior(rng, m, factor_scale=0.3)
        samples = SampleSet.generate(6, m, seed=23)
        value, g_mu = mu_objective(model, post, hyper, samples)(post.mu)
        assert value == lower_bound_fs(model, post, hyper, samples), name
        assert np.array_equal(g_mu, grad_mu(model, post, hyper, samples)), name
        value_l, g_l = factor_objective(model, post, hyper, samples)(post.L.ravel())
        assert value_l == value, name
        assert np.array_equal(
            g_l.reshape(post.L.shape), grad_L(model, post, hyper, samples)
        ), name


def _gradient_only_agrees(objective, x):
    """Check `objective.grad(x)` against `objective(x)`; True where both are finite.

    The gradient-only form must give the same gradient bits, and be
    non-finite exactly where the full evaluation's value or gradient is.
    """
    value, g = objective(x)
    g_only = objective.grad(x)
    finite = bool(np.isfinite(value) and np.all(np.isfinite(g)))
    assert g_only.shape == g.shape
    assert bool(np.all(np.isfinite(g_only))) == finite
    if finite:
        assert np.array_equal(g_only, g)
    return finite


def test_gradient_only_objectives_match_the_full_evaluation(model_zoo):
    rng = np.random.default_rng(29)
    for name, model, hyper in model_zoo:
        m = model.dim
        post = random_posterior(rng, m, factor_scale=0.3)
        draws = rng.standard_normal((6, m))
        objectives = [
            (mu_objective, lambda p: p.mu),
            (factor_objective, lambda p: p.L.ravel()),
        ]
        for build, at in objectives:
            objective = build(model, post, hyper, SampleSet(draws, seed=0))
            assert _gradient_only_agrees(objective, at(post)), name
            # One NaN draw: that draw's value, and so the bound, is NaN.
            nan_draw = draws.copy()
            nan_draw[2, 0] = np.nan
            objective = build(model, post, hyper, SampleSet(nan_draw, seed=0))
            with np.errstate(invalid="ignore"):
                assert not _gradient_only_agrees(objective, at(post)), name
        factor = factor_objective(model, post, hyper, SampleSet(draws, seed=0))
        # The singular barrier.
        assert not _gradient_only_agrees(factor, np.zeros(post.L.size)), name
        if model.prior == "gaussian":
            # E_q[w^T w] overflows: the prior term is -inf.
            objective = mu_objective(model, post, hyper, SampleSet(draws, seed=0))
            big = np.full(m, 1e155)
            with np.errstate(all="ignore"):
                assert not _gradient_only_agrees(objective, big), name


def test_gradient_only_objectives_reject_an_overflowing_cauchy_draw():
    # |u| > 1.4e154 makes 1 + u^2 overflow: the draw's value is -inf, while
    # its fused gradient row, u / (1 + u^2) = 0, stays finite.
    d, q, n = 5, 2, 3
    params = CauchyPpcaParams(np.ones((d, q)), np.zeros(d), 1.0)
    model = CauchyPpcaModel(np.zeros((n, d)), params)
    hyper = Hyperparameters(1.0)
    post = VariationalPosterior(np.zeros(n * q), 0.1 * np.tile(np.eye(q), (n, 1, 1)))
    draws = np.random.default_rng(31).standard_normal((4, n * q))
    draws[1, 0] = 1e156
    samples = SampleSet(draws, seed=0)
    with np.errstate(over="ignore"):
        values, grads = model.log_lik_and_grad_batch(post.transform(draws))
        assert values[1] == -np.inf and np.all(np.isfinite(grads))
        # The override and the base class's form from the fused pass agree.
        base_form = partial(TargetModel.grad_log_lik_batch, model)
        for form in (model.grad_log_lik_batch, base_form):
            g_only = form(post.transform(draws))
            assert np.all(np.isnan(g_only[1]))
            others = np.delete(g_only, 1, axis=0)
            assert np.array_equal(others, np.delete(grads, 1, axis=0))
        for build, x in ((mu_objective, post.mu), (factor_objective, post.L.ravel())):
            objective = build(model, post, hyper, samples)
            assert objective(x)[0] == -np.inf
            assert not _gradient_only_agrees(objective, x)


@pytest.mark.parametrize(
    "factor",
    [0.1 * np.eye(2), 0.1 * np.tile(np.eye(2), (2, 1, 1))],
    ids=["full", "blocks"],
)
def test_factor_objective_rejects_candidates_across_the_singular_barrier(factor):
    m = factor.shape[-1] * (factor.shape[0] if factor.ndim == 3 else 1)
    # beta = 100 pulls the first two entries of w = mu + L z towards -1 from
    # a positive factor: the unconstrained optimum of L's first block has a
    # negative determinant.
    model = LineModel(np.r_[-1.0, -1.0, np.ones(m - 2)])
    post = VariationalPosterior(np.zeros(m), factor)
    samples = SampleSet(draws=np.ones((1, m)), seed=0)
    objective = factor_objective(model, post, Hyperparameters(1.0, 100.0), samples)

    flipped = factor.copy().reshape(-1, 2, 2)
    flipped[0, 0] *= -1.0  # one block's determinant changes sign
    tiny = factor.copy().reshape(-1, 2, 2)
    tiny[0] *= 1e-160  # that block's determinant falls to 1e-322
    for cand in (flipped, tiny):
        value, grad = objective(cand.ravel())
        assert value == -np.inf
        assert grad.shape == (factor.size,) and not np.any(grad)

    values = []

    def recorded(x):
        out = objective(x)
        values.append(out[0])
        return out

    start = objective(factor.ravel())[0]
    res = scg_maximise(recorded, factor.ravel(), max_iters=10, grad_tol=1e-9)
    assert -np.inf in values, "no step reached the barrier"
    # Every barrier step was rejected: the end point is finite, better than
    # the start, and on the start's side of the barrier.
    assert np.isfinite(res.value) and res.value >= start
    assert res.value == objective(res.x)[0]
    blocks = res.x.reshape(-1, 2, 2)
    assert np.all(np.linalg.det(blocks) > 0.0)


def _near_floor_factor(det, blocked):
    """A factor with |det L| = det: one full 2x2 factor, or two 2x2 blocks
    whose determinants multiply to det."""
    if not blocked:
        return np.array([[det / 1e-150, 0.5], [0.0, 1e-150]])
    return np.stack([np.diag([1e-150, 1.0]), np.array([[det / 1e-150, 0.0], [3.0, 1.0]])])


@pytest.mark.parametrize("blocked", [False, True], ids=["full", "blocks"])
def test_log_det_and_factor_barrier_share_one_singular_rule(blocked):
    m = 4 if blocked else 2
    start = np.eye(m) if not blocked else np.tile(np.eye(2), (2, 1, 1))
    post = VariationalPosterior(np.zeros(m), start)
    samples = SampleSet.generate(3, m, seed=0)
    objective = factor_objective(PriorOnlyModel(m), post, Hyperparameters(1.0), samples)
    for det in (1.01e-300, 0.99e-300, 0.0):
        factor = _near_floor_factor(det, blocked)
        try:
            VariationalPosterior(post.mu, factor).log_abs_det_factor()
            singular = False
        except InvalidPosteriorError:
            singular = True
        assert singular == (det < 1e-300), det
        value, grad = objective(factor.ravel())
        barrier = value == -np.inf and not np.any(grad)
        assert barrier == singular, det
        assert barrier or np.all(np.isfinite(grad)), det


def test_reparameterised_draws_match_explicit_construction():
    rng = np.random.default_rng(8)
    post = random_posterior(rng, 4)
    z = rng.standard_normal((10, 4))
    explicit = np.stack([post.mu + post.L @ row for row in z])
    assert np.max(np.abs(post.transform(z) - explicit)) < 1e-12


def test_batch_loglik_matches_per_draw_loglik(model_zoo):
    rng = np.random.default_rng(12)
    for name, model, hyper in model_zoo:
        w = 0.3 * rng.standard_normal((6, model.dim))
        if hyper.beta is not None:
            batch = model.log_lik_batch(w, hyper.beta)
            single = [model.log_lik(row, hyper.beta) for row in w]
        else:
            batch = model.log_lik_batch(w)
            single = [model.log_lik(row) for row in w]
        assert rel_err(batch, np.asarray(single)) < 1e-12, (
            f"{name}: batch and single log-likelihood paths disagree"
        )


# --------------------------------------------------------- analytic updates


def test_update_alpha_identity_factor():
    post = VariationalPosterior(np.zeros(4), np.eye(4))
    assert abs(update_alpha(post) - 1.0) < 1e-14


def test_update_alpha_mean_shift():
    post = VariationalPosterior(np.array([1.0, 1.0]), np.eye(2))
    assert abs(update_alpha(post) - 0.5) < 1e-14


def test_update_alpha_degenerate():
    post = VariationalPosterior(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(DegeneratePosteriorError):
        update_alpha(post)


def test_update_beta_single_residual():
    # One draw at w = 0 against the target sqrt(2): residual squared is 2.
    model = LineModel([np.sqrt(2.0)])
    post = VariationalPosterior(np.zeros(1), np.eye(1))
    samples = SampleSet(draws=np.array([[0.0]]), seed=0)
    assert abs(update_beta(model, post, samples) - 0.5) < 1e-14


def test_update_beta_two_draws():
    # Draws put w at 1 and -sqrt(3) against the target 0: residuals 1 and 3.
    model = LineModel([0.0])
    post = VariationalPosterior(np.zeros(1), np.eye(1))
    samples = SampleSet(draws=np.array([[1.0], [-np.sqrt(3.0)]]), seed=0)
    assert abs(update_beta(model, post, samples) - 0.5) < 1e-14


def test_update_beta_degenerate():
    model = LineModel([0.0])
    post = VariationalPosterior(np.zeros(1), np.eye(1))
    samples = SampleSet(draws=np.array([[0.0]]), seed=0)
    with pytest.raises(DegenerateFitError):
        update_beta(model, post, samples)


def test_updates_are_stationary_points():
    rng = np.random.default_rng(23)
    x, y = synth_regression_data(8, seed=2)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=2)
    model = RbfRegressionModel(x, y, design)
    for _ in range(10):
        post = random_posterior(rng, model.dim, factor_scale=0.5)
        samples = SampleSet.generate(6, model.dim, seed=int(rng.integers(2**31)))
        alpha = update_alpha(post)
        assert abs(dbound_dalpha(post, alpha)) < 1e-8
        beta = update_beta(model, post, samples)
        assert abs(dbound_dbeta(model, post, samples, beta)) < 1e-8


def test_update_derivatives_match_finite_differences():
    rng = np.random.default_rng(6)
    x, y = synth_regression_data(8, seed=4)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=2)
    model = RbfRegressionModel(x, y, design)
    post = random_posterior(rng, model.dim, factor_scale=0.5)
    samples = SampleSet.generate(6, model.dim, seed=44)

    alpha, beta = 0.8, 2.0

    def bound_at(a, b):
        return lower_bound_fs(model, post, Hyperparameters(a, b), samples)

    fd_alpha = (bound_at(alpha + 1e-6, beta) - bound_at(alpha - 1e-6, beta)) / 2e-6
    assert abs(dbound_dalpha(post, alpha) - fd_alpha) < 1e-6
    fd_beta = (bound_at(alpha, beta + 1e-6) - bound_at(alpha, beta - 1e-6)) / 2e-6
    assert abs(dbound_dbeta(model, post, samples, beta) - fd_beta) < 1e-6


# ------------------------------------------------- draw-count consistency


def exact_blr_bound(model, post, hyper):
    """Closed-form expectation of the regression bound, no draws involved.

    E_q ||Y - Phi w||^2 = ||Y - Phi mu||^2 + tr(Phi^T Phi L L^T) gives the
    exact value the finite-draw bound estimates.
    """
    phi = model.design_matrix
    n = model.n_obs
    resid = model.targets - phi @ post.mu
    spread = float(np.sum((phi @ post.L) ** 2))
    mean_ll = 0.5 * n * (np.log(hyper.beta) - _LN_2PI) - 0.5 * hyper.beta * (
        float(resid @ resid) + spread
    )
    return mean_ll - kl_gaussian_prior(post, hyper.alpha)


def test_bound_gap_shrinks_with_more_draws():
    x, y = synth_regression_data(60, seed=0)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=20)
    model = RbfRegressionModel(x, y, design)
    rng = np.random.default_rng(40)
    post = random_posterior(rng, model.dim, factor_scale=0.2)
    hyper = Hyperparameters(0.5, 25.0)
    exact = exact_blr_bound(model, post, hyper)

    gaps = {}
    for s in (10, 100, 1000):
        values = []
        for seed in range(20):
            samples = SampleSet.generate(s, model.dim, seed=seed)
            values.append(abs(lower_bound_fs(model, post, hyper, samples) - exact))
        gaps[s] = float(np.median(values))
    assert gaps[10] > gaps[100] > gaps[1000], f"medians not decreasing: {gaps}"
