"""Model likelihoods: hand-computed values, gradient contracts, generators."""

import inspect
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

import fsvi.models
from conftest import fd_grad, rel_err
from fsvi import scg_maximise
from fsvi.exceptions import (
    ConfigError,
    DimensionError,
    InvalidLabelError,
)
from fsvi.models import (
    CauchyPpcaModel,
    CauchyPpcaParams,
    GaussianTarget,
    LogisticModel,
    RbfDesign,
    SoftmaxModel,
    SpectrumDecayModel,
    cauchy_ppca_loglik,
    logistic_loglik,
    one_hot,
    rbf_regression_loglik,
    skew_logdensity,
    softmax_loglik,
    synth_classification_data,
    synth_regression_data,
    synth_spectrum_data,
    true_regression_curve,
)
from fsvi.models.base import TargetModel

_LN_2PI = np.log(2.0 * np.pi)


# ------------------------------------------------------------ gradient contracts


def test_gradients_match_finite_differences(model_zoo):
    rng = np.random.default_rng(2)
    for name, model, hyper in model_zoo:
        for _ in range(5):
            w = 0.3 * rng.standard_normal(model.dim)
            if hyper.beta is not None:
                fun = lambda v: model.log_lik(v, hyper.beta)
                grad = model.grad_log_lik(w, hyper.beta)
            else:
                fun = model.log_lik
                grad = model.grad_log_lik(w)
            fd = fd_grad(fun, w)
            assert rel_err(grad, fd) < 1e-5, (
                f"{name}: analytic gradient off by {rel_err(grad, fd)}"
            )


def test_batch_gradients_match_stacked_single(model_zoo):
    rng = np.random.default_rng(3)
    for name, model, hyper in model_zoo:
        w = 0.3 * rng.standard_normal((4, model.dim))
        if hyper.beta is not None:
            batch = model.grad_log_lik_batch(w, hyper.beta)
            single = np.stack([model.grad_log_lik(row, hyper.beta) for row in w])
        else:
            batch = model.grad_log_lik_batch(w)
            single = np.stack([model.grad_log_lik(row) for row in w])
        assert np.max(np.abs(batch - single)) < 1e-12, (
            f"{name}: batch gradient disagrees with per-row gradient"
        )


def test_fused_batch_matches_split_methods_bitwise(model_zoo):
    rng = np.random.default_rng(5)
    for name, model, hyper in model_zoo:
        w = rng.standard_normal((7, model.dim))
        noise = (hyper.beta,) if hyper.beta is not None else ()
        values, grads = model.log_lik_and_grad_batch(w, *noise)
        assert np.array_equal(values, model.log_lik_batch(w, *noise)), name
        assert np.array_equal(grads, model.grad_log_lik_batch(w, *noise)), name


def test_noise_model_jacobians_match_finite_differences(model_zoo):
    # vjp_batch along each basis residual e_i is row i of the Jacobian.
    rng = np.random.default_rng(4)
    for name, model, hyper in model_zoo:
        if hyper.beta is None:
            continue
        w = 0.3 * rng.standard_normal(model.dim)
        n = model.n_obs
        w_rows = np.tile(w, (n, 1))
        jac = model.vjp_batch(w_rows, np.eye(n), model.predict_outputs_batch(w_rows))
        fd = np.stack(
            [
                fd_grad(lambda v: float(model.predict_outputs_batch(v[None, :])[0, i]), w)
                for i in range(n)
            ]
        )
        assert rel_err(jac, fd) < 1e-5, f"{name}: jacobian off"


def test_batch_pass_matches_reference_likelihoods(model_zoo):
    # Per-point methods derive from the batched pass, so compare its rows
    # with the independently coded module-level likelihoods.
    rng = np.random.default_rng(6)
    for name, model, hyper in model_zoo:
        w = 0.3 * rng.standard_normal((5, model.dim))
        noise = (hyper.beta,) if hyper.beta is not None else ()
        values, grads = model.log_lik_and_grad_batch(w, *noise)
        for row, value, grad in zip(w, values, grads):
            if name == "gaussian":
                ref = multivariate_normal(model.mean, model.cov)
                ref_value = ref.logpdf(row)
                ref_grad = -np.linalg.solve(model.cov, row - model.mean)
            elif name == "skew":
                ref_value, ref_grad = skew_logdensity(row, model.coeff)
            elif name == "rbf-regression":
                ref_value, ref_grad = rbf_regression_loglik(
                    row, model.design_matrix, model.targets, hyper.beta
                )
            elif name == "logistic":
                ref_value, ref_grad = logistic_loglik(row, model._phi, model._y)
            elif name == "softmax":
                ref_value, ref_grad = softmax_loglik(row, model._phi, model._y)
            elif name == "cauchy-ppca":
                latents = row.reshape(model.n_data, model.latent_dim)
                ref_value, ref_grad = cauchy_ppca_loglik(
                    latents, model.params, model.data
                )[:2]
            elif name == "spectrum":
                # No module-level reference; the Jacobian test above covers it.
                continue
            else:
                raise AssertionError(f"{name}: no reference likelihood")
            assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value)), name
            assert rel_err(grad, np.ravel(ref_grad)) < 1e-12, name


def test_model_zoo_covers_every_exported_model(model_zoo):
    # A concrete model outside the zoo would skip the contract tests above.
    exported = {
        cls
        for cls in vars(fsvi.models).values()
        if inspect.isclass(cls)
        and issubclass(cls, TargetModel)
        and not inspect.isabstract(cls)
    }
    assert exported, "no concrete models exported"
    missing = exported - {type(model) for _, model, _ in model_zoo}
    assert not missing, f"models missing from make_model_zoo: {missing}"


# ------------------------------------------------------------------ regression


def test_regression_loglik_at_zero_weights():
    phi = np.random.default_rng(0).uniform(0.1, 1.0, (7, 3))
    beta = 2.5
    value, grad = rbf_regression_loglik(np.zeros(3), phi, np.zeros(7), beta)
    expected = 3.5 * (np.log(beta) - _LN_2PI)
    assert abs(value - expected) < 1e-12, f"got {value}, expected {expected}"
    assert np.allclose(grad, 0.0)


def test_regression_loglik_single_datum():
    value, grad = rbf_regression_loglik(
        np.array([2.0]), np.array([[1.0]]), np.array([1.0]), 1.0
    )
    assert abs(value - (-0.5 * _LN_2PI - 0.5)) < 1e-14
    assert abs(grad[0] - (-1.0)) < 1e-14


def test_rbf_jacobian_is_design_matrix():
    x, y = synth_regression_data(6, seed=1)
    design = RbfDesign.from_inputs(x, 1.0, n_centres=3)
    from fsvi.models import RbfRegressionModel

    model = RbfRegressionModel(x, y, design)
    # With identity residuals the rows of vjp_batch are the Jacobian's rows.
    w_rows = np.ones((model.n_obs, model.dim))
    jac = model.vjp_batch(w_rows, np.eye(model.n_obs), model.predict_outputs_batch(w_rows))
    assert np.array_equal(jac, model.design_matrix)


# -------------------------------------------------------------- classification


def test_logistic_loglik_at_zero_weights():
    phi = np.random.default_rng(1).standard_normal((9, 4))
    labels = np.random.default_rng(2).integers(0, 2, 9)
    value, _ = logistic_loglik(np.zeros(4), phi, labels)
    assert abs(value - 9 * np.log(0.5)) < 1e-12


def test_logistic_loglik_finite_at_extreme_activations():
    phi = np.array([[500.0], [-500.0]])
    labels = np.array([1, 0])
    with np.errstate(all="raise"):
        value, grad = logistic_loglik(np.array([1.0]), phi, labels)
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    # Both data points sit deep on the correct side, so the fit is near perfect.
    assert abs(value) < 1e-10, f"expected ~0, got {value}"

    value_wrong, _ = logistic_loglik(np.array([1.0]), phi, np.array([0, 1]))
    assert abs(value_wrong - (-1000.0)) < 1e-6


def test_softmax_loglik_at_zero_weights():
    phi = np.random.default_rng(3).standard_normal((8, 3))
    labels = one_hot(np.arange(8) % 4, 4)
    value, _ = softmax_loglik(np.zeros(12), phi, labels)
    assert abs(value - (-8 * np.log(4.0))) < 1e-12


def test_softmax_two_classes_reduces_to_logistic():
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, 10)
    w0 = rng.standard_normal(3)
    w1 = rng.standard_normal(3)

    value_soft, _ = softmax_loglik(
        np.concatenate([w0, w1]), phi, one_hot(labels, 2)
    )
    value_logi, _ = logistic_loglik(w1 - w0, phi, labels)
    assert abs(value_soft - value_logi) < 1e-10


def test_predicted_probabilities_are_normalised():
    x, labels = synth_classification_data(3, 30, seed=7)
    design = RbfDesign.from_inputs(x, 2.0, n_centres=4)
    model = SoftmaxModel(x, one_hot(labels, 3), design)
    rng = np.random.default_rng(8)
    probs = model.predict_batch(rng.standard_normal((1, model.dim)), x)[0]
    assert probs.shape == (30, 3)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(probs >= 0.0)

    binary_x, binary_labels = synth_classification_data(2, 20, seed=9)
    bdesign = RbfDesign.from_inputs(binary_x, 2.0, n_centres=4)
    bmodel = LogisticModel(binary_x, binary_labels, bdesign)
    bprobs = bmodel.predict_batch(rng.standard_normal((1, bmodel.dim)), binary_x)[0]
    assert np.max(np.abs(bprobs.sum(axis=1) - 1.0)) < 1e-12


def test_softmax_batch_predictions_match_per_draw_softmax():
    x, labels = synth_classification_data(3, 30, seed=7)
    design = RbfDesign.from_inputs(x, 2.0, n_centres=4)
    model = SoftmaxModel(x, one_hot(labels, 3), design)
    w = np.random.default_rng(9).standard_normal((5, model.dim))
    grid = np.random.default_rng(10).standard_normal((11, 2))
    probs = model.predict_batch(w, grid)
    assert probs.shape == (5, 11, 3)
    phi = design.matrix(grid)
    for row, p in zip(w, probs):
        logits = phi @ row.reshape(3, -1).T
        ref = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        assert np.max(np.abs(p - ref)) < 1e-12


def test_softmax_posterior_blocks():
    x, labels = synth_classification_data(3, 15, seed=0)
    design = RbfDesign.from_inputs(x, 2.0, n_centres=2)
    model = SoftmaxModel(x, one_hot(labels, 3), design)
    assert model.n_posterior_blocks == 3
    assert model.dim == 3 * design.n_features


# ---------------------------------------------------------------- cauchy noise


def test_cauchy_loglik_zero_residuals():
    params = CauchyPpcaParams(np.zeros((3, 1)), np.zeros(3), 1.0)
    value = cauchy_ppca_loglik(np.zeros((2, 1)), params, np.zeros((2, 3)))[0]
    assert abs(value - (-6.0 * np.log(np.pi))) < 1e-12


def test_cauchy_loglik_residual_equal_to_scale():
    gamma = 0.7
    params = CauchyPpcaParams(np.zeros((3, 1)), np.zeros(3), gamma)
    data = gamma * np.ones((2, 3))
    value = cauchy_ppca_loglik(np.zeros((2, 1)), params, data)[0]
    expected = 6.0 * (-np.log(np.pi) - np.log(gamma) - np.log(2.0))
    assert abs(value - expected) < 1e-12


def test_cauchy_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    d, q, n = 4, 2, 3
    loading = rng.standard_normal((d, q))
    offset = rng.standard_normal(d)
    gamma = 0.9
    data = rng.standard_normal((n, d))
    latents = rng.standard_normal((n, q))
    params = CauchyPpcaParams(loading, offset, gamma)

    _, g_x, g_w, g_xi, g_gamma = cauchy_ppca_loglik(latents, params, data)

    fd_x = fd_grad(
        lambda v: cauchy_ppca_loglik(v.reshape(n, q), params, data)[0],
        latents.ravel(),
    ).reshape(n, q)
    assert rel_err(g_x, fd_x) < 1e-6

    fd_w = fd_grad(
        lambda v: cauchy_ppca_loglik(
            latents, CauchyPpcaParams(v.reshape(d, q), offset, gamma), data
        )[0],
        loading.ravel(),
    ).reshape(d, q)
    assert rel_err(g_w, fd_w) < 1e-6

    fd_xi = fd_grad(
        lambda v: cauchy_ppca_loglik(
            latents, CauchyPpcaParams(loading, v, gamma), data
        )[0],
        offset,
    )
    assert rel_err(g_xi, fd_xi) < 1e-6

    fd_gamma = fd_grad(
        lambda v: cauchy_ppca_loglik(
            latents, CauchyPpcaParams(loading, offset, float(v[0])), data
        )[0],
        np.array([gamma]),
    )[0]
    assert abs(g_gamma - fd_gamma) / max(abs(fd_gamma), 1.0) < 1e-6


def test_cauchy_batched_model_params_gradient():
    # The draw-averaged, log-scale gradient the fit steps model parameters on.
    rng = np.random.default_rng(13)
    d, q, n, s = 5, 2, 4, 6
    params = CauchyPpcaParams(rng.standard_normal((d, q)), rng.standard_normal(d), 0.7)
    model = CauchyPpcaModel(rng.standard_normal((n, d)), params)
    w = rng.standard_normal((s, n * q))

    value, grad = model.model_params_value_and_grad(w)
    assert value == float(np.mean(model.log_lik_batch(w)))

    fd = fd_grad(
        lambda theta: model.with_model_params(theta).model_params_value_and_grad(w)[0],
        model.model_params,
    )
    err = rel_err(grad, fd)
    assert err < 1e-6, f"model-parameter gradient off by {err}"


def test_cauchy_model_params_round_trip():
    rng = np.random.default_rng(12)
    params = CauchyPpcaParams(rng.standard_normal((4, 2)), rng.standard_normal(4), 0.6)
    model = CauchyPpcaModel(rng.standard_normal((5, 4)), params)
    rebuilt = model.with_model_params(model.model_params)
    assert np.allclose(rebuilt.params.loading, params.loading)
    assert np.allclose(rebuilt.params.offset, params.offset)
    assert abs(rebuilt.params.scale - params.scale) < 1e-12


def _cauchy_case(n=30, d=100, q=2):
    rng = np.random.default_rng(14)
    params = CauchyPpcaParams(rng.standard_normal((d, q)), rng.standard_normal(d), 0.4)
    data = rng.standard_normal((n, q)) @ params.loading.T + params.offset
    data += 0.2 * rng.standard_cauchy(data.shape)
    return CauchyPpcaModel(data, params), rng


def _cauchy_passes(model):
    return {
        "log_lik_batch": model.log_lik_batch,
        "log_lik_and_grad_batch": model.log_lik_and_grad_batch,
        "model_params_value_and_grad": model.model_params_value_and_grad,
    }


@pytest.mark.parametrize("s", [1, 3, 100])
def test_cauchy_passes_match_per_draw_reference(s):
    # Each pass walks the draws one at a time through reused buffers; every
    # row and the draw average must still be the per-draw likelihood's.
    model, rng = _cauchy_case()
    w = rng.standard_normal((s, model.dim))
    refs = [
        cauchy_ppca_loglik(row.reshape(model.n_data, -1), model.params, model.data)
        for row in w
    ]
    ref_values = np.array([r[0] for r in refs])
    ref_grads = np.array([r[1].ravel() for r in refs])

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    assert close(model.log_lik_batch(w), ref_values)
    values, grads = model.log_lik_and_grad_batch(w)
    assert close(values, ref_values)
    assert rel_err(grads, ref_grads) < 1e-12

    value, grad = model.model_params_value_and_grad(w)
    d, q = model.params.loading.shape
    ref_theta = np.concatenate(
        [
            np.mean([r[2] for r in refs], axis=0).ravel(),
            np.mean([r[3] for r in refs], axis=0),
            # d/d ln(gamma) = gamma * d/d gamma.
            [model.params.scale * np.mean([r[4] for r in refs])],
        ]
    )
    assert close(np.array([value]), np.array([np.mean(ref_values)]))
    for part in (slice(0, d * q), slice(d * q, d * q + d), slice(-1, None)):
        assert rel_err(grad[part], ref_theta[part]) < 1e-12


def test_cauchy_passes_return_fresh_arrays():
    # The per-draw buffers are reused inside a call; none may leak out.
    model, rng = _cauchy_case()
    w = rng.standard_normal((4, model.dim))
    for name, pass_ in _cauchy_passes(model).items():
        first, second = pass_(w), pass_(w)
        a_parts = first if isinstance(first, tuple) else (first,)
        b_parts = second if isinstance(second, tuple) else (second,)
        for a, b in zip(a_parts, b_parts):
            assert np.array_equal(a, b), name
            assert not np.shares_memory(a, b), name


def test_cauchy_pass_memory_is_one_draw_slab():
    # A pass over S = 100 draws holds O(N d), not O(S N d), at once.
    model, rng = _cauchy_case()
    w = rng.standard_normal((100, model.dim))
    slab = model.data.nbytes
    for name, pass_ in _cauchy_passes(model).items():
        tracemalloc.start()
        try:
            pass_(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * slab, f"{name}: peak {peak} bytes, slab {slab}"


def test_cauchy_reconstruct():
    params = CauchyPpcaParams(np.array([[2.0], [0.0]]), np.array([1.0, -1.0]), 1.0)
    model = CauchyPpcaModel(np.zeros((1, 2)), params)
    out = model.reconstruct(np.array([[3.0]]))
    assert np.allclose(out, [[7.0, -1.0]])


# ------------------------------------------------------------- skewed density


def test_skew_logdensity_at_origin():
    value, grad = skew_logdensity(np.zeros(2), np.array([-3.0, 1.0, -1.0, -1.0, -1.0, -1.0]))
    assert abs(value - (-_LN_2PI)) < 1e-12
    # At the origin the ratio phi(0)/Phi(0) is sqrt(2/pi) and dh = (a0, a1).
    expected = np.sqrt(2.0 / np.pi) * np.array([-3.0, 1.0])
    assert np.allclose(grad, expected, atol=1e-12)


def test_skew_density_is_normalised():
    coeff = np.array([-3.0, 1.0, -1.0, -1.0, -1.0, -1.0])

    def density(w2, w1):
        return np.exp(skew_logdensity(np.array([w1, w2]), coeff)[0])

    mass, err = dblquad(density, -8.0, 8.0, -8.0, 8.0, epsabs=1e-8)
    assert abs(mass - 1.0) < 1e-6, f"density mass {mass}"


def test_skew_odd_symmetry_identity():
    # Phi(h(w)) + Phi(h(-w)) = 1 for odd h, so the two densities sum to twice
    # the standard normal at every point.
    coeff = np.array([0.5, -1.5, 2.0, 1.0, -1.0, 0.3])
    rng = np.random.default_rng(14)
    for _ in range(50):
        w = rng.uniform(-3.0, 3.0, 2)
        total = np.exp(skew_logdensity(w, coeff)[0]) + np.exp(
            skew_logdensity(-w, coeff)[0]
        )
        gauss = np.exp(-0.5 * float(w @ w)) / (2.0 * np.pi)
        assert abs(total - 2.0 * gauss) < 1e-12


def test_skew_stable_far_in_the_tail():
    coeff = np.array([-3.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    value, grad = skew_logdensity(np.array([6.0, -6.0]), coeff)
    assert np.isfinite(value) and np.all(np.isfinite(grad))


def test_gaussian_target_matches_scipy():
    rng = np.random.default_rng(15)
    mean = np.array([0.3, -0.2])
    cov = np.array([[1.0, 0.3], [0.3, 0.8]])
    model = GaussianTarget(mean, cov)
    ref = multivariate_normal(mean, cov)
    for _ in range(10):
        w = rng.standard_normal(2)
        assert abs(model.log_lik(w) - ref.logpdf(w)) < 1e-12
    with pytest.raises(DimensionError, match="positive definite"):
        GaussianTarget(mean, [[1.0, 2.0], [2.0, 1.0]])


# -------------------------------------------------------------- design matrix


def test_design_entries_bounded_and_bias_column():
    rng = np.random.default_rng(16)
    x = rng.uniform(-5.0, 5.0, 40)
    design = RbfDesign.from_inputs(x, 1.3, n_centres=7)
    phi = design.matrix(rng.uniform(-5.0, 5.0, 25))
    assert phi.shape == (25, design.n_features)
    assert np.all(phi > 0.0) and np.all(phi <= 1.0)
    assert np.array_equal(phi[:, -1], np.ones(25))


def test_design_subsampling_is_deterministic():
    x = np.random.default_rng(17).uniform(-5.0, 5.0, 30)
    a = RbfDesign.from_inputs(x, 1.0, n_centres=5)
    b = RbfDesign.from_inputs(x, 1.0, n_centres=5)
    assert np.array_equal(a.centres, b.centres)
    assert a.centres.shape[0] == 5
    # Centres are a sorted subset of the inputs.
    assert np.all(np.diff(a.centres[:, 0]) > 0)
    assert np.all(np.isin(a.centres[:, 0], x))


def test_design_keeps_all_points_when_not_subsampled():
    x = np.array([3.0, -1.0, 2.0])
    design = RbfDesign.from_inputs(x, 1.0)
    assert design.centres.shape == (3, 1)
    assert design.n_features == 4


def test_design_validation():
    with pytest.raises(ConfigError):
        RbfDesign(np.zeros((2, 1)), width=0.0)
    with pytest.raises(ConfigError):
        RbfDesign.from_inputs(np.arange(5.0), 1.0, n_centres=0)
    design = RbfDesign(np.zeros((2, 3)), width=1.0)
    with pytest.raises(DimensionError):
        design.matrix(np.zeros((4, 2)))


# ------------------------------------------------------------ data generators


def test_regression_curve_values():
    assert true_regression_curve(0.0) == 0.0
    expected = 1.0 - 0.1 * (np.pi / 4.0) ** 2
    assert abs(true_regression_curve(np.pi / 4.0) - expected) < 1e-14


def test_regression_data_deterministic():
    x1, y1 = synth_regression_data(50, seed=5)
    x2, y2 = synth_regression_data(50, seed=5)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    x3, _ = synth_regression_data(50, seed=6)
    assert not np.array_equal(x1, x3)


def test_regression_noise_magnitude():
    x, y = synth_regression_data(100_000, seed=0, noise_sd=0.2)
    resid = y - true_regression_curve(x)
    assert abs(np.var(resid) - 0.04) < 0.002
    assert abs(np.mean(resid)) < 0.01
    assert np.all(x >= -6.0) and np.all(x <= 6.0)


def test_classification_data_balanced_and_deterministic():
    x, labels = synth_classification_data(3, 32, seed=4)
    counts = np.bincount(labels, minlength=3)
    assert counts.max() - counts.min() <= 1, f"unbalanced counts {counts}"
    x2, labels2 = synth_classification_data(3, 32, seed=4)
    assert np.array_equal(x, x2) and np.array_equal(labels, labels2)
    assert x.shape == (32, 2)


def test_classification_blobs_are_separable():
    x, labels = synth_classification_data(2, 200, seed=0)
    phi = np.column_stack([x, np.ones(200)])

    def fun(w):
        # Small ridge keeps the separable-data maximiser finite.
        value, grad = logistic_loglik(w, phi, labels)
        return value - 0.01 * float(w @ w), grad - 0.02 * w

    res = scg_maximise(fun, np.zeros(3), max_iters=500)
    pred = (phi @ res.x > 0.0).astype(int)
    accuracy = float(np.mean(pred == labels))
    assert accuracy >= 0.99, f"default blobs should separate, accuracy {accuracy}"


def test_spectrum_data_ranges_and_noise():
    inputs, targets, true_w = synth_spectrum_data(4000, seed=0)
    assert inputs.shape == (4000, 3)
    assert true_w.shape == (11,)
    e, r, f = inputs[:, 0], inputs[:, 1], inputs[:, 2]
    assert np.all((e >= 0) & (e <= 7))
    assert np.all((r >= 5.0) & (r <= 50.0))
    assert np.all((f >= 0.5) & (f <= 20.0))

    model = SpectrumDecayModel(
        e.astype(int), r, f, targets, n_sources=8
    )
    clean = model.predict_batch(true_w[None, :], inputs)[0]
    resid = targets - clean
    assert abs(np.std(resid) - 0.05) < 0.01

    again = synth_spectrum_data(4000, seed=0)
    assert np.array_equal(again[0], inputs) and np.array_equal(again[1], targets)


def test_spectrum_prediction_consistency():
    inputs, targets, true_w = synth_spectrum_data(30, seed=3, n_sources=4)
    model = SpectrumDecayModel(
        inputs[:, 0].astype(int), inputs[:, 1], inputs[:, 2], targets, n_sources=4
    )
    direct = model.predict_outputs_batch(true_w[None, :])[0]
    via_inputs = model.predict_batch(true_w[None, :], inputs)[0]
    assert np.max(np.abs(direct - via_inputs)) < 1e-12
    batch = model.predict_outputs_batch(np.stack([true_w, 0.5 * true_w]))
    assert np.max(np.abs(batch[0] - direct)) < 1e-12


# ----------------------------------------------------------------- validation


def test_one_hot_round_trip_and_validation():
    labels = np.array([0, 2, 1, 2])
    y = one_hot(labels, 3)
    assert y.shape == (4, 3)
    assert np.array_equal(np.argmax(y, axis=1), labels)
    with pytest.raises(InvalidLabelError):
        one_hot(np.array([0, 3]), 3)
    with pytest.raises(InvalidLabelError):
        one_hot(np.array([-1, 0]), 3)
    with pytest.raises(DimensionError):
        one_hot(np.zeros((2, 2)), 2)


def test_binary_label_validation():
    x = np.random.default_rng(0).standard_normal((4, 2))
    design = RbfDesign.from_inputs(x, 1.0)
    with pytest.raises(InvalidLabelError):
        LogisticModel(x, np.array([0, 1, 2, 0]), design)
    with pytest.raises(DimensionError):
        LogisticModel(x, np.array([0, 1]), design)


def test_onehot_label_validation():
    x = np.random.default_rng(1).standard_normal((3, 2))
    design = RbfDesign.from_inputs(x, 1.0)
    bad = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(InvalidLabelError):
        SoftmaxModel(x, bad, design)


def test_spectrum_input_validation():
    with pytest.raises(ConfigError):
        SpectrumDecayModel([0, 9], [1.0, 2.0], [1.0, 2.0], [0.0, 0.0], n_sources=8)
    with pytest.raises(ConfigError):
        SpectrumDecayModel([0, 1], [1.0, -2.0], [1.0, 2.0], [0.0, 0.0])
    with pytest.raises(DimensionError):
        SpectrumDecayModel([0, 1], [1.0], [1.0, 2.0], [0.0, 0.0])
    model = SpectrumDecayModel([0], [10.0], [1.0], [0.5], n_sources=2)
    with pytest.raises(DimensionError):
        model.predict_batch(np.zeros((1, 5)), np.zeros((3, 2)))


def test_cauchy_params_validation():
    with pytest.raises(DimensionError):
        CauchyPpcaParams(np.zeros((2, 2)), np.zeros(2), 1.0)
    with pytest.raises(ConfigError):
        CauchyPpcaParams(np.zeros((3, 1)), np.zeros(3), 0.0)
    with pytest.raises(DimensionError):
        CauchyPpcaParams(np.zeros((3, 1)), np.zeros(2), 1.0)


def test_skew_input_validation():
    with pytest.raises(DimensionError):
        skew_logdensity(np.zeros(3), np.zeros(6))
    with pytest.raises(DimensionError):
        skew_logdensity(np.zeros(2), np.zeros(5))


def test_synth_generator_validation():
    with pytest.raises(ConfigError):
        synth_regression_data(0, seed=0)
    with pytest.raises(ConfigError):
        synth_classification_data(1, 10, seed=0)
    with pytest.raises(ConfigError):
        synth_classification_data(3, 2, seed=0)
    with pytest.raises(ConfigError):
        synth_spectrum_data(0, seed=0)
