"""Model likelihoods: hand-computed values, gradient contracts, generators."""

import dataclasses
import inspect
import multiprocessing
import os
import sys
import threading
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
    SkewTarget,
    SoftmaxModel,
    SpectrumDecayModel,
    one_hot,
    synth_classification_data,
    synth_regression_data,
    synth_spectrum_data,
    true_regression_curve,
)
from fsvi.models import cauchy_ppca
from fsvi.models.base import TargetModel
from references import (
    cauchy_ppca_loglik,
    gaussian_logdensity,
    logistic_loglik,
    rbf_regression_loglik,
    skew_logdensity,
    softmax_loglik,
    spectrum_loglik,
)

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


# Each zoo model's reference likelihood at one parameter row, as
# (value, gradient), from the model's data and the zoo's hyperparameters.
_REFERENCES = {
    "gaussian": lambda w, m, h: gaussian_logdensity(w, m.mean, m.cov),
    "skew": lambda w, m, h: skew_logdensity(w, m.coeff),
    "rbf-regression": lambda w, m, h: rbf_regression_loglik(
        w, m.design_matrix, m.targets, h.beta
    ),
    "logistic": lambda w, m, h: logistic_loglik(w, m._phi, m._y),
    "softmax": lambda w, m, h: softmax_loglik(w, m._phi, m._y),
    "cauchy-ppca": lambda w, m, h: cauchy_ppca_loglik(
        w.reshape(m.n_data, m.latent_dim), m.params.loading, m.params.offset,
        m.params.scale, m.data,
    )[:2],
    "spectrum": lambda w, m, h: spectrum_loglik(
        w, m._e, m._r, m._f, m.targets, h.beta
    ),
}


def test_batch_pass_matches_reference_likelihoods(model_zoo):
    # Compare the batched pass's rows with the references in
    # tests/references.py, which are written from the models' formulas
    # without any fsvi code.
    rng = np.random.default_rng(6)
    for name, model, hyper in model_zoo:
        assert name in _REFERENCES, f"{name}: no reference likelihood"
        w = 0.3 * rng.standard_normal((5, model.dim))
        noise = (hyper.beta,) if hyper.beta is not None else ()
        values, grads = model.log_lik_and_grad_batch(w, *noise)
        for row, value, grad in zip(w, values, grads):
            ref_value, ref_grad = _REFERENCES[name](row, model, hyper)
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
    value = cauchy_ppca_loglik(
        np.zeros((2, 1)), np.zeros((3, 1)), np.zeros(3), 1.0, np.zeros((2, 3))
    )[0]
    assert abs(value - (-6.0 * np.log(np.pi))) < 1e-12


def test_cauchy_loglik_residual_equal_to_scale():
    gamma = 0.7
    data = gamma * np.ones((2, 3))
    value = cauchy_ppca_loglik(np.zeros((2, 1)), np.zeros((3, 1)), np.zeros(3), gamma, data)[0]
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

    _, g_x, g_w, g_xi, g_gamma = cauchy_ppca_loglik(latents, loading, offset, gamma, data)

    fd_x = fd_grad(
        lambda v: cauchy_ppca_loglik(v.reshape(n, q), loading, offset, gamma, data)[0],
        latents.ravel(),
    ).reshape(n, q)
    assert rel_err(g_x, fd_x) < 1e-6

    fd_w = fd_grad(
        lambda v: cauchy_ppca_loglik(latents, v.reshape(d, q), offset, gamma, data)[0],
        loading.ravel(),
    ).reshape(d, q)
    assert rel_err(g_w, fd_w) < 1e-6

    fd_xi = fd_grad(
        lambda v: cauchy_ppca_loglik(latents, loading, v, gamma, data)[0],
        offset,
    )
    assert rel_err(g_xi, fd_xi) < 1e-6

    fd_gamma = fd_grad(
        lambda v: cauchy_ppca_loglik(latents, loading, offset, float(v[0]), data)[0],
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


def test_cauchy_model_params_gradient_only_form():
    # The same gradient bits as the fused pass, and NaN exactly where its
    # value is not finite: a NaN draw, a draw whose 1 + u^2 overflows, and
    # a scale whose -N d ln(gamma) term is -inf.
    rng = np.random.default_rng(15)
    d, q, n, s = 5, 2, 4, 6
    params = CauchyPpcaParams(rng.standard_normal((d, q)), rng.standard_normal(d), 0.7)
    model = CauchyPpcaModel(rng.standard_normal((n, d)), params)
    w = rng.standard_normal((s, n * q))
    value, grad = model.model_params_value_and_grad(w)
    assert np.isfinite(value)
    assert np.array_equal(model.model_params_grad(w), grad)

    nan_draw = w.copy()
    nan_draw[3, 1] = np.nan
    far_draw = w.copy()
    far_draw[3, 1] = 1e156
    theta = model.model_params
    theta[-1] = 800.0
    with np.errstate(over="ignore", invalid="ignore"):
        huge_scale = model.with_model_params(theta)
        cases = [(model, nan_draw), (model, far_draw), (huge_scale, w)]
        for case, draws in cases:
            value, grad = case.model_params_value_and_grad(draws)
            assert not np.isfinite(value)
            assert np.all(np.isnan(case.model_params_grad(draws)))
            # The base class derives the same form from the fused pass.
            assert np.all(np.isnan(TargetModel.model_params_grad(case, draws)))
        # The infinite scale leaves the fused gradient finite: only the
        # gradient-only form's NaN flags it.
        assert np.all(np.isfinite(huge_scale.model_params_value_and_grad(w)[1]))


def test_cauchy_params_are_frozen():
    # A model folds its parameters into its data when it is built, so a
    # reassigned field would leave it stale: reassigning raises instead.
    params = CauchyPpcaParams(np.ones((3, 1)), np.zeros(3), 1.0)
    for name, value in (("loading", np.zeros((3, 1))), ("offset", np.ones(3)),
                        ("scale", 2.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(params, name, value)
    assert params.scale == 1.0 and np.array_equal(params.offset, np.zeros(3))


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
        "grad_log_lik_batch": model.grad_log_lik_batch,
        "model_params_value_and_grad": model.model_params_value_and_grad,
        "model_params_grad": model.model_params_grad,
    }


@pytest.mark.parametrize("s", [1, 3, 100])
def test_cauchy_passes_match_per_draw_reference(s):
    # Each pass walks the draws one at a time through reused buffers; every
    # row and the draw average must still be the per-draw likelihood's. A
    # model from `with_model_params` folds its own offset and scale into
    # the data, so its passes are the likelihood at the new parameters.
    built, rng = _cauchy_case()
    w = rng.standard_normal((s, built.dim))
    theta = built.model_params
    theta[:-1] += 0.3 * rng.standard_normal(theta.size - 1)
    theta[-1] += 0.5

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    for model in (built, built.with_model_params(theta)):
        p = model.params
        refs = [
            cauchy_ppca_loglik(
                row.reshape(model.n_data, -1), p.loading, p.offset, p.scale, model.data
            )
            for row in w
        ]
        ref_values = np.array([r[0] for r in refs])
        ref_grads = np.array([r[1].ravel() for r in refs])

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


def test_cauchy_passes_return_fresh_arrays(monkeypatch):
    # The per-draw buffers are reused inside a call; none may leak out, so
    # later passes leave an earlier pass's outputs as they were. The small
    # model runs on the calling thread, the large one splits its draws.
    large, rng = _split_case(monkeypatch)
    small, _ = _cauchy_case()
    for model in (small, large):
        w = rng.standard_normal((4, model.dim))
        other = rng.standard_normal((4, model.dim))
        passes = _cauchy_passes(model)
        for name, pass_ in passes.items():
            first = pass_(w)
            kept = _bits(first)
            second = pass_(w)
            for later in passes.values():
                later(other)
            assert _bits(first) == kept == _bits(second), name
            a_parts = first if isinstance(first, tuple) else (first,)
            b_parts = second if isinstance(second, tuple) else (second,)
            for a, b in zip(a_parts, b_parts):
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


def _split_case(monkeypatch):
    # One draw's 200 x 504 slab is above the split gate, and two CPUs count
    # as usable on any machine, so a pass over two or more draws gives its
    # second half to the worker.
    monkeypatch.setattr(cauchy_ppca, "_usable_cpus", lambda: 2)
    model, rng = _cauchy_case(n=200, d=504)
    assert model.data.size >= cauchy_ppca._SPLIT_MIN_ENTRIES
    return model, rng


def _bits(out):
    parts = out if isinstance(out, tuple) else (out,)
    return [(np.shape(p), np.asarray(p).tobytes()) for p in parts]


def _count_splits(monkeypatch):
    splits = []
    draw_worker = cauchy_ppca._draw_worker

    def counted():
        splits.append(os.getpid())
        return draw_worker()

    monkeypatch.setattr(cauchy_ppca, "_draw_worker", counted)
    return splits


@pytest.mark.parametrize("s", [20, 21])
def test_cauchy_split_passes_give_the_one_thread_bits(monkeypatch, s):
    # The latent passes equal stacked batches of one, which run inline; the
    # model-parameter passes equal the same batch with one usable CPU, which
    # sums its draws in the same order on one thread. A NaN draw in each half
    # gives the gradient-only forms their NaN rows and NaN gradient.
    model, rng = _split_case(monkeypatch)
    clean = rng.standard_normal((s, model.dim))
    nan_draws = clean.copy()
    nan_draws[2, 0] = nan_draws[s - 2, 1] = np.nan
    passes = _cauchy_passes(model)
    latent = ("log_lik_batch", "log_lik_and_grad_batch", "grad_log_lik_batch")
    for w in (clean, nan_draws):
        with monkeypatch.context() as patch:
            splits = _count_splits(patch)
            split = {name: _bits(pass_(w)) for name, pass_ in passes.items()}
            assert len(splits) == len(passes)
            for name in latent:
                rows = [passes[name](row[None]) for row in w]
                if isinstance(rows[0], tuple):
                    ref = tuple(np.concatenate(parts) for parts in zip(*rows))
                else:
                    ref = np.concatenate(rows)
                assert split[name] == _bits(ref), name
            patch.setattr(cauchy_ppca, "_usable_cpus", lambda: 1)
            for name in ("model_params_value_and_grad", "model_params_grad"):
                assert split[name] == _bits(passes[name](w)), name
            assert len(splits) == len(passes)
    grad_rows = model.grad_log_lik_batch(nan_draws)
    assert np.isnan(grad_rows[[2, s - 2]]).all()
    assert np.isfinite(np.delete(grad_rows, [2, s - 2], axis=0)).all()
    assert np.isnan(model.model_params_grad(nan_draws)).all()


def test_cauchy_split_pass_memory_is_a_few_draw_slabs(monkeypatch):
    # The split pass holds each half's buffers, not one slab per draw.
    model, rng = _split_case(monkeypatch)
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


def test_cauchy_split_pass_survives_fork_and_errors(monkeypatch):
    model, rng = _split_case(monkeypatch)
    w = rng.standard_normal((20, model.dim))
    expected = _bits(model.log_lik_and_grad_batch(w))
    expected_theta = _bits(model.model_params_value_and_grad(w))
    assert cauchy_ppca._worker[0] == os.getpid()

    # A forked child does not inherit the parent's worker thread: it makes
    # its own and gives the parent's bits.
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def child():
        out = _bits(model.log_lik_and_grad_batch(w))
        out_theta = _bits(model.model_params_value_and_grad(w))
        sender.send((out, out_theta, cauchy_ppca._worker[0] == os.getpid()))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert receiver.poll(60), "the child's split pass did not finish"
        out, out_theta, own_worker = receiver.recv()
    finally:
        proc.join(60)
        if proc.is_alive():
            proc.kill()
    assert not proc.is_alive() and proc.exitcode == 0
    assert own_worker and out == expected and out_theta == expected_theta

    with pytest.raises(ValueError):
        model.log_lik_and_grad_batch(w[:, :-1])
    assert _bits(model.log_lik_and_grad_batch(w)) == expected

    # An error in either half reaches the caller, and only after the other
    # half has run all its draws.
    draw_stats = model._draw_stats
    for failing_half in ("caller", "worker"):
        calls = {"caller": 0, "worker": 0}

        def stats(x_s, u, denom):
            half = "caller" if threading.current_thread() is threading.main_thread() else "worker"
            calls[half] += 1
            if half == failing_half:
                raise RuntimeError(half)
            draw_stats(x_s, u, denom)

        with monkeypatch.context() as patch:
            patch.setattr(model, "_draw_stats", stats)
            with pytest.raises(RuntimeError, match=failing_half):
                model.log_lik_and_grad_batch(w)
        other_half = "worker" if failing_half == "caller" else "caller"
        assert calls == {failing_half: 1, other_half: 10}
        assert _bits(model.log_lik_and_grad_batch(w)) == expected


def test_cauchy_passes_hold_no_slab_after_they_return(monkeypatch):
    # Each half of a pass allocates its buffers and drops them when it
    # returns, so neither the calling thread nor the worker keeps a slab
    # between passes. A fresh thread has no buffers from earlier passes.
    model, rng = _split_case(monkeypatch)
    w = rng.standard_normal((4, model.dim))
    splits = _count_splits(monkeypatch)
    held = {}

    def caller():
        for cpus in (2, 1):
            monkeypatch.setattr(cauchy_ppca, "_usable_cpus", lambda: cpus)
            for name, pass_ in _cauchy_passes(model).items():
                tracemalloc.start()
                try:
                    out = pass_(w)
                    current = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
                parts = out if isinstance(out, tuple) else (out,)
                held[cpus, name] = current - sum(np.asarray(p).nbytes for p in parts)

    thread = threading.Thread(target=caller)
    thread.start()
    thread.join(60)
    assert not thread.is_alive() and len(held) == 10
    assert len(splits) == 5
    slab = model.data.nbytes
    for key, extra in held.items():
        assert extra < slab, f"{key}: {extra} bytes held, slab {slab}"


def test_cauchy_split_passes_from_many_threads_keep_their_bits(monkeypatch):
    # More callers than cores share the one worker, and race to make it;
    # a short switch interval interleaves them often. Every pass must still
    # give the bits of the same pass run alone.
    model, rng = _split_case(monkeypatch)
    batches = [rng.standard_normal((s, model.dim)) for s in (20, 21, 2, 7)]
    expected = [_bits(model.model_params_value_and_grad(w)) for w in batches]
    monkeypatch.setattr(cauchy_ppca, "_worker", (None, None))
    results = [[] for _ in batches]

    def caller(k):
        for _ in range(5):
            results[k].append(_bits(model.model_params_value_and_grad(batches[k])))

    threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[bits] * 5 for bits in expected]


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


def test_gaussian_target_rejects_malformed_covariance():
    with pytest.raises(DimensionError, match="asymmetric"):
        GaussianTarget(np.zeros(2), [[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(DimensionError, match="shape"):
        GaussianTarget(np.zeros(2), np.eye(3))


def test_gaussian_target_sample_is_the_generators_multivariate_normal():
    # The spectrum benchmark scores Laplace through these draws, so they
    # must be the very draws rng.multivariate_normal makes.
    mean, cov = np.array([0.3, -0.2]), np.array([[1.0, 0.3], [0.3, 0.8]])
    ref = np.random.default_rng(5).multivariate_normal(mean, cov, size=7)
    draws = GaussianTarget(mean, cov).sample(7, np.random.default_rng(5))
    assert draws.tobytes() == ref.tobytes()


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
    with pytest.raises(DimensionError, match="coeff"):
        SkewTarget(np.zeros(5))
    with pytest.raises(DimensionError, match="coeff"):
        SkewTarget(np.zeros((2, 6)))


def test_synth_generator_validation():
    with pytest.raises(ConfigError):
        synth_regression_data(0, seed=0)
    with pytest.raises(ConfigError):
        synth_classification_data(1, 10, seed=0)
    with pytest.raises(ConfigError):
        synth_classification_data(3, 2, seed=0)
    with pytest.raises(ConfigError):
        synth_spectrum_data(0, seed=0)
