"""Experiment-level helpers: configuration checks, corruption, accuracy,
and the files every pipeline writes."""

import importlib
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import fsvi
from fsvi import (
    ExperimentConfig,
    Grid2D,
    VariationalPosterior,
    corrupt_pixels,
    load_posterior,
    mc_accuracy,
    run_experiment,
    spectrum_mse_benchmark,
    synth_image_data,
)
from fsvi.exceptions import ConfigError
from fsvi.experiments import EXPERIMENT_KINDS
from fsvi.models import (
    GaussianTarget,
    LogisticModel,
    RbfDesign,
    SkewTarget,
    synth_classification_data,
)

# The package re-exports the function `fit` under the submodule's name.
fit_module = importlib.import_module("fsvi.fit")


def test_config_requires_a_seed():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(kind="blr", seed=None, out_dir="/tmp/x")


@pytest.mark.parametrize("left_out", ["kind", "seed", "out_dir"])
def test_config_with_a_required_setting_left_out_is_a_config_error(left_out):
    kwargs = dict(kind="blr", seed=0, out_dir="/tmp/x")
    del kwargs[left_out]
    with pytest.raises(ConfigError, match="is required"):
        ExperimentConfig(**kwargs)


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig(kind="mystery", seed=0, out_dir="/tmp/x")


def test_config_holdout_must_exceed_fit_draws():
    with pytest.raises(ConfigError, match="must exceed"):
        ExperimentConfig(
            kind="blr", seed=0, out_dir="/tmp/x", n_samples=100, n_holdout=50
        )


def test_config_holdout_defaults_to_five_times_the_fit_draws():
    config = ExperimentConfig(kind="blr-overfit", seed=0, out_dir="/tmp/x",
                              n_samples=600)
    assert config.n_holdout == 3000
    assert ExperimentConfig(kind="blr-overfit", seed=0, out_dir="/tmp/x").n_holdout == 500


def test_config_fills_experiment_defaults():
    config = ExperimentConfig(kind="blr", seed=0, out_dir="/tmp/x")
    assert config.n_samples == 100
    assert config.n_holdout == 500
    biv = ExperimentConfig(kind="bivariate", seed=0, out_dir="/tmp/x")
    assert biv.n_samples == 50


def test_corrupt_pixels_fraction_and_determinism():
    rng = np.random.default_rng(0)
    images = 100.0 + rng.standard_normal((40, 60))
    original = images.copy()
    out = corrupt_pixels(images, 1.0 / 3.0, seed=5)
    assert np.array_equal(images, original), "input array was mutated"
    changed = np.mean(out != images)
    assert abs(changed - 1.0 / 3.0) < 0.02, f"corrupted fraction {changed}"
    mask = out != images
    assert np.all(out[mask] >= 0.0) and np.all(out[mask] <= 255.0)
    again = corrupt_pixels(images, 1.0 / 3.0, seed=5)
    assert np.array_equal(out, again)
    other = corrupt_pixels(images, 1.0 / 3.0, seed=6)
    assert not np.array_equal(out, other)


def test_corrupt_pixels_rejects_degenerate_fractions():
    images = np.full((3, 4), 7.0)
    with pytest.raises(ConfigError):
        corrupt_pixels(images, 0.0, seed=0)
    with pytest.raises(ConfigError):
        corrupt_pixels(images, 1.5, seed=0)


def test_synth_images_are_low_rank_and_deterministic():
    images, loading, offset = synth_image_data(30, seed=1, shape=(6, 5), latent_dim=2)
    assert images.shape == (30, 30)
    assert loading.shape == (30, 2)
    assert offset.shape == (30,)
    again, _, _ = synth_image_data(30, seed=1, shape=(6, 5), latent_dim=2)
    assert np.array_equal(images, again)
    # Centred images concentrate in latent_dim directions up to the noise.
    centred = images - images.mean(axis=0)
    svals = np.linalg.svd(centred, compute_uv=False)
    assert svals[2] < 0.1 * svals[1], f"spectrum not low-rank: {svals[:4]}"


def test_mc_accuracy_on_a_confident_posterior():
    x, labels = synth_classification_data(2, 60, seed=0)
    design = RbfDesign.from_inputs(x, 2.0, n_centres=3)
    model = LogisticModel(x, labels, design)
    # A posterior mean aligned with the class geometry: positive weight on
    # centres from class one, negative on the rest.
    centre_labels = []
    for c in design.centres:
        nearest = np.argmin(np.sum((x - c) ** 2, axis=1))
        centre_labels.append(labels[nearest])
    mu = np.array([8.0 if lab == 1 else -8.0 for lab in centre_labels] + [0.0])
    post = VariationalPosterior(mu, 0.01 * np.eye(model.dim))
    score = mc_accuracy(post, model, x, labels, seed=0)
    assert score >= 0.95, f"confident posterior only scored {score}"
    again = mc_accuracy(post, model, x, labels, seed=0)
    assert score == again, "accuracy must be deterministic in the seed"


def test_mc_accuracy_matches_manual_per_draw_average():
    x, labels = synth_classification_data(2, 20, seed=1)
    design = RbfDesign.from_inputs(x, 2.0, n_centres=2)
    model = LogisticModel(x, labels, design)
    post = VariationalPosterior(np.zeros(model.dim), 2.0 * np.eye(model.dim))
    score = mc_accuracy(post, model, x, labels, seed=3)

    draws = post.sample(200, np.random.default_rng(3))
    per_draw = [
        np.mean(np.argmax(model.predict_batch(w[None, :], x)[0], axis=1) == labels)
        for w in draws
    ]
    expected = float(np.mean(per_draw))
    assert abs(score - expected) < 1e-12, f"{score} vs per-draw average {expected}"
    assert 0.0 < score < 1.0


def test_mc_accuracy_accepts_one_hot_labels():
    x, labels = synth_classification_data(2, 12, seed=2)
    design = RbfDesign.from_inputs(x, 2.0, n_centres=2)
    model = LogisticModel(x, labels, design)
    post = VariationalPosterior(np.zeros(model.dim), 0.5 * np.eye(model.dim))
    from fsvi.models import one_hot

    a = mc_accuracy(post, model, x, labels, seed=0)
    b = mc_accuracy(post, model, x, one_hot(labels, 2), seed=0)
    assert a == b


# ------------------------------------------------------------ pipeline files

# Budgets small enough that two runs of every pipeline take seconds;
# blr-overfit needs the monitor's ten iterations and two distinct budgets.
_TINY_RUNS = {
    "bivariate": dict(n_samples=10, max_iter=2),
    "blr": dict(n_samples=10, max_iter=2),
    "blr-overfit": dict(n_samples=20, max_iter=10),
    "logistic": dict(n_samples=10, max_iter=2),
    "multiclass": dict(n_samples=10, max_iter=2),
    "cauchy-ppca": dict(n_samples=5, max_iter=1),
}


def _documented_files():
    """Per experiment kind, name patterns of the files README says it writes."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    listing = text[text.index("\nExperiments:"):text.index("\nEvery run writes")]
    documented = {}
    for bullet in listing.split("\n- ")[1:]:
        head, _, body = bullet.partition(":")
        writes = re.split(r"\bWrites\s", body, maxsplit=1)[1]
        names = re.findall(r"`([\w{}]+\.(?:csv|txt))`", writes)
        patterns = [
            re.compile(r"\d+".join(map(re.escape, re.split(r"\{\w+\}", name))))
            for name in names + ["metrics.csv"]
        ]
        for kind in re.findall(r"`([\w-]+)`", head):
            documented[kind] = patterns
    return documented


def _run_tiny(kind, out_dir):
    config = ExperimentConfig(kind=kind, seed=0, out_dir=str(out_dir), **_TINY_RUNS[kind])
    return run_experiment(config)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_pipeline_writes_its_documented_files_reproducibly(tmp_path, kind):
    artifacts = _run_tiny(kind, tmp_path / "a")
    files = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}

    patterns = _documented_files()[kind]
    for name in files:
        assert any(p.fullmatch(name) for p in patterns), f"{name} is not documented"
    for pattern in patterns:
        assert any(pattern.fullmatch(name) for name in files), (
            f"no file matches {pattern.pattern}"
        )

    assert artifacts.metrics_path == str(tmp_path / "a" / "metrics.csv")
    rows = [line.split(",") for line in files["metrics.csv"].decode().splitlines()]
    assert rows[0] == ["metric", "value"]
    assert [key for key, _ in rows[1:]] == list(artifacts.metrics)
    for key, value in rows[1:]:
        expected = artifacts.metrics[key]
        assert (value if isinstance(expected, str) else float(value)) == expected, key

    _run_tiny(kind, tmp_path / "b")
    rerun = {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
    assert rerun == files, "a rerun wrote different files"


# -------------------------------------------------------------- golden bits

# Short pipeline fits pinned with float.hex from a run of the code before
# the SCG block objectives were built once per block (a separate process):
# the final trace row (iteration, bound, holdout bound) of each trace file
# and the first posterior-mean entries. `blr` has a Gaussian prior and
# beta, bivariate target 0 a flat prior, cauchy-ppca a block factor and
# model parameters. The `logistic`, `multiclass` and `blr-overfit` pins
# come from the code before the unused call forms were deleted, and hold
# with one and with two BLAS threads. Bivariate target 0's KL rows are
# pinned as well: each grid integral is a fixed-order sum, so they do not
# depend on the BLAS thread count. So are the first cauchy-ppca test-image
# errors, which the test-time latent fit sets. The cauchy-ppca pins come
# from the code that folds the offset and scale into the data once per
# model and reads the model-parameter pass's 1 / (1 + u^2) once; they hold
# with one and with two BLAS threads, and with one and two usable CPUs.
_GOLDEN = {
    "blr": (
        5, {"trace_blr.csv": ["5", "-0x1.0d27c41dccfcfp+5", "-0x1.2d87a75f539bfp+5"]},
        "posterior_blr.txt",
        ["-0x1.248b8629479e2p+1", "0x1.b20d5e256cdf7p-1", "0x1.2542c8b25af75p+1"],
    ),
    "bivariate": (
        5, {"trace_bivariate_0.csv":
            ["5", "-0x1.294b437e0fde0p-3", "-0x1.99b83575045c6p+0"]},
        "posterior_bivariate_0.txt",
        ["-0x1.90d3871dcad4dp-1", "-0x1.136cf77c3a24fp-4"],
    ),
    "cauchy-ppca": (
        2, {"trace_train.csv": ["2", "-0x1.b918c0a11deb4p+17", "-0x1.ba85ee6d5baa7p+17"]},
        "posterior_train_latents.txt",
        ["0x1.d344826beaa00p-6", "0x1.94b124adce705p-2", "0x1.7caef164c0f29p-1"],
    ),
    "logistic": (
        2, {"trace_split0.csv": ["2", "-0x1.27c1843401778p+5", "-0x1.3bb281d4abbebp+5"]},
        "posterior_split0.txt",
        ["-0x1.51515506e209ep+1", "0x1.26b23c0d48a39p+0", "-0x1.38fb84cdf3ab7p-3"],
    ),
    "multiclass": (
        2, {"trace_split0.csv": ["2", "-0x1.ad7e5efb361b9p+4", "-0x1.1b64052e529dap+5"]},
        "posterior_split0.txt",
        ["0x1.25854c3561ec9p+0", "-0x1.197cff8fde62ap-2", "0x1.c055c4524c974p-1"],
    ),
    # blr-overfit writes traces only, one per draw budget.
    "blr-overfit": (
        10, {"trace_s100.csv": ["10", "-0x1.ad7977d96526bp+4", "-0x1.ee0318a8776f2p+4"],
             "trace_s10.csv": ["10", "0x1.09d310e6657c4p+2", "-0x1.27c917ad26d61p+14"]},
        None, [],
    ),
}


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


@pytest.mark.parametrize("kind", sorted(_GOLDEN))
def test_short_fits_keep_their_bits(tmp_path, kind):
    iters, last_rows, posterior_name, mu_head = _GOLDEN[kind]
    run_experiment(ExperimentConfig(kind=kind, seed=0, out_dir=str(tmp_path),
                                    max_iter=iters))
    for trace_name, last_row in last_rows.items():
        last = _csv_rows(tmp_path / trace_name)[-1]
        assert [last[0]] + [float(v).hex() for v in last[1:]] == last_row, trace_name
    if posterior_name is not None:
        post, _, _ = load_posterior(str(tmp_path / posterior_name))
        assert [float(v).hex() for v in post.mu[: len(mu_head)]] == mu_head
    if kind == "bivariate":
        rows = _csv_rows(tmp_path / "kld_table.csv")
        assert [[m, d, float(v).hex()] for t, m, d, v in rows[1:] if t == "0"] == [
            ["proposed", "p-to-q", "0x1.b7ca8c0f12c4ep-2"],
            ["proposed", "q-to-p", "0x1.7f5de401eabcdp+0"],
            ["laplace", "p-to-q", "0x1.e08faf4ec3792p-2"],
            ["laplace", "q-to-p", "0x1.8bf7fd7dfd5c2p+2"],
        ]
    if kind == "cauchy-ppca":
        rows = _csv_rows(tmp_path / "errors.csv")
        assert [float(row[1]).hex() for row in rows[1:4]] == [
            "0x1.80f83d71ef56ap-12", "0x1.401428bca061bp-11", "0x1.4204520decfa2p-11",
        ]


def test_short_spectrum_benchmark_keeps_its_bits():
    # Pinned like _GOLDEN, from the code before the Gaussian-noise pass
    # handed its outputs to vjp_batch; the same with one and two BLAS threads.
    result = spectrum_mse_benchmark(n_splits=1, seed=0, max_iter=20)
    assert [float(v).hex() for v in result["mse_fit"]] == ["0x1.8cef1ff6240a7p-9"]
    assert [float(v).hex() for v in result["mse_laplace"]] == ["0x1.9b8378d6d6dd0p-9"]


def test_held_out_draws_are_scored_only_where_they_are_read(tmp_path, monkeypatch):
    # The training fit's trace is written; the test-time latent fit and the
    # spectrum fits are read for their posterior only.
    rows = []
    bound = fit_module.lower_bound_fs

    def counted(model, post, hyper, samples):
        rows.append(samples.size)
        return bound(model, post, hyper, samples)

    monkeypatch.setattr(fit_module, "lower_bound_fs", counted)
    config = ExperimentConfig(kind="cauchy-ppca", seed=0, out_dir=str(tmp_path),
                              max_iter=2)
    run_experiment(config)
    assert rows == [config.n_holdout] * 2
    rows.clear()
    spectrum_mse_benchmark(n_splits=1, seed=0, max_iter=3)
    assert rows == []


@pytest.mark.parametrize("bad", [
    dict(n_splits=0), dict(n_train=0), dict(n_test=0), dict(noise_sd=0.0),
    dict(noise_sd=-0.05), dict(noise_sd=float("nan")),
])
def test_spectrum_benchmark_rejects_empty_splits_and_zero_noise(bad):
    with pytest.raises(ConfigError):
        spectrum_mse_benchmark(**{"max_iter": 1, **bad})


# Short CLI runs of each pipeline; blr-overfit's monitor needs ten
# iterations.
_SHORT_RUNS = {
    "bivariate": ["--samples", "10", "--max-iter", "2"],
    "blr": ["--max-iter", "2"],
    "blr-overfit": ["--max-iter", "10"],
    "logistic": ["--max-iter", "2"],
    "multiclass": ["--max-iter", "2"],
    "cauchy-ppca": ["--max-iter", "2"],
}


def _cli_files(kind, out, blas_threads, preexec_fn=None):
    src = str(pathlib.Path(fsvi.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, "-m", "fsvi.cli", "--experiment", kind, "--seed", "0",
         *_SHORT_RUNS[kind], "--out", str(out)],
        env=env, check=True, capture_output=True, preexec_fn=preexec_fn,
    )
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("kind", sorted(_SHORT_RUNS))
def test_pipeline_files_do_not_depend_on_the_blas_thread_count(tmp_path, kind):
    files = [_cli_files(kind, tmp_path / threads, threads) for threads in ("1", "2")]
    assert files[0] == files[1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("kind", ["bivariate", "blr-overfit", "cauchy-ppca"])
def test_pipeline_files_do_not_depend_on_the_usable_cpus(tmp_path, kind):
    # Pinned to one CPU, a pipeline makes its fits one after another and
    # every Cauchy pass runs on the calling thread. With two usable CPUs,
    # independent fits (targets, draw budgets) run in a forked child, and
    # denoising-size Cauchy passes split their draws.
    cpu = min(os.sched_getaffinity(0))
    default = _cli_files(kind, tmp_path / "default", "1")
    pinned = _cli_files(kind, tmp_path / "pinned", "1",
                        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert default == pinned


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="map_fits forks on Linux only")
def test_spectrum_benchmark_bits_do_not_depend_on_the_usable_cpus(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    results = []
    for cpus in ({0}, {0, 1}):
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            patch.setattr(os, "fork", counted)
            result = spectrum_mse_benchmark(n_splits=3, seed=0, max_iter=3)
        results.append([result[key].tobytes() if key.startswith("mse") else
                        float(result[key]).hex() for key in sorted(result)])
    # The second run's three splits went to the caller and one child.
    assert len(forks) == 1
    assert results[0] == results[1]


def test_bivariate_scores_each_target_density_on_the_grid_once(tmp_path, monkeypatch):
    n_nodes = Grid2D.build().weights.size
    grid_calls = []
    log_lik_batch = SkewTarget.log_lik_batch

    def counted(self, w_batch):
        if len(w_batch) == n_nodes:
            grid_calls.append(tuple(np.ravel(self.coeff)))
        return log_lik_batch(self, w_batch)

    monkeypatch.setattr(SkewTarget, "log_lik_batch", counted)
    run_experiment(ExperimentConfig(kind="bivariate", seed=0, out_dir=str(tmp_path),
                                    n_samples=10, max_iter=2))
    # One pass per target, not one per divergence.
    assert len(grid_calls) == len(set(grid_calls)) == 3


def test_bivariate_grid_densities_form_no_gradient(tmp_path, monkeypatch):
    # The fitted and Laplace densities enter the divergences as values only.
    def no_gradient(self, w_batch):
        raise AssertionError("a grid density formed a gradient")

    monkeypatch.setattr(GaussianTarget, "log_lik_and_grad_batch", no_gradient)
    run_experiment(ExperimentConfig(kind="bivariate", seed=0, out_dir=str(tmp_path),
                                    n_samples=10, max_iter=2))
