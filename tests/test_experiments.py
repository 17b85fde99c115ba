"""Experiment-level helpers: configuration checks, corruption, accuracy,
and the files every pipeline writes."""

import pathlib
import re

import numpy as np
import pytest

from fsvi import (
    ExperimentConfig,
    VariationalPosterior,
    corrupt_pixels,
    mc_accuracy,
    run_experiment,
    synth_image_data,
)
from fsvi.exceptions import ConfigError
from fsvi.experiments import EXPERIMENT_KINDS
from fsvi.models import (
    LogisticModel,
    RbfDesign,
    synth_classification_data,
)


def test_config_requires_a_seed():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(kind="blr", seed=None, out_dir="/tmp/x")


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig(kind="mystery", seed=0, out_dir="/tmp/x")


def test_config_holdout_must_exceed_fit_draws():
    with pytest.raises(ConfigError, match="must exceed"):
        ExperimentConfig(
            kind="blr", seed=0, out_dir="/tmp/x", n_samples=100, n_holdout=50
        )


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
    score = mc_accuracy(post, model, x, labels, n_draws=50, seed=0)
    assert score >= 0.95, f"confident posterior only scored {score}"
    again = mc_accuracy(post, model, x, labels, n_draws=50, seed=0)
    assert score == again, "accuracy must be deterministic in the seed"


def test_mc_accuracy_matches_manual_per_draw_average():
    x, labels = synth_classification_data(2, 20, seed=1)
    design = RbfDesign.from_inputs(x, 2.0, n_centres=2)
    model = LogisticModel(x, labels, design)
    post = VariationalPosterior(np.zeros(model.dim), 2.0 * np.eye(model.dim))
    score = mc_accuracy(post, model, x, labels, n_draws=16, seed=3)

    draws = post.sample(16, np.random.default_rng(3))
    per_draw = [
        np.mean(np.argmax(model.predict(w, x), axis=1) == labels) for w in draws
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

    a = mc_accuracy(post, model, x, labels, n_draws=8, seed=0)
    b = mc_accuracy(post, model, x, one_hot(labels, 2), n_draws=8, seed=0)
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
