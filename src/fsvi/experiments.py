"""Experiment pipelines: fit, compare against a baseline, write artifacts.

Every pipeline is driven by an ExperimentConfig and writes CSV traces,
CSV metrics, and posterior files into the output directory. All
randomness flows from the single config seed, so re-running a config
reproduces the metric files byte for byte.
"""

import numbers
import os
import pathlib
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._parallel import map_fits
from .baselines import exact_blr_posterior, laplace_approximation, ml_ppca_fit
from .evaluate import (
    Grid2D,
    gaussian_logdensity_fn,
    kld_numerical_2d,
    reconstruction_error,
)
from .exceptions import ConfigError, DataFormatError
from .fit import FitConfig, fit, fit_steps, monitor_generalisation
from .io import load_csv_dataset, save_posterior, write_csv
from .models import (
    CauchyPpcaModel,
    CauchyPpcaParams,
    LogisticModel,
    RbfDesign,
    RbfRegressionModel,
    SkewTarget,
    SoftmaxModel,
    SpectrumDecayModel,
    one_hot,
    synth_classification_data,
    synth_regression_data,
    synth_spectrum_data,
)
from .models.rbf import _SYNTH_X_RANGE
from .posterior import Hyperparameters

# The gray range corrupt_pixels draws replacement values from.
_PIXEL_RANGE = (0.0, 255.0)

# blr-overfit's small draw budget, fitted next to config.n_samples.
_OVERFIT_SMALL_SAMPLES = 10

# The synthetic blr problem: data size and noise, RBF centres and width.
_BLR_N_DATA = 60
_BLR_NOISE_SD = 0.2
_BLR_N_CENTRES = 20
_BLR_WIDTH = 1.0

# RBF width of the classification designs, and multiclass's class count.
_CLASSIFY_WIDTH = 0.5
_MULTICLASS_K = 3

# cauchy-ppca's synthetic images: shape, rank, count and pixel noise, and
# the fraction of each image's pixels that is corrupted.
_IMAGE_SHAPE = (24, 21)
_LATENT_DIM = 2
_N_IMAGES = 200
_IMAGE_NOISE_SD = 2.0
_CORRUPTION = 1.0 / 3.0
# The image latents' standard normal prior: alpha stays at one.
_LATENT_PRIOR = dict(fix_alpha=True, init_alpha=1.0)

# Posterior parameter draws behind each accuracy and test MSE.
_SCORE_DRAWS = 200
# Fixed draws of each spectrum fit.
_SPECTRUM_SAMPLES = 50

# The three skewed bivariate targets run by default.
BIVARIATE_COEFFS = (
    (-3.0, 1.0, -1.0, -1.0, -1.0, -1.0),
    (0.0, -2.0, -4.0, -1.0, -3.0, 0.0),
    (1.0, 0.0, 2.0, 1.0, -1.0, 0.0),
)


def _require_type(name, value, types, what):
    # bool is an Integral (and a Real) in Python, but never a valid count.
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def _check_path(name, value):
    _require_type(name, value, (str, os.PathLike), "a path")
    if "\0" in str(value):
        raise ConfigError(f"{name} must not contain a NUL character")


@dataclass
class ExperimentConfig:
    """Settings of one experiment run; kind, seed and out_dir are required."""

    kind: str | None = None
    seed: int | None = None
    out_dir: str | None = None
    data: str | None = None
    n_samples: int | None = None
    n_holdout: int | None = None
    inner_iters: int = FitConfig.inner_iters
    max_iter: int | None = None
    tol: float = FitConfig.tol

    def __post_init__(self):
        # One message per required setting, whether omitted or null.
        for name, message in (
            ("kind", "an experiment kind is required (--experiment)"),
            ("seed", "a seed is required (--seed)"),
            ("out_dir", "an output directory is required (--out)"),
        ):
            value = getattr(self, name)
            if value is None or isinstance(value, str) and not value:
                raise ConfigError(message)
        # A tuple test: the kind may be an unhashable value from a JSON config.
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; "
                f"choose from {', '.join(EXPERIMENT_KINDS)}"
            )
        pipeline = _PIPELINES[self.kind]
        _check_path("out_dir", self.out_dir)
        if os.path.exists(self.out_dir) and not os.path.isdir(self.out_dir):
            raise ConfigError(f"out_dir {self.out_dir} exists and is not a directory")
        if self.data is not None:
            if pipeline.runner is _run_bivariate:
                raise ConfigError(f"{self.kind} takes no data: its targets are built in")
            _check_path("data", self.data)
        for name in ("seed", "n_samples", "n_holdout", "inner_iters", "max_iter"):
            if getattr(self, name) is not None:
                _require_type(name, getattr(self, name), numbers.Integral, "an integer")
        _require_type("tol", self.tol, numbers.Real, "a number")
        self.seed = int(self.seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_samples is None:
            self.n_samples = pipeline.n_samples
        if self.max_iter is None:
            self.max_iter = pipeline.max_iter
        if (pipeline.runner is _run_blr_overfit
                and self.n_samples == _OVERFIT_SMALL_SAMPLES):
            raise ConfigError(
                f"{self.kind} compares n_samples with its own budget of "
                f"{_OVERFIT_SMALL_SAMPLES} draws, so n_samples must not be "
                f"{_OVERFIT_SMALL_SAMPLES}"
            )
        # FitConfig checks the ranges of the fit settings and owns the
        # held-out default.
        self.n_holdout = _fit_config(self).n_holdout
        if self.n_holdout <= self.n_samples:
            raise ConfigError(
                f"holdout draws ({self.n_holdout}) must exceed fit draws "
                f"({self.n_samples}) for the monitor to mean anything"
            )


@dataclass
class RunArtifacts:
    """Paths written by a run plus the headline metric values."""

    metrics_path: str
    metrics: dict = field(default_factory=dict)


def _fit_config(config, **overrides):
    kwargs = dict(
        n_samples=config.n_samples,
        n_holdout=config.n_holdout,
        max_iter=config.max_iter,
        inner_iters=config.inner_iters,
        tol=config.tol,
    )
    kwargs.update(overrides)
    return FitConfig(**kwargs)


def _out_path(config, name):
    return str(pathlib.Path(config.out_dir) / name)


def _save_fit(config, report, trace_name, posterior_name=None, seed=None):
    """Write a fit's trace CSV and, when named, its posterior file."""
    if posterior_name is not None:
        path = _out_path(config, posterior_name)
        save_posterior(report.posterior, report.hyper, path, seed=seed)
    write_csv(
        _out_path(config, trace_name),
        ("iteration", "bound", "holdout_bound"),
        [(it, float(b), float(h)) for it, b, h in report.trace],
    )


def mc_accuracy(post, model, inputs, labels, seed=0):
    """Accuracy under each posterior parameter draw, averaged over draws.

    Labels are integers; a one-hot matrix is converted first. Ties between
    class probabilities resolve to the lowest class index.
    """
    y = np.asarray(labels)
    if y.ndim == 2:
        y = np.argmax(y, axis=1)
    draws = post.sample(_SCORE_DRAWS, np.random.default_rng(seed))
    probs = model.predict_batch(draws, inputs)
    hits = np.argmax(probs, axis=2) == y[None, :]
    return float(np.mean(hits))


def run_experiment(config):
    """Run a config's pipeline, write its `metrics.csv`, return the artifacts.

    Each pipeline writes its own files and returns its metrics dict.
    """
    metrics = _PIPELINES[config.kind].runner(config)
    metrics_path = _out_path(config, "metrics.csv")
    write_csv(
        metrics_path,
        ("metric", "value"),
        [(k, v if isinstance(v, str) else float(v)) for k, v in metrics.items()],
    )
    return RunArtifacts(metrics_path=metrics_path, metrics=metrics)


def _run_bivariate(config):
    """Fit the three skewed targets; tabulate KLD against the Laplace fit."""
    grid = Grid2D.build()
    # Each density is evaluated on the grid once, then scored both ways.
    pts = grid.points
    targets = [SkewTarget(coeff) for coeff in BIVARIATE_COEFFS]
    fc = _fit_config(config)

    def fit_target(i):
        seed = config.seed + i
        return fit(targets[i], fc, seed=seed), laplace_approximation(targets[i], seed=seed)

    table_rows = []
    metrics = {}
    for i, (report, lap) in enumerate(map_fits(fit_target, range(len(targets)))):
        log_target = targets[i].log_lik_batch(pts)
        fits = {
            "proposed": gaussian_logdensity_fn(
                report.posterior.mu, report.posterior.covariance()
            )(pts),
            "laplace": lap.logpdf(pts),
        }
        for method, log_q in fits.items():
            for direction in ("p-to-q", "q-to-p"):
                kld = kld_numerical_2d(log_target, log_q, grid, direction)
                table_rows.append((i, method, direction, float(kld)))
                metrics[f"kld_{method}_{direction}_target{i}"] = float(kld)

        _save_fit(config, report, f"trace_bivariate_{i}.csv",
                  f"posterior_bivariate_{i}.txt", seed=config.seed + i)

    table_path = _out_path(config, "kld_table.csv")
    write_csv(table_path, ("target", "method", "direction", "kld"), table_rows)
    return metrics


def _blr_problem(config):
    """The RBF regression model and the (min, max) range its inputs come from.

    Synthetic inputs come from the generator's interval; a data file's
    from its own smallest and largest input.
    """
    if config.data is not None:
        x, y = load_csv_dataset(config.data, "regression")
        if x.shape[1] != 1:
            raise DataFormatError(
                f"{config.data}: {config.kind} takes one input column and a "
                f"target, found {x.shape[1] + 1} columns"
            )
        x = x[:, 0]
        x_range = (float(x.min()), float(x.max()))
    else:
        x, y = synth_regression_data(_BLR_N_DATA, config.seed, noise_sd=_BLR_NOISE_SD)
        x_range = _SYNTH_X_RANGE
    design = RbfDesign.from_inputs(x, _BLR_WIDTH, n_centres=_BLR_N_CENTRES)
    return RbfRegressionModel(x, y, design), x_range


def _run_blr(config):
    """RBF regression: compare the fit to the conjugate exact posterior."""
    model, x_range = _blr_problem(config)
    report = fit(model, _fit_config(config), seed=config.seed)
    post, hyper = report.posterior, report.hyper

    exact = exact_blr_posterior(
        model.design_matrix, model.targets, hyper.alpha, hyper.beta
    )
    grid = np.linspace(*x_range, 200)
    phi_grid = model.design.matrix(grid)
    mean_fit = phi_grid @ post.mu
    mean_exact = phi_grid @ exact.mean
    rmse = float(np.sqrt(np.mean((mean_fit - mean_exact) ** 2)))
    cov_fit = post.covariance()
    cov_gap = float(
        np.linalg.norm(cov_fit - exact.covariance) / np.linalg.norm(exact.covariance)
    )

    metrics = {
        "mean_rmse": rmse,
        "cov_frobenius_gap": cov_gap,
        "alpha": float(hyper.alpha),
        "beta": float(hyper.beta),
        "final_bound": float(report.trace[-1][1]),
    }
    pred_path = _out_path(config, "predictions.csv")
    sd_fit = np.sqrt(np.einsum("ij,jk,ik->i", phi_grid, cov_fit, phi_grid))
    write_csv(
        pred_path,
        ("x", "mean_fit", "mean_exact", "sd_fit"),
        np.column_stack([grid, mean_fit, mean_exact, sd_fit]).tolist(),
    )
    _save_fit(config, report, "trace_blr.csv", "posterior_blr.txt", seed=config.seed)
    return metrics


def _run_blr_overfit(config):
    """Monitor the bound on held-out draws for a well-sized and a small S."""
    model, _ = _blr_problem(config)
    budgets = (config.n_samples, _OVERFIT_SMALL_SAMPLES)

    def fit_budget(s):
        return fit(model, _fit_config(config, n_samples=s, tol=0.0), seed=config.seed)

    metrics = {}
    for s, report in zip(budgets, map_fits(fit_budget, budgets)):
        verdict = monitor_generalisation(report.trace)
        _save_fit(config, report, f"trace_s{s}.csv")
        metrics[f"verdict_s{s}"] = verdict
        metrics[f"final_bound_s{s}"] = float(report.trace[-1][1])
        metrics[f"final_holdout_bound_s{s}"] = float(report.trace[-1][2])
    return metrics


def _discover_splits(path):
    """Pair train-*.csv with test-*.csv files inside a split directory."""
    root = pathlib.Path(path)
    trains = sorted(root.glob("train*.csv"))
    if not trains:
        raise DataFormatError(f"{path}: no train*.csv files found")
    pairs = []
    for train in trains:
        test = train.with_name(train.name.replace("train", "test", 1))
        if not test.exists():
            raise DataFormatError(f"{path}: missing test file for {train.name}")
        pairs.append((str(train), str(test)))
    return pairs


# Synthetic blob geometry per class count, sized so the half-unit kernel
# width covers the class clouds: (separation, spread).
_SYNTH_BLOBS = {2: (1.75, 0.5), 3: (1.1, 0.25)}


def _classification_splits(config, schema, n_classes):
    """Yield (x_train, y_train, x_test, y_test) tuples for the config source."""
    if config.data is None:
        separation, spread = _SYNTH_BLOBS[n_classes]
        x, labels = synth_classification_data(
            n_classes, 400, config.seed, separation=separation, spread=spread
        )
        y = labels if schema == "binary" else one_hot(labels, n_classes)
        half = x.shape[0] // 2
        return [(x[:half], y[:half], x[half:], y[half:])]
    source = pathlib.Path(config.data)
    if source.is_dir():
        out = []
        for train, test in _discover_splits(source):
            xtr, ytr = load_csv_dataset(train, schema, n_classes=n_classes)
            xte, yte = load_csv_dataset(test, schema, n_classes=n_classes)
            if xte.shape[1] != xtr.shape[1]:
                raise DataFormatError(
                    f"{test}: {xte.shape[1]} input columns, but {train} "
                    f"has {xtr.shape[1]}"
                )
            out.append((xtr, ytr, xte, yte))
        return out
    x, y = load_csv_dataset(str(source), schema, n_classes=n_classes)
    perm = np.random.default_rng(config.seed).permutation(x.shape[0])
    half = x.shape[0] // 2
    tr, te = perm[:half], perm[half:]
    return [(x[tr], y[tr], x[te], y[te])]


def _run_classification(config, schema, n_classes, make_model, synth_n_centres):
    splits = _classification_splits(config, schema, n_classes)
    # User-supplied data keeps every training point as a centre; the
    # synthetic tasks subsample so the stacked posterior stays small.
    n_centres = synth_n_centres if config.data is None else None
    accuracies = []
    for i, (xtr, ytr, xte, yte) in enumerate(splits):
        design = RbfDesign.from_inputs(xtr, _CLASSIFY_WIDTH, n_centres=n_centres)
        model = make_model(xtr, ytr, design)
        report = fit(model, _fit_config(config), seed=config.seed + i)
        accuracies.append(
            mc_accuracy(report.posterior, model, xte, yte, seed=config.seed + i)
        )
        if i == 0:
            _save_fit(config, report, f"trace_split{i}.csv",
                      f"posterior_split{i}.txt", seed=config.seed + i)

    acc_path = _out_path(config, "accuracies.csv")
    write_csv(acc_path, ("split", "accuracy"), list(enumerate(accuracies)))
    return {
        "mean_accuracy": float(np.mean(accuracies)),
        "std_accuracy": float(np.std(accuracies)),
        "n_splits": float(len(accuracies)),
    }


def synth_image_data(n, seed, shape=_IMAGE_SHAPE, latent_dim=_LATENT_DIM):
    """Rank-`latent_dim` synthetic grayscale images around mid-gray.

    Columns of the loading are smooth pixel patterns, so the images look
    like blurry shaded plates rather than white noise. Returns (images,
    loading, offset) with images of shape (n, prod(shape)).
    """
    h, w = shape
    rows = np.linspace(0.0, 1.0, h)[:, None]
    cols = np.linspace(0.0, 1.0, w)[None, :]
    patterns = [
        np.sin(np.pi * rows) * np.cos(np.pi * cols),
        np.cos(2.0 * np.pi * rows) * np.sin(np.pi * cols),
        rows * cols,
        np.sin(2.0 * np.pi * rows + np.pi * cols),
    ]
    loading = np.column_stack(
        [p.ravel() / np.sqrt(np.mean(p.ravel() ** 2)) for p in patterns[:latent_dim]]
    )
    loading *= 40.0
    offset = np.full(h * w, 128.0)
    rng = np.random.default_rng(seed)
    latents = rng.standard_normal((n, latent_dim))
    images = latents @ loading.T + offset
    images += _IMAGE_NOISE_SD * rng.standard_normal(images.shape)
    return images, loading, offset


def corrupt_pixels(images, fraction, seed):
    """Replace a fixed fraction of each image's pixels with uniform draws."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"fraction must lie in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    out = np.array(images, dtype=float, copy=True)
    d = out.shape[1]
    k = int(round(fraction * d))
    for row in out:
        idx = rng.choice(d, size=k, replace=False)
        row[idx] = rng.uniform(*_PIXEL_RANGE, size=k)
    return out


def fit_cauchy_ppca(train, latent_dim, config, seed):
    """Train loading/offset/scale and the training-set latent posterior.

    Starts from the closed-form Gaussian-noise solution and a robust scale
    estimate of its residuals, then optimises everything on the bound.
    Returns the fit report (its `model` is the fitted model) and that
    Gaussian-noise solution.
    """
    warm = ml_ppca_fit(train, latent_dim)
    residuals = train - warm.reconstruct(train)
    scale = max(float(np.median(np.abs(residuals))), 1e-3)
    params = CauchyPpcaParams(warm.loading, warm.offset, scale)
    fc = _fit_config(config, init_mu=warm.latents(train).ravel(), **_LATENT_PRIOR)
    return fit(CauchyPpcaModel(train, params), fc, seed=seed), warm


def _run_cauchy_ppca(config):
    """Denoising on corrupted synthetic images: Cauchy noise vs Gaussian."""
    if config.data is not None:
        # Image files carry pixels only; the loader's target column is
        # just the last pixel, so re-attach it.
        features, last = load_csv_dataset(config.data, "regression")
        clean = np.column_stack([features, last])
        # ML PPCA needs more training images and more pixels than latents.
        n, d = clean.shape
        if n // 2 <= _LATENT_DIM or d <= _LATENT_DIM:
            raise DataFormatError(
                f"{config.data}: {config.kind} needs at least "
                f"{2 * (_LATENT_DIM + 1)} images of at least {_LATENT_DIM + 1} "
                f"pixels, found {n} images of {d} pixels"
            )
    else:
        clean, _, _ = synth_image_data(_N_IMAGES, config.seed)
    corrupted = corrupt_pixels(clean, _CORRUPTION, config.seed + 1)
    half = clean.shape[0] // 2
    train_c, test_c = corrupted[:half], corrupted[half:]
    test_clean = clean[half:]

    report, gauss = fit_cauchy_ppca(train_c, _LATENT_DIM, config, config.seed)
    fitted = report.model

    # Test-time latents are fitted against the corrupted test images with
    # the trained model parameters held fixed; only their mean is read.
    test_init = np.linalg.lstsq(
        fitted.params.loading, (test_c - fitted.params.offset).T, rcond=None
    )[0].T.ravel()
    fc = _fit_config(config, init_mu=test_init, optimise_model_params=False,
                     **_LATENT_PRIOR)
    *_, test = fit_steps(CauchyPpcaModel(test_c, fitted.params), fc, seed=config.seed + 2)
    rec_cauchy = fitted.reconstruct(test.posterior.mu.reshape(-1, _LATENT_DIM))
    rec_gauss = gauss.reconstruct(test_c)

    err_cauchy = [
        reconstruction_error(o, r) for o, r in zip(test_clean, rec_cauchy)
    ]
    err_gauss = [reconstruction_error(o, r) for o, r in zip(test_clean, rec_gauss)]

    err_path = _out_path(config, "errors.csv")
    write_csv(
        err_path,
        ("image", "cauchy_error", "gaussian_error"),
        [(i, float(c), float(g)) for i, (c, g) in enumerate(zip(err_cauchy, err_gauss))],
    )
    _save_fit(config, report, "trace_train.csv", "posterior_train_latents.txt",
              seed=config.seed)
    return {
        "mean_error_cauchy": float(np.mean(err_cauchy)),
        "mean_error_gaussian": float(np.mean(err_gauss)),
        "scale": float(fitted.params.scale),
        "final_bound": float(report.trace[-1][1]),
    }


# Each experiment kind: its runner and its defaults for n_samples and
# max_iter.
_Pipeline = namedtuple("_Pipeline", "runner n_samples max_iter")
_PIPELINES = {
    "bivariate": _Pipeline(_run_bivariate, 50, 150),
    "blr": _Pipeline(_run_blr, 100, 150),
    "blr-overfit": _Pipeline(_run_blr_overfit, 100, 40),
    "logistic": _Pipeline(
        partial(_run_classification, schema="binary", n_classes=2,
                make_model=LogisticModel, synth_n_centres=25), 200, 100),
    "multiclass": _Pipeline(
        partial(_run_classification, schema="one-hot", n_classes=_MULTICLASS_K,
                make_model=SoftmaxModel, synth_n_centres=20), 200, 80),
    "cauchy-ppca": _Pipeline(_run_cauchy_ppca, 20, 40),
}
EXPERIMENT_KINDS = tuple(_PIPELINES)


def _mean_draw_mse(post, model, inputs, targets, rng):
    draws = post.sample(_SCORE_DRAWS, rng)
    preds = model.predict_batch(draws, inputs)
    return float(np.mean((preds - np.asarray(targets)[None, :]) ** 2))


def spectrum_mse_benchmark(n_splits=10, seed=0, n_train=100, n_test=100,
                           noise_sd=0.05, max_iter=150):
    """Across-split test-MSE spread of the fitted bound versus Laplace.

    Each split draws a fresh amplitude-spectrum dataset, fits both schemes
    with the noise precision fixed at 1/noise_sd^2, and scores the test MSE
    averaged over posterior parameter draws. The exp/power response makes
    curvature-based covariances prone to sampling parameters whose
    predictions blow up, so the spread of the Laplace MSE across splits is
    the quantity of interest. Returns per-split MSE arrays and their
    standard deviations.
    """
    if min(n_splits, n_train, n_test) < 1:
        raise ConfigError("n_splits, n_train and n_test must be >= 1, got "
                          f"{n_splits}, {n_train}, {n_test}")
    if not noise_sd > 0.0:
        raise ConfigError(f"noise_sd must be positive, got {noise_sd}")
    beta = 1.0 / noise_sd ** 2

    def fit_split(i):
        """The split's model, test inputs and targets, fit and Laplace baseline."""
        inputs, targets, _ = synth_spectrum_data(
            n_train + n_test, seed + i, noise_sd=noise_sd
        )
        xtr, xte = inputs[:n_train], inputs[n_train:]
        ytr, yte = targets[:n_train], targets[n_train:]
        model = SpectrumDecayModel(
            xtr[:, 0].astype(int), xtr[:, 1], xtr[:, 2], ytr
        )
        *_, last = fit_steps(
            model,
            FitConfig(n_samples=_SPECTRUM_SAMPLES, max_iter=max_iter,
                      fix_beta=True, init_beta=beta),
            seed=seed + i,
        )
        lap = laplace_approximation(
            model, Hyperparameters(None, beta), seed=seed + i
        )
        return model, xte, yte, last.posterior, lap

    mse_fit = []
    mse_lap = []
    for i, (model, xte, yte, post, lap) in enumerate(map_fits(fit_split, range(n_splits))):
        rng = np.random.default_rng(seed + i)
        mse_fit.append(_mean_draw_mse(post, model, xte, yte, rng))
        mse_lap.append(_mean_draw_mse(lap, model, xte, yte, rng))
    return {
        "mse_fit": np.asarray(mse_fit),
        "mse_laplace": np.asarray(mse_lap),
        "std_fit": float(np.std(mse_fit)),
        "std_laplace": float(np.std(mse_lap)),
    }
