"""Experiment pipelines: fit, compare against a baseline, write artifacts.

Every pipeline is driven by an ExperimentConfig and writes CSV traces,
CSV metrics, and posterior files into the output directory. All
randomness flows from the single config seed, so re-running a config
reproduces the metric files byte for byte.
"""

import numbers
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .baselines import exact_blr_posterior, laplace_approximation, ml_ppca_fit
from .evaluate import (
    Grid2D,
    gaussian_logdensity_fn,
    kld_numerical_2d,
    reconstruction_error,
)
from .exceptions import ConfigError, DataFormatError
from .fit import FitConfig, fit, monitor_generalisation
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
from .posterior import Hyperparameters

EXPERIMENT_KINDS = (
    "bivariate",
    "blr",
    "blr-overfit",
    "logistic",
    "multiclass",
    "cauchy-ppca",
)

_DEFAULT_SAMPLES = {
    "bivariate": 50,
    "blr": 100,
    "blr-overfit": 100,
    "logistic": 200,
    "multiclass": 200,
    "cauchy-ppca": 20,
}

_DEFAULT_MAX_ITER = {
    "bivariate": 150,
    "blr": 150,
    "blr-overfit": 40,
    "logistic": 100,
    "multiclass": 80,
    "cauchy-ppca": 40,
}

# blr-overfit's small draw budget, fitted next to config.n_samples.
_OVERFIT_SMALL_SAMPLES = 10

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
    """Settings of one experiment run; seed and output directory are mandatory."""

    kind: str
    seed: int
    out_dir: str
    data: str | None = None
    n_samples: int | None = None
    n_holdout: int | None = None
    inner_iters: int = 10
    max_iter: int | None = None
    tol: float = 1e-4

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; "
                f"choose from {', '.join(EXPERIMENT_KINDS)}"
            )
        if self.seed is None:
            raise ConfigError("seed is mandatory")
        if self.out_dir is None or self.out_dir == "":
            raise ConfigError("out_dir is mandatory")
        _check_path("out_dir", self.out_dir)
        if self.data is not None:
            if self.kind == "bivariate":
                raise ConfigError("bivariate takes no data: its targets are built in")
            _check_path("data", self.data)
        for name in ("seed", "n_samples", "n_holdout", "inner_iters", "max_iter"):
            if getattr(self, name) is not None:
                _require_type(name, getattr(self, name), numbers.Integral, "an integer")
        _require_type("tol", self.tol, numbers.Real, "a number")
        self.seed = int(self.seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_samples is None:
            self.n_samples = _DEFAULT_SAMPLES[self.kind]
        if self.n_holdout is None:
            self.n_holdout = 500 if self.kind == "blr-overfit" else 5 * self.n_samples
        if self.max_iter is None:
            self.max_iter = _DEFAULT_MAX_ITER[self.kind]
        if self.kind == "blr-overfit" and self.n_samples == _OVERFIT_SMALL_SAMPLES:
            raise ConfigError(
                f"blr-overfit compares n_samples with its own budget of "
                f"{_OVERFIT_SMALL_SAMPLES} draws, so n_samples must not be "
                f"{_OVERFIT_SMALL_SAMPLES}"
            )
        _fit_config(self)  # FitConfig checks the ranges of the fit settings.
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


def mc_accuracy(post, model, inputs, labels, n_draws=200, seed=0):
    """Accuracy under each posterior parameter draw, averaged over draws.

    Labels are integers; a one-hot matrix is converted first. Ties between
    class probabilities resolve to the lowest class index.
    """
    y = np.asarray(labels)
    if y.ndim == 2:
        y = np.argmax(y, axis=1)
    draws = post.sample(n_draws, np.random.default_rng(seed))
    probs = model.predict_batch(draws, inputs)
    hits = np.argmax(probs, axis=2) == y[None, :]
    return float(np.mean(hits))


def run_experiment(config):
    """Run a config's pipeline, write its `metrics.csv`, return the artifacts.

    Each pipeline writes its own files and returns its metrics dict.
    """
    runners = {
        "bivariate": _run_bivariate,
        "blr": _run_blr,
        "blr-overfit": _run_blr_overfit,
        "logistic": _run_logistic,
        "multiclass": _run_multiclass,
        "cauchy-ppca": _run_cauchy_ppca,
    }
    metrics = runners[config.kind](config)
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
    table_rows = []
    metrics = {}
    for i, coeff in enumerate(BIVARIATE_COEFFS):
        target = SkewTarget(coeff)
        report = fit(target, _fit_config(config), seed=config.seed + i)
        lap = laplace_approximation(target, seed=config.seed + i)

        log_target = target.log_lik_batch
        fits = {
            "proposed": gaussian_logdensity_fn(
                report.posterior.mu, report.posterior.covariance()
            ),
            "laplace": gaussian_logdensity_fn(lap.mean, lap.covariance),
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


def _blr_problem(config, n_data=60, n_centres=20, width=1.0, noise_sd=0.2):
    if config.data is not None:
        x, y = load_csv_dataset(config.data, "regression")
        x = x[:, 0]
    else:
        x, y = synth_regression_data(n_data, config.seed, noise_sd=noise_sd)
    design = RbfDesign.from_inputs(x, width, n_centres=n_centres)
    return x, y, design, RbfRegressionModel(x, y, design)


def _run_blr(config):
    """RBF regression: compare the fit to the conjugate exact posterior."""
    x, y, design, model = _blr_problem(config)
    report = fit(model, _fit_config(config), seed=config.seed)
    post, hyper = report.posterior, report.hyper

    exact = exact_blr_posterior(design.matrix(x), y, hyper.alpha, hyper.beta)
    grid = np.linspace(-6.0, 6.0, 200)
    phi_grid = design.matrix(grid)
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
    x, y, design, model = _blr_problem(config)
    metrics = {}
    for s in (config.n_samples, _OVERFIT_SMALL_SAMPLES):
        fc = _fit_config(config, n_samples=s, tol=0.0)
        report = fit(model, fc, seed=config.seed)
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


def _classification_splits(config, schema, n_classes=None):
    """Yield (x_train, y_train, x_test, y_test) tuples for the config source."""
    if config.data is None:
        k = 2 if schema == "binary" else n_classes
        separation, spread = _SYNTH_BLOBS.get(k, (1.75, 0.5))
        x, labels = synth_classification_data(
            k, 400, config.seed, separation=separation, spread=spread
        )
        y = labels if schema == "binary" else one_hot(labels, k)
        half = x.shape[0] // 2
        return [(x[:half], y[:half], x[half:], y[half:])]
    source = pathlib.Path(config.data)
    if source.is_dir():
        out = []
        for train, test in _discover_splits(source):
            xtr, ytr = load_csv_dataset(train, schema, n_classes=n_classes)
            xte, yte = load_csv_dataset(test, schema, n_classes=n_classes)
            out.append((xtr, ytr, xte, yte))
        return out
    x, y = load_csv_dataset(str(source), schema, n_classes=n_classes)
    perm = np.random.default_rng(config.seed).permutation(x.shape[0])
    half = x.shape[0] // 2
    tr, te = perm[:half], perm[half:]
    return [(x[tr], y[tr], x[te], y[te])]


def _run_classification(config, schema, n_classes, make_model, width=0.5,
                        synth_n_centres=None):
    splits = _classification_splits(config, schema, n_classes)
    # User-supplied data keeps every training point as a centre; the
    # synthetic tasks subsample so the stacked posterior stays small.
    n_centres = synth_n_centres if config.data is None else None
    accuracies = []
    for i, (xtr, ytr, xte, yte) in enumerate(splits):
        design = RbfDesign.from_inputs(xtr, width, n_centres=n_centres)
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


def _run_logistic(config):
    return _run_classification(config, "binary", None, LogisticModel, synth_n_centres=25)


def _run_multiclass(config, n_classes=3):
    return _run_classification(
        config, "one-hot", n_classes, SoftmaxModel, synth_n_centres=20
    )


def synth_image_data(n, seed, shape=(24, 21), latent_dim=2, noise_sd=2.0):
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
    images += noise_sd * rng.standard_normal(images.shape)
    return images, loading, offset


def corrupt_pixels(images, fraction, seed, low=0.0, high=255.0):
    """Replace a fixed fraction of each image's pixels with uniform draws."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"fraction must lie in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    out = np.array(images, dtype=float, copy=True)
    d = out.shape[1]
    k = int(round(fraction * d))
    for row in out:
        idx = rng.choice(d, size=k, replace=False)
        row[idx] = rng.uniform(low, high, size=k)
    return out


def _fit_latents(data, params, config, seed, init_mu, optimise_model_params=True):
    """Fit the latent posterior of a Cauchy PPCA model from `init_mu`.

    The loading, offset and scale in `params` train on the same bound
    unless `optimise_model_params` is off.
    """
    fc = _fit_config(config, fix_alpha=True, init_alpha=1.0, init_mu=init_mu,
                     optimise_model_params=optimise_model_params)
    return fit(CauchyPpcaModel(data, params), fc, seed=seed)


def fit_cauchy_ppca(train, latent_dim, config, seed):
    """Train loading/offset/scale and the training-set latent posterior.

    Starts from the closed-form Gaussian-noise solution and a robust scale
    estimate of its residuals, then optimises everything on the bound.
    Returns the fit report and the fitted model.
    """
    warm = ml_ppca_fit(train, latent_dim)
    residuals = train - warm.reconstruct(train)
    scale = max(float(np.median(np.abs(residuals))), 1e-3)
    params = CauchyPpcaParams(warm.loading, warm.offset, scale)
    init_mu = np.linalg.solve(
        warm.loading.T @ warm.loading + warm.noise_variance * np.eye(latent_dim),
        warm.loading.T @ (train - warm.offset).T,
    ).T.ravel()
    report = _fit_latents(train, params, config, seed, init_mu)
    return report, report.model


def _run_cauchy_ppca(config, shape=(24, 21), latent_dim=2, n_data=200,
                     corruption=1.0 / 3.0):
    """Denoising on corrupted synthetic images: Cauchy noise vs Gaussian."""
    if config.data is not None:
        # Image files carry pixels only; the loader's target column is
        # just the last pixel, so re-attach it.
        features, last = load_csv_dataset(config.data, "regression")
        clean = np.column_stack([features, last])
    else:
        clean, _, _ = synth_image_data(n_data, config.seed, shape, latent_dim)
    corrupted = corrupt_pixels(clean, corruption, config.seed + 1)
    half = clean.shape[0] // 2
    train_c, test_c = corrupted[:half], corrupted[half:]
    test_clean = clean[half:]

    report, fitted = fit_cauchy_ppca(train_c, latent_dim, config, config.seed)

    gauss = ml_ppca_fit(train_c, latent_dim)

    # Test-time latents are fitted against the corrupted test images with
    # the trained model parameters held fixed.
    test_init = np.linalg.lstsq(
        fitted.params.loading, (test_c - fitted.params.offset).T, rcond=None
    )[0].T.ravel()
    test_report = _fit_latents(test_c, fitted.params, config, config.seed + 2,
                               test_init, optimise_model_params=False)
    rec_cauchy = fitted.reconstruct(test_report.posterior.mu.reshape(-1, latent_dim))
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


def _mean_draw_mse(post, model, inputs, targets, n_draws, rng):
    draws = post.sample(n_draws, rng)
    preds = model.predict_batch(draws, inputs)
    return float(np.mean((preds - np.asarray(targets)[None, :]) ** 2))


def spectrum_mse_benchmark(n_splits=10, seed=0, n_train=100, n_test=100,
                           noise_sd=0.05, n_samples=50, max_iter=150,
                           n_draws=200):
    """Across-split test-MSE spread of the fitted bound versus Laplace.

    Each split draws a fresh amplitude-spectrum dataset, fits both schemes
    with the noise precision fixed at 1/noise_sd^2, and scores the test MSE
    averaged over posterior parameter draws. The exp/power response makes
    curvature-based covariances prone to sampling parameters whose
    predictions blow up, so the spread of the Laplace MSE across splits is
    the quantity of interest. Returns per-split MSE arrays and their
    standard deviations.
    """
    beta = 1.0 / noise_sd ** 2
    mse_fit = []
    mse_lap = []
    for i in range(n_splits):
        inputs, targets, _ = synth_spectrum_data(
            n_train + n_test, seed + i, noise_sd=noise_sd
        )
        xtr, xte = inputs[:n_train], inputs[n_train:]
        ytr, yte = targets[:n_train], targets[n_train:]
        model = SpectrumDecayModel(
            xtr[:, 0].astype(int), xtr[:, 1], xtr[:, 2], ytr
        )
        report = fit(
            model,
            FitConfig(n_samples=n_samples, max_iter=max_iter,
                      fix_beta=True, init_beta=beta),
            seed=seed + i,
        )
        lap = laplace_approximation(
            model, Hyperparameters(None, beta), seed=seed + i
        )
        rng = np.random.default_rng(seed + i)
        mse_fit.append(
            _mean_draw_mse(report.posterior, model, xte, yte, n_draws, rng)
        )
        mse_lap.append(_mean_draw_mse(lap, model, xte, yte, n_draws, rng))
    return {
        "mse_fit": np.asarray(mse_fit),
        "mse_laplace": np.asarray(mse_lap),
        "std_fit": float(np.std(mse_fit)),
        "std_laplace": float(np.std(mse_lap)),
    }
