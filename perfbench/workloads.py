"""The benchmark workloads: denoise and small-m, which BENCHMARK.json gates,
and spectrum, which runs the same way but is not gated.

Each workload builds its inputs from the benchmark seed through the
program's own generators and constructors, runs one round of operations
(experiment pipelines) into an output directory, and checks what a round
wrote against computations made here with numpy, or against properties
the method must have.

The pipelines keep their default shapes (draws S, data N, dimension M).
Only the outer-iteration budget is fixed here, with `tol=0` so that every
round of a workload runs the same number of outer iterations whatever the
seed: the wall time then measures the same amount of work on every run.
"""

import pathlib
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

import fsvi.experiments as ex
from fsvi import (
    ExperimentConfig,
    FitConfig,
    Grid2D,
    Hyperparameters,
    corrupt_pixels,
    ml_ppca_fit,
    synth_image_data,
)
from fsvi.models import (
    CauchyPpcaModel,
    CauchyPpcaParams,
    RbfDesign,
    RbfRegressionModel,
    SkewTarget,
    SpectrumDecayModel,
    synth_regression_data,
    synth_spectrum_data,
)

# Outer-iteration budgets, chosen so one round takes a few seconds on a
# 2-core machine while every check below still holds.
DENOISE_ITERS = 2
SMALL_M_ITERS = 40
# A small-m round runs its three pipelines at two pipeline seeds. Bivariate's
# Laplace restarts cost 0.4-1.3 s depending on the seed; two instances per
# round halve the share of that seed-to-seed variation in the round's time.
SMALL_M_INSTANCES = 2
SPECTRUM_ITERS = 100
# A spectrum round takes about 10 s; five of them per run keep the run's
# median off a single slow stretch of the machine.
SPECTRUM_MIN_ROUNDS = 5

# Pipeline constants the checks and kernels rebuild inputs from; they
# mirror the defaults of the private pipeline runners in fsvi.experiments.
IMAGE_SHAPE = (24, 21)
LATENT_DIM = 2
N_IMAGES = 200
CORRUPTION = 1.0 / 3.0
SPECTRUM_NOISE_SD = 0.05
SPECTRUM_N = 100
# A split's fitted test MSE (averaged over posterior draws) must stay below
# this multiple of the noise variance the data were drawn with. Converged
# fits land at 1-2x; fits stopped short of convergence, or with a broken
# model, land at 1e3x and beyond. Predicting the training mean scores about
# 6-8x, so this bound does not catch a fit that stalls at its start (seed
# 17 does; see CHANGES.md).
SPECTRUM_MSE_FACTOR = 10.0
BLR_RMSE_LIMIT = 0.05
# Targets on which the fitted q-to-p KL must beat Laplace's on every seed.
# Target 2 is left out: with the pipeline's 50 fixed draws its fit loses to
# Laplace on some pipeline seeds (5, 7, 13, 17 of 0-19; see CHANGES.md).
BIVARIATE_ORDERED_TARGETS = (0, 1)


@dataclass
class KernelCase:
    """The shapes a workload's fixed-shape kernel timings run at.

    `fit_config` has max_iter=1: it is the one outer iteration timed.
    """

    model: object
    hyper: Hyperparameters
    n_samples: int
    mu0: np.ndarray
    fit_config: FitConfig
    laplace_start: np.ndarray | None = None


def _config(kind, seed, out_dir, **kwargs):
    return ExperimentConfig(kind=kind, seed=seed, out_dir=str(out_dir), tol=0.0, **kwargs)


def _read_rows(path):
    lines = pathlib.Path(path).read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _read_metrics(path):
    return dict(_read_rows(path))


def read_posterior(path):
    """(mu, L, alpha, beta) parsed from a posterior text file."""
    fields = {}
    rows = []
    for line in pathlib.Path(path).read_text().splitlines():
        key, _, rest = line.partition(" ")
        if key == "L":
            rows.append([float(v) for v in rest.split()])
        else:
            fields[key] = rest
    mu = np.array([float(v) for v in fields["mu"].split()])

    def opt(v):
        return None if v == "none" else float(v)

    return mu, np.array(rows), opt(fields["alpha"]), opt(fields["beta"])


def _check_factor(path, block, problems):
    """The saved factor is nonsingular and block-diagonal with `block`-sized blocks."""
    _, factor, _, _ = read_posterior(path)
    m = factor.shape[0]
    idx = np.arange(m) // block
    off = factor[idx[:, None] != idx[None, :]]
    if np.any(off != 0.0):
        problems.append(f"{path}: factor has nonzero entries outside {block}x{block} blocks")
    sign, logdet = np.linalg.slogdet(factor)
    if sign == 0.0 or not np.isfinite(logdet) or logdet < np.log(1e-300):
        problems.append(f"{path}: factor is singular (log|det| {logdet})")


# --------------------------------------------------------------------- denoise


def build_denoise(seed):
    clean, _, _ = synth_image_data(N_IMAGES, seed, IMAGE_SHAPE, LATENT_DIM)
    corrupted = corrupt_pixels(clean, CORRUPTION, seed + 1)
    return ppca_start(corrupted[: N_IMAGES // 2])


def ppca_start(train):
    """Warm start of the Cauchy-PPCA fit, as the pipeline builds it."""
    warm = ml_ppca_fit(train, LATENT_DIM)
    residuals = train - warm.reconstruct(train)
    scale = max(float(np.median(np.abs(residuals))), 1e-3)
    params = CauchyPpcaParams(warm.loading, warm.offset, scale)
    init_mu = np.linalg.solve(
        warm.loading.T @ warm.loading + warm.noise_variance * np.eye(LATENT_DIM),
        warm.loading.T @ (train - warm.offset).T,
    ).T.ravel()
    return {"model": CauchyPpcaModel(train, params), "init_mu": init_mu}


def ops_denoise(seed, out):
    return [("cauchy-ppca", lambda: ex.run_experiment(
        _config("cauchy-ppca", seed, out, max_iter=DENOISE_ITERS)))]


def check_denoise(seed, inputs, out):
    problems = []
    rows = np.array([[float(v) for v in r[1:]] for r in _read_rows(out / "errors.csv")])
    if rows.shape != (N_IMAGES - N_IMAGES // 2, 2) or not np.all(np.isfinite(rows)):
        problems.append(f"errors.csv: expected finite per-image errors, got shape {rows.shape}")
    elif not rows[:, 0].mean() < rows[:, 1].mean():
        problems.append(
            f"heavy-tailed mean error {rows[:, 0].mean():.6g} is not below the "
            f"Gaussian baseline's {rows[:, 1].mean():.6g}"
        )
    _check_factor(out / "posterior_train_latents.txt", LATENT_DIM, problems)
    return problems


def kernel_denoise(inputs):
    n_samples = ExperimentConfig(kind="cauchy-ppca", seed=0, out_dir="-").n_samples
    return KernelCase(
        model=inputs["model"],
        hyper=Hyperparameters(alpha=1.0),
        n_samples=n_samples,
        mu0=inputs["init_mu"],
        fit_config=FitConfig(n_samples=n_samples, max_iter=1, fix_alpha=True,
                             init_alpha=1.0, init_mu=inputs["init_mu"]),
        laplace_start=inputs["init_mu"],
    )


# -------------------------------------------------------------------- spectrum


def build_spectrum(seed):
    # One split per round: its seed is the benchmark seed.
    inputs, targets, _ = synth_spectrum_data(2 * SPECTRUM_N, seed,
                                             noise_sd=SPECTRUM_NOISE_SD)
    xtr, ytr = inputs[:SPECTRUM_N], targets[:SPECTRUM_N]
    return {"model": SpectrumDecayModel(xtr[:, 0].astype(int), xtr[:, 1], xtr[:, 2], ytr)}


def ops_spectrum(seed, out):
    def run():
        result = ex.spectrum_mse_benchmark(
            n_splits=1, seed=seed,
            n_train=SPECTRUM_N, n_test=SPECTRUM_N, noise_sd=SPECTRUM_NOISE_SD,
            max_iter=SPECTRUM_ITERS,
        )
        out.mkdir(parents=True, exist_ok=True)
        lines = ["split,mse_fit,mse_laplace"] + [
            f"{i},{float(f)!r},{float(lap)!r}"
            for i, (f, lap) in enumerate(zip(result["mse_fit"], result["mse_laplace"]))
        ]
        (out / "metrics.csv").write_text("\n".join(lines) + "\n")
        return result

    return [("spectrum", run)]


def check_spectrum(seed, inputs, out):
    problems = []
    limit = SPECTRUM_MSE_FACTOR * SPECTRUM_NOISE_SD**2
    rows = _read_rows(out / "metrics.csv")
    if len(rows) != 1:
        problems.append(f"expected one split, got {len(rows)}")
    for split, mse_fit, _ in rows:
        if not float(mse_fit) <= limit:
            problems.append(
                f"split {split}: fitted test MSE {mse_fit} exceeds "
                f"{SPECTRUM_MSE_FACTOR} x noise variance ({limit})"
            )
    return problems


def kernel_spectrum(inputs):
    model = inputs["model"]
    beta = 1.0 / SPECTRUM_NOISE_SD**2
    n_samples = 50  # spectrum_mse_benchmark's default
    return KernelCase(
        model=model,
        hyper=Hyperparameters(alpha=None, beta=beta),
        n_samples=n_samples,
        mu0=np.random.default_rng(0).standard_normal(model.dim),
        fit_config=FitConfig(n_samples=n_samples, max_iter=1, fix_beta=True,
                             init_beta=beta),
    )


# --------------------------------------------------------------------- small-m


def _small_m_seeds(seed):
    return [SMALL_M_INSTANCES * seed + j for j in range(SMALL_M_INSTANCES)]


def build_small_m(seed):
    instances = []
    for sub in _small_m_seeds(seed):
        x, y = synth_regression_data(60, sub, noise_sd=0.2)
        design = RbfDesign.from_inputs(x, 1.0, n_centres=20)
        instances.append({
            "x": x,
            "y": y,
            "design": design,
            "blr": RbfRegressionModel(x, y, design),
            "targets": [SkewTarget(c) for c in ex.BIVARIATE_COEFFS],
            # Built as the bivariate pipeline builds it, so set-up counts it.
            "grid": Grid2D.build(),
        })
    return {"instances": instances}


def ops_small_m(seed, out):
    ops = []
    for sub in _small_m_seeds(seed):
        d = out / f"seed{sub}"
        ops += [
            ("blr", lambda sub=sub, d=d: ex.run_experiment(
                _config("blr", sub, d / "blr", max_iter=SMALL_M_ITERS))),
            ("blr-overfit", lambda sub=sub, d=d: ex.run_experiment(
                _config("blr-overfit", sub, d / "blr-overfit"))),
            ("bivariate", lambda sub=sub, d=d: ex.run_experiment(
                _config("bivariate", sub, d / "bivariate", max_iter=SMALL_M_ITERS))),
        ]
    return ops


def conjugate_mean(phi, y, alpha, beta):
    """Posterior mean of Bayesian linear regression, solved with numpy."""
    precision = alpha * np.eye(phi.shape[1]) + beta * phi.T @ phi
    return np.linalg.solve(precision, beta * phi.T @ y)


def skew_logdensity(points, coeff):
    """log of 2 N(w | 0, I) Phi(h(w)) with the odd cubic h, on rows of points."""
    w1, w2 = points[:, 0], points[:, 1]
    a = coeff
    h = (a[0] * w1 + a[1] * w2 + a[2] * w1 * w2**2 + a[3] * w1**2 * w2
         + a[4] * w1**3 + a[5] * w2**3)
    return np.log(2.0) - np.log(2.0 * np.pi) - 0.5 * (w1**2 + w2**2) + log_ndtr(h)


def kl_q_to_p(mu, factor, coeff, half_width=9.0, n=601):
    """KL(q || p) for q = N(mu, L L^T) and the skew target, by midpoint rule."""
    edges = np.linspace(-half_width, half_width, n + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    xx, yy = np.meshgrid(mid, mid, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    cell = (edges[1] - edges[0]) ** 2
    cov = factor @ factor.T
    d = pts - mu
    maha = np.sum(d * np.linalg.solve(cov, d.T).T, axis=1)
    log_q = -np.log(2.0 * np.pi) - 0.5 * np.linalg.slogdet(cov)[1] - 0.5 * maha
    log_p = skew_logdensity(pts, coeff)
    q = np.exp(log_q)
    return float(np.sum(q * (log_q - log_p)) * cell)


def check_small_m(seed, inputs, out):
    problems = []
    for sub, instance in zip(_small_m_seeds(seed), inputs["instances"]):
        problems += [f"pipeline seed {sub}: {p}"
                     for p in _check_small_m(instance, out / f"seed{sub}")]
    return problems


def _check_small_m(inputs, out):
    problems = []

    mu, factor, alpha, beta = read_posterior(out / "blr" / "posterior_blr.txt")
    grid = np.linspace(-6.0, 6.0, 200)
    phi_grid = inputs["design"].matrix(grid)
    exact = conjugate_mean(inputs["design"].matrix(inputs["x"]), inputs["y"], alpha, beta)
    rmse = float(np.sqrt(np.mean((phi_grid @ (mu - exact)) ** 2)))
    if not rmse <= BLR_RMSE_LIMIT:
        problems.append(f"blr: fitted mean RMSE {rmse:.4g} from the conjugate mean")
    alpha_fp = mu.size / (mu @ mu + np.sum(factor * factor))
    if not abs(alpha - alpha_fp) <= 1e-10 * alpha:
        problems.append(f"blr: alpha {alpha!r} != M / (mu'mu + tr LL') = {alpha_fp!r}")

    verdicts = _read_metrics(out / "blr-overfit" / "metrics.csv")
    if verdicts.get("verdict_s10") != "overfitting" or verdicts.get("verdict_s100") != "ok":
        problems.append(f"blr-overfit: verdicts {verdicts.get('verdict_s10')!r} at S=10 "
                        f"and {verdicts.get('verdict_s100')!r} at S=100")

    table = {(int(t), m, d): float(v)
             for t, m, d, v in _read_rows(out / "bivariate" / "kld_table.csv")}
    for t in BIVARIATE_ORDERED_TARGETS:
        prop, lap = table[(t, "proposed", "q-to-p")], table[(t, "laplace", "q-to-p")]
        if not prop < lap:
            problems.append(f"bivariate target {t}: q-to-p KL {prop:.4g} not below "
                            f"Laplace's {lap:.4g}")
    mu, factor, _, _ = read_posterior(out / "bivariate" / "posterior_bivariate_0.txt")
    own = kl_q_to_p(mu, factor, inputs["targets"][0].coeff)
    saved = table[(0, "proposed", "q-to-p")]
    if not abs(own - saved) <= 0.02 * abs(saved) + 1e-3:
        problems.append(f"bivariate target 0: q-to-p KL {saved:.6g} in the table, "
                        f"{own:.6g} recomputed")
    return problems


def kernel_small_m(inputs):
    model = inputs["instances"][0]["blr"]
    n_samples = ExperimentConfig(kind="blr", seed=0, out_dir="-").n_samples
    config = FitConfig(n_samples=n_samples, max_iter=1)
    return KernelCase(
        model=model,
        hyper=Hyperparameters(alpha=config.init_alpha, beta=config.init_beta),
        n_samples=n_samples,
        mu0=np.random.default_rng(0).standard_normal(model.dim),
        fit_config=config,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    operations: object
    check: object
    kernel_case: object
    min_rounds: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload("denoise", build_denoise, ops_denoise, check_denoise, kernel_denoise),
        Workload("spectrum", build_spectrum, ops_spectrum, check_spectrum,
                 kernel_spectrum, SPECTRUM_MIN_ROUNDS),
        Workload("small-m", build_small_m, ops_small_m, check_small_m, kernel_small_m),
    )
}
