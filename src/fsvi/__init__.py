"""Variational inference with a full-covariance Gaussian posterior fitted
on a fixed, finite set of latent draws, plus the baselines and experiment
pipelines used to exercise it.

Importing the package loads numpy only: scipy.special is imported by the
functions and model constructors that call it."""

from . import models
from .baselines import (
    MlPpcaFit,
    exact_blr_posterior,
    laplace_approximation,
    log_joint,
    ml_ppca_fit,
)
from .bound import (
    dbound_dalpha,
    dbound_dbeta,
    gaussian_entropy,
    grad_L,
    grad_mu,
    kl_gaussian_prior,
    lower_bound_fs,
    update_alpha,
    update_beta,
)
from .evaluate import (
    Grid2D,
    gaussian_logdensity_fn,
    kld_numerical_2d,
    reconstruction_error,
)
from .exceptions import (
    ConfigError,
    CoverageError,
    DataFormatError,
    DegenerateFitError,
    DegeneratePosteriorError,
    DimensionError,
    FsviError,
    IndefiniteHessianError,
    InsufficientDataError,
    InvalidLabelError,
    InvalidPosteriorError,
    InvalidStartError,
    NumericalFailureError,
    PosteriorIOError,
    RankError,
)
from .experiments import (
    ExperimentConfig,
    RunArtifacts,
    corrupt_pixels,
    fit_cauchy_ppca,
    mc_accuracy,
    run_experiment,
    spectrum_mse_benchmark,
    synth_image_data,
)
from .fit import FitConfig, FitReport, fit, fit_steps, monitor_generalisation
from .io import load_csv_dataset, load_posterior, save_posterior
from .posterior import Hyperparameters, SampleSet, VariationalPosterior
from .scg import ScgResult, scg_maximise

__version__ = "0.1.0"

__all__ = [
    "models",
    "VariationalPosterior",
    "SampleSet",
    "Hyperparameters",
    "lower_bound_fs",
    "kl_gaussian_prior",
    "gaussian_entropy",
    "grad_mu",
    "grad_L",
    "update_alpha",
    "update_beta",
    "dbound_dalpha",
    "dbound_dbeta",
    "scg_maximise",
    "ScgResult",
    "fit",
    "fit_steps",
    "FitConfig",
    "FitReport",
    "monitor_generalisation",
    "exact_blr_posterior",
    "laplace_approximation",
    "log_joint",
    "ml_ppca_fit",
    "MlPpcaFit",
    "Grid2D",
    "gaussian_logdensity_fn",
    "kld_numerical_2d",
    "reconstruction_error",
    "save_posterior",
    "load_posterior",
    "load_csv_dataset",
    "ExperimentConfig",
    "RunArtifacts",
    "run_experiment",
    "mc_accuracy",
    "spectrum_mse_benchmark",
    "synth_image_data",
    "corrupt_pixels",
    "fit_cauchy_ppca",
    "FsviError",
    "ConfigError",
    "CoverageError",
    "DataFormatError",
    "DegenerateFitError",
    "DegeneratePosteriorError",
    "DimensionError",
    "IndefiniteHessianError",
    "InsufficientDataError",
    "InvalidLabelError",
    "InvalidPosteriorError",
    "InvalidStartError",
    "NumericalFailureError",
    "PosteriorIOError",
    "RankError",
]
