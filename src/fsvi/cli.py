"""Command-line entry point: one experiment per invocation.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure during fitting or evaluation.
"""

import argparse
import json
import sys

from .exceptions import (
    ConfigError,
    CoverageError,
    DataFormatError,
    DegenerateFitError,
    DegeneratePosteriorError,
    DimensionError,
    IndefiniteHessianError,
    InsufficientDataError,
    InvalidLabelError,
    InvalidPosteriorError,
    InvalidStartError,
    NumericalFailureError,
    PosteriorIOError,
    RankError,
)
from .experiments import EXPERIMENT_KINDS, ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_CONFIG_ERRORS = (ConfigError, DimensionError, InsufficientDataError)
_DATA_ERRORS = (
    DataFormatError,
    InvalidLabelError,
    PosteriorIOError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
)
_NUMERICAL_ERRORS = (
    NumericalFailureError,
    IndefiniteHessianError,
    CoverageError,
    RankError,
    DegenerateFitError,
    DegeneratePosteriorError,
    InvalidPosteriorError,
    InvalidStartError,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fsvi",
        description="Fit Gaussian posteriors on fixed latent draws and "
        "run the bundled comparison experiments.",
    )
    parser.add_argument(
        "--experiment", choices=EXPERIMENT_KINDS, help="experiment kind to run"
    )
    parser.add_argument("--data", help="CSV file or split directory (optional)")
    parser.add_argument(
        "--samples", type=int, help="number of fixed draws S used for fitting"
    )
    parser.add_argument(
        "--holdout-samples",
        type=int,
        help="number of held-out draws used for monitoring (default 5x samples)",
    )
    parser.add_argument(
        "--inner-iters", type=int, help="conjugate-gradient steps per block"
    )
    parser.add_argument("--max-iter", type=int, help="maximum outer iterations")
    parser.add_argument(
        "--tol", type=float, help="outer-loop bound-change stopping tolerance"
    )
    parser.add_argument("--seed", type=int, help="random seed (mandatory)")
    parser.add_argument("--out", help="output directory (mandatory)")
    parser.add_argument(
        "--config",
        help="JSON file with the same keys as the flags; flags take precedence",
    )
    return parser


_CONFIG_KEYS = {
    "experiment": "kind",
    "data": "data",
    "samples": "n_samples",
    "holdout_samples": "n_holdout",
    "inner_iters": "inner_iters",
    "max_iter": "max_iter",
    "tol": "tol",
    "seed": "seed",
    "out": "out_dir",
}


def _load_config_file(path):
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return raw


def build_experiment_config(args):
    """Merge a config file with flag overrides into an ExperimentConfig."""
    merged = {}
    if args.config:
        merged.update(_load_config_file(args.config))
    for flag in _CONFIG_KEYS:
        value = getattr(args, flag, None)
        if value is not None:
            merged[flag] = value

    if "experiment" not in merged:
        raise ConfigError("an experiment kind is required (--experiment)")
    if "seed" not in merged:
        raise ConfigError("a seed is required (--seed)")
    if "out" not in merged:
        raise ConfigError("an output directory is required (--out)")

    kwargs = {_CONFIG_KEYS[k]: v for k, v in merged.items()}
    return ExperimentConfig(**kwargs)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = build_experiment_config(args)
        artifacts = run_experiment(config)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    for key, value in artifacts.metrics.items():
        print(f"{key}: {value}")
    print(f"metrics written to {artifacts.metrics_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
