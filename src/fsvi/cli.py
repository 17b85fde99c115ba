"""Command-line entry point: one experiment per invocation.

Exit codes: 0 success, else the `exit_code` of the `FsviError` raised:
2 configuration error (an unreadable config file and an `--out` that is a
file included), 3 data error, 4 numerical failure during fitting or
evaluation. An `OSError` (a data file or output path that cannot be read
or written) exits 3.
"""

import argparse
import json
import sys

from .exceptions import ConfigError, FsviError
from .experiments import EXPERIMENT_KINDS, ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_DATA = 3


# Each config-file key, mapped to its ExperimentConfig field and the
# argparse settings of its flag (the key with `-` for `_`).
_CONFIG_KEYS = {
    "experiment": ("kind", dict(
        choices=EXPERIMENT_KINDS, help="experiment kind to run")),
    "data": ("data", dict(help="CSV file or split directory (optional)")),
    "samples": ("n_samples", dict(
        type=int, help="number of fixed draws S used for fitting")),
    "holdout_samples": ("n_holdout", dict(
        type=int,
        help="number of held-out draws used for monitoring (default 5x samples)")),
    "inner_iters": ("inner_iters", dict(
        type=int, help="conjugate-gradient steps per block")),
    "max_iter": ("max_iter", dict(type=int, help="maximum outer iterations")),
    "tol": ("tol", dict(
        type=float, help="outer-loop bound-change stopping tolerance")),
    "seed": ("seed", dict(type=int, help="random seed (mandatory)")),
    "out": ("out_dir", dict(help="output directory (mandatory)")),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fsvi",
        description="Fit Gaussian posteriors on fixed latent draws and "
        "run the bundled comparison experiments.",
    )
    for key, (_, settings) in _CONFIG_KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), **settings)
    parser.add_argument(
        "--config",
        help="JSON file with the same keys as the flags; flags take precedence",
    )
    return parser


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
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

    kwargs = {_CONFIG_KEYS[k][0]: v for k, v in merged.items()}
    return ExperimentConfig(**kwargs)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = build_experiment_config(args)
        artifacts = run_experiment(config)
    except FsviError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    for key, value in artifacts.metrics.items():
        print(f"{key}: {value}")
    print(f"metrics written to {artifacts.metrics_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
