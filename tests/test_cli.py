"""Command-line behaviour: exit codes, artifacts, config-file merging."""

import json

import numpy as np
import pytest

import fsvi.cli as cli
from fsvi import load_posterior, synth_image_data
from fsvi.exceptions import NumericalFailureError
from fsvi.io import atomic_write_text


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def blr_args(tmp_path, extra=()):
    return [
        "--experiment",
        "blr",
        "--seed",
        "0",
        "--out",
        str(tmp_path / "out"),
        "--samples",
        "10",
        "--max-iter",
        "5",
        *extra,
    ]


def test_successful_run_prints_metrics(tmp_path, capsys):
    code, out, err = run_cli(blr_args(tmp_path), capsys)
    assert code == 0, f"stderr: {err}"
    assert "mean_rmse:" in out
    assert "metrics written to" in out

    out_dir = tmp_path / "out"
    assert (out_dir / "metrics.csv").exists()
    trace = (out_dir / "trace_blr.csv").read_text().splitlines()
    indices = [int(line.split(",")[0]) for line in trace[1:]]
    assert indices == list(range(1, len(indices) + 1)), "trace rows out of order"

    post, hyper, seed = load_posterior(str(out_dir / "posterior_blr.txt"))
    assert seed == 0
    assert hyper.alpha is not None and hyper.beta is not None
    assert post.dim == post.L.shape[0]


def test_rerun_writes_identical_artifacts(tmp_path, capsys):
    code_a, _, _ = run_cli(blr_args(tmp_path), capsys)
    first = {
        name: (tmp_path / "out" / name).read_bytes()
        for name in ("metrics.csv", "posterior_blr.txt", "trace_blr.csv")
    }
    code_b, _, _ = run_cli(blr_args(tmp_path), capsys)
    assert code_a == code_b == 0
    for name, content in first.items():
        assert (tmp_path / "out" / name).read_bytes() == content, (
            f"{name} changed between identical runs"
        )


def test_missing_seed_is_a_config_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["--experiment", "blr", "--out", str(tmp_path / "out")], capsys
    )
    assert code == 2
    assert "seed is required" in err


def test_missing_experiment_is_a_config_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["--seed", "0", "--out", str(tmp_path / "out")], capsys
    )
    assert code == 2
    assert "experiment kind is required" in err


def test_missing_out_is_a_config_error(capsys):
    code, _, err = run_cli(["--experiment", "blr", "--seed", "0"], capsys)
    assert code == 2
    assert "output directory is required" in err


def test_invalid_sample_count_is_a_config_error(tmp_path, capsys):
    code, _, err = run_cli(blr_args(tmp_path, ["--samples", "-5"]), capsys)
    assert code == 2
    assert "n_samples" in err


def test_unknown_experiment_is_rejected_by_the_parser(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--experiment", "nonsense", "--seed", "0", "--out", str(tmp_path)])
    assert excinfo.value.code == 2


def test_missing_data_file_is_a_data_error(tmp_path, capsys):
    code, _, err = run_cli(
        blr_args(tmp_path, ["--data", str(tmp_path / "absent.csv")]), capsys
    )
    assert code == 3
    assert "absent.csv" in err


def test_malformed_data_file_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    atomic_write_text(str(bad), "1.0,a\n")
    code, _, err = run_cli(blr_args(tmp_path, ["--data", str(bad)]), capsys)
    assert code == 3
    assert "non-numeric cell" in err


def image_args(tmp_path, images):
    path = tmp_path / "images.csv"
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in images)
    atomic_write_text(str(path), rows + "\n")
    return [
        "--experiment",
        "cauchy-ppca",
        "--data",
        str(path),
        "--seed",
        "0",
        "--out",
        str(tmp_path / "out"),
        "--max-iter",
        "1",
    ]


def test_zero_norm_clean_image_is_a_data_error(tmp_path, capsys):
    images, _, _ = synth_image_data(20, 0, shape=(3, 3))
    images[15] = 0.0  # a test image: its relative error is undefined
    code, _, err = run_cli(image_args(tmp_path, images), capsys)
    assert code == 3
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "zero norm" in lines[0]


def test_singular_start_factor_is_a_numerical_error(tmp_path, capsys):
    # 160 training images with q=2 give M=320 latents; |det(0.1 I)| = 1e-320
    # is below the posterior's determinant floor.
    images, _, _ = synth_image_data(320, 0, shape=(3, 3))
    code, _, err = run_cli(image_args(tmp_path, images), capsys)
    assert code == 4
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "singular" in lines[0]


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    def explode(config):
        raise NumericalFailureError("bound non-finite at iteration 3", iteration=3)

    monkeypatch.setattr(cli, "run_experiment", explode)
    code, _, err = run_cli(blr_args(tmp_path), capsys)
    assert code == 4
    assert "iteration 3" in err


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = {
        "experiment": "blr",
        "seed": 3,
        "out": str(tmp_path / "out"),
        "samples": 10,
        "max_iter": 5,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(["--config", str(path)], capsys)
    assert code == 0
    _, _, seed = load_posterior(str(tmp_path / "out" / "posterior_blr.txt"))
    assert seed == 3


def test_flags_override_the_config_file(tmp_path):
    config = {"experiment": "blr", "seed": 3, "samples": 50}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    args = cli._build_parser().parse_args(
        ["--config", str(path), "--seed", "9", "--out", str(tmp_path / "o")]
    )
    built = cli.build_experiment_config(args)
    assert built.seed == 9, "flag must beat the config file"
    assert built.n_samples == 50, "unflagged config keys must survive"
    assert built.kind == "blr"


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"experiment": "blr", "speed": 11}))
    code, _, err = run_cli(["--config", str(path)], capsys)
    assert code == 2
    assert "unknown config keys" in err and "speed" in err


def test_invalid_json_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    code, _, err = run_cli(["--config", str(path)], capsys)
    assert code == 2
    assert "invalid JSON" in err


def test_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("[1, 2]")
    code, _, err = run_cli(["--config", str(path)], capsys)
    assert code == 2
    assert "JSON object" in err
