"""Command-line behaviour: exit codes, artifacts, config-file merging."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_unaffordable_sample_count_is_a_config_error(tmp_path, capsys):
    # 1e15 draws of dimension 21 is 149 PiB: the allocator refuses at once.
    code, _, err = run_cli(
        blr_args(tmp_path, ["--samples", "1000000000000000"]), capsys
    )
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot allocate"), err


def test_blr_overfit_needs_two_distinct_budgets(tmp_path, capsys):
    # blr-overfit fits --samples and a fixed budget of 10 draws; --samples 10
    # would compare a budget with itself.
    out = tmp_path / "o"
    code, _, err = run_cli(
        ["--experiment", "blr-overfit", "--samples", "10", "--max-iter", "10",
         "--seed", "0", "--out", str(out)],
        capsys,
    )
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "n_samples" in lines[0]
    assert not out.exists(), "a pipeline ran"


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


def test_bivariate_rejects_a_data_file(tmp_path, capsys):
    out = tmp_path / "o"
    code, _, err = run_cli(
        ["--experiment", "bivariate", "--data", str(tmp_path / "absent.csv"),
         "--seed", "0", "--out", str(out)],
        capsys,
    )
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "bivariate" in lines[0]
    assert not out.exists(), "a pipeline ran"


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


def write_config(path, config):
    path.write_text(json.dumps(config))
    return ["--config", str(path)]


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "abc"),
        ("samples", "x"),
        ("tol", "abc"),
        ("samples", 2.5),
        ("max_iter", True),
    ],
)
def test_mistyped_config_value_is_a_config_error(tmp_path, capsys, key, value):
    config = {"experiment": "blr", "seed": 0, "out": str(tmp_path / "o"), key: value}
    code, _, err = run_cli(write_config(tmp_path / "run.json", config), capsys)
    assert code == 2, err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert key.replace("samples", "n_samples") in lines[0]
    assert not (tmp_path / "o").exists(), "a pipeline ran"


# ------------------------------------------------------------------ fuzzing

# Cheap values for every config key; each fuzzed config replaces at least
# one of them with an invalid value, so no example reaches a fit.
_VALID_CONFIG = {
    "experiment": "blr",
    "seed": 0,
    "samples": 5,
    "holdout_samples": 30,
    "inner_iters": 1,
    "max_iter": 1,
    "tol": 0.0,
}
_OMIT = object()
_WRONG_TYPES = st.one_of(
    st.booleans(),
    st.integers(-1000, 1000).map(lambda i: i + 0.5),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=1),
)
_BAD_COUNT = st.one_of(st.integers(max_value=0), _WRONG_TYPES)


def _invalid_values(missing_dir):
    return {
        "experiment": st.one_of(
            st.just(_OMIT),
            st.none(),
            st.integers(),
            st.text(max_size=12).filter(lambda v: v not in cli.EXPERIMENT_KINDS),
        ),
        "seed": st.one_of(
            st.just(_OMIT), st.none(), st.integers(max_value=-1), _WRONG_TYPES
        ),
        "out": st.one_of(
            st.just(_OMIT), st.none(), st.just(""), st.just("o\0ut"), st.integers(),
            st.lists(st.text(max_size=2), max_size=2),
        ),
        "data": st.one_of(
            st.integers(),
            st.booleans(),
            st.lists(st.text(max_size=2), max_size=2),
            st.text(alphabet="abc.-_", min_size=1, max_size=8).map(
                lambda name: str(missing_dir / name)
            ),
            st.just("in\0put.csv"),
        ),
        "samples": _BAD_COUNT,
        # Must exceed samples (5).
        "holdout_samples": st.one_of(st.integers(max_value=5), _WRONG_TYPES),
        "inner_iters": _BAD_COUNT,
        "max_iter": _BAD_COUNT,
        "tol": st.one_of(
            st.floats(max_value=-1e-300),
            st.sampled_from([math.nan, math.inf]),
            st.booleans(),
            st.text(max_size=4),
            st.lists(st.floats(), max_size=2),
        ),
    }


@st.composite
def _bad_configs(draw, out_dir, missing_dir):
    invalid = _invalid_values(missing_dir)
    keys = draw(st.sets(st.sampled_from(sorted(cli._CONFIG_KEYS)), min_size=1))
    config = dict(_VALID_CONFIG, out=out_dir)
    for key in keys:
        value = draw(invalid[key])
        if value is _OMIT:
            config.pop(key, None)
        else:
            config[key] = value
    return config


@pytest.fixture
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_clean_failure(argv, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (2, 3, 4), f"exit code {code} for {argv}: {err}"
    assert err.startswith("error:"), err


def test_fuzzed_configs_exit_with_an_error_code(fuzz_dir, capsys):
    out_dir = str(fuzz_dir / "out")
    path = fuzz_dir / "run.json"

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_bad_configs(out_dir, fuzz_dir / "absent"))
    def check(config):
        _assert_clean_failure(write_config(path, config), capsys)

    check()
    assert not (fuzz_dir / "out").exists(), "a fuzzed config ran a pipeline"


_CELL = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def _malformed_csvs(draw):
    """A numeric CSV with one defect that the loader must reject."""
    width = draw(st.integers(2, 4))
    rows = draw(
        st.lists(
            st.lists(_CELL, min_size=width, max_size=width), min_size=1, max_size=5
        )
    )
    defect = draw(st.sampled_from(["empty", "one column", "ragged", "token"]))
    if defect == "empty":
        rows = []
    elif defect == "one column":
        rows = [[row[0]] for row in rows]
    elif defect == "ragged":
        rows = rows + [draw(st.lists(_CELL, min_size=width + 1, max_size=width + 3))]
    else:
        token = draw(st.text(alphabet="ab-e.x ", min_size=1, max_size=4))
        rows = rows + [[token] + [repr(1.0)] * (width - 1)]
    return "\n".join(",".join(row) for row in rows) + "\n"


def test_fuzzed_malformed_csv_is_a_data_error(fuzz_dir, capsys):
    path = fuzz_dir / "data.csv"
    out_dir = fuzz_dir / "out"
    argv = ["--experiment", "blr", "--seed", "0", "--out", str(out_dir),
            "--samples", "5", "--max-iter", "1", "--data", str(path)]

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_malformed_csvs())
    def check(text):
        path.write_text(text)
        _assert_clean_failure(argv, capsys)

    check()
    assert not out_dir.exists(), "a malformed CSV ran a pipeline"
