"""Command-line behaviour: exit codes, artifacts, config-file merging."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fsvi.cli as cli
import fsvi.exceptions as exceptions
from fsvi import load_posterior, synth_image_data
from fsvi.exceptions import FsviError, NumericalFailureError
from fsvi.io import atomic_write_text
from fsvi.models import one_hot, synth_classification_data, synth_regression_data


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


# Each required setting's config-file key and its one error line.
_REQUIRED_ERRORS = {
    "experiment": "error: an experiment kind is required (--experiment)\n",
    "seed": "error: a seed is required (--seed)\n",
    "out": "error: an output directory is required (--out)\n",
}


@pytest.mark.parametrize("how", ["omitted flag", "omitted key", "null value"])
@pytest.mark.parametrize("key", sorted(_REQUIRED_ERRORS))
def test_a_missing_required_setting_is_one_config_error(tmp_path, capsys, key, how):
    out = tmp_path / "out"
    values = {"experiment": "blr", "seed": 0, "out": str(out)}
    if how == "null value":
        values[key] = None
    else:
        del values[key]
    if how == "omitted flag":
        argv = [arg for k, v in values.items() for arg in ("--" + k, str(v))]
    else:
        argv = write_config(tmp_path / "run.json", values)
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err == _REQUIRED_ERRORS[key]
    assert not out.exists(), "a pipeline ran"


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


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    existing = tmp_path / "results"
    existing.write_text("keep me\n")
    code, _, err = run_cli(
        ["--experiment", "blr", "--seed", "0", "--out", str(existing),
         "--samples", "10", "--max-iter", "5"],
        capsys,
    )
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "not a directory" in lines[0]
    assert existing.read_text() == "keep me\n"


def test_malformed_data_file_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    atomic_write_text(str(bad), "1.0,a\n")
    code, _, err = run_cli(blr_args(tmp_path, ["--data", str(bad)]), capsys)
    assert code == 3
    assert "non-numeric cell" in err


def write_rows(path, rows):
    """Write a numeric CSV, one line per row, every cell a float repr."""
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
    atomic_write_text(str(path), text + "\n")
    return path


def image_args(tmp_path, images):
    path = write_rows(tmp_path / "images.csv", images)
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


# ML PPCA with two latents needs three training images (half the file)
# and three pixels.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_images, n_pixels", [(1, 10), (3, 10), (4, 10),
                                                 (5, 10), (20, 2)])
def test_too_few_images_or_pixels_is_a_data_error(tmp_path, capsys, n_images,
                                                   n_pixels):
    rng = np.random.default_rng(0)
    images = 128.0 + 40.0 * rng.standard_normal((n_images, n_pixels))
    code, _, err = run_cli(image_args(tmp_path, images), capsys)
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "images.csv" in lines[0]
    assert f"found {n_images} images of {n_pixels} pixels" in lines[0]


def test_smallest_image_file_runs(tmp_path, capsys):
    images = 128.0 + 40.0 * np.random.default_rng(0).standard_normal((6, 3))
    code, _, err = run_cli(image_args(tmp_path, images), capsys)
    assert code == 0, err


def test_singular_start_factor_is_a_numerical_error(tmp_path, capsys):
    # 160 training images with q=2 give M=320 latents; |det(0.1 I)| = 1e-320
    # is below the posterior's determinant floor.
    images, _, _ = synth_image_data(320, 0, shape=(3, 3))
    code, _, err = run_cli(image_args(tmp_path, images), capsys)
    assert code == 4
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "singular" in lines[0]


# ------------------------------------------------------------ --data runs


def _regression_file(root):
    x, y = synth_regression_data(40, 1)
    return write_rows(root / "regression.csv", np.column_stack([x, y]))


def _binary_file(root):
    x, labels = synth_classification_data(2, 40, 1, separation=1.75, spread=0.5)
    return write_rows(root / "binary.csv", np.column_stack([x, labels]))


def _one_hot_splits(root):
    for i in range(2):
        x, labels = synth_classification_data(3, 30, i, separation=1.1, spread=0.25)
        rows = np.column_stack([x, one_hot(labels, 3)])
        write_rows(root / f"train-{i}.csv", rows[:15])
        write_rows(root / f"test-{i}.csv", rows[15:])
    return root


_SPLIT_FILES = ["accuracies.csv", "metrics.csv", "posterior_split0.txt",
                "trace_split0.csv"]


@pytest.mark.parametrize(
    "kind, make_data, written, n_splits",
    [
        ("blr", _regression_file, ["metrics.csv", "posterior_blr.txt",
                                   "predictions.csv", "trace_blr.csv"], None),
        ("logistic", _binary_file, _SPLIT_FILES, 1),
        ("multiclass", _one_hot_splits, _SPLIT_FILES, 2),
    ],
)
def test_data_run_writes_its_files_and_reruns_identically(
        tmp_path, capsys, kind, make_data, written, n_splits):
    data = make_data(tmp_path)
    out = tmp_path / "out"
    argv = ["--experiment", kind, "--data", str(data), "--seed", "0",
            "--out", str(out), "--samples", "10", "--max-iter", "3"]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    assert sorted(p.name for p in out.iterdir()) == written
    first = {name: (out / name).read_bytes() for name in written}
    if n_splits is not None:
        rows = first["accuracies.csv"].decode().splitlines()
        assert len(rows) == 1 + n_splits
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    for name, content in first.items():
        assert (out / name).read_bytes() == content, f"{name} changed on rerun"


def test_blr_rejects_a_second_input_column(tmp_path, capsys):
    x, y = synth_regression_data(40, 1)
    path = write_rows(tmp_path / "wide.csv", np.column_stack([x, x * x, y]))
    code, _, err = run_cli(blr_args(tmp_path, ["--data", str(path)]), capsys)
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "wide.csv" in lines[0] and "found 3 columns" in lines[0]
    assert not (tmp_path / "out").exists(), "a pipeline ran"


@pytest.mark.parametrize("test_width", [1, 3])
def test_split_test_file_of_another_width_is_a_data_error(tmp_path, capsys,
                                                          test_width):
    rng = np.random.default_rng(0)
    labels = np.arange(10) % 2
    write_rows(tmp_path / "train-0.csv",
               np.column_stack([rng.standard_normal((10, 2)), labels]))
    write_rows(tmp_path / "test-0.csv",
               np.column_stack([rng.standard_normal((10, test_width)), labels]))
    out = tmp_path / "out"
    code, _, err = run_cli(
        ["--experiment", "logistic", "--data", str(tmp_path), "--seed", "0",
         "--out", str(out), "--max-iter", "1"],
        capsys,
    )
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "test-0.csv" in lines[0]
    assert not out.exists(), "a pipeline ran"


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    def explode(config):
        raise NumericalFailureError("bound non-finite at iteration 3", iteration=3)

    monkeypatch.setattr(cli, "run_experiment", explode)
    code, _, err = run_cli(blr_args(tmp_path), capsys)
    assert code == 4
    assert "iteration 3" in err


# The exit status of every FsviError subclass: 2 configuration, 3 data,
# 4 numerical.
_EXIT_CODES = {
    exceptions.ConfigError: 2,
    exceptions.DimensionError: 2,
    exceptions.InsufficientDataError: 2,
    exceptions.DataFormatError: 3,
    exceptions.InvalidLabelError: 3,
    exceptions.PosteriorIOError: 3,
    exceptions.CoverageError: 4,
    exceptions.DegenerateFitError: 4,
    exceptions.DegeneratePosteriorError: 4,
    exceptions.IndefiniteHessianError: 4,
    exceptions.InvalidPosteriorError: 4,
    exceptions.InvalidStartError: 4,
    exceptions.NumericalFailureError: 4,
    exceptions.RankError: 4,
}


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_every_error_class_has_its_exit_code(tmp_path, capsys, monkeypatch):
    assert set(_all_subclasses(FsviError)) <= set(_EXIT_CODES), (
        "an FsviError subclass has no pinned exit code"
    )
    for cls, expected in _EXIT_CODES.items():
        assert cls.exit_code == expected, cls.__name__

        def fail(config, cls=cls):
            raise cls(f"{cls.__name__} raised")

        monkeypatch.setattr(cli, "run_experiment", fail)
        code, _, err = run_cli(blr_args(tmp_path), capsys)
        assert code == expected, cls.__name__
        assert err == f"error: {cls.__name__} raised\n"


def test_any_os_error_is_a_data_error(tmp_path, capsys, monkeypatch):
    def deny(config):
        raise PermissionError(13, "Permission denied", str(tmp_path / "out"))

    monkeypatch.setattr(cli, "run_experiment", deny)
    code, _, err = run_cli(blr_args(tmp_path), capsys)
    assert code == 3
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Permission denied" in lines[0], err


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


@pytest.mark.parametrize("content", [None, b'{"experiment": "caf\xe9"}'],
                         ids=["missing", "not-utf-8"])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "run.json"
    if content is not None:
        path.write_bytes(content)
    code, _, err = run_cli(["--config", str(path)], capsys)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "run.json" in lines[0]


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


def _assert_clean_failure(argv, capsys, codes=(2, 3, 4)):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in codes, f"exit code {code} for {argv}: {err}"
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
    """The bytes of a numeric CSV with one defect that the loader must reject."""
    width = draw(st.integers(2, 4))
    rows = draw(
        st.lists(
            st.lists(_CELL, min_size=width, max_size=width), min_size=1, max_size=5
        )
    )
    defect = draw(st.sampled_from(
        ["empty", "one column", "ragged", "token", "non-finite", "not utf-8"]
    ))
    if defect == "empty":
        rows = []
    elif defect == "one column":
        rows = [[row[0]] for row in rows]
    elif defect == "ragged":
        rows = rows + [draw(st.lists(_CELL, min_size=width + 1, max_size=width + 3))]
    elif defect == "token":
        token = draw(st.text(alphabet="ab-e.x ", min_size=1, max_size=4))
        rows = rows + [[token] + [repr(1.0)] * (width - 1)]
    elif defect == "non-finite":
        token = draw(st.sampled_from(["nan", "inf", "-inf", "Infinity", "1e999"]))
        rows = rows + [[repr(1.0)] * (width - 1) + [token]]
    data = ("\n".join(",".join(row) for row in rows) + "\n").encode()
    if defect == "not utf-8":
        cut = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"caf\xe9", b"\xed\xa0\x80"]))
        data = data[:cut] + bad + data[cut:]
    return data


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
    def check(data):
        path.write_bytes(data)
        _assert_clean_failure(argv, capsys, codes=(3,))

    check()
    assert not out_dir.exists(), "a malformed CSV ran a pipeline"
