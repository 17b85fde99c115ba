"""Posterior file round trips, format rejection, and CSV dataset loading."""

import os

import numpy as np
import pytest

from fsvi import (
    Hyperparameters,
    VariationalPosterior,
    load_csv_dataset,
    load_posterior,
    save_posterior,
)
from fsvi.exceptions import (
    DataFormatError,
    InvalidLabelError,
    PosteriorIOError,
)
from fsvi.io import atomic_write_text, write_csv


def random_posterior(seed, m=5):
    rng = np.random.default_rng(seed)
    # Awkward magnitudes exercise the full 17-digit float formatting.
    mu = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m)
    factor = rng.standard_normal((m, m)) + np.eye(m)
    return VariationalPosterior(mu, factor)


# ------------------------------------------------------------- posterior file


def test_posterior_round_trip_is_bit_exact(tmp_path):
    path = str(tmp_path / "post.txt")
    for seed in range(5):
        post = random_posterior(seed)
        hyper = Hyperparameters(alpha=np.pi * 10.0**seed, beta=1.0 / 3.0)
        save_posterior(post, hyper, path, seed=seed)
        loaded, loaded_hyper, loaded_seed = load_posterior(path)
        assert np.array_equal(loaded.mu, post.mu), "mu failed to round-trip"
        assert np.array_equal(loaded.L, post.L), "L failed to round-trip"
        assert loaded_hyper.alpha == hyper.alpha
        assert loaded_hyper.beta == hyper.beta
        assert loaded_seed == seed


def test_block_posterior_is_written_densely(tmp_path):
    path = str(tmp_path / "post.txt")
    rng = np.random.default_rng(4)
    blocks = rng.standard_normal((3, 2, 2)) + np.eye(2)
    post = VariationalPosterior(rng.standard_normal(6), blocks)
    save_posterior(post, Hyperparameters(alpha=1.0), path, seed=1)
    rows = [line for line in open(path) if line.startswith("L ")]
    assert len(rows) == 6 and all(len(r.split()) == 7 for r in rows)
    loaded, _, _ = load_posterior(path)
    assert loaded.L.shape == (6, 6)
    assert np.array_equal(loaded.L, post.dense_factor())
    assert np.array_equal(loaded.mu, post.mu)
    assert np.array_equal(loaded.covariance(), post.covariance())


def test_posterior_none_fields_round_trip(tmp_path):
    path = str(tmp_path / "post.txt")
    post = random_posterior(0, m=2)
    save_posterior(post, Hyperparameters(alpha=None, beta=None), path)
    _, hyper, seed = load_posterior(path)
    assert hyper.alpha is None and hyper.beta is None and seed is None


def test_posterior_rewrite_is_identical(tmp_path):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    post = random_posterior(3)
    hyper = Hyperparameters(0.1, 2.0)
    save_posterior(post, hyper, a, seed=1)
    save_posterior(post, hyper, b, seed=1)
    assert open(a).read() == open(b).read()


def test_no_temp_files_left_behind(tmp_path):
    path = str(tmp_path / "post.txt")
    save_posterior(random_posterior(1, m=3), Hyperparameters(1.0), path)
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == [], f"stray temp files: {leftovers}"


def _write(tmp_path, text):
    path = str(tmp_path / "bad.txt")
    atomic_write_text(path, text)
    return path


def test_load_rejects_empty_file(tmp_path):
    path = _write(tmp_path, "\n\n")
    with pytest.raises(PosteriorIOError, match="empty"):
        load_posterior(path)


def test_load_rejects_foreign_file(tmp_path):
    path = _write(tmp_path, "something else entirely\n")
    with pytest.raises(PosteriorIOError, match="not a"):
        load_posterior(path)


def test_load_rejects_unknown_version(tmp_path):
    path = _write(tmp_path, "gaussian-posterior 99\nm 1\nseed none\nalpha none\nmu 0\nL 1\n")
    with pytest.raises(PosteriorIOError, match="version"):
        load_posterior(path)


@pytest.mark.parametrize("missing", ["m", "seed", "alpha"])
def test_load_rejects_missing_header_field(tmp_path, missing):
    fields = {"m": "m 1", "seed": "seed none", "alpha": "alpha 1"}
    del fields[missing]
    body = "\n".join(["gaussian-posterior 1", *fields.values(), "mu 0", "L 1"])
    path = _write(tmp_path, body + "\n")
    with pytest.raises(PosteriorIOError, match=f"missing field '{missing}'"):
        load_posterior(path)


def test_load_rejects_missing_mu(tmp_path):
    path = _write(tmp_path, "gaussian-posterior 1\nm 1\nseed none\nalpha 1\nL 1\n")
    with pytest.raises(PosteriorIOError, match="missing mu"):
        load_posterior(path)


def test_load_rejects_malformed_numbers(tmp_path):
    path = _write(
        tmp_path, "gaussian-posterior 1\nm 1\nseed none\nalpha 1\nmu zero\nL 1\n"
    )
    with pytest.raises(PosteriorIOError, match="malformed numeric"):
        load_posterior(path)


def test_load_rejects_wrong_mu_length(tmp_path):
    path = _write(
        tmp_path,
        "gaussian-posterior 1\nm 2\nseed none\nalpha 1\nmu 0\nL 1 0\nL 0 1\n",
    )
    with pytest.raises(PosteriorIOError, match="mu has 1"):
        load_posterior(path)


def test_load_rejects_wrong_factor_shape(tmp_path):
    path = _write(
        tmp_path,
        "gaussian-posterior 1\nm 2\nseed none\nalpha 1\nmu 0 0\nL 1 0\n",
    )
    with pytest.raises(PosteriorIOError, match="L has shape"):
        load_posterior(path)


def test_load_rejects_bad_alpha_token(tmp_path):
    path = _write(
        tmp_path,
        "gaussian-posterior 1\nm 1\nseed none\nalpha wide\nmu 0\nL 1\n",
    )
    with pytest.raises(PosteriorIOError, match="cannot parse alpha"):
        load_posterior(path)


def test_load_rejects_non_integer_seed(tmp_path):
    path = _write(
        tmp_path,
        "gaussian-posterior 1\nm 1\nseed abc\nalpha 1\nmu 0\nL 1\n",
    )
    with pytest.raises(PosteriorIOError, match="malformed numeric"):
        load_posterior(path)


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "post.txt"
    path.write_bytes(b"gaussian-posterior 1\nm 1\nseed none\nalpha 1\nmu 0\xff\nL 1\n")
    with pytest.raises(PosteriorIOError, match="not UTF-8"):
        load_posterior(str(path))


_VALID_POSTERIOR_LINES = (
    "gaussian-posterior 1", "m 2", "seed 3", "alpha 1", "beta 2",
    "mu 0.5 -1", "L 1 0", "L 0.25 2",
)


def test_hand_written_valid_file_loads(tmp_path):
    # The base every rejection case below edits one line of.
    post, hyper, seed = load_posterior(
        _write(tmp_path, "\n".join(_VALID_POSTERIOR_LINES) + "\n")
    )
    assert np.array_equal(post.mu, [0.5, -1.0])
    assert np.array_equal(post.L, [[1.0, 0.0], [0.25, 2.0]])
    assert (hyper.alpha, hyper.beta, seed) == (1.0, 2.0, 3)


@pytest.mark.parametrize(
    "index, line, match",
    [
        (5, "mu nan -1", "must be finite"),
        (5, "mu 0.5 inf", "must be finite"),
        (7, "L 0.25 nan", "must be finite"),
        (6, "L -inf 0", "must be finite"),
        (1, "m 2\nm 2", "repeated 'm' line"),
        (2, "seed 3\nseed 4", "repeated 'seed' line"),
        (3, "alpha 1\nalpha 2", "repeated 'alpha' line"),
        (4, "beta 2\nbeta 2", "repeated 'beta' line"),
        (5, "mu 0.5 -1\nmu 1 1", "repeated 'mu' line"),
        (3, "alpha -1", "alpha must be positive"),
        (3, "alpha inf", "alpha must be positive"),
        (3, "alpha nan", "alpha must be positive"),
        (4, "beta -1", "beta must be positive"),
        (4, "beta inf", "beta must be positive"),
        (4, "beta 0", "beta must be positive"),
    ],
)
def test_load_rejects_what_save_never_writes(tmp_path, index, line, match):
    lines = list(_VALID_POSTERIOR_LINES)
    lines[index] = line
    path = _write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(PosteriorIOError, match=match):
        load_posterior(path)


def test_file_without_a_beta_line_loads(tmp_path):
    lines = [ln for ln in _VALID_POSTERIOR_LINES if not ln.startswith("beta")]
    _, hyper, _ = load_posterior(_write(tmp_path, "\n".join(lines) + "\n"))
    assert hyper.alpha == 1.0 and hyper.beta is None


# ------------------------------------------------------------------- datasets


def _csv(tmp_path, text, name="data.csv"):
    path = str(tmp_path / name)
    atomic_write_text(path, text)
    return path


def test_regression_csv(tmp_path):
    path = _csv(tmp_path, "1.0,2.0,3.5\n4.0,5.0,-1.25\n")
    x, y = load_csv_dataset(path, "regression")
    assert np.array_equal(x, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(y, [3.5, -1.25])


def test_binary_csv(tmp_path):
    path = _csv(tmp_path, "0.5,1\n-0.5,0\n")
    x, y = load_csv_dataset(path, "binary")
    assert np.array_equal(y, [1, 0])
    assert y.dtype.kind == "i"


def test_one_hot_csv(tmp_path):
    path = _csv(tmp_path, "0.1,0.2,1,0,0\n0.3,0.4,0,0,1\n")
    x, y = load_csv_dataset(path, "one-hot", n_classes=3)
    assert x.shape == (2, 2)
    assert np.array_equal(y, [[1, 0, 0], [0, 0, 1]])


def test_blank_lines_are_ignored(tmp_path):
    path = _csv(tmp_path, "1.0,2.0\n\n3.0,4.0\n\n")
    x, y = load_csv_dataset(path, "regression")
    assert x.shape == (2, 1)


def test_non_numeric_cell_reports_line(tmp_path):
    path = _csv(tmp_path, "1.0,2.0\n1.0,oops\n")
    with pytest.raises(DataFormatError, match=":2: non-numeric cell 'oops'") as excinfo:
        load_csv_dataset(path, "regression")
    assert excinfo.value.line == 2


def test_ragged_rows_report_line(tmp_path):
    path = _csv(tmp_path, "1.0,2.0\n3.0,4.0,5.0\n")
    with pytest.raises(DataFormatError, match=":2: expected 2 columns, found 3"):
        load_csv_dataset(path, "regression")


def test_bad_binary_label_reports_line(tmp_path):
    path = _csv(tmp_path, "0.5,1\n0.5,2\n")
    with pytest.raises(InvalidLabelError, match=":2: binary label"):
        load_csv_dataset(path, "binary")


def test_bad_one_hot_row_reports_line(tmp_path):
    path = _csv(tmp_path, "0.1,1,0\n0.2,1,1\n")
    with pytest.raises(InvalidLabelError, match=":2: last 2 columns"):
        load_csv_dataset(path, "one-hot", n_classes=2)


def test_too_few_columns(tmp_path):
    path = _csv(tmp_path, "1.0\n")
    with pytest.raises(DataFormatError, match="at least 2 columns"):
        load_csv_dataset(path, "regression")


def test_empty_dataset(tmp_path):
    path = _csv(tmp_path, "\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        load_csv_dataset(path, "regression")


def test_unknown_schema(tmp_path):
    path = _csv(tmp_path, "1.0,2.0\n")
    with pytest.raises(DataFormatError, match="unknown schema"):
        load_csv_dataset(path, "ordinal")
    with pytest.raises(DataFormatError, match="n_classes"):
        load_csv_dataset(path, "one-hot")


def test_write_csv_round_trip(tmp_path):
    path = str(tmp_path / "table.csv")
    write_csv(path, ["a", "b"], [[1.5, 2], [1.0 / 3.0, 4]])
    lines = open(path).read().splitlines()
    assert lines[0] == "a,b"
    assert float(lines[2].split(",")[0]) == 1.0 / 3.0, "float formatting lost precision"
