"""Persistence: versioned posterior text files and CSV dataset handling.

All writers go through an atomic temp-file-plus-rename so a crash never
leaves a half-written artifact behind.
"""

import csv
import os
import tempfile

import numpy as np

from .exceptions import (
    DataFormatError,
    InvalidLabelError,
    PosteriorIOError,
)
from .posterior import Hyperparameters, VariationalPosterior

POSTERIOR_FORMAT = "gaussian-posterior"
POSTERIOR_VERSION = 1

# 17 significant digits round-trip IEEE doubles exactly.
_FLOAT_FMT = "{:.17g}"


def _fmt(value):
    if value is None:
        return "none"
    return _FLOAT_FMT.format(float(value))


def atomic_write_text(path, text):
    """Write text to path via a temporary file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Atomically write a CSV file with one header row."""
    lines = [",".join(str(c) for c in header)]
    for row in rows:
        lines.append(
            ",".join(
                _FLOAT_FMT.format(c) if isinstance(c, float) else str(c) for c in row
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_posterior(post, hyper, path, seed=None):
    """Write a posterior and its hyperparameters as versioned structured text.

    The factor is written as M dense rows, block-diagonal factors included.
    """
    lines = [f"{POSTERIOR_FORMAT} {POSTERIOR_VERSION}"]
    lines.append(f"m {post.dim}")
    lines.append(f"seed {'none' if seed is None else int(seed)}")
    lines.append(f"alpha {_fmt(hyper.alpha)}")
    lines.append(f"beta {_fmt(hyper.beta)}")
    lines.append("mu " + " ".join(_FLOAT_FMT.format(v) for v in post.mu))
    for row in post.dense_factor():
        lines.append("L " + " ".join(_FLOAT_FMT.format(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_optional_float(token, what):
    if token == "none":
        return None
    try:
        return float(token)
    except ValueError as exc:
        raise PosteriorIOError(f"cannot parse {what}: {token!r}") from exc


def load_posterior(path):
    """Read a posterior file; returns (posterior, hyperparameters, seed).

    Rejects unknown versions, truncated or malformed files, and any
    content violating the posterior invariants (wrong lengths, non-square
    factor).
    """
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise PosteriorIOError(f"{path}: empty posterior file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != POSTERIOR_FORMAT:
        raise PosteriorIOError(f"{path}: not a {POSTERIOR_FORMAT} file")
    if head[1] != str(POSTERIOR_VERSION):
        raise PosteriorIOError(
            f"{path}: format version {head[1]} unsupported "
            f"(expected {POSTERIOR_VERSION})"
        )

    fields = {}
    mu = None
    factor_rows = []
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "mu":
            mu = rest.split()
        elif key == "L":
            factor_rows.append(rest.split())
        else:
            fields[key] = rest.strip()

    for required in ("m", "seed", "alpha"):
        if required not in fields:
            raise PosteriorIOError(f"{path}: missing field {required!r}")
    if mu is None:
        raise PosteriorIOError(f"{path}: missing mu line")
    try:
        m = int(fields["m"])
        mu = np.array([float(v) for v in mu])
        factor = np.array([[float(v) for v in row] for row in factor_rows])
    except ValueError as exc:
        raise PosteriorIOError(f"{path}: malformed numeric field: {exc}") from exc
    if mu.size != m:
        raise PosteriorIOError(f"{path}: m declares {m} but mu has {mu.size} entries")
    if factor.shape != (m, m):
        raise PosteriorIOError(
            f"{path}: m declares {m} but L has shape {factor.shape}"
        )
    seed = None if fields["seed"] == "none" else int(fields["seed"])
    alpha = _parse_optional_float(fields["alpha"], "alpha")
    beta = _parse_optional_float(fields.get("beta", "none"), "beta")
    post = VariationalPosterior(mu, factor)
    return post, Hyperparameters(alpha=alpha, beta=beta), seed


def _parse_cell(token, path, line_no):
    try:
        return float(token)
    except ValueError as exc:
        raise DataFormatError(
            f"{path}:{line_no}: non-numeric cell {token!r}", line=line_no
        ) from exc


def load_csv_dataset(path, schema, n_classes=None, header=False):
    """Load a rectangular numeric CSV as (inputs, targets).

    schema "regression": last column is the real-valued target.
    schema "binary": last column must be 0 or 1.
    schema "one-hot": last n_classes columns must be a valid 1-of-K row.
    Error messages carry 1-based line numbers (header included in the count).
    """
    if schema not in ("regression", "binary", "one-hot"):
        raise DataFormatError(f"unknown schema {schema!r}")
    if schema == "one-hot" and (n_classes is None or n_classes < 2):
        raise DataFormatError("one-hot schema needs n_classes >= 2")

    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        width = None
        for line_no, row in enumerate(reader, start=1):
            if header and line_no == 1:
                continue
            if not row:
                continue
            if width is None:
                width = len(row)
                n_targets = n_classes if schema == "one-hot" else 1
                if width < n_targets + 1:
                    raise DataFormatError(
                        f"{path}:{line_no}: need at least {n_targets + 1} columns, "
                        f"found {width}",
                        line=line_no,
                    )
            if len(row) != width:
                raise DataFormatError(
                    f"{path}:{line_no}: expected {width} columns, found {len(row)}",
                    line=line_no,
                )
            rows.append(
                ([_parse_cell(c.strip(), path, line_no) for c in row], line_no)
            )
    if not rows:
        raise DataFormatError(f"{path}: no data rows")

    data = np.array([r for r, _ in rows])
    line_nos = [ln for _, ln in rows]
    if schema == "regression":
        return data[:, :-1], data[:, -1]
    if schema == "binary":
        labels = data[:, -1]
        for value, ln in zip(labels, line_nos):
            if value not in (0.0, 1.0):
                raise InvalidLabelError(
                    f"{path}:{ln}: binary label must be 0 or 1, found {value}"
                )
        return data[:, :-1], labels.astype(int)
    onehot = data[:, -n_classes:]
    for row, ln in zip(onehot, line_nos):
        if not (np.isin(row, (0.0, 1.0)).all() and row.sum() == 1.0):
            raise InvalidLabelError(
                f"{path}:{ln}: last {n_classes} columns are not one-hot: {row}"
            )
    return data[:, :-n_classes], onehot
