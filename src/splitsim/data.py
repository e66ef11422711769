"""Dataset generation and CSV ingestion for the experiment harness.

The generators do not check their arguments: `harness.DatasetConfig`
holds the rules for `n`, `d_in` and `pos_frac`, and every run and
`gen-data` call builds its dataset from a checked config.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numeric import make_rng


class DataError(Exception):
    """Malformed dataset file."""


@dataclass
class Dataset:
    X: np.ndarray  # (n, d) float64 as generated or read; a run casts it to model.RUN_DTYPE
    y: np.ndarray  # (n,) int64 in {0, 1}

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def generate_synthetic(
    n: int,
    d_in: int,
    pos_frac: float,
    separation: float,
    noise_scale: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Two Gaussian clusters with class means `separation` apart.

    Labels are Bernoulli(pos_frac); class imbalance (pos_frac well below
    0.5) is the regime where gradient norms leak labels hardest.
    """
    rng = make_rng(seed)
    y = (rng.random(n) < pos_frac).astype(np.int64)
    direction = np.ones(d_in) / np.sqrt(d_in)
    offsets = (y - 0.5)[:, None] * separation * direction[None, :]
    X = noise_scale * rng.standard_normal((n, d_in)) + offsets
    return Dataset(X=X, y=y)


def generate_toy_1d(n: int, seed: int = 0) -> Dataset:
    """Ambiguous-positive 1-d mixture.

    Positives are uniform on [0, 1]; negatives are a 10%/90% mixture of
    uniform on [0, 1] and uniform on [1, 2], with balanced classes.  The
    Bayes-optimal classifier is only 10/11 confident on [0, 1], so even
    perfectly trained models stay underconfident about positives.
    """
    rng = make_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.int64)
    base = rng.random(n)
    in_overlap = rng.random(n) < 0.1
    x = np.where((y == 1) | in_overlap, base, 1.0 + base)
    return Dataset(X=x[:, None], y=y)


def load_csv(path) -> Dataset:
    """Load `label,f1,...,fk` rows of finite features whose per-column
    range is finite; features are linearly normalized to [0, 1] per
    column (constant columns map to 0)."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            if len(header) < 2 or header[0] != "label":
                raise DataError(f"{path}: header must be label,f1,...,fk, got {header!r}")
            n_cols = len(header)
            labels: list[int] = []
            rows: list[list[float]] = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != n_cols:
                    raise DataError(f"{path}:{lineno}: expected {n_cols} fields, got {len(row)}")
                if row[0] not in ("0", "1"):
                    raise DataError(f"{path}:{lineno}: non-binary label {row[0]!r}")
                labels.append(int(row[0]))
                try:
                    values = [float(v) for v in row[1:]]
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                if not all(map(math.isfinite, values)):
                    raise DataError(f"{path}:{lineno}: non-finite feature value in {row[1:]!r}")
                rows.append(values)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    X = np.array(rows, dtype=np.float64)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    for name, low, high in zip(header[1:], lo.tolist(), hi.tolist()):
        if not math.isfinite(high - low):  # Python floats overflow to inf silently
            raise DataError(f"{path}: column {name!r} range {low!r} to {high!r} overflows")
    span = hi - lo
    span[span == 0.0] = 1.0
    # a constant column is (lo - lo) / 1 = 0; adding +0.0 turns the -0.0 a
    # `-0` row leaves under a +0.0 minimum into +0.0
    X = (X - lo) / span + 0.0
    return Dataset(X=X, y=np.array(labels, dtype=np.int64))


def save_csv(dataset: Dataset, path) -> None:
    """Write `label,f1,...,fk` with full-precision floats."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i + 1}" for i in range(dataset.d)])
        for label, row in zip(dataset.y, dataset.X):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def split_sizes(n: int, test_frac: float) -> tuple[int, int]:
    """(train, test) row counts of a split of n rows: round(n * test_frac)
    test rows, at least one.  Raises ValueError when no training row is
    left."""
    n_test = max(1, int(round(n * test_frac)))
    if n - n_test < 1:
        raise ValueError(
            f"splitting {n} rows at test_frac {test_frac} leaves {n - n_test} training "
            f"and {n_test} test rows; at least 1 training row is needed"
        )
    return n - n_test, n_test


def train_test_split(dataset: Dataset, test_frac: float, rng: np.random.Generator):
    """Random split into (train, test), sized by split_sizes."""
    if not 0.0 < test_frac < 1.0:
        raise ValueError(f"test_frac must be in (0, 1), got {test_frac!r}")
    _, n_test = split_sizes(dataset.n, test_frac)
    perm = rng.permutation(dataset.n)
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    return (
        Dataset(X=dataset.X[train_idx], y=dataset.y[train_idx]),
        Dataset(X=dataset.X[test_idx], y=dataset.y[test_idx]),
    )
