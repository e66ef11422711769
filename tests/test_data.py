import numpy as np
import pytest

from oracles import bayes_posterior_toy_1d
from splitsim.data import (
    DataError,
    Dataset,
    generate_synthetic,
    generate_toy_1d,
    load_csv,
    save_csv,
    train_test_split,
)
from splitsim.harness import DatasetConfig
from splitsim.numeric import make_rng


def test_synthetic_positive_count_concentrates():
    ds = generate_synthetic(10**4, 5, pos_frac=0.1, separation=2.0, seed=0)
    n_pos = int(ds.y.sum())
    assert abs(n_pos - 1000) <= 120  # 4 binomial sigmas


def test_synthetic_class_means_separated():
    ds = generate_synthetic(20000, 10, pos_frac=0.3, separation=3.0, seed=1)
    gap = ds.X[ds.y == 1].mean(axis=0) - ds.X[ds.y == 0].mean(axis=0)
    assert np.linalg.norm(gap) == pytest.approx(3.0, abs=0.1)


def test_synthetic_deterministic():
    a = generate_synthetic(100, 4, 0.2, 1.0, seed=7)
    b = generate_synthetic(100, 4, 0.2, 1.0, seed=7)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_synthetic_validation():
    # DatasetConfig holds the synthetic generator's argument rules.
    for bad in ({"pos_frac": 0.0}, {"pos_frac": 1.0}, {"n": 0}, {"d_in": 0}):
        with pytest.raises(ValueError):
            DatasetConfig(kind="synthetic", **bad)


def test_toy1d_supports():
    ds = generate_toy_1d(10**4, seed=2)
    x = ds.X[:, 0]
    assert np.all(x[ds.y == 1] <= 1.0) and np.all(x[ds.y == 1] >= 0.0)
    neg = x[ds.y == 0]
    frac_low = float((neg <= 1.0).mean())
    assert abs(frac_low - 0.10) <= 0.02
    assert np.all(neg <= 2.0)


def test_toy1d_bayes_confidence_gap():
    # optimal classifier: P(y=1|x in [0,1]) = 10/11, so every positive
    # has confidence gap 1/11 while negatives in (1,2] have gap 0
    ds = generate_toy_1d(5000, seed=3)
    post = bayes_posterior_toy_1d(ds.X[:, 0])
    gap_pos = 1.0 - post[ds.y == 1]
    assert np.allclose(gap_pos, 1.0 / 11.0, atol=1e-12)
    neg_gap = post[ds.y == 0]
    frac_zero_gap = float((neg_gap == 0.0).mean())
    assert abs(frac_zero_gap - 0.9) <= 0.03


def test_csv_round_trip(tmp_path):
    # columns spanning [0, 1] exactly are untouched by normalization
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.25, 0.5]])
    y = np.array([1, 0, 0])
    path = tmp_path / "data.csv"
    save_csv(Dataset(X=X, y=y), path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.X, X)
    assert np.array_equal(loaded.y, y)


def test_csv_minimal_two_rows(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text("label,f1\n1,0.0\n0,1.0\n")
    ds = load_csv(path)
    assert ds.n == 2 and ds.d == 1


def test_csv_normalization(tmp_path):
    path = tmp_path / "norm.csv"
    path.write_text("label,f1,f2\n0,10,5\n1,20,5\n0,15,5\n")
    ds = load_csv(path)
    assert np.allclose(ds.X[:, 0], [0.0, 1.0, 0.5])
    assert np.all(ds.X[:, 1] == 0.0)  # constant column maps to 0


def test_csv_signed_zeros_map_to_positive_zero(tmp_path):
    # the minimum of a `0`/`-0` column is +0.0, and -0.0 - 0.0 is -0.0
    path = tmp_path / "zeros.csv"
    path.write_text("label,f1,f2\n0,0,-0\n1,-0,0\n0,0,1\n")
    ds = load_csv(path)
    assert np.array_equal(ds.X, [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert not np.signbit(ds.X).any()


def test_csv_non_binary_label_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f1\n1,0.5\n2,0.25\n")
    with pytest.raises(DataError, match=":3:"):
        load_csv(path)


def test_csv_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("label,f1,f2\n1,0.5,1.0\n0,0.25\n")
    with pytest.raises(DataError, match=":3:"):
        load_csv(path)


def test_csv_non_numeric_feature(tmp_path):
    path = tmp_path / "bad3.csv"
    path.write_text("label,f1\n1,abc\n")
    with pytest.raises(DataError, match=":2:"):
        load_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_csv_non_finite_feature(tmp_path, value):
    # float() parses these, but a non-finite feature would train to a nan loss
    path = tmp_path / "bad4.csv"
    path.write_text(f"label,f1,f2\n0,0.5,1.0\n1,0.25,{value}\n")
    with pytest.raises(DataError, match=":3: non-finite"):
        load_csv(path)


def test_csv_overflowing_column_range(tmp_path):
    # each value is finite, but f2's max - min overflows to inf, which
    # would normalize the column to nan features
    path = tmp_path / "wide.csv"
    path.write_text("label,f1,f2\n0,0.5,1e308\n1,0.25,-1e308\n")
    with pytest.raises(DataError, match="column 'f2' range -1e\\+308 to 1e\\+308 overflows"):
        load_csv(path)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("y,f1\n1,0.0\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path)


@pytest.mark.parametrize("row", [0, 3000], ids=["header", "late_row"])
def test_csv_not_utf8_names_path(tmp_path, row):
    # a byte that is not UTF-8, in the first buffer read or far past it
    path = tmp_path / "latin1.csv"
    rows = [b"label,f1\n"] + [b"1,0.5\n", b"0,0.25\n"] * 2000
    rows[row] = b"0,\xe9\n" if row else b"label,f\xe9\n"
    path.write_bytes(b"".join(rows))
    with pytest.raises(DataError, match=f"{path.name}: not UTF-8"):
        load_csv(path)


def test_train_test_split():
    ds = generate_synthetic(1000, 3, 0.3, 1.0, seed=4)
    train, test = train_test_split(ds, 0.2, make_rng(5))
    assert train.n == 800 and test.n == 200
    merged = np.sort(np.concatenate([train.X[:, 0], test.X[:, 0]]))
    assert np.array_equal(merged, np.sort(ds.X[:, 0]))
    with pytest.raises(ValueError):
        train_test_split(ds, 0.0, make_rng(5))


@pytest.mark.parametrize("n, test_frac, sizes", [(1, 0.2, "0 training and 1 test"),
                                                 (3, 0.9, "0 training and 3 test")])
def test_train_test_split_without_training_rows(n, test_frac, sizes):
    ds = generate_synthetic(n, 2, 0.5, 1.0, seed=4)
    with pytest.raises(ValueError, match=sizes):
        train_test_split(ds, test_frac, make_rng(5))
