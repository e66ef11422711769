import numpy as np
import pytest

from oracles import cut_gradients, masked_cosine_scores, midrank_auc
from splitsim import attacks, harness
from splitsim.attacks import leak_auc, quantile, roc_auc, select_oracle_positive, split_labels
from splitsim.model import Layer, LayerSpec, SplitNet, forward
from splitsim.numeric import make_rng


def test_roc_auc_hand_example():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1, 0, 1, 0])
    assert roc_auc(scores, labels) == pytest.approx(0.75, abs=1e-15)


def test_roc_auc_pure_ties():
    assert roc_auc(np.ones(10), np.array([1] * 4 + [0] * 6)) == pytest.approx(0.5)


def test_roc_auc_single_class_is_none():
    assert roc_auc(np.array([1.0, 2.0]), np.array([1, 1])) is None
    assert roc_auc(np.array([1.0, 2.0]), np.array([0, 0])) is None


def test_roc_auc_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="equal-length vectors"):
        roc_auc(np.array([0.1, 0.2, 0.3]), np.array([1, 0]))


def test_roc_auc_invariant_under_monotone_transform():
    rng = make_rng(1)
    scores = rng.standard_normal(40)
    labels = rng.integers(0, 2, size=40)
    labels[0], labels[1] = 0, 1
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)


def test_roc_auc_complement_symmetries():
    rng = make_rng(2)
    scores = np.round(rng.standard_normal(50), 1)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    base = roc_auc(scores, labels)
    assert roc_auc(-scores, labels) == pytest.approx(1.0 - base, abs=1e-12)
    assert roc_auc(scores, 1 - labels) == pytest.approx(1.0 - base, abs=1e-12)


def _auc_cases(rng, count):
    """Seeded (scores, labels) with both classes present: continuous
    scores, heavy ties, only special values (+-0.0, +-inf, NaN), and a
    mix; every tenth case has a single positive, and every tenth from
    the fifth on a single negative."""
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for case in range(count):
        n = int(rng.integers(2, 1001 if case % 25 == 0 else 120))
        kind = case % 4
        if kind == 0:
            scores = rng.standard_normal(n)
        elif kind == 1:
            scores = rng.integers(-3, 4, size=n).astype(np.float64)
        elif kind == 2:
            scores = rng.choice(specials, size=n)
        else:
            ties = rng.integers(-2, 3, size=n).astype(np.float64)
            scores = np.where(rng.random(n) < 0.3, rng.choice(specials, size=n), ties)
        if case % 10 == 0:
            labels = np.zeros(n, dtype=np.int64)
            labels[rng.integers(0, n)] = 1
        elif case % 10 == 5:
            labels = np.ones(n, dtype=np.int64)
            labels[rng.integers(0, n)] = 0
        else:
            labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.int64)
            labels[0], labels[-1] = 1, 0
        yield scores, labels


def test_roc_auc_bitwise_matches_midrank():
    for scores, labels in _auc_cases(make_rng(41), 400):
        assert roc_auc(scores, labels).hex() == midrank_auc(scores, labels).hex()


def test_leak_auc_bitwise_matches_midrank():
    # the norm attack ranks the norms it is given with roc_auc's core
    for scores, labels in _auc_cases(make_rng(42), 400):
        auc = leak_auc(np.empty((scores.shape[0], 0)), split_labels(labels), scores)
        assert auc.hex() == midrank_auc(scores, labels).hex()


def test_split_labels():
    pos, neg, n_pos, n_neg = split_labels(np.array([1, 0, 0, 1, 0]))
    assert pos.tolist() == [True, False, False, True, False]
    assert neg.tolist() == [False, True, True, False, True]
    assert (n_pos, n_neg) == (2, 3)
    assert split_labels(np.zeros(3, dtype=int))[2:] == (0, 3)


def _edge_matrices(rng, dtype):
    """Random matrices of `dtype` with zero rows, subnormal rows, rows
    near the edge where their squares overflow and rows holding inf."""
    tiny = np.finfo(dtype).smallest_subnormal
    big = 1e154 if dtype == np.float64 else 1e19  # squared: below the max; doubled: above
    for case in range(60):
        m = rng.standard_normal((int(rng.integers(1, 40)), int(rng.integers(1, 400))))
        m = (m * 10.0 ** rng.uniform(-3.0, 3.0)).astype(dtype)
        rows = rng.integers(0, m.shape[0], size=4)
        m[rows[0]] = 0.0
        m[rows[1]] = tiny * rng.integers(-1000, 1000, size=m.shape[1])
        m[rows[2], : 1 + case % 3] = big * (1 + case % 2)
        if case % 2:
            m[rows[3], case % m.shape[1]] = np.inf if case % 4 == 1 else -np.inf
        yield m


def test_norm_expressions_bitwise_match_linalg_norm():
    # train_run's row norms (one dot per row) and oracle norm are
    # np.linalg.norm's own formula for a real vector, so in either dtype
    # each must give np.linalg.norm(row)'s bits exactly
    with np.errstate(over="ignore"):  # squares past the float range are inf
        for dtype in (np.float32, np.float64):
            for m in _edge_matrices(make_rng(43), dtype):
                rows = np.sqrt(np.vecdot(m, m))
                assert rows.dtype == dtype
                assert rows.tobytes() == np.array([np.linalg.norm(o) for o in m]).tobytes()
                for o in m:
                    assert np.sqrt(o.dot(o)).tobytes() == np.linalg.norm(o).tobytes()


def test_train_run_norms_are_linalg_norms(monkeypatch):
    # what train_run hands leak_auc: np.linalg.norm of each received row
    # and of the oracle, bit for bit, and the batch's own label split
    seen = []

    def spy(gradients, split, norms, oracle=None, oracle_norm=None):
        seen.append((gradients, split, norms, oracle, oracle_norm))
        return 0.5

    monkeypatch.setattr(harness, "leak_auc", spy)
    config = harness.config_from_dict(
        {"dataset": {"n": 400}, "batch_size": 16, "iterations": 30,
         "mechanism": {"kind": "marvell", "s": 1.0}}
    )
    harness.train_run(config)
    assert len(seen) > 20
    for gradients, (pos, neg, n_pos, n_neg), norms, oracle, oracle_norm in seen:
        assert norms.tobytes() == np.array([np.linalg.norm(r) for r in gradients]).tobytes()
        assert 0 < n_pos == pos.sum() and 0 < n_neg == neg.sum()
        assert (pos ^ neg).all() and n_pos + n_neg == gradients.shape[0]
        if oracle is not None:
            assert oracle.dtype.type(oracle_norm).tobytes() == np.linalg.norm(oracle).tobytes()


def test_roc_auc_nan_and_signed_zero_ties():
    # NaN sorts above every number and ties with NaN; -0.0 ties with 0.0
    labels = np.array([1, 0, 0])
    assert roc_auc(np.array([np.nan, np.inf, np.nan]), labels) == 0.75
    assert roc_auc(np.array([-0.0, 0.0, -1.0]), labels) == 0.75


def test_leak_auc_ranks_float32_as_float64(monkeypatch):
    # a run's received rows are float32, so leak_auc ranks float32 scores;
    # float32 -> float64 is exact and keeps every order and tie (NaN, and
    # -0.0 with 0.0), so the AUC is the same bits as roc_auc's
    rng = make_rng(15)
    oracle = np.array([1.0, 2.0, -1.0], dtype=np.float32)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        split = split_labels(labels)
        scores = rng.integers(-3, 4, size=n).astype(np.float32) / np.float32(7.0)
        scores[rng.random(n) < 0.2] = -0.0
        scores[rng.random(n) < 0.1] = np.nan
        rows = rng.integers(-2, 3, size=(n, 3)).astype(np.float32)  # tied and zero rows
        assert leak_auc(rows, split, scores) == roc_auc(scores.astype(np.float64), labels)
        cosines = _scores(monkeypatch, rows, oracle)
        assert cosines.dtype == np.float32
        norms = np.linalg.norm(rows, axis=1)
        got = leak_auc(rows, split, norms, oracle, np.linalg.norm(oracle))
        assert got == roc_auc(cosines.astype(np.float64), labels)


def _scores(monkeypatch, gradients, oracle=None):
    """The scores leak_auc ranks: what it hands the AUC core for `gradients`."""
    seen = []
    monkeypatch.setattr(attacks, "_mann_whitney", lambda scores, split: seen.append(scores) or 0.5)
    split = split_labels(np.arange(gradients.shape[0]) % 2)
    oracle_norm = None if oracle is None else np.linalg.norm(oracle)
    leak_auc(gradients, split, np.linalg.norm(gradients, axis=1), oracle, oracle_norm)
    monkeypatch.undo()
    return seen[0]


def test_norm_score(monkeypatch):
    g = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
    scores = _scores(monkeypatch, g)
    assert scores[0] == pytest.approx(5.0)
    assert scores[1] == 0.0
    assert _scores(monkeypatch, 2.0 * g)[2] == pytest.approx(2.0 * scores[2])


def test_cosine_score(monkeypatch):
    g = np.array([1.0, 2.0, -1.0])
    rows = np.vstack([g, -g, np.zeros(3)])
    scores = _scores(monkeypatch, rows, g)
    assert scores[0] == pytest.approx(1.0)
    assert scores[1] == pytest.approx(-1.0)
    assert scores[2] == 0.0  # zero row: uninformative, not an error
    e1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert _scores(monkeypatch, e1, np.array([0.0, 2.0]))[0] == pytest.approx(0.0)
    with pytest.raises(ValueError, match="oracle gradient must be nonzero"):
        leak_auc(e1, split_labels(np.array([1, 0])), np.linalg.norm(e1, axis=1), np.zeros(2), 0.0)


def _positives(labels):
    """The positive row indices train_run takes from split_labels' mask."""
    return np.flatnonzero(split_labels(np.asarray(labels))[0])


def test_select_oracle_positive():
    assert select_oracle_positive(_positives([0, 0, 1, 0]), make_rng(3)) == 2
    with pytest.raises(ValueError, match="high <= 0"):
        select_oracle_positive(_positives(np.zeros(4, dtype=int)), make_rng(3))
    labels2 = np.array([1, 0, 1, 1])
    a = select_oracle_positive(_positives(labels2), make_rng(4))
    b = select_oracle_positive(_positives(labels2), make_rng(4))
    assert a == b and labels2[a] == 1


def test_select_oracle_positive_draws_as_choice():
    # the same index sequence, and the same stream left behind, as rng.choice
    rng_a, rng_b = make_rng(12), make_rng(12)
    labels_rng = make_rng(13)
    for _ in range(200):
        labels = (labels_rng.random(int(labels_rng.integers(1, 300))) < 0.2).astype(int)
        labels[0] = 1
        pos_idx = np.flatnonzero(labels == 1)
        assert select_oracle_positive(pos_idx, rng_a) == int(rng_b.choice(pos_idx))
    assert rng_a.random() == rng_b.random()


def test_cosine_scores_bitwise_match_masked_copy(monkeypatch):
    rng = make_rng(14)
    g_plus = rng.standard_normal(384)
    for zero_rows in ((), (0, 17, 255)):
        g = rng.standard_normal((256, 384))
        g[list(zero_rows)] = 0.0
        scores = _scores(monkeypatch, g, g_plus)
        assert scores.tobytes() == masked_cosine_scores(g, g_plus).tobytes()
        assert np.all(scores[list(zero_rows)] == 0.0)


def test_leak_auc_separated_norms():
    rng = make_rng(5)
    d = 8
    pos = 5.0 * rng.standard_normal((6, d)) + 10.0
    neg = 0.1 * rng.standard_normal((10, d))
    g = np.vstack([pos, neg])
    labels = np.array([1] * 6 + [0] * 10)
    assert leak_auc(g, split_labels(labels), np.linalg.norm(g, axis=1)) == 1.0


def test_leak_auc_permutation_null():
    rng = make_rng(6)
    n = 10**4
    g = rng.standard_normal((n, 4))
    labels = rng.integers(0, 2, size=n)
    auc = leak_auc(g, split_labels(labels), np.linalg.norm(g, axis=1))
    assert abs(auc - 0.5) <= 0.02


def test_leak_auc_cosine_exact_with_linear_h(monkeypatch):
    # pure-linear h: all h-gradients identical, so sign(prob - y) alone
    # determines the cosine and the attack is exact on a mixed batch
    rng = make_rng(7)
    d = 4
    w = rng.standard_normal(d)
    f_layer = Layer(LayerSpec(d, d, "identity"), np.eye(d), np.zeros(d))
    h_layer = Layer(LayerSpec(d, 1, "identity"), w[:, None].copy(), np.zeros(1))
    net = SplitNet(f_layers=[f_layer], h_layers=[h_layer])
    X = rng.standard_normal((32, d))
    y = np.array([1] * 8 + [0] * 24)
    state = forward(net, X)
    g = cut_gradients(state, y)
    g_plus = g[select_oracle_positive(_positives(y), make_rng(8))]
    scores = _scores(monkeypatch, g, g_plus)
    assert np.all(scores[y == 1] == pytest.approx(1.0))
    assert np.all(scores[y == 0] == pytest.approx(-1.0))
    norms = np.linalg.norm(g, axis=1)
    assert leak_auc(g, split_labels(y), norms, g_plus, np.linalg.norm(g_plus)) == 1.0


def test_quantile():
    assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 1.0) == 5.0
    assert quantile([2.5] * 9, 0.37) == 2.5
    assert quantile(np.arange(101.0), 0.95) == pytest.approx(95.0)
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)
