import numpy as np
import pytest

from splitsim.attacks import (
    CosineScorer,
    NormScorer,
    UndefinedAUCError,
    leak_auc,
    quantile,
    roc_auc,
    select_oracle_positive,
)
from splitsim.model import Layer, LayerSpec, SplitNet, forward, label_party_gradients
from splitsim.numeric import make_rng


def brute_force_auc(scores, labels):
    """O(n^2) pairwise oracle: concordant pairs plus half the ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_roc_auc_hand_example():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1, 0, 1, 0])
    assert roc_auc(scores, labels) == pytest.approx(0.75, abs=1e-15)


def test_roc_auc_pure_ties():
    assert roc_auc(np.ones(10), np.array([1] * 4 + [0] * 6)) == pytest.approx(0.5)


def test_roc_auc_matches_pairwise_oracle():
    rng = make_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 65))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.standard_normal(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force ties
        assert abs(roc_auc(scores, labels) - brute_force_auc(scores, labels)) <= 1e-12


def test_roc_auc_single_class_errors():
    with pytest.raises(UndefinedAUCError):
        roc_auc(np.array([1.0, 2.0]), np.array([1, 1]))
    with pytest.raises(UndefinedAUCError):
        roc_auc(np.array([1.0, 2.0]), np.array([0, 0]))


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


def test_norm_score():
    g = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
    scores = NormScorer().scores(g)
    assert scores[0] == pytest.approx(5.0)
    assert scores[1] == 0.0
    assert NormScorer().scores(2.0 * g)[2] == pytest.approx(2.0 * scores[2])


def test_cosine_score():
    g = np.array([1.0, 2.0, -1.0])
    scores = CosineScorer(g).scores(np.vstack([g, -g, np.zeros(3)]))
    assert scores[0] == pytest.approx(1.0)
    assert scores[1] == pytest.approx(-1.0)
    assert scores[2] == 0.0  # zero row: uninformative, not an error
    e1 = np.array([[1.0, 0.0]])
    assert CosineScorer(np.array([0.0, 2.0])).scores(e1)[0] == pytest.approx(0.0)
    with pytest.raises(ValueError):
        CosineScorer(np.zeros(2)).scores(e1)


def test_select_oracle_positive():
    labels = np.array([0, 0, 1, 0])
    assert select_oracle_positive(labels, make_rng(3)) == 2
    with pytest.raises(UndefinedAUCError):
        select_oracle_positive(np.zeros(4, dtype=int), make_rng(3))
    labels2 = np.array([1, 0, 1, 1])
    a = select_oracle_positive(labels2, make_rng(4))
    b = select_oracle_positive(labels2, make_rng(4))
    assert a == b and labels2[a] == 1


def test_leak_auc_separated_norms():
    rng = make_rng(5)
    d = 8
    pos = 5.0 * rng.standard_normal((6, d)) + 10.0
    neg = 0.1 * rng.standard_normal((10, d))
    g = np.vstack([pos, neg])
    labels = np.array([1] * 6 + [0] * 10)
    assert leak_auc(g, labels, NormScorer()) == 1.0


def test_leak_auc_permutation_null():
    rng = make_rng(6)
    n = 10**4
    g = rng.standard_normal((n, 4))
    labels = rng.integers(0, 2, size=n)
    auc = leak_auc(g, labels, NormScorer())
    assert abs(auc - 0.5) <= 0.02


def test_leak_auc_cosine_exact_with_linear_h():
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
    g = label_party_gradients(state, y)[0]
    g_plus = g[select_oracle_positive(y, make_rng(8))]
    scores = CosineScorer(g_plus).scores(g)
    assert np.all(scores[y == 1] == pytest.approx(1.0))
    assert np.all(scores[y == 0] == pytest.approx(-1.0))
    assert leak_auc(g, y, CosineScorer(g_plus)) == 1.0


def test_quantile():
    assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 1.0) == 5.0
    assert quantile([2.5] * 9, 0.37) == 2.5
    assert quantile(np.arange(101.0), 0.95) == pytest.approx(95.0)
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)
