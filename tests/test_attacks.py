import warnings

import numpy as np
import pytest

from oracles import (
    audit_matrix,
    cut_gradients,
    masked_cosine_scores,
    midrank_auc,
    per_matrix_leak_auc,
)
from splitsim import attacks, harness
from splitsim.attacks import (
    ScoreParts,
    leak_auc,
    quantile,
    roc_auc,
    select_oracle_positive,
    split_labels,
)
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


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _auc_row(rng, case, n):
    """Seeded scores and labels of length n with both classes present, of
    kind case % 4: continuous scores, heavy ties, only special values
    (+-0.0, +-inf, NaN), and a mix; case % 10 == 0 has a single positive
    and case % 10 == 5 a single negative."""
    kind = case % 4
    if kind == 0:
        scores = rng.standard_normal(n)
    elif kind == 1:
        scores = rng.integers(-3, 4, size=n).astype(np.float64)
    elif kind == 2:
        scores = rng.choice(_SPECIALS, size=n)
    else:
        ties = rng.integers(-2, 3, size=n).astype(np.float64)
        scores = np.where(rng.random(n) < 0.3, rng.choice(_SPECIALS, size=n), ties)
    if case % 10 == 0:
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.integers(0, n)] = 1
    elif case % 10 == 5:
        labels = np.ones(n, dtype=np.int64)
        labels[rng.integers(0, n)] = 0
    else:
        labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.int64)
        labels[0], labels[-1] = 1, 0
    return scores, labels


def _auc_cases(rng, count):
    """`count` seeded `_auc_row` cases of 2 to 119 scores, every 25th of
    up to 1000."""
    for case in range(count):
        yield _auc_row(rng, case, int(rng.integers(2, 1001 if case % 25 == 0 else 120)))


def test_roc_auc_bitwise_matches_midrank():
    for scores, labels in _auc_cases(make_rng(41), 400):
        assert roc_auc(scores, labels).hex() == midrank_auc(scores, labels).hex()


def _cross_tie(scores, pos) -> bool:
    """Whether a positive's score ties a negative's (NaN ties NaN, -0.0 ties 0.0)."""
    keys = ["nan" if np.isnan(v) else float(v) for v in scores]
    return bool({k for k, p in zip(keys, pos) if p} & {k for k, p in zip(keys, pos) if not p})


def test_mann_whitney_stacks_bitwise_match_midrank():
    # the core ranks a whole stack of rows at once: rows of one
    # length whose class counts differ, some with a single positive or
    # negative, holding ties, NaN of either sign, +-0.0 and +-inf, in
    # both dtypes; stacks mix rows where a positive ties a negative (the
    # rows its second sort reorders) with rows where none does, and a
    # mask shared by a leading axis of the stack broadcasts over it
    rng = make_rng(44)
    mixed_stacks = 0
    for stack in range(60):
        n = int(rng.integers(2, 300 if stack % 10 == 0 else 40))
        rows = [_auc_row(rng, case, n) for case in range(int(rng.integers(1, 30)))]
        scores = np.array([r[0] for r in rows])
        np.negative(scores, out=scores, where=np.isnan(scores) & (rng.random(scores.shape) < 0.5))
        pos = np.array([r[1] for r in rows]) == 1
        tied = {_cross_tie(row, labels) for row, labels in zip(scores, pos)}
        mixed_stacks += tied == {False, True}
        for dtype in (np.float32, np.float64):
            got = attacks._mann_whitney(scores.astype(dtype), pos)
            assert got.dtype == np.float64 and got.shape == (len(rows),)
            for auc, row, labels in zip(got, scores.astype(dtype), pos):
                assert auc.hex() == midrank_auc(row, labels).hex()
            pair = np.stack([scores, -scores]).astype(dtype)
            both = attacks._mann_whitney(pair, pos)
            assert both.shape == (2, len(rows))
            each = [attacks._mann_whitney(s, pos) for s in pair]
            assert both.tobytes() == np.stack(each).tobytes()
    assert mixed_stacks >= 10


def test_leak_auc_bitwise_matches_midrank():
    # both attacks rank their scores with roc_auc's core: the one-column
    # rows s have the norms |s| and, with the oracle 1, the cosines s / |s|
    # (NaN where |s| is inf), and a zero or NaN row scores 0
    with np.errstate(invalid="ignore"):  # inf / inf
        for scores, labels in _auc_cases(make_rng(42), 400):
            norms = np.abs(scores)
            norm_auc, cos_auc = audit_matrix(scores[:, None], labels, np.ones(1))
            assert norm_auc.hex() == midrank_auc(norms, labels).hex()
            cosines = np.where(norms > 0.0, scores / norms, 0.0)
            assert cos_auc.hex() == midrank_auc(cosines, labels).hex()


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
    # leak_auc's row norms (one dot per row) and oracle norm are
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
    # what a run's one ranking per layer ranks, against each batch's own
    # label split: per layer, np.linalg.norm of each received row of
    # every mixed batch, then each row's dot product with its oracle over
    # its and the oracle's np.linalg.norm, bit for bit, 0 on a zero row
    # and on every row of a batch whose oracle is zero
    added, ranked = [], []
    add, core = ScoreParts.add, attacks._mann_whitney

    def spy_add(parts, received, oracle, pos):
        added.append((received.copy(), oracle.copy(), pos.copy()))
        return add(parts, received, oracle, pos)

    monkeypatch.setattr(ScoreParts, "add", spy_add)
    monkeypatch.setattr(attacks, "_mann_whitney",
                        lambda scores, pos: ranked.append((scores, pos)) or core(scores, pos))
    config = harness.config_from_dict(
        {"dataset": {"n": 400}, "batch_size": 16, "iterations": 30,
         "mechanism": {"kind": "marvell", "s": 1.0}}
    )
    harness.train_run(config)
    assert len(added) > 20
    # each mixed batch adds its cut matrix, then its first-layer one
    assert len(ranked) == 2 + 1  # and the test AUC
    for batches, (stack, pos_stack) in zip((added[0::2], added[1::2]), ranked):
        norm_rows, cos_rows = [], []
        for received, oracle, pos in batches:
            norms = np.array([np.linalg.norm(r) for r in received])
            norm_rows.append(norms)
            oracle_norm = np.linalg.norm(oracle)
            nz, dots = norms > 0, received @ oracle
            cosines = np.zeros_like(dots)
            if oracle_norm > 0:
                cosines[nz] = dots[nz] / (norms[nz] * oracle_norm)
            cos_rows.append(cosines)
        want = np.array([norm_rows, cos_rows])
        assert stack.dtype == want.dtype == np.float32
        assert stack.tobytes() == want.tobytes()
        assert pos_stack.tolist() == [pos.tolist() for _, _, pos in batches]


def test_roc_auc_nan_and_signed_zero_ties():
    # NaN sorts above every number and ties with NaN; -0.0 ties with 0.0
    labels = np.array([1, 0, 0])
    assert roc_auc(np.array([np.nan, np.inf, np.nan]), labels) == 0.75
    assert roc_auc(np.array([-0.0, 0.0, -1.0]), labels) == 0.75


def test_leak_auc_ranks_float32_as_float64(monkeypatch):
    # a run's received rows are float32, so leak_auc ranks float32 scores;
    # float32 -> float64 is exact and keeps every order and tie (NaN norms
    # and the scores of tied and zero rows), so the AUCs are the same bits
    # as roc_auc's
    rng = make_rng(15)
    oracle = np.array([1.0, 2.0, -1.0], dtype=np.float32)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        rows = rng.integers(-2, 3, size=(n, 3)).astype(np.float32)  # tied and zero rows
        rows[rng.random(n) < 0.1, 0] = np.nan
        norms, cosines = _scores(monkeypatch, rows, oracle)
        assert norms.dtype == cosines.dtype == np.float32
        got = audit_matrix(rows, labels, oracle)
        assert got == tuple(roc_auc(s.astype(np.float64), labels) for s in (norms, cosines))


def _scores(monkeypatch, gradients, oracle):
    """The score rows leak_auc ranks for `gradients` as a `ScoreParts` of
    one batch, as it hands them to the AUC core: the norms, then the cosines
    (all 0 where the oracle is zero)."""
    seen = []
    monkeypatch.setattr(
        attacks, "_mann_whitney",
        lambda scores, pos: seen.append(scores) or np.full(scores.shape[:-1], 0.5)
    )
    audit_matrix(gradients, np.arange(gradients.shape[0]) % 2, oracle)
    monkeypatch.undo()
    return list(seen[0][:, 0])


def test_norm_score(monkeypatch):
    g = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
    scores = _scores(monkeypatch, g, g[0])[0]
    assert scores[0] == pytest.approx(5.0)
    assert scores[1] == 0.0
    assert _scores(monkeypatch, 2.0 * g, g[0])[0][2] == pytest.approx(2.0 * scores[2])


def test_cosine_score(monkeypatch):
    g = np.array([1.0, 2.0, -1.0])
    rows = np.vstack([g, -g, np.zeros(3)])
    scores = _scores(monkeypatch, rows, g)[1]
    assert scores[0] == pytest.approx(1.0)
    assert scores[1] == pytest.approx(-1.0)
    assert scores[2] == 0.0  # zero row: uninformative, not an error
    e1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert _scores(monkeypatch, e1, np.array([0.0, 2.0]))[1][0] == pytest.approx(0.0)
    # a zero oracle has no direction: no cosine is formed, its scores stay 0
    assert _scores(monkeypatch, e1, np.zeros(2))[1].tolist() == [0.0, 0.0]
    assert audit_matrix(e1, np.array([1, 0]), np.zeros(2)) == (1.0, None)


def test_block_with_zero_oracles_matches_per_matrix_audit():
    # a stack mixing directed and zero oracles ranks each matrix as the
    # per-matrix reference does: the cosine AUC of a zero oracle is None,
    # and no cosine of its matrix is formed, so no warning is raised even
    # where one of its rows' squared norm overflows to inf (inf * 0 would
    # be NaN)
    rng = make_rng(16)
    for dtype in (np.float32, np.float64):
        parts = ScoreParts(12, 40, dtype)
        want = []
        for b in range(12):
            received = rng.standard_normal((40, 6)).astype(dtype)
            received[b % 5] = 0.0
            oracle = np.zeros(6, dtype) if b % 3 == 0 else received[b % 7 + 5].copy()
            if b % 6 == 0:
                received[10, 0] = np.finfo(dtype).max
            pos = rng.random(40) < 0.3
            pos[:2] = (True, False)
            with np.errstate(over="ignore"):
                parts.add(received, oracle, pos)
                want.append(per_matrix_leak_auc(received, split_labels(pos), oracle))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm_aucs, cos_aucs = leak_auc(*parts.filled())
        assert [c is None for c in cos_aucs] == [b % 3 == 0 for b in range(12)]
        for got, ref in zip(zip(norm_aucs, cos_aucs), want):
            assert [None if a is None else a.hex() for a in got] == [
                None if a is None else a.hex() for a in ref
            ]


def test_score_parts_fill_order():
    # filled() holds the matrices written so far, in the order written,
    # and none of the unwritten rows
    parts = ScoreParts(3, 3, np.float32)
    rows = np.arange(6, dtype=np.float32).reshape(3, 2)
    assert [a.shape[0] for a in parts.filled()] == [0, 0, 0, 0]
    parts.add(rows, rows[1], np.array([True, False, True]))
    parts.add(2 * rows, rows[0], np.array([False, True, True]))
    sq_norms, dots, oracle_sq, pos = parts.filled()
    assert sq_norms.tolist() == [[1.0, 13.0, 41.0], [4.0, 52.0, 164.0]]
    assert dots.tolist() == [[3.0, 13.0, 23.0], [2.0, 6.0, 10.0]]
    assert oracle_sq.tolist() == [13.0, 1.0]
    assert pos.tolist() == [[True, False, True], [False, True, True]]
    assert sq_norms.dtype == dots.dtype == oracle_sq.dtype == np.float32


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
    # every row's dot product is taken from the whole batch's product: a
    # float32 product over the nonzero rows alone differs in one row here
    for dtype in (np.float64, np.float32):
        rng = make_rng(14)
        g_plus = rng.standard_normal(384).astype(dtype)
        for zero_rows in ((), (0, 17, 255)):
            g = rng.standard_normal((256, 384)).astype(dtype)
            g[list(zero_rows)] = 0.0
            scores = _scores(monkeypatch, g, g_plus)[1]
            assert scores.tobytes() == masked_cosine_scores(g, g_plus).tobytes()
            assert np.all(scores[list(zero_rows)] == 0.0)


def test_leak_auc_separated_norms():
    rng = make_rng(5)
    d = 8
    pos = 5.0 * rng.standard_normal((6, d)) + 10.0
    neg = 0.1 * rng.standard_normal((10, d))
    g = np.vstack([pos, neg])
    labels = np.array([1] * 6 + [0] * 10)
    assert audit_matrix(g, labels, g[0])[0] == 1.0


def test_leak_auc_permutation_null():
    rng = make_rng(6)
    n = 10**4
    g = rng.standard_normal((n, 4))
    labels = rng.integers(0, 2, size=n)
    for auc in audit_matrix(g, labels, g[0]):
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
    scores = _scores(monkeypatch, g, g_plus)[1]
    assert np.all(scores[y == 1] == pytest.approx(1.0))
    assert np.all(scores[y == 0] == pytest.approx(-1.0))
    assert audit_matrix(g, y, g_plus)[1] == 1.0


def test_no_leak_q95_floor():
    # the estimator floor under c09: with no leak at all (scores drawn
    # independently of the labels), a B=256 batch at a 10% positive rate
    # still gives a per-batch AUC spread wide enough that the q95 of 200
    # batches sits near 0.600 -- the floor no mechanism can go below --
    # yet every run stays under c09's 0.65
    q95s = []
    for seed in range(50):
        rng = make_rng(seed)
        aucs = [roc_auc(rng.standard_normal(256), rng.random(256) < 0.1) for _ in range(200)]
        q95s.append(quantile(aucs, 0.95))
    assert np.mean(q95s) == pytest.approx(0.600, abs=0.01)
    assert max(q95s) < 0.65


def test_quantile():
    assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 1.0) == 5.0
    assert quantile([2.5] * 9, 0.37) == 2.5
    assert quantile(np.arange(101.0), 0.95) == pytest.approx(95.0)
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)
