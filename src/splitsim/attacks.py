"""Adversarial scoring of communicated gradients and the leak-AUC metric.

An attack maps each per-example gradient row to a real score: its norm,
or its cosine with an oracle clean positive row.  The leak AUC is the
ROC AUC of those scores against the hidden labels, evaluated per batch.
0.5 means the attack learns nothing, 1.0 means the labels are fully
recovered.  A batch's labels are split once (`split_labels`), the split
is passed to each of its leak AUCs, and every AUC is one Mann-Whitney core.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "split_labels",
    "roc_auc",
    "select_oracle_positive",
    "leak_auc",
    "quantile",
]


def split_labels(labels: np.ndarray):
    """(positive mask, its complement, positive count, negative count)."""
    pos = np.asarray(labels) == 1
    n_pos = int(np.count_nonzero(pos))
    return pos, ~pos, n_pos, pos.shape[0] - n_pos


def _mann_whitney(scores: np.ndarray, split) -> float:
    """AUC of float32 or float64 `scores` against a two-class split.  Each
    positive counts the negatives below it and those tied with it by
    binary search in the sorted negatives; U is then a sum of
    half-integers, exact in float64, so the value equals the midrank
    formula bit for bit.  The counts read only the scores' order and ties,
    which upcasting float32 to float64 keeps, so both dtypes give the
    same bits."""
    pos, neg, n_pos, n_neg = split
    neg_scores = scores[neg]  # boolean indexing copies, so it is ours to sort
    neg_scores.sort()
    pos_scores = scores[pos]
    # below + below_or_tied = 2 * (negatives below + half the ties)
    below = np.add.reduce(neg_scores.searchsorted(pos_scores, side="left"))
    below_or_tied = np.add.reduce(neg_scores.searchsorted(pos_scores, side="right"))
    u = (below + below_or_tied) * 0.5
    return float(u / (n_pos * n_neg))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """ROC AUC as the Mann-Whitney statistic with ties counted half.

    Equals P(score+ > score-) + 0.5 P(score+ = score-) over all
    positive-negative pairs, i.e. the area under the empirical ROC curve
    with trapezoidal ties.  Invariant under strictly increasing score
    transforms.  NaN sorts above every number and ties with NaN, and
    -0.0 ties with 0.0.  None when the labels hold only one class, where
    no AUC exists.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be equal-length vectors")
    split = split_labels(labels)
    if split[2] == 0 or split[3] == 0:
        return None
    return _mann_whitney(scores, split)


def select_oracle_positive(pos_idx: np.ndarray, rng: np.random.Generator) -> int:
    """A uniformly random entry of `pos_idx`, the batch's positive-class
    row indices; the attacker's oracle is that row of the unperturbed
    gradients.  An empty `pos_idx` raises numpy's ValueError."""
    return int(pos_idx[rng.integers(0, pos_idx.size)])


def leak_auc(
    gradients: np.ndarray, split, norms: np.ndarray, oracle=None, oracle_norm: float | None = None
) -> float:
    """ROC AUC of one attack's scores on a (possibly perturbed) gradient
    batch, against a two-class `split_labels` split.  `norms` are the
    rows' L2 norms, computed once per received matrix.  Without an
    oracle the scores are the norms (norm attack); with one, a clean
    positive row of L2 norm `oracle_norm`, they are the rows' cosines
    with it (direction attack), and a zero-norm row scores 0
    (uninformative) rather than erroring out.
    """
    if oracle is None:
        return _mann_whitney(norms, split)
    if oracle_norm == 0.0:
        raise ValueError("oracle gradient must be nonzero")
    nz = norms > 0.0
    if nz.all():
        scores = (gradients @ oracle) / (norms * oracle_norm)
    else:
        scores = np.zeros(gradients.shape[0], dtype=np.result_type(gradients, oracle))
        scores[nz] = (gradients[nz] @ oracle) / (norms[nz] * oracle_norm)
    return _mann_whitney(scores, split)


def quantile(series, q: float) -> float:
    """Linear-interpolation empirical quantile of a nonempty series."""
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise ValueError("quantile of an empty series")
    return float(np.quantile(series, q))
