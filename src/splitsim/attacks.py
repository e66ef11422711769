"""Adversarial scoring of communicated gradients and the leak-AUC metric.

An attack maps each per-example gradient row to a real score: its norm,
or its cosine with an oracle clean positive row.  The leak AUC is the
ROC AUC of those scores against the hidden labels, evaluated per batch.
0.5 means the attack learns nothing, 1.0 means the labels are fully
recovered.  A batch's labels are split once (`split_labels`), one
`leak_auc` call scores each received matrix by both attacks against
that split, and every AUC is one Mann-Whitney core.
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


def leak_auc(received: np.ndarray, split, oracle: np.ndarray):
    """(norm AUC, cosine AUC) of the two attacks on one received gradient
    batch, against a two-class `split_labels` split.  The norm attack
    scores each row by its L2 norm, one dot product per row, which equals
    np.linalg.norm(row) bit for bit; the cosine attack scores it by its
    cosine with `oracle`, a clean positive row, and a zero-norm row
    scores 0 (uninformative) rather than erroring out.  A zero oracle has
    no direction, so its cosine AUC is None.
    """
    norms = np.sqrt(np.vecdot(received, received))
    norm_auc = _mann_whitney(norms, split)
    oracle_norm = np.sqrt(oracle.dot(oracle))
    if not oracle_norm > 0.0:
        return norm_auc, None
    dots = received @ oracle
    scores = np.divide(dots, norms * oracle_norm, out=np.zeros_like(dots), where=norms > 0.0)
    return norm_auc, _mann_whitney(scores, split)


def quantile(series, q: float) -> float:
    """Linear-interpolation empirical quantile of a nonempty series."""
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise ValueError("quantile of an empty series")
    return float(np.quantile(series, q))
