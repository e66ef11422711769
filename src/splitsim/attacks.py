"""Adversarial scoring of communicated gradients and the leak-AUC metric.

An attack maps each per-example gradient row to a real score: its norm,
or its cosine with an oracle clean positive row.  The leak AUC is the
ROC AUC of those scores against the hidden labels, evaluated per batch.
0.5 means the attack learns nothing, 1.0 means the labels are fully
recovered.  A batch's labels are split once (`split_labels`).  A run
does not rank each batch as it receives it: `ScoreParts` keeps the raw
parts of each received matrix's scores for the whole run, and one
`leak_auc` call per layer ranks them all after the last iteration.
Every AUC, `roc_auc`'s too, is one Mann-Whitney core that ranks a stack
of rows at once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "split_labels",
    "roc_auc",
    "select_oracle_positive",
    "ScoreParts",
    "leak_auc",
    "quantile",
]


def split_labels(labels: np.ndarray):
    """(positive mask, its complement, positive count, negative count)."""
    pos = np.asarray(labels) == 1
    n_pos = int(np.count_nonzero(pos))
    return pos, ~pos, n_pos, pos.shape[0] - n_pos


def _order_keys(scores: np.ndarray) -> np.ndarray:
    """int64 keys in the order of the float32 or float64 `scores`, small
    enough to double: equal scores get equal keys, and so do NaN and NaN
    (above every number) and -0.0 and 0.0.  A float32 key is its canonical
    bit pattern with the magnitude bits flipped on negatives; float64 keys
    are those patterns' dense ranks over the whole array."""
    canonical = scores + 0.0  # -0.0 + 0.0 is 0.0
    canonical[np.isnan(canonical)] = np.nan
    bits = canonical.view(np.int32 if canonical.itemsize == 4 else np.int64)
    bits ^= (bits >> (8 * bits.itemsize - 1)) & np.iinfo(bits.dtype).max
    if bits.itemsize == 4:
        return bits.astype(np.int64)
    return np.unique(bits, return_inverse=True)[1].reshape(bits.shape)


def _mann_whitney(scores: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """AUC of each row of the float32 or float64 stack `scores` against the
    same row of the positive mask `pos`; every row holds both classes.

    Each row's keys, doubled and plus the label, are sorted twice: once
    with each tie's negatives first, once (labels flipped) with its
    positives first.  A positive's position is the positives before it
    plus the negatives below it, and in the first sort also those tied
    with it, so the positives' positions over both sorts, less twice the
    pairs of positives, sum to 2U.  U is a sum of half-integers, exact in
    float64, so each AUC equals the midrank formula bit for bit.
    """
    n = pos.shape[1]
    n_pos = np.count_nonzero(pos, axis=1)
    at = np.arange(n)
    ranked = _order_keys(scores)
    ranked <<= 1
    ranked |= pos
    ranked.sort(axis=1)
    twice_u = (ranked & 1) @ at  # the positives' positions
    ranked ^= 1  # the labels flipped: each tie's positives first
    ranked.sort(axis=1)
    # the positives' positions now: all positions less the negatives'
    twice_u += n * (n - 1) // 2 - (ranked & 1) @ at
    twice_u -= n_pos * (n_pos - 1)
    return twice_u * 0.5 / (n_pos * (n - n_pos))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """ROC AUC as the Mann-Whitney statistic with ties counted half.

    Equals P(score+ > score-) + 0.5 P(score+ = score-) over all
    positive-negative pairs, i.e. the area under the empirical ROC curve
    with trapezoidal ties.  Invariant under strictly increasing score
    transforms.  NaN sorts above every number and ties with NaN, and
    -0.0 ties with 0.0.  None when the labels hold only one class, where
    no AUC exists.
    """
    scores = np.asarray(scores)
    scores = scores.astype(np.result_type(scores, np.float32), copy=False)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be equal-length vectors")
    pos, _, n_pos, n_neg = split_labels(labels)
    if n_pos == 0 or n_neg == 0:
        return None
    return float(_mann_whitney(scores[None], pos[None])[0])


def select_oracle_positive(pos_idx: np.ndarray, rng: np.random.Generator) -> int:
    """A uniformly random entry of `pos_idx`, the batch's positive-class
    row indices; the attacker's oracle is that row of the unperturbed
    gradients.  An empty `pos_idx` raises numpy's ValueError."""
    return int(pos_idx[rng.integers(0, pos_idx.size)])


class ScoreParts:
    """Fixed buffers, of `dtype`, for the score parts of up to `batches`
    received matrices of `batch_size` rows: per matrix, its rows' squared
    norms and dot products with the oracle row, the oracle's squared norm
    and the batch's positive mask.  `leak_auc(*parts.filled())` ranks
    them."""

    def __init__(self, batches: int, batch_size: int, dtype):
        self.sq_norms = np.empty((batches, batch_size), dtype)
        self.dots = np.empty((batches, batch_size), dtype)
        self.oracle_sq = np.empty(batches, dtype)
        self.pos = np.empty((batches, batch_size), bool)
        self.count = 0

    def add(self, received: np.ndarray, oracle: np.ndarray, pos: np.ndarray) -> None:
        """Write one matrix's parts after those already written."""
        i = self.count
        np.vecdot(received, received, out=self.sq_norms[i])
        np.matmul(received, oracle, out=self.dots[i])
        self.oracle_sq[i] = oracle.dot(oracle)
        self.pos[i] = pos
        self.count = i + 1

    def filled(self):
        """(squared norms, dot products, oracle squared norms, positive
        masks) of the matrices written so far, in order."""
        n = self.count
        return self.sq_norms[:n], self.dots[:n], self.oracle_sq[:n], self.pos[:n]


def leak_auc(sq_norms: np.ndarray, dots: np.ndarray, oracle_sq: np.ndarray, pos: np.ndarray):
    """(norm AUCs, cosine AUCs), one list entry per received matrix, from
    the score parts `ScoreParts` keeps: row b of `sq_norms`, `dots` and
    `pos` and entry b of `oracle_sq` are matrix b's, and each batch holds
    both classes.  The norm attack scores each row by its L2 norm, the
    square root of its squared norm, which equals np.linalg.norm(row) bit
    for bit; the cosine attack scores it by its dot product with the
    oracle over its and the oracle's norm, and a zero-norm row scores 0
    (uninformative).  A zero oracle has no direction, so its matrix's
    cosine AUC is None and its cosines are never formed.  All the norms
    and cosines are ranked in one `_mann_whitney` pass.
    """
    m = len(oracle_sq)
    directed = oracle_sq > 0.0  # the oracle's norm is positive
    scores = np.zeros((m + int(np.count_nonzero(directed)), sq_norms.shape[1]), sq_norms.dtype)
    norms = np.sqrt(sq_norms, out=scores[:m])
    cos_norms = norms[directed]
    np.divide(
        dots[directed],
        cos_norms * np.sqrt(oracle_sq[directed])[:, None],
        out=scores[m:],
        where=cos_norms > 0.0,
    )
    aucs = _mann_whitney(scores, np.concatenate((pos, pos[directed]))).tolist()
    cos_aucs = iter(aucs[m:])
    return aucs[:m], [next(cos_aucs) if d else None for d in directed]


def quantile(series, q: float) -> float:
    """Linear-interpolation empirical quantile of a nonempty series."""
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise ValueError("quantile of an empty series")
    return float(np.quantile(series, q))
