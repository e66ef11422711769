"""Optimal noise-covariance machinery for the marvell mechanism.

Given a batch of per-example cut-layer gradients with labels, fit
class-conditional spherical Gaussians, solve the 4-variable eigenvalue
problem that minimizes the symmetrized KL divergence between the two
perturbed class distributions under a noise power budget, and turn the
solution into factored covariances plus a privacy certificate (the
achieved symmetrized KL, the implied worst-case attack-AUC upper bound,
and a total-variation upper bound).

The solve runs once per protected batch.  It is a golden-section
coordinate descent over four scalars, written on plain Python floats,
lists and tuples: numpy scalars would box every read and every
arithmetic step of the inner loop.  For the same reason the line
search clamps at zero with `0.0 if x < 0.0 else x` rather than a call to
`max(x, 0.0)`; both return x itself for -0.0 and NaN, so the bits agree.
Each expression keeps a fixed operand order, so a solve is a
deterministic function of its inputs down to the last bit.

Each line search moves two eigenvalues and holds the other two fixed,
and only five such moves occur.  A per-move objective evaluates the
terms built from the fixed pair once per line search instead of at
every golden-section point.  A hoisted term is the same expression on
the same operands, which do not change during the search, and every
sum is still formed left to right in `_objective4`'s order, so each
objective value, and with it every bracket decision and the solution,
is bit-identical to evaluating `_objective4` term by term at each
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import StructuredCovariance

VARIANCE_FLOOR = 1e-12

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# rows gamma of the eigenvalue-ordering constraints gamma . lam <= 0,
# i.e. lam[1] <= lam[0] and lam[3] <= lam[2]
_ORDER_ROWS = ((-1.0, 1.0, 0.0, 0.0), (0.0, 0.0, -1.0, 1.0))


class SingleClassBatchError(ValueError):
    """Batch statistics need both classes present."""


@dataclass(frozen=True)
class BatchStats:
    """MLE-fitted class-conditional spherical Gaussian parameters."""

    p: float  # positive fraction of the batch
    pos_mean: np.ndarray
    neg_mean: np.ndarray
    v: float  # positive-class per-coordinate variance
    u: float  # negative-class per-coordinate variance
    delta_g: np.ndarray  # pos_mean - neg_mean
    delta_norm_sq: float
    d: int
    B: int


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-8  # relative objective decrease per sweep
    max_sweeps: int = 200


@dataclass(frozen=True)
class LambdaSolution:
    """Eigenvalues of the optimal noise covariances.

    lam1_* is the eigenvalue along the class-mean difference, lam2_*
    the shared eigenvalue of the orthogonal complement.
    """

    lam1_pos: float
    lam2_pos: float
    lam1_neg: float
    lam2_neg: float
    objective_value: float
    converged: bool
    sweeps_used: int


@dataclass(frozen=True)
class PrivacyCertificate:
    sum_kl: float
    auc_bound: float
    tv_bound: float
    bound_valid: bool  # sum_kl < 4, i.e. the AUC bound is non-vacuous


def estimate_stats(g: np.ndarray, labels: np.ndarray) -> BatchStats:
    """Spherical-Gaussian MLE of both classes from one gradient batch."""
    g = np.asarray(g, dtype=np.float64)
    labels = np.asarray(labels)
    if g.ndim != 2 or g.shape[0] != labels.shape[0]:
        raise ValueError("g must be (B, d) with one label per row")
    B, d = g.shape
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = B - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassBatchError("both classes must be present")
    g_pos = g[pos]  # boolean indexing copies, so both are ours to overwrite
    g_neg = g[~pos]
    pos_mean = g_pos.mean(axis=0)
    neg_mean = g_neg.mean(axis=0)
    g_pos -= pos_mean
    g_pos *= g_pos
    g_neg -= neg_mean
    g_neg *= g_neg
    v = float(g_pos.sum() / (d * n_pos))
    u = float(g_neg.sum() / (d * n_neg))
    delta = pos_mean - neg_mean
    return BatchStats(
        p=n_pos / B,
        pos_mean=pos_mean,
        neg_mean=neg_mean,
        v=v,
        u=u,
        delta_g=delta,
        delta_norm_sq=float(delta @ delta),
        d=d,
        B=B,
    )


def power_budget(s: float, stats: BatchStats) -> float:
    """Noise power cap expressed relative to the class-mean gap."""
    if s <= 0:
        raise ValueError(f"s must be > 0, got {s!r}")
    return s * stats.delta_norm_sq


def _objective4(l11, l21, l10, l20, d, u, v, dsq):
    """Ratio objective of the 4-variable problem.

    (l11, l21) are the positive class's along/orthogonal eigenvalues,
    (l10, l20) the negative class's; u, v must already carry the
    variance floor so every denominator is positive.
    """
    return (
        (d - 1.0) * ((l20 + u) / (l21 + v) + (l21 + v) / (l20 + u))
        + (l10 + u + dsq) / (l11 + v)
        + (l11 + v + dsq) / (l10 + u)
    )


def objective(lams, stats: BatchStats) -> float:
    """4-variable ratio objective at (lam1_pos, lam2_pos, lam1_neg, lam2_neg)."""
    l11, l21, l10, l20 = (float(x) for x in lams)
    u = max(stats.u, VARIANCE_FLOOR)
    v = max(stats.v, VARIANCE_FLOOR)
    return float(_objective4(l11, l21, l10, l20, float(stats.d), u, v, stats.delta_norm_sq))


def _segment_bounds(lam, i, j, w, R):
    """Feasible t-range for the move lam[i]=t, lam[j]=(R - w[i] t)/w[j].

    Intersects t >= 0, lam[j] >= 0 and the two ordering rows.
    """
    lo = 0.0
    hi = R / w[i]
    for gamma in _ORDER_ROWS:
        gj = gamma[j]
        alpha = gamma[i] - gj * w[i] / w[j]
        beta = gj * R / w[j]
        for k in range(4):
            if k != i and k != j:
                beta += gamma[k] * lam[k]
        if alpha > 1e-300:
            hi = min(hi, -beta / alpha)
        elif alpha < -1e-300:
            lo = max(lo, -beta / alpha)
    return lo, hi


# The objective along each move (i, j) of the descent, as a function of
# t = lam[i] with lam[j] = max((R - w[i] t) / w[j], 0) and the other two
# eigenvalues fixed.  Each factory evaluates the terms that involve only
# the fixed eigenvalues once per line search and returns f(t), which
# evaluates the rest.  With (l11, l21, l10, l20) = lam, every term is
# _objective4's expression on the same operands in the same order.


def _objective_02(lam, R, wi, wj, dm1, u, v, dsq):
    x = lam[3] + u  # l20 + u
    y = lam[1] + v  # l21 + v
    c = dm1 * (x / y + y / x)

    def f(t):
        lj = (R - wi * t) / wj
        a = t + v  # l11 + v
        b = (0.0 if lj < 0.0 else lj) + u  # l10 + u
        return c + (b + dsq) / a + (a + dsq) / b

    return f


def _objective_03(lam, R, wi, wj, dm1, u, v, dsq):
    y = lam[1] + v  # l21 + v
    b = lam[2] + u  # l10 + u
    nb = b + dsq

    def f(t):
        lj = (R - wi * t) / wj
        x = (0.0 if lj < 0.0 else lj) + u  # l20 + u
        a = t + v  # l11 + v
        return dm1 * (x / y + y / x) + nb / a + (a + dsq) / b

    return f


def _objective_23(lam, R, wi, wj, dm1, u, v, dsq):
    y = lam[1] + v  # l21 + v
    a = lam[0] + v  # l11 + v
    na = a + dsq

    def f(t):
        lj = (R - wi * t) / wj
        x = (0.0 if lj < 0.0 else lj) + u  # l20 + u
        b = t + u  # l10 + u
        return dm1 * (x / y + y / x) + (b + dsq) / a + na / b

    return f


def _objective_01(lam, R, wi, wj, dm1, u, v, dsq):
    x = lam[3] + u  # l20 + u
    b = lam[2] + u  # l10 + u
    nb = b + dsq

    def f(t):
        lj = (R - wi * t) / wj
        y = (0.0 if lj < 0.0 else lj) + v  # l21 + v
        a = t + v  # l11 + v
        return dm1 * (x / y + y / x) + nb / a + (a + dsq) / b

    return f


def _objective_12(lam, R, wi, wj, dm1, u, v, dsq):
    x = lam[3] + u  # l20 + u
    a = lam[0] + v  # l11 + v
    na = a + dsq

    def f(t):
        lj = (R - wi * t) / wj
        y = t + v  # l21 + v
        b = (0.0 if lj < 0.0 else lj) + u  # l10 + u
        return dm1 * (x / y + y / x) + (b + dsq) / a + na / b

    return f


_MOVE_OBJECTIVES = {
    (0, 2): _objective_02,
    (0, 3): _objective_03,
    (2, 3): _objective_23,
    (0, 1): _objective_01,
    (1, 2): _objective_12,
}


def _line_min(lam, i, j, w, R, d, u, v, dsq, tol):
    """Golden-section minimization over the feasible segment of (i, j).

    Leaves lam[i] at the bracket midpoint (at the segment's lower end
    when the segment is empty) and lam[j] on the segment.
    """
    lo, hi = _segment_bounds(lam, i, j, w, R)
    wi = w[i]
    wj = w[j]
    if hi <= lo:
        t = lo
    else:
        f = _MOVE_OBJECTIVES[i, j](lam, R, wi, wj, d - 1.0, u, v, dsq)
        width = hi - lo
        tol_w = max(tol * width, 1e-10)
        a = lo
        b = hi
        c = a + _INVPHI2 * width
        e = a + _INVPHI * width
        fc = f(c)
        fe = f(e)
        while b - a > tol_w:
            if fc < fe:
                b = e
                e = c
                fe = fc
                c = a + _INVPHI2 * (b - a)
                fc = f(c)
            else:
                a = c
                c = e
                fc = fe
                e = a + _INVPHI * (b - a)
                fe = f(e)
        t = 0.5 * (a + b)
    lam[i] = t
    lj = (R - wi * t) / wj
    lam[j] = 0.0 if lj < 0.0 else lj


def _solve_lambdas(d, u, v, dsq, p, P, tol, max_sweeps, pin_pos):
    """Coordinate descent on the power hyperplane.

    One orthogonal eigenvalue is pinned to zero (lam[1] when pin_pos,
    else lam[3]); the remaining variables are swept in round-robin: fix
    one, line-search the other two along the feasible segment of the
    hyperplane p*l11 + p(d-1)*l21 + (1-p)*l10 + (1-p)(d-1)*l20 = P.

    Returns (lam[4], objective, converged, sweeps_used).
    """
    lam = [0.0, 0.0, 0.0, 0.0]
    w = (p, p * (d - 1.0), 1.0 - p, (1.0 - p) * (d - 1.0))

    if P <= 0.0:
        return lam, _objective4(0.0, 0.0, 0.0, 0.0, d, u, v, dsq), True, 0

    if d == 1.0:
        # orthogonal eigenvalues have zero power weight and no objective
        # term; the problem is a single segment over (lam[0], lam[2])
        lam[0] = P / (2.0 * w[0])
        lam[2] = P / (2.0 * w[2])
        _line_min(lam, 0, 2, w, P, d, u, v, dsq, tol)
        return lam, _objective4(*lam, d, u, v, dsq), True, 1

    free = (0, 2, 3) if pin_pos else (0, 1, 2)
    # (fixed, i, j) per step of a sweep; free is ascending, so i < j
    moves = tuple((k, *(m for m in free if m != k)) for k in free)
    for k in free:
        lam[k] = (P / 3.0) / w[k]

    prev = _objective4(*lam, d, u, v, dsq)
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        for f_idx, i, j in moves:
            R = P - w[f_idx] * lam[f_idx]
            if R < 0.0:
                R = 0.0
            _line_min(lam, i, j, w, R, d, u, v, dsq, tol)
        cur = _objective4(*lam, d, u, v, dsq)
        if prev - cur <= tol * max(abs(prev), 1e-300):
            converged = True
            break
        prev = cur

    # land exactly on the hyperplane: absorb float drift into the
    # free variable carrying the most power
    drift = P - (w[0] * lam[0] + w[1] * lam[1] + w[2] * lam[2] + w[3] * lam[3])
    best = free[0]
    for k in free[1:]:
        if w[k] * lam[k] > w[best] * lam[best]:
            best = k
    lam[best] = max(lam[best] + drift / w[best], 0.0)

    return lam, _objective4(*lam, d, u, v, dsq), converged, sweeps


def solve(stats: BatchStats, P: float, settings: SolverSettings = SolverSettings()) -> LambdaSolution:
    """Minimize the objective over the power hyperplane.

    Applies the zero rule for the orthogonal eigenvalue (positive class
    when u < v, negative otherwise), restricts to the active power
    constraint, and coordinate-descends with golden-section line
    searches until the per-sweep relative decrease drops below
    settings.tol or settings.max_sweeps sweeps are spent.  The descent
    runs on plain Python floats (see the module docstring); there is
    no other solver path.
    """
    if P < 0:
        raise ValueError(f"P must be >= 0, got {P!r}")
    if not 0.0 < stats.p < 1.0:
        raise ValueError(f"positive fraction must be in (0, 1), got {stats.p!r}")
    pin_pos = stats.u < stats.v  # pins lam2_pos; else lam2_neg
    lam, obj, converged, sweeps = _solve_lambdas(
        float(stats.d),
        float(max(stats.u, VARIANCE_FLOOR)),
        float(max(stats.v, VARIANCE_FLOOR)),
        float(stats.delta_norm_sq),
        float(stats.p),
        float(P),
        float(settings.tol),
        int(settings.max_sweeps),
        bool(pin_pos),
    )
    lam1_pos, lam2_pos, lam1_neg, lam2_neg = lam
    return LambdaSolution(lam1_pos, lam2_pos, lam1_neg, lam2_neg, obj, converged, sweeps)


def build_covariances(sol: LambdaSolution, stats: BatchStats):
    """Factored optimal covariances (positive class, negative class).

    Each is (lam1 - lam2) along the unit class-mean difference plus
    lam2 times the identity; the dense d x d matrix is never formed.
    """
    norm = np.sqrt(stats.delta_norm_sq)
    if norm == 0.0:
        raise ValueError("covariance direction undefined for zero class-mean gap")
    direction = stats.delta_g / norm
    pos = StructuredCovariance(
        direction=direction,
        along_var=max(sol.lam1_pos - sol.lam2_pos, 0.0),
        iso_var=max(sol.lam2_pos, 0.0),
    )
    neg = StructuredCovariance(
        direction=direction,
        along_var=max(sol.lam1_neg - sol.lam2_neg, 0.0),
        iso_var=max(sol.lam2_neg, 0.0),
    )
    return pos, neg


def sum_kl(sol: LambdaSolution, stats: BatchStats) -> float:
    """Symmetrized KL between the two perturbed class distributions.

    The ratio objective equals the trace-plus-quadratic expansion of the
    symmetrized Gaussian KL whose log-determinant terms cancel, so the
    divergence itself is objective/2 - d.
    """
    lams = (sol.lam1_pos, sol.lam2_pos, sol.lam1_neg, sol.lam2_neg)
    return objective(lams, stats) / 2.0 - stats.d


def noise_power(sol: LambdaSolution, stats: BatchStats) -> float:
    """Class-weighted total noise variance implied by the solution."""
    d = stats.d
    return stats.p * (sol.lam1_pos + (d - 1) * sol.lam2_pos) + (1.0 - stats.p) * (
        sol.lam1_neg + (d - 1) * sol.lam2_neg
    )


def auc_upper_bound(eps: float) -> float:
    """Worst-case attack AUC implied by a symmetrized KL of eps.

    0.5 + sqrt(eps)/2 - eps/8 for eps < 4; the bound is vacuous (1.0)
    beyond that.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps!r}")
    if eps >= 4.0:
        return 1.0
    return 0.5 + np.sqrt(eps) / 2.0 - eps / 8.0


def tv_upper_bound(eps: float) -> float:
    """Total-variation bound sqrt(eps)/2, capped at 1."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps!r}")
    return float(min(0.5 * np.sqrt(eps), 1.0))


def make_certificate(sol: LambdaSolution, stats: BatchStats) -> PrivacyCertificate:
    eps = sum_kl(sol, stats)
    eps = max(eps, 0.0)  # guard float fuzz at the optimum
    return PrivacyCertificate(
        sum_kl=eps,
        auc_bound=auc_upper_bound(eps),
        tv_bound=tv_upper_bound(eps),
        bound_valid=eps < 4.0,
    )
