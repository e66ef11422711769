"""Optimal noise-covariance machinery for the marvell mechanism.

Given a batch of per-example cut-layer gradients with labels, fit
class-conditional spherical Gaussians, solve the 4-variable eigenvalue
problem that minimizes the symmetrized KL divergence between the two
perturbed class distributions under a noise power budget, and turn the
solution into factored covariances plus a privacy certificate (the
achieved symmetrized KL, the implied worst-case attack-AUC upper bound,
and a total-variation upper bound).

The solve runs once per protected batch.  It is a coordinate descent
over four scalars: each step moves two eigenvalues along the power
hyperplane with the other two fixed, and minimizes exactly along that
segment with a safeguarded Newton search on the objective's first and
second derivatives.  It is written on plain Python floats, lists and
tuples: numpy scalars would box every read and every arithmetic step
of the inner loop.  For the same reason it clamps at zero with
`0.0 if x < 0.0 else x` rather than a call to `max(x, 0.0)`.  Each
expression keeps a fixed operand order, so a solve is a deterministic
function of its inputs down to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import StructuredCovariance

VARIANCE_FLOOR = 1e-12

# A line search measures steps in t against the smaller of the segment's
# width and the distances at which either moving eigenvalue plus its
# floor would reach zero, the scale on which f' varies.  It takes a
# Newton step of at most _NEWTON_TOL of that scale and stops: Newton
# converges quadratically, so the next step would be about _NEWTON_TOL**2
# of it.  Bisection stops once the bracket is _BISECT_TOL of it, and no
# search takes more than _MAX_STEPS steps.
_NEWTON_TOL = 1e-5
_BISECT_TOL = 1e-10
_MAX_STEPS = 100


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

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps!r}")


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
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"s must be finite and > 0, got {s!r}")
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


def _line_min(lam, i, j, w, R, d, u, v, dsq):
    """Exact minimization over the feasible segment of the move (i, j).

    Along the move, t = lam[i] and lam[j] = max((R - w[i] t) / w[j], 0),
    so each of l11 + v, l21 + v, l10 + u and l20 + u is linear in t
    with slope 0, 1 or -w[i]/w[j].  The objective is a sum of ratios of
    such linear functions, convex on the segment, and the quotient rule
    gives its first and second derivatives.  Newton runs from lam[i]
    inside a sign bracket of f' and bisects whenever a step would leave
    it; a step that would leave through an end of the segment whose f'
    is not yet known evaluates f' there first, so a boundary minimum is
    taken exactly.  The search stops when f' is zero or a step is small
    (see _NEWTON_TOL).  Leaves lam[i] at the minimizer (at the segment's
    lower end when the segment is empty) and lam[j] on the segment.
    """
    wi = w[i]
    wj = w[j]
    r = wi / wj
    # along the move, lam[k] = c[k] + s[k] t
    c = list(lam)
    c[i] = 0.0
    c[j] = R / wj
    s = [0.0, 0.0, 0.0, 0.0]
    s[i] = 1.0
    s[j] = -r
    sa, sy, sb, sx = s
    # feasible t: t >= 0, lam[j] >= 0, lam[1] <= lam[0] and lam[3] <= lam[2]
    lo = 0.0
    hi = R / wi
    for alpha, beta in ((sy - sa, c[1] - c[0]), (sx - sb, c[3] - c[2])):
        if alpha > 0.0:
            hi = min(hi, -beta / alpha)
        elif alpha < 0.0:
            lo = max(lo, -beta / alpha)
    t = lo
    if hi > lo:
        dm1 = d - 1.0
        off_i = v if i < 2 else u
        off_j = v if j < 2 else u
        q = [lam[0] + v, lam[1] + v, lam[2] + u, lam[3] + u]
        width = hi - lo
        t = lam[i]
        t = lo if t < lo else hi if t > hi else t
        # the sign bracket f'(left) < 0 < f'(right); while an end of it
        # is still an end of the segment, f' there is not yet known
        left = lo
        right = hi
        left_open = t > lo
        right_open = t < hi
        probe = False
        for _ in range(_MAX_STEPS):
            lj = (R - wi * t) / wj
            q[i] = t + off_i
            q[j] = (0.0 if lj < 0.0 else lj) + off_j
            qa, qy, qb, qx = q  # l11 + v, l21 + v, l10 + u, l20 + u
            ia = 1.0 / qa
            ib = 1.0 / qb
            ixy = 1.0 / (qx * qy)
            cxy = sx * qy - qx * sy
            ga = (sb * qa - (qb + dsq) * sa) * ia * ia  # d/dt (qb + dsq) / qa
            gb = (sa * qb - (qa + dsq) * sb) * ib * ib  # d/dt (qa + dsq) / qb
            # f' and f''/2; d/dt (qx / qy + qy / qx) = cxy (qx^2 - qy^2) / (qx qy)^2
            fp = dm1 * cxy * (qx - qy) * (qx + qy) * ixy * ixy + ga + gb
            fpp = (
                dm1 * cxy * (sx / (qx * qx * qx) - sy / (qy * qy * qy))
                - ga * sa * ia
                - gb * sb * ib
            )
            if fp > 0.0:
                if t == lo:
                    break
                right = t
                right_open = False
            elif fp < 0.0:
                if t == hi:
                    break
                left = t
                left_open = False
            else:
                break
            # q[i] and q[j] / r are the distances to where l_i + floor
            # and l_j + floor would reach zero
            scale = q[j] / r
            if q[i] < scale:
                scale = q[i]
            if width < scale:
                scale = width
            # a probed end that holds no minimum bisects
            tn = t - 0.5 * fp / fpp if fpp > 0.0 and not probe else math.nan
            probe = False
            if -_NEWTON_TOL * scale <= tn - t <= _NEWTON_TOL * scale:
                # the next step would be about this one's square
                t = left if tn < left else right if tn > right else tn
                break
            if not left < tn < right:
                if tn >= right and right_open:
                    probe = True
                    tn = right
                elif tn <= left and left_open:
                    probe = True
                    tn = left
                else:
                    tn = 0.5 * (left + right)
                    if tn - left <= _BISECT_TOL * scale:
                        t = tn
                        break
            t = tn
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
        _line_min(lam, 0, 2, w, P, d, u, v, dsq)
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
            _line_min(lam, i, j, w, R, d, u, v, dsq)
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
    constraint, and coordinate-descends with exact Newton line
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
