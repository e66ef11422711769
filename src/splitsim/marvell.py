"""Optimal noise-covariance machinery for the marvell mechanism.

Given a batch of per-example cut-layer gradients with labels (as
`protection.perturb_marvell` gives them: their orthonormal coordinates
in the frame `protection.row_space` picks), fit
class-conditional spherical Gaussians, solve the 4-variable eigenvalue
problem that minimizes the symmetrized KL divergence between the two
perturbed class distributions under a noise power budget, and turn the
solution into factored covariances plus a privacy certificate (the
achieved symmetrized KL, the implied worst-case attack-AUC upper bound,
and a total-variation upper bound).

The solve runs once per protected batch.  The zero rule pins one
class's orthogonal eigenvalue at zero, and the power equation gives the
pinned class's along eigenvalue, so the problem left is smooth in two
variables on a triangle: the other class's along and orthogonal
eigenvalues.  A damped Newton solve with an active set over the
triangle's edges and vertices runs until its KKT residual proves the
optimum to the solver's tolerance.  It is written on plain Python
floats: numpy scalars would box every read and every arithmetic step of
the loop.  Each expression keeps a fixed operand order, so a solve is a
deterministic function of its inputs down to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import StructuredCovariance

VARIANCE_FLOOR = 1e-12

# The faces of the (beta, gamma) triangle, as bits of a working set:
# gamma = 0, gamma = beta and alpha = 0 (see _solve_canonical).
_G0, _GB, _A0 = 1, 2, 4
# A step must reach _ARMIJO of its first-order decrease within
# _MAX_HALVINGS halvings; scaled Hessian eigenvalues count as >= _EIG_FLOOR.
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_EIG_FLOOR = 1e-6


@dataclass(frozen=True)
class BatchStats:
    """MLE-fitted class-conditional spherical Gaussian parameters."""

    p: float  # positive fraction of the batch
    v: float  # positive-class per-coordinate variance
    u: float  # negative-class per-coordinate variance
    delta_g: np.ndarray  # positive-class mean minus negative-class mean
    delta_norm_sq: float
    d: int  # dimension of the fitted rows: that of marvell's frame


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-8  # bound on the KKT residual
    max_sweeps: int = 200  # cap on Newton steps

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
    converged: bool  # kkt_residual <= the solve's tol
    sweeps_used: int  # Newton steps taken
    kkt_residual: float


@dataclass(frozen=True)
class PrivacyCertificate:
    sum_kl: float
    auc_bound: float
    tv_bound: float


def estimate_stats(rows: np.ndarray, labels: np.ndarray) -> BatchStats:
    """Spherical-Gaussian MLE of both classes from one batch of rows,
    fitted in float64 whatever the rows' dtype, in rows.shape[1]
    dimensions; `labels` are the batch's 0/1 labels or its positive mask.

    Marvell passes the rows' orthonormal coordinates in the frame
    `protection.row_space` picks, so that where the cut gradients' row
    space is small the fit and everything after it run in its k
    dimensions.
    """
    rows = np.asarray(rows)
    B, d = rows.shape
    pos = np.asarray(labels, dtype=bool)
    fits = []
    for mask in (pos, ~pos):
        # the class's rows, gathered into a float64 copy, then ndarray.mean's
        # sum and division, and the deviations squared and summed in place
        x = rows[mask].astype(np.float64, copy=False)
        n = x.shape[0]
        if n == 0:
            raise ValueError("both classes must be present")
        mu = np.add.reduce(x, axis=0)
        mu /= n
        x -= mu
        x *= x
        fits.append((n, mu, float(np.add.reduce(x, axis=None)) / (d * n)))
    (n_pos, mu_pos, v), (_, mu_neg, u) = fits
    delta = mu_pos - mu_neg
    return BatchStats(
        p=n_pos / B, v=v, u=u, delta_g=delta, delta_norm_sq=float(delta.dot(delta)), d=d
    )


def power_budget(s: float, stats: BatchStats) -> float:
    """Noise power cap expressed relative to the class-mean gap."""
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"s must be finite and > 0, got {s!r}")
    return s * stats.delta_norm_sq


def objective(lams, stats: BatchStats) -> float:
    """4-variable ratio objective at (lam1_pos, lam2_pos, lam1_neg, lam2_neg)."""
    l11, l21, l10, l20 = (float(x) for x in lams)
    u = max(stats.u, VARIANCE_FLOOR)
    v = max(stats.v, VARIANCE_FLOOR)
    dsq = stats.delta_norm_sq
    return float(
        (stats.d - 1.0) * ((l20 + u) / (l21 + v) + (l21 + v) / (l20 + u))
        + (l10 + u + dsq) / (l11 + v)
        + (l11 + v + dsq) / (l10 + u)
    )


def _snap(work, beta, gamma, top, m):
    """(beta, gamma) put exactly on the faces of the working set."""
    if work & _G0:
        gamma = 0.0
    if work & _A0:
        beta = top - m * gamma
    if work & _GB:
        if work & _A0:
            beta = gamma = top / (m + 1.0)
        elif work & _G0:
            beta = 0.0
        else:
            gamma = beta
    return beta, gamma


def _kkt_residual(Gb, Gg, faces):
    """Least |G - sum mu_i n_i| + sum mu_i |c_i| over multipliers mu >= 0
    on one or both of the working set's faces, each given as its unit
    normal (n_b, n_g) and slack c; |G| when no face is active."""
    best = math.hypot(Gb, Gg)
    for nb, ng, c in faces:
        mu = Gb * nb + Gg * ng
        if mu > 0.0:
            best = min(best, math.hypot(Gb - mu * nb, Gg - mu * ng) + mu * abs(c))
    if len(faces) == 2:
        (nb1, ng1, c1), (nb2, ng2, c2) = faces
        det = nb1 * ng2 - nb2 * ng1
        mu1 = (Gb * ng2 - Gg * nb2) / det
        mu2 = (nb1 * Gg - ng1 * Gb) / det
        if mu1 >= 0.0 and mu2 >= 0.0:
            best = min(best, mu1 * abs(c1) + mu2 * abs(c2))
    return best


def _solve_canonical(m, a, b, D, pa, pb, P, tol, max_steps):
    """Damped active-set Newton on the problem in canonical form.

    Class A's orthogonal eigenvalue is pinned at zero and alpha is its
    along one; beta and gamma are class B's along and orthogonal ones.
    m = d - 1, a and b are the classes' floored variances, D the squared
    mean gap and pa, pb the class weights.  The power equation gives
    alpha = (P - pb (beta + m gamma)) / pa, so with q_alpha = alpha + a,
    q_beta = beta + b and q_gamma = gamma + b the objective is

        m (q_gamma / a + a / q_gamma) + (q_beta + D) / q_alpha + (q_alpha + D) / q_beta

    on the triangle gamma >= 0, gamma <= beta, alpha >= 0.  Each step is
    the best descent among Newton steps in the working set's faces or
    with faces dropped, cut at the first face it would cross.  Returns
    (alpha, beta, gamma, steps, residual).
    """
    if P <= 0.0:
        return 0.0, 0.0, 0.0, 0, 0.0
    k = pb / pa
    top = P / pb  # beta + m gamma at alpha = 0
    gap = a - b  # the gamma at which the orthogonal term is least
    # each face's bit and the gradient (n_b, n_g) of its slack: gamma,
    # beta - gamma and alpha
    faces = ((_G0, 0.0, 1.0), (_GB, 1.0, -1.0), (_A0, -k, -k * m))
    moves = faces + ((0, 0.0, 0.0),)  # a step's face to keep, or none
    fixed = _G0 if m == 0.0 else 0  # at d = 1 gamma has no weight and no term
    # start inside the triangle: gamma at the orthogonal term's least
    # value, capped below half the budget and below beta, and beta at
    # equal q_alpha and q_beta if that leaves alpha and beta a tenth of
    # the rest
    gamma = 0.0 if fixed or gap <= 0.0 else min(gap, top / (2.0 * m + 4.0))
    rest = top - m * gamma
    beta = min(max(pb * rest + pa * gap, 0.1 * rest), 0.9 * rest)
    work = fixed if gamma else _G0
    steps = 0
    while True:
        slack_a = (P - pb * (beta + m * gamma)) / pa
        alpha = slack_a if slack_a > 0.0 else 0.0
        qa, qb, qg = alpha + a, beta + b, gamma + b
        ia, ib, ig = 1.0 / qa, 1.0 / qb, 1.0 / qg
        ea = (qb + D) * ia
        eb = (qa + D) * ib
        ha = ib - ea * ia  # d/dq_alpha of the two ratio terms
        haa = 2.0 * ea * ia * ia
        hab = -(ia * ia + ib * ib)
        e0 = gamma - gap  # q_gamma - a, without cancellation
        gB = ia - eb * ib - k * ha
        gG = m * (e0 * (qg + a) * ig * ig / a - k * ha)
        Hbb = 2.0 * eb * ib * ib - 2.0 * k * hab + k * k * haa
        Hbg = k * m * (k * haa - hab)
        Hgg = m * (2.0 * a * ig * ig * ig + k * k * m * haa)
        slacks = (gamma, beta - gamma, slack_a)

        # the residual scales each gradient component by the sum of its
        # terms' magnitudes, the most that rounding lets it resolve, and
        # each face's slack by the q it moves
        ka = k * (ib + ea * ia)
        rb = 1.0 / (ia + eb * ib + ka)
        rg = 1.0 / (m * (1.0 / a + a * ig * ig + ka)) if m else 1.0
        if work:
            active = []
            for (face, nb, ng), slack, q in zip(faces, slacks, (qg, qb, qa)):
                if work & face:
                    norm = math.hypot(nb * rb, ng * rg)
                    active.append((nb * rb / norm, ng * rg / norm, slack / q))
            residual = _kkt_residual(gB * rb, gG * rg, active)
        else:  # no face is active: the residual is |G|
            residual = math.hypot(gB * rb, gG * rg)
        if residual <= tol or steps == max_steps:
            return alpha, beta, gamma, steps, residual

        # a step moves in one face of the working set or in none, and
        # keeps the fixed face
        best, gp = None, 0.0
        for keep, tg, tb in moves:
            if keep & work != keep or keep & fixed != fixed:
                continue
            if keep:  # Newton along the face
                tb = -tb
                s = -(gB * tb + gG * tg) / (Hbb * tb * tb + 2.0 * Hbg * tb * tg + Hgg * tg * tg)
                sb, sg = s * tb, s * tg
            else:  # Newton on |H|, in Jacobi-scaled coordinates
                jb, jg = math.sqrt(Hbb), math.sqrt(Hgg)
                rho = Hbg / (jb * jg)  # eigenvalues 1 + rho, 1 - rho
                c1 = 0.5 * (gB / jb + gG / jg) / max(abs(1.0 + rho), _EIG_FLOOR)
                c2 = 0.5 * (gB / jb - gG / jg) / max(abs(1.0 - rho), _EIG_FLOOR)
                sb, sg = -(c1 + c2) / jb, -(c1 - c2) / jg
            descent = gB * sb + gG * sg
            if not descent < gp:
                continue
            drop = work & ~keep  # the step must leave each of these faces inward
            for face, nb, ng in faces:
                if drop & face and not nb * sb + ng * sg > 0.0:
                    break
            else:  # no face is left outward
                best, best_sb, best_sg, gp = keep, sb, sg, descent
        if best is None:
            return alpha, beta, gamma, steps, residual
        keep, sb, sg = best, best_sb, best_sg

        t, block = 1.0, 0  # cut at the first face the step would cross
        for (face, nb, ng), slack in zip(faces, slacks):
            if keep & face:
                continue
            rate = nb * sb + ng * sg
            if rate < 0.0:
                reach = (slack if slack > 0.0 else 0.0) / -rate
                if reach <= t:
                    t, block = reach, face

        # backtrack to Armijo's condition on the exact objective along the
        # straight step.  Each ratio term's change is formed from the
        # changes of its parts, so it resolves decreases far below the
        # objective's rounding, which the point stored on its faces blurs.
        for _ in range(_MAX_HALVINGS):
            dB, dG = t * sb, t * sg
            dA = -k * (dB + m * dG)
            qa2 = max(qa + dA, a)  # a face the step ends on can round past
            qb2 = max(qb + dB, b)
            qg2 = max(qg + dG, b)
            change = (
                m * dG * (e0 * qg2 + a * (e0 + dG)) / (a * qg * qg2)
                + (dB * qa - (qb + D) * dA) / (qa * qa2)
                + (dA * qb - (qa + D) * dB) / (qb * qb2)
            )
            if change <= _ARMIJO * t * gp:
                break
            t *= 0.5
            block = 0
        else:
            return alpha, beta, gamma, steps, residual
        beta, gamma = _snap(keep | block, beta + dB, gamma + dG, top, m)
        work = keep | block
        steps += 1


def solve(stats: BatchStats, P: float, settings: SolverSettings = SolverSettings()) -> LambdaSolution:
    """Minimize the objective over the power hyperplane.

    Applies the zero rule for the orthogonal eigenvalue (positive class
    when u < v, negative otherwise), swaps the classes so the pinned one
    is class A of _solve_canonical, and runs its Newton solve until the
    KKT residual is at most settings.tol or settings.max_sweeps Newton
    steps are spent.  There is no other solver path.
    """
    for name, x in (("P", P), ("u", stats.u), ("v", stats.v), ("delta_norm_sq", stats.delta_norm_sq)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
    if P < 0:
        raise ValueError(f"P must be >= 0, got {P!r}")
    m, p, dsq, P = float(stats.d) - 1.0, float(stats.p), float(stats.delta_norm_sq), float(P)
    u, v = float(max(stats.u, VARIANCE_FLOOR)), float(max(stats.v, VARIANCE_FLOOR))
    tol, max_steps = float(settings.tol), int(settings.max_sweeps)
    if stats.u < stats.v:  # the positive class's orthogonal eigenvalue is pinned
        alpha, beta, gamma, steps, residual = _solve_canonical(m, v, u, dsq, p, 1.0 - p, P, tol, max_steps)
        lam = (alpha, 0.0, beta, gamma)
    else:
        alpha, beta, gamma, steps, residual = _solve_canonical(m, u, v, dsq, 1.0 - p, p, P, tol, max_steps)
        lam = (beta, gamma, alpha, 0.0)
    return LambdaSolution(*lam, residual <= settings.tol, steps, residual)


def build_covariances(sol: LambdaSolution, stats: BatchStats):
    """Factored optimal covariances (positive class, negative class).

    Each is (lam1 - lam2) along the unit class-mean difference plus
    lam2 times the identity; the dense d x d matrix is never formed.
    Both share one unit direction array and clip their variances at 0:
    a `StructuredCovariance`'s invariants are formed here and nowhere else.
    """
    norm = math.sqrt(stats.delta_norm_sq)
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
    if eps >= 4.0:
        return 1.0
    return 0.5 + math.sqrt(eps) / 2.0 - eps / 8.0


def tv_upper_bound(eps: float) -> float:
    """Total-variation bound sqrt(eps)/2, capped at 1."""
    return min(0.5 * math.sqrt(eps), 1.0)


def make_certificate(sol: LambdaSolution, stats: BatchStats) -> PrivacyCertificate:
    eps = sum_kl(sol, stats)
    eps = max(eps, 0.0)  # guard float fuzz at the optimum
    return PrivacyCertificate(
        sum_kl=eps,
        auc_bound=auc_upper_bound(eps),
        tv_bound=tv_upper_bound(eps),
    )
