"""Perturbation mechanisms the label party applies to the cut-layer
gradient batch before communicating it: none, iso, max_norm, marvell.

All mechanisms are unbiased (E[perturbed | clean] = clean) so the
non-label party's parameter gradients stay unbiased.

The label party holds the batch's cut gradients as their factor
g = coords @ basis (`model.label_party_gradients`), and
`apply_mechanism` forms the one B x d matrix the non-label party
receives.  none, iso and max_norm form g and work on its rows.  Every
row of g lies in the row space of basis, and where the factor holds
fewer values than g (B k + k d < B d) marvell works there: it fits,
solves and certifies on the rows' orthonormal coordinates in that
k-dim space (`row_space`), draws its noise in those k dimensions, maps
it back to coords and forms (coords + noise) @ basis.  Elsewhere it
works on g's rows as they are, in d dimensions.

A mechanism fits, solves and certifies in float64, whatever the
batch's dtype (float32 or float64), and draws its noise in float32,
with `rng.standard_normal(size, dtype=np.float32)`.  iso, and marvell
on g's own rows, add the same float32 noise to either dtype's rows
(upcast for a float64 batch), and max_norm scales each row in float64
by its float32 draw.  The sum of two float32 values rounds to the same
float32 whether it is formed in float32 or in float64, so there a
float32 batch's output rows are its float64 twin's, rounded.  Marvell
in the row space maps and adds its noise and forms the product in the
batch's dtype.  A mechanism that leaves g unperturbed returns g itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import marvell
from .numeric import sample_structured_gaussian_batch

MECHANISMS = ("none", "iso", "max_norm", "marvell")
# The MechanismConfig field that holds each mechanism's privacy hyperparameter.
HYPERPARAMETERS = {"iso": "t", "marvell": "s"}


@dataclass(frozen=True)
class MechanismConfig:
    """Mechanism choice plus its privacy hyperparameter, fixed for a run.
    The hyperparameter a kind does not read must keep its default."""

    kind: str = "none"
    t: float = 1.0  # iso noise scale
    s: float = 1.0  # marvell power scale

    def __post_init__(self):
        if self.kind not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.kind!r}")
        if self.kind == "iso" and not (math.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"iso t must be finite and >= 0, got {self.t!r}")
        if self.kind == "marvell" and not (math.isfinite(self.s) and self.s > 0):
            raise ValueError(f"marvell s must be finite and > 0, got {self.s!r}")
        for name in ("t", "s"):
            value = getattr(self, name)
            if name != HYPERPARAMETERS.get(self.kind) and value != getattr(MechanismConfig, name):
                raise ValueError(f"mechanism {self.kind} takes no {name}, got {name}={value!r}")

    @property
    def param(self) -> float | None:
        name = HYPERPARAMETERS.get(self.kind)
        return None if name is None else getattr(self, name)


@dataclass
class PerturbOutcome:
    # g itself on every unperturbed exit: the batch a perturb_* function
    # was given, or the g that apply_mechanism or marvell's fallback
    # formed; no reader writes to it
    perturbed: np.ndarray
    certificate: marvell.PrivacyCertificate | None = None
    noise_power: float = 0.0
    fallback: bool = False  # marvell passed through (single-class / zero-gap batch)


def perturb_none(g: np.ndarray) -> PerturbOutcome:
    """no_noise baseline: identity."""
    return PerturbOutcome(perturbed=g)


def perturb_iso(g: np.ndarray, t: float, rng: np.random.Generator) -> PerturbOutcome:
    """Isotropic Gaussian baseline.

    Every row gets independent N(0, (t/d) ||g_max||^2 I) noise, where
    g_max is the largest-norm row of this batch.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    g64 = g.astype(np.float64, copy=False)
    B, d = g.shape
    max_sq = float((g64 * g64).sum(axis=1).max())
    var = t / d * max_sq
    if var == 0.0:
        return PerturbOutcome(perturbed=g)
    noise = rng.standard_normal((B, d), dtype=np.float32)
    noise *= math.sqrt(var)
    return PerturbOutcome(perturbed=g + noise, noise_power=t * max_sq)


def perturb_max_norm(g: np.ndarray, rng: np.random.Generator) -> PerturbOutcome:
    """Norm-alignment heuristic.

    Row j becomes g_j (1 + sigma_j z_j) with sigma_j chosen so the
    expected squared norm of every perturbed row equals the batch
    maximum; this realizes exactly the rank-1 covariance
    sigma_j^2 g_j g_j^T in O(d) per row.  `rng` draws the B scalars z_j.
    """
    g64 = g.astype(np.float64, copy=False)
    sq = (g64 * g64).sum(axis=1)
    max_sq = float(sq.max())
    if max_sq == 0.0:
        return PerturbOutcome(perturbed=g)
    sigma = np.zeros(g.shape[0])
    nz = sq > 0.0
    sigma[nz] = np.sqrt(max_sq / sq[nz] - 1.0)
    z = rng.standard_normal(g.shape[0], dtype=np.float32)
    perturbed = g64 * (1.0 + sigma * z)[:, None]
    # batch-average trace of the per-row noise covariances
    power = float((sigma**2 * sq).mean())
    return PerturbOutcome(perturbed=perturbed.astype(g.dtype, copy=False), noise_power=power)


def row_space(coords: np.ndarray, basis: np.ndarray):
    """(rows, back) for the batch g = coords @ basis, where coords is
    B x k and basis k x d: rows holds g's rows in the orthonormal frame
    marvell fits and draws in, and back maps a row of that frame to
    coords, in coords' dtype, or is None where the frame is R^d's own.

    Where the factor holds fewer values than g (B k + k d < B d, so
    k < d), the frame spans basis's k-dim row space, which holds every
    row of g.  With L the Cholesky factor of the Gram matrix
    K = basis basis^T (K = L L^T, in float64), rows = coords @ L (B x k,
    float64) and back = L^-1: the rows of L^-1 basis are orthonormal,
    and g = rows (L^-1 basis).  A singular K, as from dependent rows of
    basis, has no such frame and raises ValueError.  Elsewhere rows is
    g itself, in the batch's dtype: at k >= d the row space is all of
    R^d, and a batch no larger than its factor (small_marvell's 16x32
    batches at k = 16) would pay the factorization and the inverse, a
    fixed cost, for a draw it barely shrinks.
    """
    B = coords.shape[0]
    k, d = basis.shape
    if k * (B + d) >= B * d:
        return coords @ basis, None
    b = basis.astype(np.float64)
    try:
        L = np.linalg.cholesky(b @ b.T)
    except np.linalg.LinAlgError:
        raise ValueError(
            "the cut gradients' basis has linearly dependent rows (a singular Gram "
            "matrix), so marvell has no orthonormal frame for their row space"
        ) from None
    return coords @ L, np.linalg.inv(L).astype(coords.dtype, copy=False)


def perturb_marvell(factor, split, s: float, rng: np.random.Generator) -> PerturbOutcome:
    """Optimized class-dependent Gaussian perturbation of the batch
    g = coords @ basis, given as its factor (coords, basis).

    `split` is the batch's `attacks.split_labels` split and `rng` draws
    the noise.  Fits batch statistics on the rows' coordinates in the
    frame `row_space` picks, solves the eigenvalue problem at
    power P = s ||delta_g||^2, and perturbs each class with its optimal
    covariance there.  A single-class batch (or a zero class-mean gap)
    is passed through unperturbed, as g, and flagged as a fallback.
    That is not rare at small batch sizes: a B=16 batch at a 10%
    positive rate holds one class about a fifth of the time.
    """
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"s must be finite and > 0, got {s!r}")
    coords, basis = factor
    pos, neg, n_pos, n_neg = split
    if coords.ndim != 2 or pos.shape != coords.shape[:1]:
        raise ValueError("coords must be (B, k) with one label per row")
    # the split's counts decide the fallback
    if not (n_pos and n_neg):
        return PerturbOutcome(perturbed=coords @ basis, fallback=True)
    rows, back = row_space(coords, basis)
    stats = marvell.estimate_stats(rows, pos)
    if stats.delta_norm_sq == 0.0:
        return PerturbOutcome(perturbed=rows if back is None else coords @ basis, fallback=True)

    P = marvell.power_budget(s, stats)
    sol = marvell.solve(stats, P)
    pos_cov, neg_cov = marvell.build_covariances(sol, stats)
    cert = marvell.make_certificate(sol, stats)

    # each class's float32 noise is scattered into one block, upcast on a
    # float64 batch: no class's rows are gathered
    noise = np.empty((coords.shape[0], stats.d), dtype=coords.dtype)
    for mask, cov, n in ((pos, pos_cov, n_pos), (neg, neg_cov, n_neg)):
        noise[mask] = sample_structured_gaussian_batch(cov, rng, n)
    if back is None:  # the frame is g's own
        noise += rows
        perturbed = noise
    else:  # to coords, then the one B x d product
        w = noise @ back
        w += coords
        perturbed = w @ basis
    return PerturbOutcome(
        perturbed=perturbed, certificate=cert, noise_power=marvell.noise_power(sol, stats)
    )


def apply_mechanism(
    config: MechanismConfig, factor, split, rng: np.random.Generator
) -> PerturbOutcome:
    """`config`'s mechanism on the batch whose cut gradients are
    g = coords @ basis, given as factor = (coords, basis).  The outcome's
    `perturbed` is the B x d matrix the non-label party receives, the
    batch's one B x d product.  `split` is the batch's
    `attacks.split_labels` split, which only marvell reads, and `rng`
    draws the noise."""
    if config.kind == "marvell":
        return perturb_marvell(factor, split, config.s, rng)
    coords, basis = factor
    g = coords @ basis
    if config.kind == "iso":
        return perturb_iso(g, config.t, rng)
    if config.kind == "max_norm":
        return perturb_max_norm(g, rng)
    return perturb_none(g)
