"""Perturbation mechanisms the label party applies to the cut-layer
gradient batch before communicating it: none, iso, max_norm, marvell.

All mechanisms are unbiased (E[perturbed | clean] = clean) so the
non-label party's parameter gradients stay unbiased.

A mechanism fits, solves and certifies in float64, whatever the
batch's dtype (float32 or float64), and draws its noise in float32:
iso and marvell add the same float32 noise to either dtype's rows
(upcast for a float64 batch), and max_norm scales each row in float64
by its float32 draw.  The sum of two float32 values rounds to the same
float32 whether it is formed in float32 or in float64, so a float32
batch's output rows are its float64 twin's, rounded.  A mechanism that
leaves the batch unperturbed returns the caller's batch itself.

Each mechanism draws its noise with `rng.standard_normal(size,
dtype=np.float32)` alone, so `rng` may be a generator or a
`stream.NormalStream` over one: both give the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import marvell
from .numeric import sample_structured_gaussian_batch
from .stream import NormalStream

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
    # the caller's batch itself on every unperturbed exit; no reader
    # writes to it
    perturbed: np.ndarray
    certificate: marvell.PrivacyCertificate | None = None
    noise_power: float = 0.0
    fallback: bool = False  # marvell passed through (single-class / zero-gap batch)
    solution: marvell.LambdaSolution | None = None  # marvell's solve; None off that path


def perturb_none(g: np.ndarray) -> PerturbOutcome:
    """no_noise baseline: identity."""
    return PerturbOutcome(perturbed=g)


def perturb_iso(
    g: np.ndarray, t: float, rng: np.random.Generator | NormalStream
) -> PerturbOutcome:
    """Isotropic Gaussian baseline.

    Every row gets independent N(0, (t/d) ||g_max||^2 I) noise, where
    g_max is the largest-norm row of this batch; `rng` is a generator or
    a NormalStream.
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


def perturb_max_norm(g: np.ndarray, rng: np.random.Generator | NormalStream) -> PerturbOutcome:
    """Norm-alignment heuristic.

    Row j becomes g_j (1 + sigma_j z_j) with sigma_j chosen so the
    expected squared norm of every perturbed row equals the batch
    maximum; this realizes exactly the rank-1 covariance
    sigma_j^2 g_j g_j^T in O(d) per row.  `rng` (a generator or a
    NormalStream) draws the B scalars z_j.
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


def perturb_marvell(
    g: np.ndarray, split, s: float, rng: np.random.Generator | NormalStream, factor=None
) -> PerturbOutcome:
    """Optimized class-dependent Gaussian perturbation.

    `split` is the batch's `attacks.split_labels` split, `rng` a
    generator or a NormalStream that draws the noise, and `factor` None
    or g's (coords, basis) factor, which `marvell.estimate_stats` may
    fit from instead of g's rows.  Fits batch statistics, solves the
    eigenvalue problem at power P = s ||delta_g||^2, and perturbs each
    class with its optimal covariance.  A single-class batch (or a zero class-mean gap) is
    passed through unperturbed and flagged as a fallback.  That is not
    rare at small batch sizes: a B=16 batch at a 10% positive rate
    holds one class about a fifth of the time.
    """
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"s must be finite and > 0, got {s!r}")
    pos, neg, n_pos, n_neg = split
    if g.ndim != 2 or pos.shape != g.shape[:1]:
        raise ValueError("g must be (B, d) with one label per row")
    # the split's counts decide the fallback
    if not (n_pos and n_neg):
        return PerturbOutcome(perturbed=g, fallback=True)
    stats = marvell.estimate_stats(g, pos, factor)
    if stats.delta_norm_sq == 0.0:
        return PerturbOutcome(perturbed=g, fallback=True)

    P = marvell.power_budget(s, stats)
    sol = marvell.solve(stats, P)
    pos_cov, neg_cov = marvell.build_covariances(sol, stats)
    cert = marvell.make_certificate(sol, stats)

    # each class's float32 noise is scattered into the output, upcast on
    # a float64 batch, and the batch is added in place: no class's rows
    # are gathered
    perturbed = np.empty(g.shape, dtype=g.dtype)
    for mask, cov, n in ((pos, pos_cov, n_pos), (neg, neg_cov, n_neg)):
        perturbed[mask] = sample_structured_gaussian_batch(cov, rng, n)
    perturbed += g
    return PerturbOutcome(
        perturbed=perturbed,
        certificate=cert,
        noise_power=marvell.noise_power(sol, stats),
        solution=sol,
    )


def apply_mechanism(
    config: MechanismConfig,
    g: np.ndarray,
    split,
    rng: np.random.Generator | NormalStream,
    factor=None,
) -> PerturbOutcome:
    """`config`'s mechanism on batch `g`; `split` is the batch's
    `attacks.split_labels` split and `factor` g's (coords, basis)
    factor or None, both of which only marvell reads, and `rng` a
    generator or a NormalStream that draws the noise."""
    if config.kind == "none":
        return perturb_none(g)
    if config.kind == "iso":
        return perturb_iso(g, config.t, rng)
    if config.kind == "max_norm":
        return perturb_max_norm(g, rng)
    return perturb_marvell(g, split, config.s, rng, factor)
