"""Perturbation mechanisms the label party applies to the cut-layer
gradient batch before communicating it: none, iso, max_norm, marvell.

All mechanisms are unbiased (E[perturbed | clean] = clean) so the
non-label party's parameter gradients stay unbiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import marvell
from .numeric import sample_structured_gaussian_batch

MECHANISMS = ("none", "iso", "max_norm", "marvell")
# The MechanismConfig field that holds each mechanism's privacy hyperparameter.
HYPERPARAMETERS = {"iso": "t", "marvell": "s"}


@dataclass(frozen=True)
class MechanismConfig:
    """Mechanism choice plus its privacy hyperparameter, fixed for a run."""

    kind: str = "none"
    t: float = 1.0  # iso noise scale
    s: float = 1.0  # marvell power scale
    solver: marvell.SolverSettings = field(default_factory=marvell.SolverSettings)

    def __post_init__(self):
        if self.kind not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.kind!r}")
        if self.kind == "iso" and not (math.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"iso t must be finite and >= 0, got {self.t!r}")
        if self.kind == "marvell" and not (math.isfinite(self.s) and self.s > 0):
            raise ValueError(f"marvell s must be finite and > 0, got {self.s!r}")

    @property
    def param(self) -> float | None:
        name = HYPERPARAMETERS.get(self.kind)
        return None if name is None else getattr(self, name)


@dataclass
class PerturbOutcome:
    perturbed: np.ndarray
    certificate: marvell.PrivacyCertificate | None = None
    noise_power: float = 0.0
    fallback: bool = False  # marvell passed through (single-class / zero-gap batch)
    solution: marvell.LambdaSolution | None = None  # marvell's solve; None off that path


def perturb_none(g: np.ndarray) -> PerturbOutcome:
    """no_noise baseline: identity."""
    return PerturbOutcome(perturbed=np.array(g, dtype=np.float64))


def perturb_iso(g: np.ndarray, t: float, rng: np.random.Generator) -> PerturbOutcome:
    """Isotropic Gaussian baseline.

    Every row gets independent N(0, (t/d) ||g_max||^2 I) noise, where
    g_max is the largest-norm row of this batch.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    g = np.asarray(g, dtype=np.float64)
    B, d = g.shape
    max_sq = float((g * g).sum(axis=1).max())
    var = t / d * max_sq
    if var == 0.0:
        return PerturbOutcome(perturbed=g.copy())
    noise = np.sqrt(var) * rng.standard_normal((B, d))
    return PerturbOutcome(perturbed=g + noise, noise_power=t * max_sq)


def perturb_max_norm(g: np.ndarray, rng: np.random.Generator) -> PerturbOutcome:
    """Norm-alignment heuristic.

    Row j becomes g_j (1 + sigma_j z_j) with sigma_j chosen so the
    expected squared norm of every perturbed row equals the batch
    maximum; this realizes exactly the rank-1 covariance
    sigma_j^2 g_j g_j^T in O(d) per row.
    """
    g = np.asarray(g, dtype=np.float64)
    B, _ = g.shape
    sq = (g * g).sum(axis=1)
    max_sq = float(sq.max())
    if max_sq == 0.0:
        return PerturbOutcome(perturbed=g.copy())
    sigma = np.zeros(B)
    nz = sq > 0.0
    sigma[nz] = np.sqrt(max_sq / sq[nz] - 1.0)
    z = rng.standard_normal(B)
    perturbed = g * (1.0 + sigma * z)[:, None]
    # batch-average trace of the per-row noise covariances
    power = float((sigma**2 * sq).mean())
    return PerturbOutcome(perturbed=perturbed, noise_power=power)


def perturb_marvell(
    g: np.ndarray,
    labels: np.ndarray,
    s: float,
    rng: np.random.Generator,
    settings: marvell.SolverSettings = marvell.SolverSettings(),
) -> PerturbOutcome:
    """Optimized class-dependent Gaussian perturbation.

    Fits batch statistics, solves the eigenvalue problem at power
    P = s ||delta_g||^2, and perturbs each class with its optimal
    covariance.  Single-class batches (or a zero class-mean gap) fall
    back to pass-through and are flagged; the harness keeps such
    batches rare.
    """
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"s must be finite and > 0, got {s!r}")
    g = np.asarray(g, dtype=np.float64)
    labels = np.asarray(labels)
    try:
        stats = marvell.estimate_stats(g, labels)
    except marvell.SingleClassBatchError:
        return PerturbOutcome(perturbed=g.copy(), fallback=True)
    if stats.delta_norm_sq == 0.0:
        return PerturbOutcome(perturbed=g.copy(), fallback=True)

    P = marvell.power_budget(s, stats)
    sol = marvell.solve(stats, P, settings)
    pos_cov, neg_cov = marvell.build_covariances(sol, stats)
    cert = marvell.make_certificate(sol, stats)

    perturbed = g.copy()
    pos = labels == 1
    n_pos = int(pos.sum())
    perturbed[pos] += sample_structured_gaussian_batch(pos_cov, rng, n_pos)
    perturbed[~pos] += sample_structured_gaussian_batch(neg_cov, rng, g.shape[0] - n_pos)
    return PerturbOutcome(
        perturbed=perturbed,
        certificate=cert,
        noise_power=marvell.noise_power(sol, stats),
        solution=sol,
    )


def apply_mechanism(
    config: MechanismConfig, g: np.ndarray, labels: np.ndarray, rng: np.random.Generator
) -> PerturbOutcome:
    if config.kind == "none":
        return perturb_none(g)
    if config.kind == "iso":
        return perturb_iso(g, config.t, rng)
    if config.kind == "max_norm":
        return perturb_max_norm(g, rng)
    return perturb_marvell(g, labels, config.s, rng, config.solver)
