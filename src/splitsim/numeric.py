"""Shared numeric primitives: seeded RNG streams and structured
Gaussian sampling.

Covariances (plain records that `marvell.build_covariances` forms) and
draws are float64, as is all of the mechanisms' arithmetic; a run's
model is float32 (`model.RUN_DTYPE`), and a mechanism rounds only its
noisy output rows to it.  Randomness goes through SFC64 generators,
each seeded by `SeedSequence(entropy=seed, spawn_key=(stream,))`.  The
seed sequence, not the bit generator, is what makes a (seed, stream)
pair always reproduce the same draw sequence and keeps generators with
different keys independent; a run gives each of its streams (data,
init, batching, noise, attack oracle) its own seed.  SFC64 is there
for speed alone: it fills a large standard-normal draw about 30%
faster than Philox.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .stream import NormalStream

__all__ = [
    "make_rng",
    "StructuredCovariance",
    "sample_structured_gaussian_batch",
]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream).

    Streams with the same seed but different stream indices are
    statistically independent; the same pair always yields the same
    sequence.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.SFC64(ss))


@dataclass(frozen=True)
class StructuredCovariance:
    """Rank-one-plus-isotropic covariance in factored form.

    Represents along_var * direction direction^T + iso_var * I without
    ever materializing the dense d x d matrix.  `direction` is a float64
    unit vector and both variances are >= 0, as the one producer,
    `marvell.build_covariances`, forms them; nothing here checks them.
    """

    direction: np.ndarray
    along_var: float
    iso_var: float


def sample_structured_gaussian_batch(
    cov: StructuredCovariance, rng: np.random.Generator | NormalStream, n: int
) -> np.ndarray:
    """n independent draws, stacked as an (n, d) matrix, from `rng`'s
    standard normals (a generator or a NormalStream).

    Draw order is fixed (all along-direction scalars first, then the
    isotropic block) so batches are reproducible.  With iso_var == 0
    there is no isotropic block: only the n scalars are drawn and the
    rank-one term is returned.  Otherwise the isotropic draw is scaled
    and shifted in place; the rank-one term is the only other (n, d)
    array built.
    """
    z0 = rng.standard_normal(n)
    z0 *= math.sqrt(cov.along_var)
    rank_one = z0[:, None] * cov.direction
    if cov.iso_var == 0.0:
        return rank_one
    z = rng.standard_normal((n, cov.direction.shape[0]))
    z *= math.sqrt(cov.iso_var)
    z += rank_one
    return z
