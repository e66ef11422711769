"""Shared numeric primitives: seeded RNG streams and structured
Gaussian sampling.

Covariances (plain records that `marvell.build_covariances` forms) are
float64, as are the mechanisms' fits, solves and certificates; their
noise is drawn and formed in float32, the dtype of a run's model
(`model.RUN_DTYPE`), in as many dimensions as its covariance has:
marvell's in those of the frame `protection.row_space` picks.
Randomness goes through SFC64 generators, each seeded by
`SeedSequence(entropy=seed, spawn_key=(stream,))`.  The
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

import numpy as np

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
    cov: StructuredCovariance, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n independent draws, stacked as a float32 (n, d) matrix
    c Z + s dir^T, from `rng`'s float32 standard normals; the product
    s dir^T rounds the float64 direction to float32 first.  d is the
    covariance's own dimension: that of marvell's frame.

    One call draws the n along-direction scalars and then the isotropic
    block, in that fixed order, so batches are reproducible.  With
    iso_var == 0 there is no isotropic block: only the n scalars are
    drawn and the rank-one term is returned.  Otherwise the isotropic
    block is scaled and shifted in place; the rank-one term is the only
    other (n, d) array built.
    """
    d = cov.direction.shape[0]
    draws = rng.standard_normal(n if cov.iso_var == 0.0 else n * (d + 1), dtype=np.float32)
    z0 = draws[:n]
    z0 *= math.sqrt(cov.along_var)
    rank_one = np.multiply(z0[:, None], cov.direction, dtype=np.float32)
    if cov.iso_var == 0.0:
        return rank_one
    z = draws[n:].reshape(n, d)
    z *= math.sqrt(cov.iso_var)
    z += rank_one
    return z
