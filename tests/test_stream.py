"""A mechanism's noise is its generator's own stream of float32 standard
normals: the sampler takes them in a fixed order, whatever the shapes of
its draws, and no mechanism asks for another dtype.

A float32 normal takes a varying number of 32-bit halves of the
generator's 64-bit outputs, so a draw can end with a spare half in the
generator's state; random chunks of odd shapes make consecutive draws
meet at such a carry."""

import numpy as np
import pytest

from splitsim.attacks import split_labels
from splitsim.numeric import StructuredCovariance, make_rng, sample_structured_gaussian_batch
from splitsim.protection import MechanismConfig, apply_mechanism


def _chunks(chooser, total: int):
    """(n, d, rank_one) sampler calls, drawing about `total` normals in
    all: small and odd shapes among them, and rank-one-only calls, which
    draw just their n scalars."""
    calls, drawn = [], 0
    while drawn < total:
        n, d = int(chooser.integers(1, 300)), int(chooser.integers(1, 400))
        rank_one = bool(chooser.integers(4) == 0)
        calls.append((n, d, rank_one))
        drawn += n if rank_one else n * (d + 1)
    return calls


def _cov(d: int, rank_one: bool) -> StructuredCovariance:
    # returns its draws exactly: the n scalars along e_0 when rank-one
    # only, else the isotropic block, unscaled and with a zero rank-one term
    direction = np.zeros(d)
    direction[0] = 1.0
    return StructuredCovariance(direction, float(rank_one), 0.0 if rank_one else 1.0)


@pytest.mark.parametrize("chunking", range(3))
def test_normal_stream_matches_its_generator(chunking):
    calls = _chunks(np.random.default_rng(chunking), 1 << 20)
    total = sum(n if r else n * (d + 1) for n, d, r in calls)
    want = make_rng(8, chunking).standard_normal(total, dtype=np.float32)
    rng, at = make_rng(8, chunking), 0
    for n, d, rank_one in calls:
        out = sample_structured_gaussian_batch(_cov(d, rank_one), rng, n)
        assert out.shape == (n, d) and out.dtype == np.float32
        if rank_one:
            got, size = out[:, 0], n
        else:  # the n scalars come first
            got, size = out.reshape(-1), n * d
            at += n
        assert got.tobytes() == want[at:at + size].tobytes()
        at += size
    assert at == total


def test_some_blocks_end_on_a_spare_half():
    # the chunks above end on a spare 32-bit half of the generator's
    # output now and then, which the next draw takes up
    rng, spare = make_rng(8, 0), []
    for n, d, rank_one in _chunks(np.random.default_rng(0), 1 << 20):
        sample_structured_gaussian_batch(_cov(d, rank_one), rng, n)
        spare.append(rng.bit_generator.state["has_uint32"])
    assert 0 < sum(spare) < len(spare)


class _DtypeSpy:
    """A generator that records the dtype of each standard-normal draw."""

    def __init__(self, rng):
        self.rng, self.dtypes = rng, []

    def standard_normal(self, size=None, dtype=np.float64):
        self.dtypes.append(np.dtype(dtype))
        return self.rng.standard_normal(size, dtype=dtype)


def test_normal_stream_draws_float32_only():
    # marvell in the row space (k = 4 < d = 32) and on g's own rows (a
    # batch no larger than its factor), iso and max_norm, on batches of
    # either dtype
    rng = make_rng(3)
    for dtype in (np.float32, np.float64):
        for B, k, d in ((64, 4, 32), (8, 8, 8)):
            factor = (rng.standard_normal((B, k)).astype(dtype),
                      rng.standard_normal((k, d)).astype(dtype))
            split = split_labels((np.arange(B) % 3 == 0).astype(dtype))
            for config in (MechanismConfig(kind="marvell", s=1.0),
                           MechanismConfig(kind="iso", t=1.0),
                           MechanismConfig(kind="max_norm")):
                spy = _DtypeSpy(make_rng(4))
                outcome = apply_mechanism(config, factor, split, spy)
                assert outcome.perturbed.dtype == dtype
                assert spy.dtypes and set(spy.dtypes) == {np.dtype(np.float32)}, config
