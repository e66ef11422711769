"""The benchmark's workloads, as the JSON config dicts splitsim accepts.

Each workload is a whole seeded training run.  The seed is the only
input the benchmark varies; it becomes the config's ``seed``, from
which splitsim derives its data, init, batching, noise and attack
streams.  This module imports nothing from splitsim, so the set-up
probe can time the package import itself.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 7  # the acceptance seed

# The ROADMAP acceptance task (tests/test_acceptance.py::_acceptance_config):
# 8000x20 synthetic data at pos_frac 0.1, MLP 64-384-16 cut at 384, B=256.
_ACCEPTANCE = {
    "dataset": {
        "kind": "synthetic",
        "n": 8000,
        "d_in": 20,
        "pos_frac": 0.1,
        "separation": 2.0,
        "noise_scale": 1.0,
        "test_frac": 0.2,
    },
    "net": {"hidden_dims": [64, 384, 16], "activations": ["relu"] * 3, "cut_index": 2},
    "batch_size": 256,
    "iterations": 200,
}

# The README example network (32-32-16 cut at 16) on 4000x20 data.
_SMALL = {
    "dataset": {
        "kind": "synthetic",
        "n": 4000,
        "d_in": 20,
        "pos_frac": 0.1,
        "separation": 2.0,
        "noise_scale": 1.0,
        "test_frac": 0.2,
    },
    "net": {"hidden_dims": [32, 32, 16], "activations": ["relu"] * 3, "cut_index": 2},
    "batch_size": 16,
    "iterations": 2000,
}

# Why each workload is here:
# - accept_none: model and attack work only (mechanism ~1%); the bypass
#   workload on which a mechanism or solver change must show no change.
# - accept_marvell: same model work plus marvell at s=4 (the c09/c10
#   point); large-d noise sampling dominates the mechanism, one solve per
#   iteration.
# - small_marvell: tiny arrays, B=16, s=1, 2000 iterations; bound by
#   per-call overhead, the solve dominates, and ~19% of batches hold one
#   class, so the marvell fallback path runs.
WORKLOADS = {
    "accept_none": {**_ACCEPTANCE, "mechanism": {"kind": "none"}},
    "accept_marvell": {**_ACCEPTANCE, "mechanism": {"kind": "marvell", "s": 4.0}},
    "small_marvell": {**_SMALL, "mechanism": {"kind": "marvell", "s": 1.0}},
}

# The HostProbe each workload's timings are scaled by: the one whose work
# tracked the workload's own slowdowns best on a shared host (see
# run.HostProbe).  The acceptance runs are bound by BLAS products,
# small_marvell by per-call overhead on tiny arrays.
HOST_PROBE = {
    "accept_none": "blas",
    "accept_marvell": "blas",
    "small_marvell": "small_arrays",
}


def config_dict(name: str, seed: int) -> dict:
    """The config dict of workload `name` at `seed` (a fresh copy)."""
    return {**copy.deepcopy(WORKLOADS[name]), "seed": int(seed)}
