"""The run bytes of the benchmark's three workloads, pinned by sha256.

A performance change is meant to leave every byte of `run.csv` and
`summary.csv` unchanged.  These are the workload configs of
`perfbench/workloads.py` at seed 7, and the hashes are the ones
recorded when the single backward pass per party landed; every later
speed-up has kept them.  The matrix products go through numpy's BLAS,
so a different BLAS build may round differently and change the bytes
without any change to this package.
"""

import hashlib

import numpy as np
import pytest

from splitsim.harness import config_from_dict, run_to_dir

_ACCEPTANCE = {
    "dataset": {"kind": "synthetic", "n": 8000, "d_in": 20, "pos_frac": 0.1,
                "separation": 2.0, "noise_scale": 1.0, "test_frac": 0.2},
    "net": {"hidden_dims": [64, 384, 16], "activations": ["relu"] * 3, "cut_index": 2},
    "batch_size": 256,
    "iterations": 200,
}
_SMALL = {
    "dataset": {"kind": "synthetic", "n": 4000, "d_in": 20, "pos_frac": 0.1,
                "separation": 2.0, "noise_scale": 1.0, "test_frac": 0.2},
    "net": {"hidden_dims": [32, 32, 16], "activations": ["relu"] * 3, "cut_index": 2},
    "batch_size": 16,
    "iterations": 2000,
}
WORKLOADS = {
    "accept_none": {**_ACCEPTANCE, "mechanism": {"kind": "none"}},
    "accept_marvell": {**_ACCEPTANCE, "mechanism": {"kind": "marvell", "s": 4.0}},
    "small_marvell": {**_SMALL, "mechanism": {"kind": "marvell", "s": 1.0}},
}
SEED = 7
SHA256 = {
    "accept_none": {
        "run.csv": "93dd949b8501e392af884f297391fe643a21cc4f57c14bd4d39c66c23839cb30",
        "summary.csv": "c8ccd8d2740421c00ec07e121b1de2b603a55d9d67fd9976c37ed44fe61a0651",
    },
    "accept_marvell": {
        "run.csv": "14d8368c479e7f8223dcf6a2d8b768437e0d4e0d3efe8791b48b52bf16eb5fba",
        "summary.csv": "49470dd0c8ba2a474eb0345c40568b2040cc726c13b9af766e321f5c9a0b14e2",
    },
    "small_marvell": {
        "run.csv": "4e4b27c3b82b5fc9c1943af5b350d64d7c9639d91123edc58db1cd29d71b8e07",
        "summary.csv": "2675e60deaf97db2ba08b8fc6fb7ae57bbc1698f6c6b6886486fcd257f9c29b1",
    },
}


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_run_bytes_match_pinned_hashes(workload, tmp_path):
    config = config_from_dict({**WORKLOADS[workload], "seed": SEED})
    run_to_dir(config, tmp_path)
    for name, want in SHA256[workload].items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == want, (
            f"{workload} seed {SEED}: {name} sha256 {got} differs from the pinned {want} "
            f"(numpy {np.__version__}, BLAS {_blas()}; the pinned bytes were written with "
            f"scipy-openblas 0.3.31, and another BLAS build may round differently)"
        )
