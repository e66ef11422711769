"""The run bytes of the benchmark's three workloads, pinned by sha256.

A performance change is meant to leave every byte of `run.csv` and
`summary.csv` unchanged.  The configs are taken from
`perfbench/workloads.py` (the `workloads` fixture) at seed 7, so the
pinned bytes are always the benchmark's own workloads.  Besides a
change to this package, such as another bit generator behind
`numeric.make_rng`, a different BLAS build can move the bytes: the
matrix products go through numpy's BLAS and may round differently.

accept_marvell was re-pinned when marvell moved into the row space of
the cut gradients: where the label party's factor coords @ basis holds
fewer values than the batch, as accept_marvell's does (k = 16, d = 384),
marvell fits, solves and draws in those k dimensions instead of the cut
width, so its certificate, its noise and the received matrix
(coords + noise) @ basis all changed.  small_marvell's 16x32 batches
(k = 16) are no larger than their factor, so marvell still works on
their rows, and it kept its bytes, as did accept_none, which draws no
noise; both now form their cosine oracle row as coords[j] @ basis.
"""

import hashlib

import numpy as np
import pytest

from splitsim import harness, model, protection
from splitsim.harness import config_from_dict, run_to_dir
from splitsim.marvell import solve
from splitsim.numeric import make_rng

SEED = 7
SHA256 = {
    "accept_none": {
        "run.csv": "3de12fda02fb04abd2f2d17fa1511bef73fd114df7d859f865b77b7d569b516c",
        "summary.csv": "43488c7b4af26b093755cd9581ae4505a69790ee33933a0afa18ce8db1193170",
    },
    "accept_marvell": {
        "run.csv": "90bd855aa42965343bc0de56732c65ca219998ce2eb313c21d1834c6d677c213",
        "summary.csv": "2b772e0170661b95c6e6185f050f80a6c24b356aa850b8a623f65efbcced0b20",
    },
    "small_marvell": {
        "run.csv": "837d30030ae0d91139cc6191f4782b74d5297d50b9e989d5986a71c5a92e560f",
        "summary.csv": "8b4904c4c8b5b9f68429fdf539366aef7cb44fcb7dfafd33aaa6aa572eaa1444",
    },
}


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


@pytest.fixture(scope="module")
def workload_run(request, tmp_path_factory, workloads):
    """Run one workload at SEED, once per module, into a fresh directory;
    returns (name, directory)."""
    name = request.param
    out = tmp_path_factory.mktemp(name)
    run_to_dir(config_from_dict(workloads.config_dict(name, SEED)), out)
    return name, out


@pytest.mark.parametrize("workload_run", sorted(SHA256), indirect=True)
def test_workload_run_bytes_match_pinned_hashes(workload_run):
    workload, out = workload_run
    for name, want in SHA256[workload].items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == want, (
            f"{workload} seed {SEED}: {name} sha256 {got} differs from the pinned {want} "
            f"(numpy {np.__version__}, BLAS {_blas()}, bit generator "
            f"{type(make_rng(0).bit_generator).__name__}, run dtype "
            f"{np.dtype(model.RUN_DTYPE).name}; the pinned bytes were written with "
            f"scipy-openblas 0.3.31, SFC64 and float32; another BLAS build may round differently, and "
            f"another bit generator draws other numbers)"
        )


@pytest.mark.parametrize("workload", ["accept_marvell", "small_marvell"])
def test_marvell_workload_solves_converge(monkeypatch, workloads, workload):
    # every batch marvell perturbed made one solve, and it converged; a
    # fallback batch made none
    solves, seen = [], []
    monkeypatch.setattr(protection.marvell, "solve",
                        lambda *args: solves.append(solve(*args)) or solves[-1])
    for record in harness.iterate_run(config_from_dict(workloads.config_dict(workload, SEED))):
        seen.append((record.outcome.fallback, solves[:]))
        solves.clear()
    solved = [sols for fallback, sols in seen if not fallback]
    assert solved and all(len(sols) == 1 and sols[0].converged for sols in solved)
    assert all(sols == [] for fallback, sols in seen if fallback)


def test_every_workload_is_pinned(workloads):
    assert sorted(SHA256) == sorted(workloads.WORKLOADS)
