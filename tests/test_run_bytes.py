"""The run bytes of the benchmark's three workloads, pinned by sha256.

A performance change is meant to leave every byte of `run.csv` and
`summary.csv` unchanged.  The configs are taken from
`perfbench/workloads.py` at seed 7, so the pinned bytes are always the
benchmark's own workloads.  All three workloads were re-pinned when
every random stream (data, init, batching, noise, attack oracle) moved
from the Philox bit generator to SFC64: the streams keep their
`SeedSequence` keys and every draw keeps its shape and order, but the
bits behind each draw differ.  The two marvell workloads were re-pinned
again when marvell's Newton solve replaced its coordinate descent: the
solve stops on a KKT residual rather than a sweep's objective decrease,
so the eigenvalues, and with them the noise scales, moved in their last
bits (about 1e-9 relative).  Besides a change to this package, such as
another bit generator behind `numeric.make_rng`, a different BLAS build
can move the bytes: the matrix products go through numpy's BLAS and may
round differently.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from splitsim import harness, protection
from splitsim.harness import config_from_dict, run_to_dir
from splitsim.numeric import make_rng

# perfbench/workloads.py imports nothing from splitsim, so it loads on its own
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SEED = 7
SHA256 = {
    "accept_none": {
        "run.csv": "7239324f0a5838b435b08aa1594fd0f138fb24209ad45b24b62e2e9b90204178",
        "summary.csv": "21fb4cea5f451556f33970a448d1fe0670ae5bf77316dc559394be4f26602436",
    },
    "accept_marvell": {
        "run.csv": "acd86fb2d8a83e23262c353c24c7c953f699749c0aed0307fda45e245cc100f5",
        "summary.csv": "bd9ce4d69e0821efc683d9e56ca0231b89e3f06b063fc9877dc004b8f708225b",
    },
    "small_marvell": {
        "run.csv": "2c9ce34806dac9b3dff835e8ac6820cf985cd39f8ed7b062e0ee218ed49e4cb4",
        "summary.csv": "d7a57e6ab7d947603a0d60c3f0bf819cad62311cb05f1ecb73496215af245169",
    },
}


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


@pytest.fixture(scope="module")
def workload_run(request, tmp_path_factory):
    """Run one workload at SEED, once per module, into a fresh directory;
    returns (name, directory, (fallback, solution) per iteration)."""
    name = request.param
    out = tmp_path_factory.mktemp(name)
    seen = []

    def recording(*args):
        outcome = protection.apply_mechanism(*args)
        seen.append((outcome.fallback, outcome.solution))
        return outcome

    harness.apply_mechanism = recording
    try:
        run_to_dir(config_from_dict(workloads.config_dict(name, SEED)), out)
    finally:
        harness.apply_mechanism = protection.apply_mechanism
    return name, out, seen


@pytest.mark.parametrize("workload_run", sorted(SHA256), indirect=True)
def test_workload_run_bytes_match_pinned_hashes(workload_run):
    workload, out, _ = workload_run
    for name, want in SHA256[workload].items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == want, (
            f"{workload} seed {SEED}: {name} sha256 {got} differs from the pinned {want} "
            f"(numpy {np.__version__}, BLAS {_blas()}, bit generator "
            f"{type(make_rng(0).bit_generator).__name__}; the pinned bytes were written with "
            f"scipy-openblas 0.3.31 and SFC64; another BLAS build may round differently, and "
            f"another bit generator draws other numbers)"
        )


@pytest.mark.parametrize("workload_run", ["accept_marvell", "small_marvell"], indirect=True)
def test_marvell_workload_solves_converge(workload_run):
    # every batch marvell solved carries its converged solution; a
    # fallback batch carries none
    _, _, seen = workload_run
    solved = [sol for fallback, sol in seen if not fallback]
    assert solved and all(sol is not None and sol.converged for sol in solved)
    assert all(sol is None for fallback, sol in seen if fallback)


def test_every_workload_is_pinned():
    assert sorted(SHA256) == sorted(workloads.WORKLOADS)
