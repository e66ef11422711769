"""The run bytes of the benchmark's three workloads, pinned by sha256.

A performance change is meant to leave every byte of `run.csv` and
`summary.csv` unchanged.  The configs are taken from
`perfbench/workloads.py` at seed 7, so the pinned bytes are always the
benchmark's own workloads.  All three workloads were last re-pinned
when every random stream (data, init, batching, noise, attack oracle)
moved from the Philox bit generator to SFC64: the streams keep their
`SeedSequence` keys and every draw keeps its shape and order, but the
bits behind each draw differ, so every run's data, initial weights,
batches and noise differ.  Besides a change to this package, such as
another bit generator behind `numeric.make_rng`, a different BLAS
build can move the bytes: the matrix products go through numpy's BLAS
and may round differently.
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
        "run.csv": "fdbeb07cf738c5719f197b24c48479fb9581adb3738a9a8c4ac1cc7de04565ad",
        "summary.csv": "15d612b28813dd98c807f0bf1576334e43376d7c5d495135c7ff91054aabe737",
    },
    "small_marvell": {
        "run.csv": "92a965c86804d26b29d5a82738095683eb096fc2f20e1f5675e4ad3c3c280365",
        "summary.csv": "be9b43e174944252e2eee35e5f7c4f464e991f6fd6b0d4e0339b020c37bd4f14",
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
