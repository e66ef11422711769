"""The run bytes of the benchmark's three workloads, pinned by sha256.

A performance change is meant to leave every byte of `run.csv` and
`summary.csv` unchanged.  The configs are taken from
`perfbench/workloads.py` (the `workloads` fixture) at seed 7, so the
pinned bytes are always the benchmark's own workloads.  Besides a
change to this package, such as another bit generator behind
`numeric.make_rng`, a different BLAS build can move the bytes: the
matrix products go through numpy's BLAS and may round differently.
"""

import hashlib
import os
import signal

import numpy as np
import pytest

from splitsim import harness, model, protection
from splitsim.harness import config_from_dict, run_to_dir
from splitsim.numeric import make_rng

SEED = 7
SHA256 = {
    "accept_none": {
        "run.csv": "3de12fda02fb04abd2f2d17fa1511bef73fd114df7d859f865b77b7d569b516c",
        "summary.csv": "43488c7b4af26b093755cd9581ae4505a69790ee33933a0afa18ce8db1193170",
    },
    "accept_marvell": {
        "run.csv": "48308ff498081e0a5e4642a7788d26d1b4e6de42fca8d6f20a47d0426cfe690f",
        "summary.csv": "7e53e24eed59124ca63ad083a7debf4c1795cc87c8a7f26317986dc56ae9351c",
    },
    "small_marvell": {
        "run.csv": "e665f06626074238f5eba477242185f40848b6a941a170a16bdf6323d6686fc6",
        "summary.csv": "e615a04d5b55f3be665d14ffd80bed5cdc3b6c9486f4dc44e1b34c7e1da970c8",
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
            f"{type(make_rng(0).bit_generator).__name__}, run dtype "
            f"{np.dtype(model.RUN_DTYPE).name}; the pinned bytes were written with "
            f"scipy-openblas 0.3.31, SFC64 and float32; another BLAS build may round differently, and "
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


def test_every_workload_is_pinned(workloads):
    assert sorted(SHA256) == sorted(workloads.WORKLOADS)


def test_accept_marvell_bytes_hold_with_its_noise_helper_stopped(tmp_path, workloads,
                                                                 monkeypatch):
    # the helper that draws the noise ahead is stopped for the whole run,
    # so the run draws every block itself, and writes the same bytes
    streams = []

    class Stopped(harness.NormalStream):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            os.kill(self.pid, signal.SIGSTOP)
            streams.append(self)

    monkeypatch.setattr(harness, "NormalStream", Stopped)
    run_to_dir(config_from_dict(workloads.config_dict("accept_marvell", SEED)), tmp_path)
    assert len(streams) == 1 and streams[0].helper_blocks == 0
    for name, want in SHA256["accept_marvell"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name
