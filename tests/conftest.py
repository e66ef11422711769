"""Shared pytest hooks: prints one PASS/FAIL line per acceptance criterion.

Also the environment for tests that start `python -m splitsim` in a
subprocess, the benchmark's workloads, which define the acceptance
task, and a check that no test leaves a child process behind.
"""

import importlib.util
import os
from pathlib import Path

import pytest

import splitsim

_acceptance_results = []


@pytest.fixture(scope="session")
def workloads():
    """`perfbench/workloads.py`, the benchmark's workload configs; it
    imports nothing from splitsim, so it loads on its own."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, such as a
    NormalStream helper that was never reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = f"exited child {pid}, now reaped" if pid else "running child process"
    pytest.fail(f"the test left a {state} behind")


@pytest.fixture
def module_env() -> dict:
    """os.environ with the directory holding the imported splitsim
    package put first on PYTHONPATH, so that a child interpreter imports
    the same package whether or not it is installed."""
    src = str(Path(splitsim.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not rest else src + os.pathsep + rest}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    _acceptance_results.append((name, status, report.duration))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, status, duration in _acceptance_results:
        terminalreporter.write_line(f"[{status}] {name} ({duration:.1f}s)")
