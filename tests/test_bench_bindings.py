"""The benchmark's tracer finds every layer function it times.

`perfbench/spans.py` wraps functions by the names their callers look
them up under, and skips (reports as absent) a name that no longer
resolves.  A rename in the package would then silently drop a row from
the benchmark's layer table; this test runs a short marvell run under
the full tracer and fails on any absent, unobserved or unrecorded
binding.
"""

import importlib.util
import sys
from pathlib import Path

from splitsim import harness

_SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves_and_records(tmp_path):
    spans = _load_spans()
    config = harness.config_from_dict({
        "dataset": {"n": 400},
        "net": {"hidden_dims": [8, 8]},
        "batch_size": 32,
        "iterations": 5,
        "mechanism": {"kind": "marvell", "s": 1.0},
    })
    tracer = spans.Tracer()
    with tracer:
        harness.run_to_dir(config, tmp_path)
    assert tracer.absent == []
    assert [k for k in tracer.counts if k.endswith(".unobserved")] == []
    recorded = {span[0] for span in tracer.spans}
    assert [b.span for b in spans.BINDINGS if b.span not in recorded] == []
