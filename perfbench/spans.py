"""Outside-in tracing of splitsim: wraps layer functions where their
callers look them up, records spans and counts, and restores the
originals afterwards.  Nothing under src/ is changed.

Each binding names a function by the attribute path its caller uses,
relative to the splitsim package: ``harness.forward`` is the name
``forward`` in the harness module's namespace, ``protection.marvell.solve``
is the ``solve`` attribute of the marvell module as protection reaches
it.  A binding whose path no longer resolves is reported as absent and
skipped, so the benchmark survives functions being removed or renamed.

A span is ``[name, start, end, parent]``; spans stay in memory and are
aggregated when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass, field

_clock = time.perf_counter


# ---------------------------------------------------------------------------
# observers: read return values and arguments at the boundary, never mutate


def _observe_mechanism(counts, args, result):
    counts["mechanism.calls"] += 1
    counts["mechanism.fallback"] += bool(getattr(result, "fallback", False))


def _observe_solve(counts, args, result):
    counts["solve.calls"] += 1
    counts["solve.sweeps"] += int(result.sweeps_used)
    counts["solve.unconverged"] += not result.converged


def _observe_backprop(counts, args, result):
    """Computed work of one non-label backward from the cut layer.

    The useful work is the weight gradient of every f layer plus the
    delta propagated down to the first hidden layer's output:
    2*B*in*out flops per layer for dW, and 2*B*in*out for each layer
    above the first.  This counts what the pass needs, not what the
    implementation does, so it stays fixed when the pass gets leaner.
    """
    net, received = args[0], args[-1]
    B = received.shape[0]
    sizes = [layer.spec.in_dim * layer.spec.out_dim for layer in net.f_layers]
    counts["backprop.calls"] += 1
    counts["backprop.flop"] += 2 * B * (sum(sizes) + sum(sizes[1:]))


def _observe_sampler(counts, args, result):
    """Computed bytes drawn: n*(d+1) float64 normals per call."""
    counts["sampler.calls"] += 1
    counts["sampler.bytes"] += 8 * result.shape[0] * (result.shape[1] + 1)


@dataclass(frozen=True)
class Binding:
    span: str  # layer.function, the name the benchmark reports
    path: str  # attribute path of the caller's binding, under splitsim
    observe: object = None


# Where each layer function is bound by its caller.  Order is the order
# of the report table.
BINDINGS = (
    Binding("harness.run_to_dir", "harness.run_to_dir"),
    Binding("harness.train_run", "harness.train_run"),
    Binding("harness.write_run_csv", "harness.write_run_csv"),
    Binding("harness.write_summary_csv", "harness.write_summary_csv"),
    Binding("data.generate_synthetic", "harness.data_mod.generate_synthetic"),
    Binding("data.train_test_split", "harness.data_mod.train_test_split"),
    Binding("numeric.make_rng", "harness.make_rng"),
    Binding("model.SplitNet.build", "harness.SplitNet.build"),
    Binding("model.forward", "harness.forward"),
    Binding("model.logistic_loss", "harness.logistic_loss"),
    Binding("model.label_party_gradients", "harness.label_party_gradients"),
    Binding("model.backprop_nonlabel", "harness.backprop_nonlabel", _observe_backprop),
    Binding("model.apply_update", "harness.apply_update"),
    Binding("protection.apply_mechanism", "harness.apply_mechanism", _observe_mechanism),
    Binding("marvell.estimate_stats", "protection.marvell.estimate_stats"),
    Binding("marvell.power_budget", "protection.marvell.power_budget"),
    Binding("marvell.solve", "protection.marvell.solve", _observe_solve),
    Binding("marvell.build_covariances", "protection.marvell.build_covariances"),
    Binding("marvell.make_certificate", "protection.marvell.make_certificate"),
    Binding("marvell.noise_power", "protection.marvell.noise_power"),
    Binding(
        "numeric.sample_structured_gaussian_batch",
        "protection.sample_structured_gaussian_batch",
        _observe_sampler,
    ),
    Binding("attacks.leak_auc", "harness.leak_auc"),
    Binding("attacks.select_oracle_positive", "harness.select_oracle_positive"),
    Binding("attacks.roc_auc", "harness.roc_auc"),
    Binding("attacks.quantile", "harness.quantile"),
)

# The hooks of an untraced run: the iteration boundary, and the two
# calls whose results say whether an iteration fell back or failed.
ITERATION_CLOCK = frozenset({"model.forward"})
COUNTED = frozenset({"protection.apply_mechanism", "marvell.solve"})


def _resolve(path: str):
    """(owner, attribute name, current value) for a binding path, or None
    if the path no longer resolves."""
    head, *rest = path.split(".")
    try:
        owner = importlib.import_module(f"splitsim.{head}")
        for part in rest[:-1]:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    attr = rest[-1]
    # look past the class's descriptor so a staticmethod stays one
    for klass in owner.__mro__ if isinstance(owner, type) else ():
        if attr in vars(klass):
            return owner, attr, vars(klass)[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


@dataclass
class Tracer:
    """Install with ``with tracer:``; read ``spans``/``counts`` afterwards.

    ``only`` limits the installed bindings to those span names and
    ``record`` the ones among them that record spans (None: all).  Every
    installed binding runs its observer.
    """

    only: frozenset | None = None
    record: frozenset | None = None
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrap(self, binding: Binding, fn):
        record = self.record is None or binding.span in self.record
        observe = binding.observe
        spans, stack, counts, name = self.spans, self._stack, self.counts, binding.span

        def wrapper(*args, **kwargs):
            if record:
                idx = len(spans)
                span = [name, 0.0, 0.0, stack[-1] if stack else -1]
                spans.append(span)
                stack.append(idx)
                span[1] = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = _clock()
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            if observe is not None:
                try:
                    observe(counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    # the call's signature or result changed shape
                    counts[f"{name}.unobserved"] += 1
            return result

        return wrapper

    def __enter__(self):
        for binding in BINDINGS:
            if self.only is not None and binding.span not in self.only:
                continue
            found = _resolve(binding.path)
            if found is None:
                self.absent.append(binding.span)
                continue
            owner, attr, raw = found
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(binding, raw.__func__))
            else:
                patched = self._wrap(binding, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False

    def starts(self, names) -> list[float]:
        return [s[1] for s in self.spans if s[0] in names]


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0  # seconds, inclusive
    self_time: float = 0.0  # seconds, minus direct children


def aggregate(spans) -> dict[str, SpanStats]:
    """Per-name calls, inclusive and self time."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, SpanStats] = {}
    for (name, start, end, _), covered in zip(spans, child):
        st = out.setdefault(name, SpanStats())
        st.calls += 1
        st.total += end - start
        st.self_time += end - start - covered
    return out
