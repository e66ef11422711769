"""splitsim's benchmark: whole seeded training runs through
``harness.run_to_dir``, timed from outside the package.

    python3 perfbench/run.py --workload accept_marvell --seed 7 --seconds 36 --trace 0

Workloads are defined in ``workloads.py``.  Runs are single-process and
BLAS is capped at one thread.

``--trace 0`` reports the end-to-end metrics.  It makes one untimed
warm-up run, then repeats the run for ``--seconds``, cycling over
SEEDS_PER_RUN seeds derived from ``--seed``.  A repeat's hooks are a
timestamp at each call into ``model.forward``, which marks the
iteration boundary, and counters on the mechanism's and solver's
results.  Between repeats it times set-up in a fresh interpreter and
takes a HostProbe sample.  Each repeat's wall time, median and p95
iteration latency (a run has at least 200 iterations, so ten lie beyond
its p95) are divided by the mean of the host probes just before and
after it, and so is each set-up time (see HostProbe); the metrics are
the medians of these over the window.  The
unscaled values are printed too.  Privacy and utility are means over
the seeds.

``--trace 1`` reports the per-layer metrics at ``--seed`` alone.  It
times a fixed set of solver instances, then alternates untraced and
traced runs for ``--seconds``; in a traced run every function in
``spans.BINDINGS`` records spans.  Per-layer values are medians over
the traced runs.

Every run's ``run.csv`` and ``summary.csv`` are checked (``checks.py``)
and every repeat at a seed must write the same bytes as the first.  The
last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (iterations attempted, and iterations in runs that raised,
failed a check or differed from their seed's first run), and
``metrics``.  Iterations that fell back or whose solve did not converge
count against ``ok_iter_frac``.  Exit codes: 0 correct, 1 a check failed
or a run raised, 2 no splitsim source beside the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"  # a second BLAS thread competes with the Python thread on 2 cores
SETUP_PROBES = 7
# Privacy and utility are properties of the seed; averaging them over
# several seeds per run keeps one seed's luck from moving the metric.
SEEDS_PER_RUN = 8
SEED_STRIDE = 1000  # derived seeds of nearby --seed values do not overlap
HOST_REF_S = 0.030  # either HostProbe's time in the fast state of a 2-core Xeon VM
SELF_SUM_SLACK = 0.02  # traced self times must sum to the run's wall time within 2%
FIXED_SEED = 2024
FIXED_INSTANCES = 200
FIXED_PASSES = 3


class BenchError(Exception):
    """The benchmark could not measure what it reports."""


@dataclass
class RunOutcome:
    wall: float
    tracer: spans.Tracer


def _median(values):
    return statistics.median(values) if values else 0.0


def _p95(values):
    return statistics.quantiles(values, n=100, method="inclusive")[94]


def _setup_time(cfg_dict: dict) -> float:
    """Seconds a fresh interpreter takes to import splitsim and set up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(SRC),
         json.dumps(cfg_dict)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _fingerprint(seeds: list[int], counts, iters: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    try:
        kernel_path = "numba" if importlib.import_module("splitsim._kernels").USE_NUMBA else "python"
    except (ImportError, AttributeError):
        kernel_path = "absent (no splitsim._kernels.USE_NUMBA)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "seeds": seeds,
        "solver_kernel": kernel_path,
        "backprop_gflop_per_iter (computed)": counts["backprop.flop"] / 1e9 / iters,
        "sampler_mb_drawn_per_iter (computed)": counts["sampler.bytes"] / 1e6 / iters,
    }


def _degraded(counts) -> int:
    """Iterations whose marvell batch fell back or whose solve did not converge."""
    return counts["mechanism.fallback"] + counts["solve.unconverged"]


def _counts_line(tracer: spans.Tracer) -> str:
    """Failure counts next to their bases, and what could not be observed."""
    counts = tracer.counts
    line = (
        f"fallback {counts['mechanism.fallback']} of {counts['mechanism.calls']} "
        f"mechanism calls; unconverged {counts['solve.unconverged']} of "
        f"{counts['solve.calls']} solves ({counts['solve.sweeps']} sweeps); "
        f"absent bindings: {', '.join(tracer.absent) or 'none'}"
    )
    unobserved = {k: v for k, v in counts.items() if k.endswith(".unobserved")}
    return line + (f"; calls whose result could not be read: {unobserved}" if unobserved else "")


class Bench:
    """Runs one workload and judges every run's output.

    The first run at each seed is checked with ``checks.check_run`` and
    becomes that seed's reference; every later run at the seed must
    write the same bytes.
    """

    def __init__(self, name: str, seeds: list[int], seconds: float, tmp: Path):
        from splitsim import harness

        self.harness = harness
        self.name = name
        self.seconds = seconds
        self.tmp = tmp
        self.seeds = seeds
        self.cfg_dicts = [workloads.config_dict(name, seed) for seed in seeds]
        self.configs = [harness.config_from_dict(d) for d in self.cfg_dicts]
        self.iterations = self.configs[0].iterations
        self.references: dict[int, bytes] = {}
        self.checks: dict[int, checks.RunCheck] = {}
        self.runs = 0
        self.failed_runs = 0  # raised, failed a check, or differed from the reference
        self.mismatched = 0  # runs whose bytes differed from their seed's first run
        self.degraded = 0  # iterations of good runs that fell back or did not converge
        self.violations: list[str] = []

    def run(self, k: int, tracer: spans.Tracer) -> RunOutcome:
        """One run_to_dir at seed index k, judged; raises BenchError if it raised."""
        out = self.tmp / f"run{self.runs}"
        error = None
        with tracer:
            start = time.perf_counter()
            try:
                self.harness.run_to_dir(self.configs[k], out)
            except Exception:  # the boundary that must keep measuring
                error = traceback.format_exc()
            wall = time.perf_counter() - start
        self.runs += 1
        seed = self.seeds[k]
        if error is not None:
            self.failed_runs += 1
            self.violations.append(f"seed {seed}: run raised")
            raise BenchError(f"run at seed {seed} raised:\n{error}")
        files = (out / "run.csv").read_bytes() + b"\0" + (out / "summary.csv").read_bytes()
        if k not in self.references:
            self.references[k] = files
            run_csv, summary_csv = files.decode().split("\0")
            self.checks[k] = checks.check_run(run_csv, summary_csv, self.cfg_dicts[k])
            self.violations.extend(f"seed {seed}: {v}" for v in self.checks[k].violations)
        if files != self.references[k]:
            self.violations.append(f"seed {seed}: output bytes differ between repeats")
            self.mismatched += 1
            self.failed_runs += 1
        elif self.checks[k].violations:
            self.failed_runs += 1
        else:
            self.degraded += _degraded(tracer.counts)
        return RunOutcome(wall, tracer)

    def timed_loop(self, make_step, min_steps: int, after_step=None) -> list[list[RunOutcome]]:
        """Steps of runs until --seconds is spent (at least min_steps);
        ``make_step(i)`` gives step i's (seed index, tracer) pairs, and
        ``after_step()`` runs after each step, inside the window."""
        steps = []
        spent = last = 0.0
        while len(steps) < min_steps or spent + last <= self.seconds:
            start = time.perf_counter()
            steps.append([self.run(k, tracer) for k, tracer in make_step(len(steps))])
            if after_step is not None:
                after_step()
            last = time.perf_counter() - start
            spent += last
        return steps

    def iteration_latencies(self, outcome: RunOutcome) -> list[float]:
        starts = outcome.tracer.starts(spans.ITERATION_CLOCK)
        n = self.iterations
        if len(starts) != n + 1:  # one call per iteration plus the test-set forward
            raise BenchError(
                f"{spans.ITERATION_CLOCK} ran {len(starts)} times for {n} iterations; "
                "it no longer marks iteration boundaries"
            )
        return [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]

    def print_hashes(self) -> None:
        for k, ref in sorted(self.references.items()):
            digest = hashlib.sha256(ref.split(b"\0")[0]).hexdigest()
            print(f"seed {self.seeds[k]} run.csv sha256 {digest}")


def _timed_tracer() -> spans.Tracer:
    """The untraced run's hooks: the iteration clock and the two counters."""
    return spans.Tracer(only=spans.ITERATION_CLOCK | spans.COUNTED, record=spans.ITERATION_CLOCK)


class HostProbe:
    """Times a fixed piece of numpy work that does not run splitsim.

    A shared host can alternate, every few seconds, between a fast state
    and one where this probe takes up to twice as long (measured on a
    shared 2-core Xeon VM).  A probe taken right before or after a timed
    run mostly sees the same state as the run; dividing the run's timings
    by those probes (relative to HOST_REF_S) removes much of that drift
    and none of a change in splitsim's own speed, which the probe does
    not run.  The probes' median over a whole window jumps between the
    two states; over five seeds on accept_marvell, scaling each run by
    its neighbouring probes instead cut the spread of median latency
    from 8.9% to 2.6% and of p95 latency from 15.5% to 7.0%.

    The probe's work resembles the workload's (``workloads.HOST_PROBE``):
    ``blas`` is one product of the acceptance task's cut-layer shapes,
    ``small_arrays`` a loop of calls on 16-wide arrays, bound by call
    overhead as small_marvell is.  Over 16 windows of 36 s on that VM
    (``small_arrays`` then ran half as many calls),
    scaling small_marvell by ``small_arrays`` gave window-to-window
    spreads of 6.7% (throughput), 8.3% (median) and 4.8% (p95) against
    11.4%, 11.0% and 11.2% by ``blas``; on accept_marvell ``blas`` gave
    2.9%, 4.0% and 4.5% against 8.4%, 9.1% and 11.5%.  Either probe
    takes about HOST_REF_S in the fast state.
    """

    def __init__(self, kind: str):
        import numpy

        if kind not in ("blas", "small_arrays"):
            raise ValueError(f"unknown host probe {kind!r}")
        self.np = numpy
        self.kind = kind
        rng = numpy.random.default_rng(0)
        self.a = rng.standard_normal((256, 384) if kind == "blas" else (16, 16))
        self.b = rng.standard_normal((384, 64) if kind == "blas" else 16)
        self.times: list[float] = []

    def sample(self) -> None:
        np, a, b = self.np, self.a, self.b
        start = time.perf_counter()
        if self.kind == "blas":
            for _ in range(120):
                a @ b
        else:
            for _ in range(4000):
                np.maximum(a @ b, 0.0).sum()
                np.sqrt(np.abs(a)).mean(axis=0)
        self.times.append(time.perf_counter() - start)

    def slowdown(self, *samples: int) -> float:
        """How much slower than the reference state the host ran, by the
        mean of the given samples."""
        return statistics.fmean(self.times[i] for i in samples) / HOST_REF_S


def end_to_end(bench: Bench) -> dict:
    warm = bench.run(0, spans.Tracer(record=frozenset()))  # untimed: first run is slow
    K = len(bench.seeds)
    # host probes right before and right after every timed run and every
    # set-up probe, each of which is scaled by the mean of its two
    setup, host = [], HostProbe(workloads.HOST_PROBE[bench.name])
    host.sample()

    def between_runs():
        host.sample()
        setup.append(_setup_time(bench.cfg_dicts[0]))
        host.sample()

    steps = bench.timed_loop(
        lambda i: [(i % K, _timed_tracer())], min_steps=K, after_step=between_runs
    )
    while len(setup) < SETUP_PROBES:
        between_runs()
    outcomes = [step[0] for step in steps]

    n = bench.iterations
    latencies = [bench.iteration_latencies(o) for o in outcomes]
    run_slowdown = [host.slowdown(2 * i, 2 * i + 1) for i in range(len(outcomes))]
    setup_slowdown = [host.slowdown(2 * j + 1, 2 * j + 2) for j in range(len(setup))]
    raw = {
        "iters_per_s": n / _median([o.wall for o in outcomes]),
        "iter_ms_p50": _median([statistics.median(lat) for lat in latencies]),
        "iter_ms_p95": _median([_p95(lat) for lat in latencies]),
        "setup_s": _median(setup),
    }
    values = {
        "iters_per_s": n / _median([o.wall / f for o, f in zip(outcomes, run_slowdown)]),
        "iter_ms_p50": _median(
            [statistics.median(lat) / f for lat, f in zip(latencies, run_slowdown)]
        ),
        "iter_ms_p95": _median([_p95(lat) / f for lat, f in zip(latencies, run_slowdown)]),
        "setup_s": _median([t / f for t, f in zip(setup, setup_slowdown)]),
    }
    attempted = bench.runs * n
    failed_iters = bench.failed_runs * n + bench.degraded

    def seed_mean(key):
        try:
            return statistics.fmean(float(c.summary[key]) for c in bench.checks.values())
        except (KeyError, ValueError):
            raise BenchError(f"summary.csv lacks a numeric {key} at some seed") from None

    cert_rows = sum(c.cert_rows for c in bench.checks.values())
    cert_violations = sum(c.cert_violations for c in bench.checks.values())
    values |= {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_iter_frac": 1.0 - failed_iters / attempted,
        "cos_cut_q95": seed_mean("cos_cut_q95"),
        "norm_cut_q95": seed_mean("norm_cut_q95"),
        "test_auc": seed_mean("test_auc"),
        # an iteration without a certificate has none to violate
        "cert_hold_frac": 1.0 - cert_violations / cert_rows if cert_rows else 1.0,
    }

    print(f"fingerprint: {json.dumps(_fingerprint(bench.seeds, warm.tracer.counts, n))}")
    bench.print_hashes()
    print(
        f"failed_frac {failed_iters / attempted:.6f} = {failed_iters} / {attempted} iterations "
        f"attempted ({bench.runs} runs x {n}); failed runs {bench.failed_runs}; "
        f"warm-up run: {_counts_line(warm.tracer)}"
    )
    if cert_rows:
        print(
            f"cert_violation_frac {cert_violations / cert_rows:.6f} = {cert_violations} / "
            f"{cert_rows} certified measured iterations over {K} seeds"
        )
    else:
        print("cert_violation_frac n/a: 0 certified measured iterations")
    walls = [o.wall for o in outcomes]
    print(
        f"timed runs {len(outcomes)} (+1 warm-up) of {n} iterations over {K} seeds; "
        f"wall min {min(walls):.4f} s, median {_median(walls):.4f} s, max {max(walls):.4f} s; "
        f"latency samples {len(outcomes) * n}; set-up probes {len(setup)}, "
        f"host probes {len(host.times)}; "
        f"run slowdown min {min(run_slowdown):.4f}, median {_median(run_slowdown):.4f}, "
        f"max {max(run_slowdown):.4f} (host probe {HOST_REF_S} s = 1)"
    )
    print(f"unscaled timings: {json.dumps(raw)}")
    return values


def _fixed_solver() -> tuple[float, float, list[str]]:
    """µs per solve and mean sweeps on a fixed seeded instance set built
    with the public API, plus any violated solution property."""
    import numpy

    from splitsim import marvell
    from splitsim.numeric import make_rng

    rng = make_rng(FIXED_SEED)
    cases = []
    for _ in range(FIXED_INSTANCES):
        B = int(rng.choice([16, 64, 256]))
        d = int(rng.choice([16, 64, 384]))
        labels = numpy.zeros(B, dtype=numpy.int64)
        labels[: max(1, B // 10)] = 1
        g = rng.standard_normal((B, d)) * rng.uniform(0.05, 1.0, size=2)[labels][:, None]
        g[labels == 1, 0] += rng.uniform(0.1, 3.0)
        stats = marvell.estimate_stats(g, labels)
        cases.append((stats, marvell.power_budget(float(rng.choice([1.0, 4.0])), stats)))
    settings = marvell.SolverSettings(tol=1e-8, max_sweeps=200)

    passes, solutions = [], None
    for _ in range(FIXED_PASSES):
        start = time.perf_counter()
        sols = [marvell.solve(stats, P, settings) for stats, P in cases]
        passes.append(time.perf_counter() - start)
        if solutions is not None and sols != solutions:
            return 0.0, 0.0, ["fixed solver instances solved differently on repeat"]
        solutions = sols

    problems = []
    for (stats, P), sol in zip(cases, solutions):
        lams = (sol.lam1_pos, sol.lam2_pos, sol.lam1_neg, sol.lam2_neg)
        if min(lams) < 0 or sol.lam2_pos > sol.lam1_pos or sol.lam2_neg > sol.lam1_neg:
            problems.append(f"fixed solve infeasible: {lams}")
        elif abs(marvell.noise_power(sol, stats) - P) > 1e-6 * max(P, 1e-12):
            problems.append(f"fixed solve off the power constraint: {lams}, P={P}")
    sweeps = statistics.mean(s.sweeps_used for s in solutions)
    return _median(passes) / FIXED_INSTANCES * 1e6, sweeps, problems[:5]


def _layer_metrics(outcome: RunOutcome, iters: int) -> dict:
    agg = spans.aggregate(outcome.tracer.spans)
    counts = outcome.tracer.counts
    zero = spans.SpanStats()

    def ms_per_iter(name, own=False):
        st = agg.get(name, zero)
        return (st.self_time if own else st.total) * 1e3 / iters

    def calls(name):
        return agg.get(name, zero).calls

    solve = agg.get("marvell.solve", zero)
    self_sum = sum(st.self_time for st in agg.values())
    return {
        "model.forward.ms_per_iter": ms_per_iter("model.forward"),
        "model.label_party_gradients.ms_per_iter": ms_per_iter("model.label_party_gradients"),
        "model.backprop_nonlabel.ms_per_iter": ms_per_iter("model.backprop_nonlabel"),
        "model.backprop_nonlabel.calls_per_iter": calls("model.backprop_nonlabel") / iters,
        "model.backprop_nonlabel.gflop_per_iter": counts["backprop.flop"] / 1e9 / iters,
        "model.apply_update.ms_per_iter": ms_per_iter("model.apply_update"),
        "protection.apply_mechanism.ms_per_iter": ms_per_iter("protection.apply_mechanism"),
        "protection.apply_mechanism.self_ms_per_iter": ms_per_iter(
            "protection.apply_mechanism", own=True
        ),
        "protection.fallback_count": counts["mechanism.fallback"],
        "marvell.estimate_stats.ms_per_iter": ms_per_iter("marvell.estimate_stats"),
        "marvell.solve.us_per_call": solve.total / solve.calls * 1e6 if solve.calls else 0.0,
        "marvell.solve.calls": solve.calls,
        "marvell.solve.sweeps_mean": (
            counts["solve.sweeps"] / counts["solve.calls"] if counts["solve.calls"] else 0.0
        ),
        "marvell.solve.unconverged": counts["solve.unconverged"],
        "marvell.build_covariances.ms_per_iter": ms_per_iter("marvell.build_covariances"),
        "marvell.make_certificate.ms_per_iter": ms_per_iter("marvell.make_certificate"),
        "numeric.sample_structured_gaussian_batch.ms_per_iter": ms_per_iter(
            "numeric.sample_structured_gaussian_batch"
        ),
        "numeric.sample_structured_gaussian_batch.mb_drawn_per_iter": (
            counts["sampler.bytes"] / 1e6 / iters
        ),
        "attacks.leak_auc.ms_per_iter": ms_per_iter("attacks.leak_auc"),
        "attacks.leak_auc.calls_per_iter": calls("attacks.leak_auc") / iters,
        "attacks.select_oracle_positive.ms_per_iter": ms_per_iter(
            "attacks.select_oracle_positive"
        ),
        "harness.train_run.self_ms_per_iter": ms_per_iter("harness.train_run", own=True),
        "harness.write_run_csv.ms": ms_per_iter("harness.write_run_csv") * iters,
        "harness.write_summary_csv.ms": ms_per_iter("harness.write_summary_csv") * iters,
        "data.generate_synthetic.ms": ms_per_iter("data.generate_synthetic") * iters,
        "data.train_test_split.ms": ms_per_iter("data.train_test_split") * iters,
        "trace.self_sum_gap_frac": abs(self_sum - outcome.wall) / outcome.wall,
    }


def _print_span_table(outcome: RunOutcome, iters: int) -> None:
    agg = spans.aggregate(outcome.tracer.spans)
    print(f"span table of one traced run ({iters} iterations, wall {outcome.wall * 1e3:.1f} ms):")
    print(f"  {'span':44s} {'calls':>8s} {'calls/it':>9s} {'ms/it':>9s} {'self ms/it':>11s} {'self %':>7s}")
    for name, st in sorted(agg.items(), key=lambda kv: -kv[1].self_time):
        print(
            f"  {name:44s} {st.calls:8d} {st.calls / iters:9.3f} {st.total * 1e3 / iters:9.4f} "
            f"{st.self_time * 1e3 / iters:11.4f} {100 * st.self_time / outcome.wall:7.2f}"
        )


def per_layer(bench: Bench) -> dict:
    fixed_us, fixed_sweeps, problems = _fixed_solver()
    bench.violations.extend(problems)
    warm = bench.run(0, spans.Tracer(record=frozenset()))  # untimed: first run is slow

    def pair(i):  # alternate which side runs first
        sides = [(0, _timed_tracer()), (0, spans.Tracer())]
        return sides if i % 2 == 0 else sides[::-1]

    steps = bench.timed_loop(pair, min_steps=2)
    runs = [o for step in steps for o in step]
    plain = [o for o in runs if o.tracer.only is not None]
    traced = [o for o in runs if o.tracer.only is None]
    iters = bench.iterations
    per_run = [_layer_metrics(o, iters) for o in traced]
    values = {name: _median([m[name] for m in per_run]) for name in per_run[0]}
    values["marvell.solve.fixed_us_per_call"] = fixed_us
    values["marvell.solve.fixed_sweeps_mean"] = fixed_sweeps
    values["trace.overhead_frac"] = (
        _median([o.wall for o in traced]) / _median([o.wall for o in plain]) - 1.0
    )
    gap = values["trace.self_sum_gap_frac"]
    if gap > SELF_SUM_SLACK:
        bench.violations.append(
            f"span self times miss the wall time by {gap:.2%} (slack {SELF_SUM_SLACK:.0%})"
        )

    print(f"fingerprint: {json.dumps(_fingerprint(bench.seeds, warm.tracer.counts, iters))}")
    bench.print_hashes()
    print(
        f"runs differing from the first run's bytes (traced or not): "
        f"{bench.mismatched} of {bench.runs}"
    )
    print(f"per run: {_counts_line(warm.tracer)}")
    print(
        f"pairs {len(steps)} (untraced, traced); traced self times sum to wall within "
        f"{gap:.4%} (slack {SELF_SUM_SLACK:.0%}); overhead {values['trace.overhead_frac']:.4f}"
    )
    print(f"fixed solver: {FIXED_INSTANCES} instances x {FIXED_PASSES} passes, tol 1e-8")
    _print_span_table(sorted(traced, key=lambda o: o.wall)[len(traced) // 2], iters)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="splitsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "splitsim" / "__init__.py").is_file():
        print(f"error: no splitsim source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads BLAS
    sys.path.insert(0, str(SRC))

    # the traced run stays at --seed; the untraced runs cycle over derived seeds
    n_seeds = 1 if args.trace else SEEDS_PER_RUN
    seeds = [args.seed + SEED_STRIDE * k for k in range(n_seeds)]
    print(f"perfbench: workload={args.workload} seeds={seeds} trace={args.trace}")
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        bench = Bench(args.workload, seeds, args.seconds, Path(tmp))
        try:
            values = per_layer(bench) if args.trace else end_to_end(bench)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            values = None
    for violation in bench.violations:
        print(f"violation: {violation}", file=sys.stderr)
    correct = values is not None and not bench.violations
    metrics = {}
    if values is not None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for metric in spec["per_layer" if args.trace else "end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:60s} {values[name]!r} {unit}")
    result = {
        "correct": correct,
        "attempted": max(1, bench.runs * bench.iterations),
        "failed": bench.failed_runs * bench.iterations,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
