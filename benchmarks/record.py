"""Record one point of the performance history as benchmarks/BENCH_<n>.json.

    python3 benchmarks/record.py --seed 7 --seconds 36

Runs the checkout's ``perfbench/run.py`` on every workload in
``BENCHMARK.json``, first with ``--trace 0`` (end-to-end metrics) and
then with ``--trace 1`` (the per-layer split), one run at a time.  The
file holds, per run, the final JSON line perfbench prints, its
fingerprint line (python, numpy, BLAS, cores), its unscaled timings and
its host-slowdown line, plus the commit, whether ``src/`` or
``perfbench/`` differ from it (null when git cannot tell, as in a
``--root`` that is not a git checkout) and the seed.  ``n`` is one
more than the highest BENCH file present.  ``--root`` benchmarks
another checkout, such as a clone of the parent commit; the file is
still written beside this script.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _git(root: Path, *args: str) -> str | None:
    """git's output in `root`, or None when git cannot tell (no repository)."""
    proc = subprocess.run(["git", *args], capture_output=True, text=True, cwd=root)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _next_path() -> Path:
    taken = [int(p.stem.split("_")[1]) for p in HERE.glob("BENCH_*.json")
             if p.stem.split("_")[1].isdigit()]
    return HERE / f"BENCH_{max(taken, default=0) + 1}.json"


def _last_line(lines: list[str], prefix: str):
    found = [line for line in lines if line.startswith(prefix)]
    return found[-1] if found else None


def _json_after(lines: list[str], prefix: str):
    """The JSON after `prefix` on the last line that starts with it, or
    None when there is no such line or it does not parse (a crashed run)."""
    line = _last_line(lines, prefix)
    try:
        return None if line is None else json.loads(line[len(prefix):])
    except json.JSONDecodeError:
        return None


def run_perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
    lines = proc.stdout.splitlines()
    return {
        "workload": workload,
        "trace": trace,
        "seed": seed,
        "seconds": seconds,
        "exit_code": proc.returncode,
        "result": _json_after(lines[-1:], ""),  # perfbench's final line
        "fingerprint": _json_after(lines, "fingerprint:"),
        "unscaled": _json_after(lines, "unscaled timings:"),
        "host": _last_line(lines, "timed runs"),
        "stderr": proc.stderr.strip().splitlines()[-5:],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record a BENCH_<n>.json")
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="checkout to benchmark (default: this one)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=36.0)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    out = _next_path()

    runs = []
    for trace in (0, 1):
        for workload in workloads:
            print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
            runs.append(run_perfbench(root, workload, args.seed, args.seconds, trace))
    status = _git(root, "status", "--porcelain", "--", "src", "perfbench")
    record = {
        "commit": _git(root, "rev-parse", "HEAD") or "unknown",
        "uncommitted_changes": None if status is None else bool(status),
        "seed": args.seed,
        "runs": runs,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0 if all(r["exit_code"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
