"""Command-line entry points.

    splitsim run --config cfg.json [--seed N] [--out DIR]
    splitsim sweep --config cfg.json --mechanism iso --grid 0.25,1,4 --out DIR
    splitsim gen-data synthetic --n 4000 --out data.csv [...]
    splitsim gen-data toy1d --n 4000 --out toy.csv [...]

Exit codes: 0 success, 2 config error (bad config file, option or
generator argument), 3 runtime/numeric error (including any ValueError
raised mid-run).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import data as data_mod
from .harness import ConfigError, DatasetConfig, load_config, run_to_dir, sweep
from .protection import MECHANISMS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitsim",
        description="Two-party split-learning simulator with label-leakage "
        "attacks and protection mechanisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="single training run")
    run_p.add_argument("--config", required=True, help="JSON experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override config seed")
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")

    sweep_p = sub.add_parser("sweep", help="hyperparameter sweep for one mechanism")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--mechanism", required=True, choices=MECHANISMS)
    sweep_p.add_argument(
        "--grid", default="", help="comma-separated hyperparameter values (t or s)"
    )
    sweep_p.add_argument("--out", required=True)

    gen_p = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    gen_sub = gen_p.add_subparsers(dest="generator", required=True)
    dataset = DatasetConfig()
    synth = gen_sub.add_parser("synthetic")
    synth.add_argument("--n", type=int, default=dataset.n)
    synth.add_argument("--d-in", type=int, default=dataset.d_in)
    synth.add_argument("--pos-frac", type=float, default=dataset.pos_frac)
    synth.add_argument("--separation", type=float, default=dataset.separation)
    synth.add_argument("--noise-scale", type=float, default=dataset.noise_scale)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    toy = gen_sub.add_parser("toy1d")
    toy.add_argument("--n", type=int, default=dataset.n)
    toy.add_argument("--seed", type=int, default=0)
    toy.add_argument("--out", required=True)

    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = args.out or config.out
    if out is None:
        raise ConfigError("no output directory: pass --out or set `out` in the config")
    record = run_to_dir(config, out)
    for name, value in record.summary.items():
        print(f"{name}: {'NA' if value is None else f'{value:.6f}'}")
    print(f"test_loss: {record.test_loss:.6f}")
    print(f"test_auc: {'NA' if record.test_auc is None else f'{record.test_auc:.6f}'}")
    print(f"wrote {Path(out) / 'run.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --grid value: {exc}") from None
    points = sweep(config, args.mechanism, grid, args.out)
    for p in points:
        param = "" if p.mechanism.param is None else f" {p.mechanism.param:g}"
        if p.record is None:
            print(f"{p.mechanism.kind}{param}: FAILED")
            continue
        test_auc, cos_cut_q95 = p.record.test_auc, p.record.summary["cos_cut_q95"]
        print(
            f"{p.mechanism.kind}{param}: test_auc="
            f"{'NA' if test_auc is None else f'{test_auc:.4f}'} "
            f"cos_cut_q95={'NA' if cos_cut_q95 is None else f'{cos_cut_q95:.4f}'}"
        )
    print(f"wrote {Path(args.out) / 'tradeoff.csv'}")
    if all(p.record is None for p in points):
        raise RuntimeError("every sweep point failed")
    return 0


def _cmd_gen_data(args) -> int:
    try:
        if args.generator == "synthetic":
            dataset = data_mod.generate_synthetic(
                args.n,
                args.d_in,
                args.pos_frac,
                args.separation,
                args.noise_scale,
                seed=args.seed,
            )
        else:
            dataset = data_mod.generate_toy_1d(args.n, seed=args.seed)
    except ValueError as exc:  # the generators only reject their arguments
        raise ConfigError(str(exc)) from None
    data_mod.save_csv(dataset, args.out)
    print(f"wrote {args.out} ({dataset.n} rows, {dataset.d} features)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_gen_data(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (data_mod.DataError, ValueError, ArithmeticError, RuntimeError) as exc:
        # configs are fully validated at parse time, so these arise mid-run
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
