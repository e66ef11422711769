"""Command-line entry points.

    splitsim run --config cfg.json [--seed N] --out DIR
    splitsim sweep --config cfg.json --mechanism iso --grid 0.25,1,4 --out DIR
    splitsim gen-data --config cfg.json [--seed N] --out data.csv

`gen-data` writes the dataset that `run` builds for the same config and
seed, before its train/test split.

Exit codes: 0 success, 2 config error (bad config file or option),
3 runtime/numeric error (including any ValueError raised mid-run, a
non-finite loss, and an output path that cannot be written).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import data as data_mod
from .harness import ConfigError, build_dataset, load_config, point_name, run_to_dir, sweep
from .protection import MECHANISMS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitsim",
        description="Two-party split-learning simulator with label-leakage "
        "attacks and protection mechanisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="single training run")
    sweep_p = sub.add_parser("sweep", help="hyperparameter sweep for one mechanism")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--mechanism", required=True, choices=MECHANISMS)
    sweep_p.add_argument(
        "--grid", default="", help="comma-separated hyperparameter values (t or s)"
    )
    sweep_p.add_argument("--out", required=True)
    gen_p = sub.add_parser("gen-data", help="write the dataset a run of the config builds")
    for p, out_help in ((run_p, "output directory"), (gen_p, "output CSV file")):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", required=True, help=out_help)

    return parser


def _seeded_config(args):
    """The config file's experiment, with `--seed` in place of its seed if given."""
    config = load_config(args.config)
    if args.seed is None:
        return config
    try:
        return dataclasses.replace(config, seed=args.seed)
    except ValueError as exc:  # the config's own check of the seed
        raise ConfigError(str(exc)) from None


def _cmd_run(args) -> int:
    record = run_to_dir(_seeded_config(args), args.out)
    for name, value in record.summary.items():
        print(f"{name}: {'NA' if value is None else f'{value:.6f}'}")
    print(f"wrote {Path(args.out) / 'run.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --grid value: {exc}") from None
    points = sweep(config, args.mechanism, grid, args.out)
    for p in points:
        name = point_name(p.mechanism)
        if p.record is None:
            print(f"{name}: FAILED")
            continue
        test_auc, cos_cut_q95 = p.record.summary["test_auc"], p.record.summary["cos_cut_q95"]
        print(
            f"{name}: test_auc="
            f"{'NA' if test_auc is None else f'{test_auc:.4f}'} "
            f"cos_cut_q95={'NA' if cos_cut_q95 is None else f'{cos_cut_q95:.4f}'}"
        )
    print(f"wrote {Path(args.out) / 'tradeoff.csv'}")
    if all(p.record is None for p in points):
        raise RuntimeError("every sweep point failed")
    return 0


def _cmd_gen_data(args) -> int:
    dataset = build_dataset(_seeded_config(args))
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
    except (data_mod.DataError, ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        # configs are fully validated at parse time, so these arise mid-run
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
