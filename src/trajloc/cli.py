"""Benchmark command line: synthesize data, run scenarios, sweep the built-in
experiment suite, and print the on-grid error-floor table."""

from __future__ import annotations

import argparse
import sys

from . import blockio, harness
from .metrics import min_grid_rmse
from .model import synthesize_block


def _add_common(p):
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override base seed")
    p.add_argument("--trials", type=int, default=None, help="override trial count")
    p.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated subset of: " + ",".join(harness.ESTIMATORS),
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    p.add_argument(
        "--fake-clock",
        action="store_true",
        help="deterministic runtime column (reproducibility audits)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajloc",
        description="DOA trajectory localization benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthesized block set + ground truth")
    p.add_argument("--config", required=True, help="scenario YAML")
    p.add_argument("--out", default="synth_out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override base seed")

    p = sub.add_parser("run", help="run a single scenario from a config file")
    p.add_argument("--config", required=True, help="scenario YAML")
    _add_common(p)

    p = sub.add_parser("sweep", help="run a built-in experiment by name")
    p.add_argument("experiment", help="one of: " + ", ".join(c.name for c in harness.builtin_experiments()))
    _add_common(p)

    p = sub.add_parser("oracle", help="print the on-grid error-floor table")
    p.add_argument("--config", default=None, help="scenario YAML (defaults to the snr experiment)")

    sub.add_parser("list", help="list built-in experiments")
    return parser


def _overridden(config, args):
    algorithms = args.algorithms.split(",") if args.algorithms else None
    return harness.apply_overrides(config, args.trials, args.seed, algorithms)


def cmd_synth(args) -> int:
    config = harness.apply_overrides(harness.load_config(args.config), seed=args.seed)
    sweep_name, values = harness.sweep_points(config)
    if len(values) != 1:
        raise SystemExit("synth needs a single-point scenario (no sweep axes)")
    seed = config.base_seed
    cell = harness.materialize(config, sweep_name, values[0])
    blocks, truth = synthesize_block(
        cell.sources, cell.array, cell.snapshots, cell.snr_db, cell.frequencies, seed
    )
    paths = blockio.save_block_set(blocks, truth, args.out, seed)
    for p in paths:
        print(p)
    return 0


def _run_and_emit(config, args) -> int:
    config = _overridden(config, args)
    report = harness.run_scenario(config, n_jobs=args.jobs, fake_clock=args.fake_clock)
    rows_path, agg_path = harness.emit_results(report, args.out)
    print(rows_path)
    print(agg_path)
    return 0


def cmd_run(args) -> int:
    return _run_and_emit(harness.load_config(args.config), args)


def cmd_sweep(args) -> int:
    return _run_and_emit(harness.builtin_experiment(args.experiment), args)


def cmd_oracle(args) -> int:
    if args.config is None:
        config = harness.builtin_experiment("snr")
    else:
        config = harness.load_config(args.config)
    sweep_name, values = harness.sweep_points(config)
    cell = harness.materialize(config, sweep_name, values[0])
    print(f"{'source':>6}  {'parameters':<28}  {'floor_rmse_deg':>14}  best_grid_point")
    floors = []
    for i, src in enumerate(cell.sources):
        floor, best = min_grid_rmse(src, cell.grid, cell.snapshots)
        floors.append(floor)
        pvec = "(" + ", ".join(f"{v:g}" for v in src.vector()) + ")"
        bvec = "(" + ", ".join(f"{v:g}" for v in best.vector()) + ")"
        print(f"{i:>6}  {pvec:<28}  {floor:>14.6g}  {bvec}")
    if floors:
        print(f"{'mean':>6}  {'':<28}  {sum(floors) / len(floors):>14.6g}")
    return 0


def cmd_list(args) -> int:
    descriptions = {
        "snr": "four linear trajectories, SNR swept -10..30 dB",
        "snapshots": "four linear trajectories, block length swept 5..50",
        "grid-step": "phi grid step swept 1..10 deg, half-step off-grid sources",
        "resolution": "third source swept across a fixed one (zeta -15..15)",
        "nonlinear": "four quadratic trajectories, SNR swept -10..30 dB",
        "wideband": "quadratic trajectories, F in {1,3,5,7} frequency sets",
    }
    for cfg in harness.builtin_experiments():
        print(f"{cfg.name:<12} {descriptions.get(cfg.name, '')}")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
    "list": cmd_list,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (FileNotFoundError, KeyError, ValueError, OSError) as exc:
        # KeyError reprs its argument; everything else formats itself
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise SystemExit(f"error: {message}")


if __name__ == "__main__":
    sys.exit(main())
