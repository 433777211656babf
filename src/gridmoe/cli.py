"""Command line entry point: train runs, parameter sweeps, gate inspection.

Exit codes: 0 success, 2 configuration error, 3 runtime abort, I/O failure or out of memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data as gdata
from .checkpoint import load_checkpoint
from .errors import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    GridMoeError,
    ShapeError,
    TrainingAborted,
)
from .runconfig import (CONFIG_SNAPSHOT_NAME, MARKS, SCHEMA, TOP1_MAPS_DIR, claim_out_dir,
                        get_path, load_config_file, make_out_dir, parse_config, set_path)
from .train import SWEEP_CSV_NAME, build_setup, evaluate_stats, recorded_train, sweep_rows, train

INSPECT_FILES = (MARKS["inspect-gates"], TOP1_MAPS_DIR)  # the files inspect-gates writes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridmoe")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training job from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--no-dso", action="store_true",
                         help="force all learning-rate multipliers to 1")
    p_train.add_argument("--no-moe", action="store_true",
                         help="set model.moe_layers to []: every block is its base projection")
    p_train.add_argument("--force", action="store_true",
                         help="allow writing into a non-empty output directory")

    p_sweep = sub.add_parser("sweep", help="cross-product of config overrides")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", required=True,
                         help='e.g. "moe.n_experts=2,4,8 dso.tau=2,3,4"')
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seeds", default="0",
                         help="comma list of seeds shared by every cell")
    p_sweep.add_argument("--force", action="store_true")

    p_inspect = sub.add_parser("inspect-gates", help="routing statistics of a checkpoint")
    p_inspect.add_argument("--checkpoint", required=True)
    p_inspect.add_argument("--config", default=None,
                           help="defaults to the config snapshot next to the checkpoint")
    p_inspect.add_argument("--modality", required=True, choices=gdata.MODALITIES)
    p_inspect.add_argument("--n", type=int, required=True)
    p_inspect.add_argument("--out", default=None)
    p_inspect.add_argument("--force", action="store_true")
    return parser


def _parse_grid(spec: str) -> dict[str, list]:
    grid: dict[str, list] = {}
    for token in spec.split():
        if "=" not in token:
            raise ConfigError("grid", f"expected key=v1,v2 tokens, got {token!r}")
        key, _, values = token.partition("=")
        section, _, name = key.partition(".")
        entry = SCHEMA.get(section, {}).get(name)
        if entry is None:
            raise ConfigError(key, "unknown key")
        parsed = [_parse_value(key, *entry, v) for v in values.split(",") if v != ""]
        if key in grid:
            raise ConfigError(key, "is given more than once in --grid")
        if any(v in parsed[:i] for i, v in enumerate(parsed)):  # as parsed: true,True repeats
            raise ConfigError(key, f"repeats a value in --grid: {values!r}")
        grid[key] = parsed
    return grid


def _parse_value(key: str, kind: type, default, token: str):
    """One sweep value, typed by its key's entry in ``runconfig.SCHEMA``."""
    if token == "null" and default is None:
        return None
    try:
        if kind is list:
            return [int(v) for v in token.split("|") if v != ""]
        if kind is bool:
            return {"true": True, "false": False}[token.lower()]
        if kind in (int, float, str):
            return kind(token)
    except (KeyError, ValueError):
        pass
    raise ConfigError(key, f"expected {kind.__name__}, got {token!r}")


def cmd_train(args) -> int:
    raw = load_config_file(args.config)
    out_dir = claim_out_dir(args.out if args.out is not None else
                            get_path(raw, "run.out_dir", SCHEMA["run"]["out_dir"][1]), args.force)
    set_path(raw, "run.out_dir", str(out_dir))
    if args.seed is not None:
        set_path(raw, "run.seed", args.seed)
    if args.no_dso:
        set_path(raw, "run.dso", False)
    if args.no_moe:
        set_path(raw, "model.moe_layers", [])
    cfg = parse_config(raw)
    result = recorded_train(cfg, args.config, trainer=train)
    final = ", ".join(f"{t}={result.loss_history[t][-1]:.4f}" for t in result.task_order)
    print(f"done: {cfg.iterations} iterations, final losses {final}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    raw = load_config_file(args.config)
    grid = _parse_grid(args.grid)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s != ""]
    except ValueError:
        raise ConfigError("seeds", f"{args.seeds!r} is not a comma list of integers") from None
    base_out = claim_out_dir(args.out if args.out is not None
                             else get_path(raw, "run.out_dir", "sweep"), args.force)
    rows = sweep_rows(raw, grid, seeds, base_out, config_path=args.config)
    print(f"{len(rows)} runs -> {base_out / SWEEP_CSV_NAME}")
    return EXIT_OK


def cmd_inspect_gates(args) -> int:
    if args.n < 0:
        raise ConfigError("--n", f"must be >= 0, got {args.n}")
    checkpoint_path = Path(args.checkpoint)
    config_path = Path(args.config) if args.config else checkpoint_path.parent / CONFIG_SNAPSHOT_NAME
    cfg = parse_config(load_config_file(config_path))
    if not cfg.model.moe_layers:
        raise ConfigError("model.moe_layers", "is empty: the checkpoint has no gates to inspect")
    # Every modality, so one the run did not train on can be inspected too.
    modalities, tasks, model, _ = build_setup(cfg)
    try:
        model.load_state(load_checkpoint(checkpoint_path))
    except ShapeError as exc:
        raise ConfigError("checkpoint", str(exc)) from exc

    # Absolute, so the default stays beside the checkpoint whatever $GRIDMOE_OUT says.
    out_dir = claim_out_dir(args.out or checkpoint_path.parent.absolute() / "inspect", args.force)
    make_out_dir(out_dir, INSPECT_FILES)
    participation, maps_dir = (out_dir / name for name in INSPECT_FILES)
    modality = args.modality
    stats = evaluate_stats(model, {modality: modalities[modality]}, {modality: tasks[modality]},
                           args.n, cfg.height, cfg.width, maps_dir=maps_dir)
    stats.to_csv(participation)
    print(f"modality {args.modality}, {args.n} samples")
    for (_, layer), cell in sorted(stats.cells.items()):
        for expert, (mass, top1) in enumerate(zip(cell.participation, cell.top1)):
            print(f"  {layer} expert {expert}: mass/position "
                  f"{mass / max(cell.top1.sum(), 1):.4f} top1 {top1}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "sweep": cmd_sweep, "inspect-gates": cmd_inspect_gates}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingAborted as exc:
        print(f"runtime abort: {exc} (dump: {exc.dump_path})", file=sys.stderr)
        return EXIT_RUNTIME
    except GridMoeError as exc:
        # ShapeError and DomainError are also ValueErrors, but raised at run
        # time they are runtime failures, not configuration errors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)  # names exc.filename when it is set
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
