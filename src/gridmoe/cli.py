"""Command line entry point: train runs, parameter sweeps, gate inspection.

Exit codes: 0 success, 2 configuration error, 3 runtime abort.
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
from .runconfig import (CONFIG_SNAPSHOT_NAME, SCHEMA, get_path, load_config_file, parse_config,
                        resolve_out_dir, set_path)
from .train import build_setup, evaluate_stats, recorded_train, sweep_rows, train, write_sweep_csv


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
                         help="replace expert mixtures with their base projection")
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


def _check_out_dir(path: Path, force: bool) -> None:
    """Refuse a file or, unless ``force``, a non-empty directory. Creating it is left
    to the first writer, so an error found before any work starts leaves nothing behind."""
    if path.exists() and not path.is_dir():
        raise ConfigError("out_dir", f"{path} is not a directory")
    if path.exists() and any(path.iterdir()) and not force:
        raise ConfigError("out_dir", f"{path} is not empty (use --force to overwrite)")


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
        if not parsed:
            raise ConfigError("grid", f"no values for {key!r}")
        grid[key] = parsed
    if not grid:
        raise ConfigError("grid", "empty sweep grid")
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
    if args.seed is not None:
        set_path(raw, "run.seed", args.seed)
    if args.out is not None:
        set_path(raw, "run.out_dir", args.out)
    if args.no_dso:
        set_path(raw, "run.dso", False)
    if args.no_moe:
        set_path(raw, "run.moe", False)
    cfg = parse_config(raw)
    out_dir = resolve_out_dir(cfg.out_dir)
    _check_out_dir(out_dir, args.force)
    set_path(raw, "run.out_dir", str(out_dir))
    cfg = parse_config(raw)
    result = recorded_train(cfg, args.config, trainer=train)
    final = ", ".join(f"{t}={result.final_losses[t]:.4f}" for t in result.task_order)
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
    base_out = resolve_out_dir(args.out if args.out is not None
                               else get_path(raw, "run.out_dir", "sweep"))
    _check_out_dir(base_out, args.force)
    rows = sweep_rows(raw, grid, seeds, base_out, config_path=args.config)
    sweep_csv = base_out / "sweep.csv"
    write_sweep_csv(sweep_csv, rows)
    print(f"{len(rows)} runs -> {sweep_csv}")
    return EXIT_OK


def cmd_inspect_gates(args) -> int:
    if args.n < 0:
        raise ConfigError("--n", f"must be >= 0, got {args.n}")
    checkpoint_path = Path(args.checkpoint)
    config_path = Path(args.config) if args.config else checkpoint_path.parent / CONFIG_SNAPSHOT_NAME
    cfg = parse_config(load_config_file(config_path))
    if not cfg.moe_enabled:
        raise ConfigError("run.moe", "is false: the checkpoint has no gates to inspect")
    if not cfg.model.moe_layers:
        raise ConfigError("model.moe_layers", "is empty: the checkpoint has no gates to inspect")
    _, _, model, _ = build_setup(cfg)
    # Unfiltered, so a modality the run did not train on can be inspected.
    modalities = gdata.default_modalities(cfg.model.channels, cfg.modality_seed)
    tasks = gdata.default_tasks(cfg.label_noise)
    try:
        model.load_state(load_checkpoint(checkpoint_path))
    except ShapeError as exc:
        raise ConfigError("checkpoint", str(exc)) from exc

    out_dir = Path(args.out) if args.out else checkpoint_path.parent / "inspect"
    _check_out_dir(out_dir, args.force)
    modality = args.modality
    stats = evaluate_stats(model, {modality: modalities[modality]}, {modality: tasks[modality]},
                           args.n, cfg.height, cfg.width, maps_dir=out_dir / "top1_maps")
    stats.to_csv(out_dir / "participation.csv")
    print(f"modality {args.modality}, {args.n} samples")
    for row in stats.rows():
        share = row["participation_mass"] / max(row["grid_positions"], 1)
        print(f"  {row['layer']} expert {row['expert']}: mass/position {share:.4f} "
              f"top1 {row['top1_count']}")
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


if __name__ == "__main__":
    sys.exit(main())
