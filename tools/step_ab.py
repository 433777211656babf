"""Time two gridmoe trees step by step, interleaved, and check they compute the same bits.

::

    python3 tools/step_ab.py --parent ../parent --change . [--workload train|plain|eval] [--steps N]

Each DIR is a checkout holding ``src/gridmoe``; each tree's package is
imported under its own name, so both run in one process. The two sides take
turns, one unit of work each, the first side alternating from pair to pair:

- ``train``: one ``train.benchmark_config`` step with the governor and the
  MoE layers (one side of the ``imbalance_pair`` benchmark workload);
- ``plain``: the same step with neither (``plain_joint``);
- ``eval``: one ``Model.features`` call on one 16x16 sample with 8 experts
  on every block (``wide_gate_eval``).

A training step is one ``train.train_step`` call on a state from
``train.start_training``; the CSV writes that ``train`` does around it are not
timed, and no thread is used. Every step's ``losses.csv`` and ``dso_log.csv``
rows must render the same on both sides (``csvio.format_value``, so a
-0.0/0.0 flip counts), and so must the final routing statistics'
``stats.rows()`` and the final parameters' bytes; for ``eval`` every routing
decision must. A tree from before ``train_step`` is refused:
time it with that tree's own ``tools/step_ab.py``. The script prints each
side's p50 and p90 in ms and the median of the per-pair ratios change/parent.

CPU speed on a shared host can swing by 2x within seconds. Interleaving puts
both sides of a pair in the same few milliseconds, so a swing moves both; two
sequential timings cannot tell a swing from a change. Exits 1 if the trees
compute different bits.

Both trees run in this one process, so they share one allocator, and the
first ``train.build_setup`` sets glibc's heap thresholds for both sides.
So this script cannot time a change to the allocator's settings, nor any
other change whose effect is on the allocator: time those with alternating
``perfbench/run.py`` pairs, one process per run.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

SIDES = ("parent", "change")
EVAL_GRID = 16
EVAL_EXPERTS = 8


def load_tree(root: Path, name: str) -> types.SimpleNamespace:
    """Import ``root/src/gridmoe`` as the package ``name``."""
    package = root.resolve() / "src" / "gridmoe"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None or not (package / "__init__.py").is_file():
        raise SystemExit(f"no gridmoe package under {root}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    # ``<name>.train`` as an attribute is the re-exported train() function.
    gm = types.SimpleNamespace(**{sub: importlib.import_module(f"{name}.{sub}")
                                  for sub in ("csvio", "data", "runconfig", "train")})
    if not hasattr(gm.train, "train_step"):
        raise SystemExit(f"{root} has no train.train_step; time it with that tree's own "
                         "tools/step_ab.py")
    return gm


def config(gm, workload: str, steps: int, out_dir: str):
    raw = gm.train.benchmark_config(0, steps, out_dir, True).snapshot()
    raw["run"]["stats_samples"] = 0
    if workload == "plain":
        raw["run"]["dso"] = False
        raw["model"]["moe_layers"] = []
    if workload == "eval":
        raw["moe"]["n_experts"] = EVAL_EXPERTS
        raw["model"]["moe_layers"] = list(range(raw["model"]["depth"]))
        raw["data"]["height"] = raw["data"]["width"] = EVAL_GRID
    return gm.runconfig.parse_config(raw)


def time_training(trees, workload: str, steps: int, out_dir: str):
    # A non-finite loss writes its diagnostic dump into out_dir.
    states = {side: gm.train.start_training(config(gm, workload, steps, out_dir))
              for side, gm in trees.items()}
    times = {side: [] for side in SIDES}
    rows = {side: [] for side in SIDES}
    for i in range(steps):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            gm = trees[side]
            t0 = time.perf_counter()
            step_rows = gm.train.train_step(states[side])
            times[side].append(time.perf_counter() - t0)
            rows[side].append([{k: gm.csvio.format_value(v) for k, v in row.items()}
                               for row in step_rows])
    final = {side: ([{k: trees[side].csvio.format_value(v) for k, v in row.items()}
                     for row in states[side].stats.rows()],
                    {k: (v.dtype.str, v.shape, v.tobytes())
                     for k, v in states[side].model.state_dict().items()}) for side in SIDES}
    return times, rows["parent"] == rows["change"] and final["parent"] == final["change"]


def time_eval(trees, steps: int, out_dir: str):
    setups = {}
    for side in SIDES:
        gm = trees[side]
        modalities, tasks, model, _ = gm.train.build_setup(config(gm, "eval", 1, out_dir))
        setups[side] = (gm, modalities, tasks, model)
    times = {side: [] for side in SIDES}
    same = True
    for i in range(steps):
        decisions = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            gm, modalities, tasks, model = setups[side]
            modality = sorted(modalities)[i % len(modalities)]
            image, _ = gm.data.generate_sample(modalities[modality], tasks[modality], i,
                                               EVAL_GRID, EVAL_GRID)
            t0 = time.perf_counter()
            _, routings = model.features(image[None])
            times[side].append(time.perf_counter() - t0)
            decisions[side] = [(layer, d.selected_indices.tobytes(), d.gate_weights.tobytes(),
                                d.full_softmax.tobytes()) for layer, d in routings]
        same = same and decisions["parent"] == decisions["change"]
    return times, same


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="changed checkout")
    parser.add_argument("--workload", choices=("train", "plain", "eval"), default="train")
    parser.add_argument("--steps", type=int, default=500)
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    # One BLAS thread, as the benchmark pins it; set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    trees = {side: load_tree(getattr(args, side), f"gridmoe_{side}") for side in SIDES}

    with tempfile.TemporaryDirectory() as tmp:
        if args.workload == "eval":
            times, same = time_eval(trees, args.steps, tmp)
        else:
            times, same = time_training(trees, args.workload, args.steps, tmp)

    unit = "sample" if args.workload == "eval" else "step"
    for side in SIDES:
        ms = [t * 1e3 for t in times[side]]
        print(f"{side:6s} {unit} ms: p50 {percentile(ms, 0.5):.3f}  p90 {percentile(ms, 0.9):.3f}"
              f"  ({len(ms)} {unit}s)")
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    print(f"median per-pair ratio change/parent: {statistics.median(ratios):.3f}")
    print("bit for bit: " + ("yes" if same else "NO, the trees compute different bits"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
