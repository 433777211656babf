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

A training step is timed from one ``BatchSampler.next_batch`` call to the
next: each side runs ``train`` in its own thread, and the thread hands control
back at every ``next_batch``, so only one side runs at a time. Afterwards the
two runs' ``losses.csv`` (every step's losses) and ``checkpoint.bin`` (the
final parameters) must be byte-identical; for ``eval`` every routing decision
must be. The script prints each side's p50 and p90 in ms and the median of the
per-pair ratios change/parent.

CPU speed on a shared host can swing by 2x within seconds. Interleaving puts
both sides of a pair in the same few milliseconds, so a swing moves both; two
sequential timings cannot tell a swing from a change. Exits 1 if the trees
compute different bits.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import threading
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
    return types.SimpleNamespace(**{sub: importlib.import_module(f"{name}.{sub}")
                                    for sub in ("data", "runconfig", "train")})


def config(gm, workload: str, steps: int, out_dir: Path):
    raw = gm.train.benchmark_config(0, steps, str(out_dir), True).snapshot()
    raw["run"]["stats_samples"] = 0
    if workload == "plain":
        raw["run"]["dso"] = raw["run"]["moe"] = False
    if workload == "eval":
        raw["moe"]["n_experts"] = EVAL_EXPERTS
        raw["model"]["moe_layers"] = list(range(raw["model"]["depth"]))
        raw["data"]["height"] = raw["data"]["width"] = EVAL_GRID
    return gm.runconfig.parse_config(raw)


class SteppedTrain:
    """One side's ``train`` run in a thread that pauses at every ``next_batch``."""

    def __init__(self, gm, cfg):
        self.go = threading.Semaphore(0)
        self.paused = threading.Semaphore(0)
        self.times: list[float] = []
        self.error: BaseException | None = None
        started = None
        real = gm.data.BatchSampler.next_batch

        def next_batch(sampler):
            nonlocal started
            if started is not None:
                self.times.append(time.perf_counter() - started)
            self.paused.release()
            self.go.acquire()
            started = time.perf_counter()
            return real(sampler)

        gm.data.BatchSampler.next_batch = next_batch
        self.thread = threading.Thread(target=self._run, args=(gm, cfg), daemon=True)
        self.thread.start()
        self.paused.acquire()  # set-up done, waiting at the first next_batch

    def _run(self, gm, cfg):
        try:
            gm.train.train(cfg, keep_model=False)
        except BaseException as exc:  # reported by the main thread
            self.error = exc
        finally:
            self.paused.release()

    def step(self) -> float:
        self.go.release()
        self.paused.acquire()
        if self.error is not None:
            raise RuntimeError("training failed") from self.error
        return self.times[-1]

    def finish(self) -> None:
        self.go.release()
        self.thread.join()
        if self.error is not None:
            raise RuntimeError("training failed") from self.error


def time_training(trees, workload: str, steps: int, tmp: Path):
    runs = {}
    for side in SIDES:
        gm = trees[side]
        # One more iteration than timed steps: the last one runs untimed.
        runs[side] = SteppedTrain(gm, config(gm, workload, steps + 1, tmp / side))
    times = {side: [] for side in SIDES}
    for i in range(steps):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            times[side].append(runs[side].step())
    for run in runs.values():
        run.finish()
    same = all((tmp / "parent" / name).read_bytes() == (tmp / "change" / name).read_bytes()
               for name in ("losses.csv", "dso_log.csv", "checkpoint.bin"))
    return times, same


def time_eval(trees, steps: int, tmp: Path):
    setups = {}
    for side in SIDES:
        gm = trees[side]
        cfg = config(gm, "eval", 1, tmp / side)
        modalities, tasks, model, _ = gm.train.build_setup(cfg)
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
            times, same = time_eval(trees, args.steps, Path(tmp))
        else:
            times, same = time_training(trees, args.workload, args.steps, Path(tmp))

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
