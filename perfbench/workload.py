"""Run one benchmark workload in this process and write its measurements.

``run.py`` starts this script once per workload run, and a few more times
with ``--setup-only`` to sample set-up time. It is not meant to be run by hand.

Timing hooks are one-line wrappers around ``BatchSampler.next_batch`` and
``data.generate_sample`` that record a timestamp; they are installed in both
traced and untraced runs, so the two differ only by the tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("imbalance_pair", "plain_joint", "wide_gate_eval")

# Work per measured second at the seed commit's speed on a 2-core x86 host,
# so a run of --seconds S takes about S seconds there. The amount of work
# depends only on S, never on measured time, so every run of a seed
# computes exactly the same values.
PAIR_ITERATIONS_PER_S = 55      # per side of the governor-on/off pair
PLAIN_ITERATIONS_PER_S = 250
EVAL_ROUNDS_PER_S = 3           # one round: evaluate_stats + inspect-gates on A, B, C
EVAL_SAMPLES = 16               # held-out samples per modality per call
EVAL_GRID = 16
LOSS_WINDOW = 50                # final_loss_total averages the last 50 iterations
REFERENCE_ITERATIONS = 3        # leading iterations compared with reference.json
REFERENCE_RTOL = 1e-9
# final_loss_total is compared with reference.json when --seconds is the
# length it was recorded at. The looser tolerance allows last-bit differences
# of numpy's SIMD loops on another CPU to grow over a run; a real change of
# the computation moves it by far more.
FINAL_RTOL = 1e-6


class SetupDone(BaseException):
    """Raised at the first generated sample when only set-up is measured.

    A BaseException, so that the ``except Exception`` failure accounting
    around workload calls lets it through.
    """


def load_gridmoe():
    if not (SRC / "gridmoe" / "__init__.py").is_file():
        raise SystemExit(f"gridmoe sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("autodiff", "checkpoint", "cli", "csvio", "data", "model", "runconfig")
    mods = {name: importlib.import_module(f"gridmoe.{name}") for name in names}
    # ``import gridmoe.train`` resolves to the re-exported train() function.
    mods["train"] = importlib.import_module("gridmoe.train")
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported gridmoe from {mods['cli'].__file__}, not {SRC}")
    return types.SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def imbalance_raw(gm, seed: int, iterations: int) -> dict:
    """The scripted-imbalance config, with the seed also choosing the data."""
    raw = gm.train.benchmark_config(seed, iterations, "run", True).snapshot()
    raw["data"]["modality_seed"] = seed
    return raw


def wide_eval_raw(gm, seed: int) -> dict:
    raw = imbalance_raw(gm, seed, 1)
    raw["moe"]["n_experts"] = 8
    raw["model"]["moe_layers"] = [0, 1, 2, 3]
    raw["data"]["height"] = raw["data"]["width"] = EVAL_GRID
    return raw


def training_iterations(workload: str, seconds: int) -> int:
    rate = PAIR_ITERATIONS_PER_S if workload == "imbalance_pair" else PLAIN_ITERATIONS_PER_S
    return max(LOSS_WINDOW + REFERENCE_ITERATIONS, round(seconds * rate))


def training_runs(gm, workload: str, seed: int, iterations: int):
    """(name, raw config, extra CLI flags) of each training run, in order."""
    raw = imbalance_raw(gm, seed, iterations)
    if workload == "imbalance_pair":
        return [("dso", raw, []), ("plain", raw, ["--no-dso"])]
    return [("joint", raw, ["--no-dso", "--no-moe"])]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Harness:
    """Timestamps, captured results and failures of one workload run."""

    def __init__(self, gm, work: Path, setup_only: bool):
        self.gm = gm
        self.work = work
        self.ready = None          # monotonic time of the first generated sample
        self.batch_stamps: list[float] = []
        self.sample_stamps: list[float] = []
        self.results = []          # TrainResult of every CLI train run
        self.calls: list[str] = []             # one key per attempted workload call
        self.failures: dict[str, list[str]] = {}  # call key -> what went wrong

        sampler = gm.data.BatchSampler
        next_batch = sampler.next_batch
        generate = gm.data.generate_sample
        train = gm.cli.train
        stamps, samples = self.batch_stamps, self.sample_stamps

        def stamped_next_batch(s):
            stamps.append(time.perf_counter())
            return next_batch(s)

        def stamped_generate(*args, **kwargs):
            samples.append(time.perf_counter())
            return generate(*args, **kwargs)

        def first_generate(*args, **kwargs):
            self.ready = time.monotonic()
            gm.data.generate_sample = stamped_generate
            if setup_only:
                raise SetupDone
            return stamped_generate(*args, **kwargs)

        def captured_train(cfg, keep_model=True):
            result = train(cfg, keep_model)
            self.results.append(result)
            return result

        sampler.next_batch = stamped_next_batch
        gm.data.generate_sample = first_generate
        gm.cli.train = captured_train

    def fail(self, key: str, message: str) -> None:
        self.failures.setdefault(key, []).append(message)

    def cli(self, key: str, argv) -> bool:
        """One in-process CLI call; False (and a recorded failure) unless it exits 0."""
        self.calls.append(key)
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = self.gm.cli.main(argv)
        except Exception:
            self.fail(key, f"{argv[0]} raised:\n{traceback.format_exc()}")
            return False
        if code != 0:
            self.fail(key, f"{' '.join(argv)} exited {code}")
            return False
        return True


def run_training(h: Harness, workload: str, seed: int, seconds: int) -> dict:
    iterations = training_iterations(workload, seconds)
    runs = training_runs(h.gm, workload, seed, iterations)
    calls = []
    for name, raw, flags in runs:
        config = h.work / f"{name}.json"
        config.write_text(json.dumps(raw))
        calls.append((name, ["train", "--config", str(config), "--out", str(h.work / name),
                             *flags]))

    intervals, loop_s, ok_runs = [], 0.0, []
    for name, argv in calls:
        first = len(h.batch_stamps)
        n_results = len(h.results)
        if not h.cli(name, argv):
            continue
        stamps = h.batch_stamps[first:]
        intervals.extend(b - a for a, b in zip(stamps, stamps[1:]))
        loop_s += stamps[-1] - stamps[0]
        ok_runs.append((name, h.results[n_results]))
    end = time.monotonic()

    batch = runs[0][1]["sampler"]["batch_size"]
    measured = {
        "end": end,
        "steps": iterations * len(runs),
        "intervals": intervals,
        "samples": batch * len(intervals),
        "busy_s": loop_s,
    }
    info = check_training(h, workload, seed, seconds, iterations, ok_runs)
    return {**measured, "info": info}


def loss_summary(result) -> dict:
    """The per-task losses of the first iterations and final_loss_total of one run."""
    history = result.loss_history
    totals = [sum(v) for v in zip(*(history[t] for t in result.task_order))]
    return {"first": [[history[t][i] for t in result.task_order]
                      for i in range(REFERENCE_ITERATIONS)],
            "final_loss_total": statistics.fmean(totals[-LOSS_WINDOW:])}


def check_training(h: Harness, workload, seed, seconds, iterations, ok_runs) -> dict:
    gm = h.gm
    reference, ref_seconds = load_reference(seed, workload)
    final_checked = reference is not None and seconds == ref_seconds
    finals, quality = [], {}
    for name, result in ok_runs:
        out_dir = h.work / name
        history = result.loss_history
        totals = [sum(v) for v in zip(*(history[t] for t in result.task_order))]
        if len(totals) != iterations:
            h.fail(name, f"{len(totals)} iterations recorded, expected {iterations}")
            continue
        if not all(math.isfinite(v) for v in totals):
            h.fail(name, "non-finite loss")
        if not gm.runconfig.verify_manifest(out_dir):
            h.fail(name, "manifest does not match the config snapshot")
        summary = loss_summary(result)
        if reference is not None:
            got, expected = summary["first"], reference[name]["first"]
            if not all(math.isclose(g, e, rel_tol=REFERENCE_RTOL)
                       for gi, ei in zip(got, expected) for g, e in zip(gi, ei)):
                h.fail(name, f"first losses {got} differ from reference {expected}")
        if final_checked:
            got, expected = summary["final_loss_total"], reference[name]["final_loss_total"]
            if not math.isclose(got, expected, rel_tol=FINAL_RTOL):
                h.fail(name, f"final_loss_total {got!r} differs from reference {expected!r}")
        finals.append(summary["final_loss_total"])
        quality[f"normalized_loss_spread_{name}"] = gm.train.normalized_loss_spread(history)
        if result.init_entropy:
            quality[f"entropy_change_{name}"] = {
                m: result.final_entropy[m] - result.init_entropy[m] for m in result.init_entropy}
    return {
        "iterations_per_run": iterations,
        "final_loss_total": statistics.fmean(finals) if finals else None,
        "reference_checked": reference is not None,
        "final_loss_checked": final_checked,
        "quality": quality,
    }


def eval_setup(h: Harness, seed: int):
    """Build the wide model, save its checkpoint and load it back."""
    gm = h.gm
    raw = wide_eval_raw(gm, seed)
    ckpt_dir = h.work / "checkpoint"
    ckpt_dir.mkdir()
    cfg = gm.runconfig.parse_config(raw)
    gm.runconfig.write_config_snapshot(ckpt_dir, cfg)
    modalities, tasks, model, _ = gm.train.build_setup(cfg)
    ckpt = ckpt_dir / "checkpoint.bin"
    gm.checkpoint.save_checkpoint(ckpt, model.state_dict())
    model.load_state(gm.checkpoint.load_checkpoint(ckpt))
    return ckpt, modalities, tasks, model


def run_eval(h: Harness, seed: int, seconds: int, setup) -> dict:
    gm = h.gm
    ckpt, modalities, tasks, model = setup
    rounds = max(1, round(seconds * EVAL_ROUNDS_PER_S))
    intervals, busy_s, evaluated = [], 0.0, 0
    stats_list, inspect_dirs = [], {m: [] for m in modalities}

    def timed(call):
        nonlocal busy_s
        first = len(h.sample_stamps)
        t0 = time.perf_counter()
        ok = call()
        busy_s += time.perf_counter() - t0
        stamps = h.sample_stamps[first:]
        intervals.extend(b - a for a, b in zip(stamps, stamps[1:]))
        return ok, len(stamps)

    def evaluate(key):
        h.calls.append(key)
        try:
            stats_list.append((key, gm.train.evaluate_stats(
                model, modalities, tasks, EVAL_SAMPLES, EVAL_GRID, EVAL_GRID)))
        except Exception:
            h.fail(key, f"evaluate_stats raised:\n{traceback.format_exc()}")
            return False
        return True

    for r in range(rounds):
        ok, n = timed(lambda: evaluate(f"evaluate{r:04d}"))
        evaluated += n
        for m in sorted(modalities):
            out = h.work / f"inspect{r:04d}{m}"
            ok, n = timed(lambda: h.cli(out.name, [
                "inspect-gates", "--checkpoint", str(ckpt), "--modality", m,
                "--n", str(EVAL_SAMPLES), "--out", str(out)]))
            evaluated += n
            if ok:
                inspect_dirs[m].append(out)
    end = time.monotonic()

    # Every round evaluates the same model on the same samples, so every
    # round's output must equal the first round's, and that the reference.
    positions = EVAL_SAMPLES * EVAL_GRID * EVAL_GRID
    reference, _ = load_reference(seed, "wide_gate_eval")
    first_rows = stats_list[0][1].rows() if stats_list else None
    for key, stats in stats_list:
        rows = stats.rows()
        check_top1(h, key, rows, positions)
        if rows != first_rows:
            h.fail(key, "routing statistics differ from the first round's")
    entropy = {m: stats_list[0][1].participation_entropy(m) for m in sorted(modalities)} \
        if stats_list else {}
    if reference is not None and entropy and not all(
            math.isclose(entropy[m], reference["entropy"][m], rel_tol=REFERENCE_RTOL)
            for m in entropy):
        h.fail(stats_list[0][0], f"participation entropy {entropy} differs from {reference}")
    for m, outs in inspect_dirs.items():
        digests = [participation_digest(out) for out in outs]
        for out, digest in zip(outs, digests):
            check_top1(h, out.name, gm.csvio.read_csv(out / "participation.csv"), positions)
            if digest != digests[0]:
                h.fail(out.name, f"participation.csv differs from {outs[0].name}'s")
        if reference is not None and digests and digests[0] != reference["participation_sha256"][m]:
            h.fail(outs[0].name, "participation.csv differs from the reference")
    return {
        "end": end,
        "steps": evaluated,
        "intervals": intervals,
        "samples": evaluated,
        "busy_s": busy_s,
        "info": {"rounds": rounds, "samples_evaluated": evaluated,
                 "reference_checked": reference is not None,
                 "participation_entropy": entropy},
    }


def check_top1(h: Harness, call: str, rows, positions: int) -> None:
    """Every layer's top-1 counts must add up to its grid positions."""
    by_cell = {}
    for row in rows:
        key = (row["dataset"], row["layer"])
        by_cell.setdefault(key, [0, int(row["grid_positions"])])[0] += int(row["top1_count"])
    if not by_cell:
        h.fail(call, "no routing statistics")
    for key, (top1, grid) in by_cell.items():
        if top1 != grid or grid != positions:
            h.fail(call, f"{key}: top-1 counts sum to {top1}, positions {grid}, "
                   f"expected {positions}")


def participation_digest(inspect_dir: Path) -> str:
    return hashlib.sha256((inspect_dir / "participation.csv").read_bytes()).hexdigest()


def load_reference(seed: int, workload: str):
    """(this seed's reference entry for the workload or None, --seconds it was recorded at)."""
    table = json.loads(REFERENCE.read_text())
    entry = table["seeds"].get(str(seed))
    return (None if entry is None else entry[workload]), table["seconds"]


def environment(gm) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--work", required=True, help="empty scratch directory")
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int, default=None, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    gm = load_gridmoe()
    work = Path(args.work)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    h = Harness(gm, work, args.setup_only)
    try:
        if args.workload == "wide_gate_eval":
            setup = eval_setup(h, args.seed)
            measured = run_eval(h, args.seed, args.seconds, setup)
        else:
            measured = run_training(h, args.workload, args.seed, args.seconds)
    except SetupDone:
        Path(args.out).write_text(json.dumps({"setup_s": h.ready - args.t0}))
        return 0

    result = {
        "attempted": len(h.calls),
        "failed": len(h.failures),
        "failures": [f"{key}: {m}" for key, ms in h.failures.items() for m in ms],
        "setup_s": h.ready - args.t0,
        "run_wall_s": measured["end"] - args.t0,
        "samples_per_s": measured["samples"] / measured["busy_s"],
        "intervals": measured["intervals"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "info": measured["info"],
        "env": environment(gm),
    }
    if tracer is not None:
        tracer.uninstall()
        walls, selfs = tracer.loop_accounting()
        steps = measured["steps"]
        layers = tracer.layer_metrics(steps)
        layers["train.self.ms"] = 1000.0 * sum(selfs) / steps
        if any(s < -1e-6 for s in selfs):
            h.fail(h.calls[0], f"an iteration's children exceed its wall time by {-min(selfs):.6f} s")
        result["layers"] = layers
        result["traced_iter_ms_p50"] = 1000.0 * statistics.median(walls) if walls else None
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
