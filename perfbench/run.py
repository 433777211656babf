"""gridmoe benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload imbalance_pair --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Each workload runs in child processes of its own (``workload.py``) with BLAS
pinned to one thread, so peak memory and any cache belong to that workload
alone: 21 set-up-only children, one at a time, that stop at the first
generated sample, then two replicas side by side, each on its own CPU. With
``--trace 1`` an untraced and a traced child run side by side; the traced one
gives the per-layer metrics and the difference in wall time the tracing
overhead. See README.md.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

WORKLOADS = ("imbalance_pair", "plain_joint", "wide_gate_eval")
# Set-up time is the median of this many set-up-only children run one at a
# time. The replicas' own set-up times are not used: they start together and
# slow each other's imports (0.34-0.37 s against 0.25-0.28 s one at a time,
# medians over ten seeds per workload on the baseline host).
SETUP_SAMPLES = 21
# Workload replicas run side by side, each pinned to its own CPU (at most
# two). On a 2-vCPU KVM guest, speed swings by up to 1.8x within seconds;
# two copies at once average over more of those swings at no extra wall
# time, and pinning stops the scheduler from moving them between CPUs.
CPUS = sorted(os.sched_getaffinity(0))[:2]
REPLICAS = len(CPUS)
DEADLINE_S = 170.0       # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"setup_s": "s", "iter_ms_p90": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    return {"checkpoint.bytes": "bytes", "trace.overhead_s": "s",
            "trace.accounted_share": "ratio"}.get(name, "count")


def percentiles_ms(intervals) -> dict[int, float]:
    """Step-time percentiles in ms; 90 is gated, the rest go to the record."""
    cuts = statistics.quantiles(intervals, n=100, method="inclusive")
    return {p: 1000.0 * cuts[p - 1] for p in (5, 10, 25, 50, 75, 90, 95, 99)}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("GRIDMOE_OUT", None)
    return env


class Child:
    """One workload.py process and its scratch directory."""

    def __init__(self, args, *, trace: int, setup_only: bool, tag: str, cpu: int):
        self.tag = tag
        self.work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}-{tag}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out = self.work / "result.json"
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--t0", repr(time.monotonic()),
               "--work", str(self.work), "--out", str(self.out), "--cpu", str(cpu)]
        if setup_only:
            cmd.append("--setup-only")
        self.proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)

    def result(self, deadline: float) -> dict:
        """Wait for the child; its result, or RuntimeError if it failed or ran late."""
        try:
            _, err = self.proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{self.tag} child did not finish in time") from None
        if self.proc.returncode != 0 or not self.out.is_file():
            raise RuntimeError(f"{self.tag} child exited {self.proc.returncode}:\n{err[-4000:]}")
        return json.loads(self.out.read_text())

    def stop(self) -> None:
        """Kill the child if it still runs, wait for it and remove its directory."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        shutil.rmtree(self.work, ignore_errors=True)


def run_together(args, deadline: float, specs) -> list:
    """Start one child per (trace, setup_only, tag) spec at once, each pinned to
    its own CPU; their results in order.

    A failed child gives its RuntimeError in place of a result.
    """
    children = []
    try:
        for cpu, (trace, setup_only, tag) in zip(CPUS, specs):
            children.append(Child(args, trace=trace, setup_only=setup_only, tag=tag, cpu=cpu))
        results = []
        for child in children:
            try:
                results.append(child.result(deadline))
            except RuntimeError as exc:
                results.append(exc)
        return results
    finally:
        for child in children:
            child.stop()


def run_workload(args) -> tuple[dict, dict]:
    """Run every child of one workload; returns (result line, record).

    A child that crashes or runs late counts as failed, and the metrics it
    was needed for are left out.
    """
    deadline = time.monotonic() + DEADLINE_S
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(), "replicas": REPLICAS,
              "loadavg_before": os.getloadavg()}
    outcomes = []
    if args.trace:
        # Untraced and traced side by side, so the overhead is measured at one time.
        specs = [(0, False, "run"), (1, False, "traced")]
        if REPLICAS > 1:
            outcomes = run_together(args, deadline, specs)
        else:
            outcomes = [run_together(args, deadline, [spec])[0] for spec in specs]
    else:
        for i in range(SETUP_SAMPLES):
            outcomes += run_together(args, deadline, [(0, True, f"setup{i}")])
        outcomes += run_together(args, deadline, [
            (0, False, f"run{r}") for r in range(REPLICAS)])
    record["loadavg_after"] = os.getloadavg()

    attempted = failed = 0
    for outcome in outcomes:
        if isinstance(outcome, dict):   # a set-up-only child reports no calls
            attempted += outcome.get("attempted", 1)
            failed += outcome.get("failed", 0)
            failures = outcome.get("failures", [])
        else:                           # the child crashed or ran late
            attempted, failed, failures = attempted + 1, failed + 1, [str(outcome)]
        for message in failures:
            print(f"FAILED: {message}", file=sys.stderr)
    runs = [o for o in outcomes if isinstance(o, dict) and "run_wall_s" in o]
    setups = [o["setup_s"] for o in outcomes if isinstance(o, dict) and "run_wall_s" not in o]
    # A crashed child is already counted in ``failed``; report what is left.
    whole = len(runs) == 2 if args.trace else bool(runs and setups)
    if not whole:
        metrics, units = {}, {}
    elif args.trace:
        untraced, traced = runs
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["run_wall_s"] - untraced["run_wall_s"]
        metrics["trace.accounted_share"] = (
            traced["traced_iter_ms_p50"] / percentiles_ms(untraced["intervals"])[50]
            if traced["traced_iter_ms_p50"] is not None else 0.0)
        units = {name: layer_unit(name) for name in metrics}
    else:
        pct = percentiles_ms([i for run in runs for i in run["intervals"]])
        metrics = {"setup_s": statistics.median(setups), "iter_ms_p90": pct[90],
                   "peak_rss_mb": max(run["peak_rss_mb"] for run in runs)}
        units = UNITS
        record.update(
            iter_ms_percentiles=pct, iter_samples=sum(len(run["intervals"]) for run in runs),
            run_wall_s=statistics.fmean(run["run_wall_s"] for run in runs),
            **{"eval_samples_per_s" if args.workload == "wide_gate_eval"
               else "train_samples_per_s": statistics.fmean(run["samples_per_s"] for run in runs)})
    per_replica = {name: [run[name] for run in runs]
                   for name in ("setup_s", "run_wall_s", "samples_per_s", "peak_rss_mb")}
    per_replica["iter_ms_percentiles"] = [percentiles_ms(run["intervals"]) for run in runs]
    record.update(setup_s_samples=setups, per_replica=per_replica,
                  failed_share=failed / max(attempted, 1))
    if runs:
        record.update(env=runs[0]["env"], info=runs[0]["info"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, record


def print_table(result: dict, record: dict) -> None:
    print(f"== {record['workload']} seed {record['seed']}: correct={result['correct']} "
          f"failed_share={record['failed_share']:.4g} "
          f"({result['failed']}/{result['attempted']})", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "gridmoe" / "__init__.py").is_file():
        print(f"error: gridmoe sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Turn a termination request into SystemExit, so running children are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    all_correct = True
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        args.workload = workload
        result, record = run_workload(args)
        print_table(result, record)
        print(json.dumps({"record": record}))
        print(json.dumps(result))
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
