"""Record reference.json: per seed, the losses and routing outputs a run must reproduce.

    python3 perfbench/make_reference.py

For seeds 0-99 it runs each training workload at the run length of
``BENCHMARK.json`` and records the per-task losses of the first iterations
and ``final_loss_total`` of every training run. For the eval workload it
records the first ``evaluate_stats`` participation entropies and the SHA-256
of each modality's ``inspect-gates`` ``participation.csv``. Seeds are shared
out over at most two worker processes. Re-record only when a change is meant
to alter what gridmoe computes, and say so in the change.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys

import run
import workload as wl

SEEDS = range(100)
SECONDS = json.loads((wl.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
WORK = wl.ROOT / "perfbench" / "_work" / "reference"

_harness = None


def record_seed(seed: int) -> str:
    """One seed's reference entry, as a line of reference.json."""
    global _harness
    if _harness is None:
        work = WORK / str(os.getpid())
        work.mkdir(parents=True)
        _harness = wl.Harness(wl.load_gridmoe(), work, setup_only=False)
    h = _harness
    entry = {}
    for name in ("imbalance_pair", "plain_joint"):
        runs = {}
        iterations = wl.training_iterations(name, SECONDS)
        for side, raw, flags in wl.training_runs(h.gm, name, seed, iterations):
            config = h.work / f"{side}.json"
            config.write_text(json.dumps(raw))
            out = h.work / f"{name}-{side}"
            if not h.cli(side, ["train", "--config", str(config), "--out", str(out), *flags]):
                raise RuntimeError(str(h.failures))
            runs[side] = wl.loss_summary(h.results[-1])
            shutil.rmtree(out)
        entry[name] = runs
    ckpt, modalities, tasks, model = wl.eval_setup(h, seed)
    stats = h.gm.train.evaluate_stats(model, modalities, tasks, wl.EVAL_SAMPLES,
                                      wl.EVAL_GRID, wl.EVAL_GRID)
    digests = {}
    for m in sorted(modalities):
        out = h.work / f"inspect{m}"
        if not h.cli(out.name, ["inspect-gates", "--checkpoint", str(ckpt), "--modality", m,
                                "--n", str(wl.EVAL_SAMPLES), "--out", str(out)]):
            raise RuntimeError(str(h.failures))
        digests[m] = wl.participation_digest(out)
        shutil.rmtree(out)
    entry["wide_gate_eval"] = {
        "entropy": {m: stats.participation_entropy(m) for m in sorted(modalities)},
        "participation_sha256": digests}
    shutil.rmtree(h.work / "checkpoint")
    return json.dumps(str(seed)) + ": " + json.dumps(entry)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.environ.update(run.child_env())  # the same BLAS pinning as benchmark runs
    with multiprocessing.get_context("spawn").Pool(len(run.CPUS)) as pool:
        lines = pool.map(record_seed, SEEDS, chunksize=1)
    shutil.rmtree(WORK)
    wl.REFERENCE.write_text('{"seconds": %d, "seeds": {\n%s\n}}\n'
                            % (SECONDS, ",\n".join(lines)))
    print(f"recorded seeds {SEEDS.start}-{SEEDS.stop - 1} in {wl.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
