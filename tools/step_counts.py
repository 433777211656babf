"""Count the calls one unit of a ``step_ab.py`` workload makes, per unit.

::

    python3 tools/step_counts.py [--src DIR] [--workload train|plain|eval] [--warmup N] [--steps N]

``--src`` is a checkout holding ``src/gridmoe`` (default: the checkout that
holds this file). The workloads are ``tools/step_ab.py``'s, on the same
configs; a unit is a ``train.train_step`` call for ``train`` and ``plain``
(``step_ab.py`` times blocks of them), a ``Model.features`` call on one
16x16 sample for ``eval``. The tool runs ``--warmup`` units untraced, then
``--steps`` units under ``sys.setprofile``, and prints one
``<calls per unit>  py|c <name>`` line per called function, most calls
first, then the total. ``py`` is a Python function, named by its module and
qualified name; ``c`` is a builtin or C method. A step generates its
samples in chunks of ``train.PREFETCH_STEPS`` batches, so a training
window counts them per step only when ``--warmup`` and ``--steps`` are both
multiples of it.

The tree is imported as the package ``gridmoe`` wherever it lies, and the
tool's own ``sys.setprofile`` call is not counted, so two trees that make the
same calls print the same lines::

    python3 tools/step_counts.py --src ../parent --workload train > parent.txt
    python3 tools/step_counts.py --workload train > change.txt
    diff parent.txt change.txt

The counts are of calls, not time: a diff names each call a change added
or removed, on any host.
"""

from __future__ import annotations

import argparse
import collections
import functools
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import step_ab  # noqa: E402


def units(gm, workload: str, count: int, out_dir: str) -> list:
    """``count`` zero-argument calls, each one unit of ``workload``, in step_ab's order."""
    cfg = step_ab.config(gm, workload, count, out_dir)
    if workload != "eval":
        state = gm.train.start_training(cfg)
        return [functools.partial(gm.train.train_step, state)] * count
    modalities, tasks, model, _ = gm.train.build_setup(cfg)
    names = sorted(modalities)
    calls = []
    for i in range(count):
        modality = names[i % len(names)]
        image, _ = gm.data.generate_sample(modalities[modality], tasks[modality], i,
                                           step_ab.EVAL_GRID, step_ab.EVAL_GRID)
        calls.append(functools.partial(model.features, image[None]))
    return calls


def c_name(fn) -> str:
    module = getattr(fn, "__module__", None)
    if module is None:  # a method: named by the type it is bound to
        module = type(getattr(fn, "__self__", None)).__module__
    return f"{module}.{fn.__qualname__}"


def count_calls(calls) -> collections.Counter:
    """Calls by ``(kind, name)`` while ``calls`` run, without the closing ``sys.setprofile``."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts["py", f"{frame.f_globals.get('__name__')}.{frame.f_code.co_qualname}"] += 1
        elif event == "c_call" and arg is not sys.setprofile:
            counts["c", c_name(arg)] += 1

    sys.setprofile(profile)
    try:
        for call in calls:
            call()
    finally:
        sys.setprofile(None)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout holding src/gridmoe")
    parser.add_argument("--workload", choices=("train", "plain", "eval"), default="train")
    parser.add_argument("--warmup", type=int, default=10)
    parser.add_argument("--steps", type=int, default=100)
    args = parser.parse_args(argv)
    if args.warmup < 0 or args.steps < 1:
        parser.error("--warmup must be >= 0 and --steps >= 1")
    # One BLAS thread, as the benchmark pins it; set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    gm = step_ab.load_tree(args.src, "gridmoe")

    with tempfile.TemporaryDirectory() as tmp:  # a non-finite loss writes its dump here
        calls = units(gm, args.workload, args.warmup + args.steps, tmp)
        for call in calls[:args.warmup]:
            call()
        counts = count_calls(calls[args.warmup:])

    for (kind, name), n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{n / args.steps:.2f}  {kind} {name}")
    print(f"{sum(counts.values()) / args.steps:.2f}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
