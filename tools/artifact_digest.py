"""Print the SHA-256 of every artifact of short ``benchmark_config`` runs.

For each seed it trains ``train.benchmark_config`` three ways (governor on,
``--no-dso``, and ``--no-dso --no-moe``) into a temporary directory. Each
checkpoint with gates (the first two ways) is then inspected with
``gridmoe inspect-gates --n 8`` for modalities A, B and C, into
``inspect_<modality>/`` beside it. The tool prints one
``<sha256>  <variant>/seed<N>/<file>`` line per artifact, sorted. Then
``train.imbalance_benchmark`` runs that seed alone, and the tool prints
``<sha256>  benchmark/seed<N>/benchmark_seeds.csv``; its run directories
repeat the ``dso`` and ``no-dso`` variants, so they are not printed.
``config_snapshot.json`` records the output directory, a temporary one, so
its JSON-encoded path is replaced by a fixed placeholder before hashing.

Two checkouts that compute the same bits print the same lines, so a change
that must stay bit for bit is checked by diffing its output with the
parent's::

    python3 tools/artifact_digest.py --seeds 0,3 --iterations 300 > change.txt
    python3 tools/artifact_digest.py --src ../parent/src --seeds 0,3 --iterations 300 > parent.txt
    diff parent.txt change.txt

gridmoe is imported from ``--src`` (default: the ``src/`` beside this file).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SNAPSHOT = "config_snapshot.json"
OUT_PLACEHOLDER = "<out_dir>"
VARIANTS = {
    "dso": {"run.dso": True},
    "no-dso": {"run.dso": False},
    "no-dso-no-moe": {"run.dso": False, "model.moe_layers": []},
}
INSPECT_SAMPLES = 8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0,3", help="comma list of run seeds")
    parser.add_argument("--iterations", type=int, default=300)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the gridmoe package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from gridmoe.cli import main as gridmoe_main
    from gridmoe.data import MODALITIES
    from gridmoe.runconfig import parse_config, set_path
    from gridmoe.train import benchmark_config, imbalance_benchmark, train

    seeds = [int(s) for s in args.seeds.split(",")]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for variant, overrides in VARIANTS.items():
                out = Path(tmp) / variant / f"seed{seed}"
                raw = benchmark_config(seed, args.iterations, str(out), True).snapshot()
                for dotted, value in overrides.items():
                    set_path(raw, dotted, value)
                train(parse_config(raw), keep_model=False)
                for modality in MODALITIES if overrides.get("model.moe_layers", True) else ():
                    argv = ["inspect-gates", "--checkpoint", str(out / "checkpoint.bin"),
                            "--modality", modality, "--n", str(INSPECT_SAMPLES),
                            "--out", str(out / f"inspect_{modality}")]
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = gridmoe_main(argv)
                    if code != 0:
                        raise SystemExit(f"gridmoe {' '.join(argv)} exited {code}")
                lines += [f"{_sha256(path, out)}  "
                          f"{variant}/seed{seed}/{path.relative_to(out).as_posix()}"
                          for path in sorted(out.rglob("*")) if path.is_file()]
            out = Path(tmp) / "benchmark" / f"seed{seed}"
            imbalance_benchmark(out, seeds=(seed,), iterations=args.iterations)
            lines.append(f"{_sha256(out / 'benchmark_seeds.csv', out)}  "
                         f"benchmark/seed{seed}/benchmark_seeds.csv")
    print("\n".join(lines))
    return 0


def _sha256(path: Path, out: Path) -> str:
    data = path.read_bytes()
    if path.name == SNAPSHOT:
        data = data.replace(json.dumps(str(out)).encode(), json.dumps(OUT_PLACEHOLDER).encode())
    return hashlib.sha256(data).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
