"""Every artifact of a short run, pinned, so a moved bit fails tier-1.

``artifact_digests.txt`` beside this file holds the lines that
``tools/artifact_digest.py --seeds 0 --iterations 100`` prints, under a
header that fingerprints the host: numpy's transcendental and BLAS kernels
can compute other bits on another build or CPU. Rewrite the file with the
command in ``REWRITE``; a rewrite changes a check, so name every line that
moved and why.
"""

import contextlib
import importlib.util
import io
import platform
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).with_name("artifact_digests.txt")
DIGEST_ARGS = ("--seeds", "0", "--iterations", "100")
REWRITE = "python3 tests/test_artifact_digests.py"


def fingerprint(rewrite: str) -> list[str]:
    """A pinned file's header: the command that rewrites it, then the Python and numpy
    versions, numpy's BLAS and its enabled CPU features."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return [f"# written by: {rewrite}", f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# blas {blas['name']} {blas['version']}",
            f"# blas configuration {blas.get('openblas configuration', '')}",
            f"# cpu features {' '.join([*simd['baseline'], *simd['found']])}"]


def digest_lines() -> list[str]:
    spec = importlib.util.spec_from_file_location("artifact_digest",
                                                  ROOT / "tools" / "artifact_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert tool.main([*DIGEST_ARGS, "--src", str(ROOT / "src")]) == 0
    return printed.getvalue().splitlines()


def pinned_lines(path: Path, rewrite: str) -> list[str]:
    """The lines of ``path`` under its header, which must be this host's fingerprint."""
    lines = path.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    here = fingerprint(rewrite)
    assert header == here, (
        f"{path.name} was written on another host; its fingerprint:\n"
        + "\n".join(header) + "\nthis host's:\n" + "\n".join(here)
        + f"\nrewrite it here with: {rewrite}")
    return [line for line in lines if not line.startswith("#")]


def test_artifacts_match_the_pinned_digests():
    pinned = pinned_lines(PINNED, REWRITE)
    assert pinned, f"{PINNED.name} pins no digest"
    actual = digest_lines()
    moved = sorted({line.split("  ", 1)[1] for line in set(pinned) ^ set(actual)})
    assert actual == pinned, "artifacts whose bytes moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    PINNED.write_text("\n".join([*fingerprint(REWRITE), *digest_lines()]) + "\n")
