"""Smoke tests of the two bit-for-bit gates in ``tools/``: each runs, exits 0
and finds a tree equal to itself."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_tool(script, *args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / script), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["train", "plain", "eval"])
def test_step_ab_finds_a_tree_bit_for_bit_with_itself(workload):
    result = run_tool("step_ab.py", "--parent", str(ROOT), "--change", str(ROOT),
                      "--workload", workload, "--steps", "3")
    assert result.returncode == 0, result.stderr
    assert "bit for bit: yes" in result.stdout


def test_step_ab_refuses_a_tree_without_train_step(tmp_path):
    old = tmp_path / "old"
    shutil.copytree(ROOT / "src" / "gridmoe", old / "src" / "gridmoe")
    with open(old / "src" / "gridmoe" / "train.py", "a") as fh:
        fh.write("\ndel train_step\n")
    result = run_tool("step_ab.py", "--parent", str(old), "--change", str(ROOT), "--steps", "1")
    assert result.returncode != 0
    assert f"{old} has no train.train_step" in result.stderr
    assert "that tree's own tools/step_ab.py" in result.stderr
    assert "Traceback" not in result.stderr


def test_artifact_digest_prints_the_same_lines_twice():
    runs = [run_tool("artifact_digest.py", "--seeds", "0", "--iterations", "3") for _ in range(2)]
    assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
    assert len(runs[0].stdout.splitlines()) == 52
    assert runs[1].stdout == runs[0].stdout
