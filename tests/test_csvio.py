"""Run files: the CSV formats, no file left half written under its final name,
and no rerun left under the previous run's completion mark.

Every whole file is rendered in memory and renamed into place; only
``losses.csv`` and ``dso_log.csv`` stream. The failure tests raise an
``OSError`` at the Nth ``csvio.format_value`` call, one per CSV cell written,
and check that the file being written is absent and every other file whole.
Each command writes one file last, which marks its output complete; a rerun
into the same directory removes it before it writes anything else.
"""

import contextlib
import errno
import importlib
import json
import os
import shutil
from pathlib import Path

import pytest

from gridmoe import csvio
from gridmoe import data as gdata
from gridmoe.cli import main
from gridmoe.csvio import CsvLogger, read_csv, write_csv
from gridmoe.moe import export_top1_map
from gridmoe.runconfig import parse_config, verify_manifest
from gridmoe.train import build_setup, evaluate_stats, imbalance_benchmark

EDGE_COLUMNS = ("f", "i", "b", "n", "s")
EDGE_ROWS = [
    {"f": -0.0, "i": 0, "b": True, "n": None, "s": "a,b"},
    {"f": float("nan"), "i": -7, "b": False, "n": None, "s": 'say "hi"'},
    {"f": float("inf"), "i": 2**70, "b": True, "n": None, "s": "0|2"},
    {"f": float("-inf"), "i": 1, "b": False, "n": None, "s": ""},
    {"f": 1e300, "i": 3, "b": True, "n": None, "s": 'x,"y"|z'},
    {"f": 0.1, "i": 4, "b": False, "n": None, "s": "plain"},
]


def test_whole_csv_has_the_bytes_the_streamed_writer_gives(tmp_path):
    write_csv(tmp_path / "whole.csv", EDGE_COLUMNS, EDGE_ROWS, "edge")
    with CsvLogger(tmp_path / "streamed.csv", EDGE_COLUMNS, "edge") as log:
        for row in EDGE_ROWS:
            log.write(row)
    whole = (tmp_path / "whole.csv").read_bytes()
    assert whole == (tmp_path / "streamed.csv").read_bytes()
    assert whole.startswith(b'# schema=edge.v1\nf,i,b,n,s\r\n-0,0,True,None,"a,b"\r\n'
                            b'nan,-7,False,None,"say ""hi"""\r\n')
    assert [row["s"] for row in read_csv(tmp_path / "whole.csv")] == [r["s"] for r in EDGE_ROWS]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["streamed.csv", "whole.csv"]


def test_top1_map_is_a_schema_line_then_rows_of_ints(tmp_path):
    cfg = parse_config({"moe": {"n_experts": 4, "top_k": 2}, "run": {"iterations": 1}})
    modalities, tasks, model, _ = build_setup(cfg)
    evaluate_stats(model, modalities, tasks, 1, cfg.height, cfg.width, maps_dir=tmp_path)
    assert len(list(tmp_path.iterdir())) == len(modalities) * len(model.spec.moe_layers)
    for modality in sorted(modalities):
        image, _ = gdata.generate_sample(modalities[modality], tasks[modality],
                                         gdata.EVAL_INDEX_OFFSET, cfg.height, cfg.width)
        _, routings = model.features(image[None])
        for layer, decision in routings:
            grid = export_top1_map(decision)[0]
            rows = b"".join(b",".join(b"%d" % v for v in row) + b"\r\n" for row in grid)
            path = tmp_path / f"{modality}_{layer.replace('.', '_')}.csv"
            assert path.read_bytes() == b"# schema=top1_map.v1\n" + rows


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_streamed_log_write_failure_names_its_file():
    log = CsvLogger("/dev/full", ["a"], "full")
    with pytest.raises(OSError) as at_write:
        log.write({"a": "x" * 100_000})  # more than the buffer holds
    with pytest.raises(OSError) as at_close:
        log.close()
    short = CsvLogger("/dev/full", ["a"], "full")
    short.write({"a": 1})  # buffered: the disk is full at the flush on close
    with pytest.raises(OSError) as at_flush:
        short.close()
    for info in (at_write, at_close, at_flush):
        assert info.value.errno == errno.ENOSPC and info.value.filename == "/dev/full"


def write_config(path, **run):
    path.write_text(json.dumps({"moe": {"n_experts": 4, "top_k": 2, "gate_temperature": 0.5},
                                "run": {"iterations": 3, "base_lr": 0.05, "seed": 0,
                                        "stats_samples": 0, **run}}))
    return path


@pytest.fixture
def trained_run(tmp_path, monkeypatch):
    monkeypatch.delenv("GRIDMOE_OUT", raising=False)
    run = tmp_path / "run"
    assert main(["train", "--config", str(write_config(tmp_path / "cfg.json")),
                 "--out", str(run)]) == 0
    return run


@pytest.mark.parametrize("step", ["write", "rename"])
def test_failed_whole_file_write_names_the_final_file(trained_run, tmp_path, monkeypatch,
                                                      capsys, step):
    """A temporary file that cannot be written or renamed names the file it was for."""
    out = tmp_path / "inspect"
    real_write, real_replace = Path.write_bytes, os.replace

    def half_then_fail(path, data):
        if not path.name.startswith(".participation.csv."):
            return real_write(path, data)
        real_write(path, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    def refuse(src, dst):
        if not Path(src).name.startswith(".participation.csv."):
            return real_replace(src, dst)
        raise PermissionError(errno.EACCES, "Permission denied", str(src), None, str(dst))

    if step == "write":
        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    else:
        monkeypatch.setattr(os, "replace", refuse)
    capsys.readouterr()
    code = main(["inspect-gates", "--checkpoint", str(trained_run / "checkpoint.bin"),
                 "--modality", "A", "--n", "1", "--out", str(out)])
    assert code == 3
    message = {"write": "[Errno 28] No space left on device",
               "rename": "[Errno 13] Permission denied"}[step]
    assert capsys.readouterr().err == f"I/O error: {message}: '{out / 'participation.csv'}'\n"
    assert not (out / "participation.csv").exists() and not list(out.rglob("*.tmp"))
    assert len(list((out / "top1_maps").iterdir())) == 2


@contextlib.contextmanager
def cells_failing_at(fail_at=None):
    """Count ``csvio.format_value`` calls; call number ``fail_at`` raises as a full disk would."""
    real, calls = csvio.format_value, [0]

    def counted(value):
        calls[0] += 1
        if calls[0] == fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(value)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "format_value", counted)
        yield calls


def published(root):
    """Every file under ``root`` with its bytes, but the run manifests, which carry times."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and p.name != "manifest.json"}


def fail_late(out, run, back, fresh=True):
    """Run ``run()`` once cleanly into ``out``, then again with the cell ``back`` from the
    last one failing: into a fresh ``out``, or over the first run unless ``fresh``.
    Returns the clean run's files."""
    with cells_failing_at() as calls:
        run()
    whole = published(out)
    if fresh:
        shutil.rmtree(out)
    with cells_failing_at(calls[0] - back):
        run()
    return whole


def assert_absent_or_whole(out, failed, whole):
    files = published(out)
    assert failed in whole and failed not in files
    assert all(files[name] == whole[name] for name in files)
    assert not list(out.rglob(".*.tmp"))


# (argv, the whole file the failure falls in, cells from the last one, manifests of exit 3).
# The cell runs write no evaluation statistics, so a run's last CSV is expert_stats.csv:
# 24 rows of 6 cells. sweep.csv has 8 cells a row.
CLI_CASES = {
    "inspect_gates": (["inspect-gates", "--modality", "A", "--n", "2"],
                      "participation.csv", 14, []),
    "train": (["train"], "expert_stats.csv", 4, ["."]),
    "sweep_cell": (["sweep", "--grid", "moe.top_k=2"],
                   "cell000_seed0/expert_stats.csv", 8 + 4, ["cell000_seed0"]),
    "sweep_csv": (["sweep", "--grid", "moe.top_k=1,2"], "sweep.csv", 4, []),
}


def case_argv(case, trained_run, tmp_path):
    argv = CLI_CASES[case][0]
    if argv[0] == "inspect-gates":
        return [*argv, "--checkpoint", str(trained_run / "checkpoint.bin")]
    return [*argv, "--config", str(tmp_path / "cfg.json")]


@pytest.mark.parametrize("case", CLI_CASES)
def test_command_failing_mid_file_exits_3_and_leaves_no_partial_file(trained_run, tmp_path,
                                                                     capsys, case):
    _, failed, back, failed_runs = CLI_CASES[case]
    argv = case_argv(case, trained_run, tmp_path)
    out = tmp_path / "out"
    codes = []
    whole = fail_late(out, lambda: codes.append(main([*argv, "--out", str(out)])), back)
    assert codes == [0, 3]
    err = capsys.readouterr().err
    assert err.startswith("I/O error: [Errno 28] No space left on device") and err.count("\n") == 1
    assert_absent_or_whole(out, failed, whole)
    for run in failed_runs:
        assert json.loads((out / run / "manifest.json").read_text())["exit_status"] == 3
        assert verify_manifest(out / run)


def benchmark_failing_mid_seeds_csv(out, fresh):
    """``fail_late`` on a one-seed benchmark whose rerun raises in ``benchmark_seeds.csv``;
    returns the clean run's files."""
    outcome = []

    def run():
        try:
            outcome.append(imbalance_benchmark(out, seeds=(0,), iterations=2))
        except OSError as exc:
            outcome.append(exc)

    # benchmark_seeds.csv is one row of 6 cells: the failure falls in it.
    whole = fail_late(out, run, 4, fresh)
    assert not isinstance(outcome[0], OSError)
    assert isinstance(outcome[1], OSError) and outcome[1].errno == errno.ENOSPC
    return whole


def test_benchmark_failing_mid_seeds_csv_raises_and_leaves_no_partial_file(tmp_path):
    out = tmp_path / "bench"
    whole = benchmark_failing_mid_seeds_csv(out, fresh=True)
    assert_absent_or_whole(out, "benchmark_seeds.csv", whole)


# The file that marks a command's output complete, for the CLI_CASES that fail before
# writing it. A failed train run rewrites its manifest with exit 3 (see the test below).
COMPLETION_MARKS = {"inspect_gates": "participation.csv", "sweep_cell": "sweep.csv",
                    "sweep_csv": "sweep.csv"}


@pytest.mark.parametrize("case", COMPLETION_MARKS)
def test_failed_rerun_leaves_no_previous_completion_mark(trained_run, tmp_path, case):
    out = tmp_path / "out"
    argv = [*case_argv(case, trained_run, tmp_path), "--out", str(out), "--force"]
    codes = []
    whole = fail_late(out, lambda: codes.append(main(argv)), CLI_CASES[case][2], fresh=False)
    assert codes == [0, 3]
    mark = COMPLETION_MARKS[case]
    assert mark in whole and mark not in published(out)


def test_failed_benchmark_rerun_leaves_no_previous_seeds_csv(tmp_path):
    out = tmp_path / "bench"
    whole = benchmark_failing_mid_seeds_csv(out, fresh=False)
    assert "benchmark_seeds.csv" in whole and "benchmark_seeds.csv" not in published(out)


def test_interrupted_train_rerun_leaves_no_previous_manifest(trained_run, tmp_path,
                                                              monkeypatch):
    """An interrupt records no exit status, so the first run's manifest must not stay
    to vouch for the rerun's partial logs, nor its checkpoint to stand for the rerun's."""
    train_mod = importlib.import_module("gridmoe.train")
    real, steps = train_mod.train_step, [0]

    def interrupted(state):
        steps[0] += 1
        if steps[0] == 3:
            raise KeyboardInterrupt
        return real(state)

    monkeypatch.setattr(train_mod, "train_step", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(trained_run),
              "--force"])
    assert not (trained_run / "manifest.json").exists()
    assert not (trained_run / "checkpoint.bin").exists()
    assert not (trained_run / "checkpoint.manifest.json").exists()
    assert len(read_csv(trained_run / "losses.csv")) == 2


def test_sweep_rerun_with_a_bad_cell_keeps_the_previous_sweep_csv(tmp_path, monkeypatch,
                                                                   capsys):
    """Every cell's config parses before the previous ``sweep.csv`` is removed."""
    monkeypatch.delenv("GRIDMOE_OUT", raising=False)
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(write_config(tmp_path / "cfg.json")), "--out", str(out),
            "--force", "--grid"]
    assert main([*argv, "moe.top_k=1,2"]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert main([*argv, "moe.top_k=1,9"]) == 2
    assert "config error: moe.top_k" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert (out / "sweep.csv") in before
