"""The CLI's exit contract under a config fuzz.

Every key of ``runconfig.SCHEMA`` is crossed with one fixed table of edge
values, so a new key is fuzzed with no edit here. Each value goes through
``gridmoe train`` (in the config file) and ``gridmoe sweep --grid
<key>=<value>``, and the same table goes through the ``inspect-gates`` flags
``--n`` and ``--modality``. Whatever the value, the command exits 0, 2 or 3:

- 2 (a configuration error) leaves the output directory empty or absent;
- 3 (a runtime failure) leaves a ``manifest.json`` that records 3;
- 0 leaves a ``manifest.json`` that ``verify_manifest`` accepts
  (``participation.csv`` for ``inspect-gates``, which writes no manifest).
"""

import copy
import json

import pytest

from gridmoe.cli import main
from gridmoe.runconfig import SCHEMA, verify_manifest

# Wrong types, bool, null, empty containers, signed zeros, tiny and huge floats, and
# unknown modalities, both as a key and as a bare name.
EDGE_VALUES = ("x", True, None, [], {}, 0, -1, -0.0, 1e-300, 1e300, {"D": 1}, "D")

# A small valid run: 3 iterations on 4x4 grids, one evaluation sample per modality.
BASE = {"moe": {"n_experts": 2, "top_k": 1}, "data": {"height": 4, "width": 4},
        "run": {"iterations": 3, "stats_samples": 1, "out_dir": "run", "base_lr": 0.05}}


def token(value) -> str:
    """``value`` as one ``--grid`` value or flag token."""
    return value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refusing a flag value
        return exc.code


def assert_contract(code, root, case, marks=("manifest.json",)):
    """The exit contract for a command that wrote under ``root`` only."""
    assert code in (0, 2, 3), f"{case}: exit {code}"
    written = sorted(root.rglob("*")) if root.exists() else []
    if code == 2:
        assert not written, f"{case}: exit 2 left {written}"
        return
    found = [p for p in written if p.name in marks]
    assert found, f"{case}: exit {code} left no {marks} under {root}"
    if code == 3:
        assert any(json.loads(p.read_text())["exit_status"] == 3 for p in found), case
    else:
        assert all(verify_manifest(p.parent) for p in found if p.name == "manifest.json"), case


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_schema_key_and_flag_keeps_the_exit_contract(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    for section, keys in SCHEMA.items():
        for key in keys:
            for i, value in enumerate(EDGE_VALUES):
                case = f"{section}.{key}={value!r}"
                raw = copy.deepcopy(BASE)
                raw.setdefault(section, {})[key] = value
                cfg.write_text(json.dumps(raw))
                root = tmp_path / "out" / f"{section}.{key}.{i}"
                monkeypatch.setenv("GRIDMOE_OUT", str(root))
                assert_contract(exit_code(["train", "--config", str(cfg)]), root, f"train {case}")

                cfg.write_text(json.dumps(BASE))
                root = root.with_name(root.name + ".sweep")
                monkeypatch.setenv("GRIDMOE_OUT", str(root))
                assert_contract(exit_code(["sweep", "--config", str(cfg), "--grid",
                                           f"{section}.{key}={token(value)}"]),
                                root, f"sweep {case}")

    checkpoint = tmp_path / "out" / "base" / "run" / "checkpoint.bin"
    monkeypatch.setenv("GRIDMOE_OUT", str(checkpoint.parent.parent))
    assert main(["train", "--config", str(cfg)]) == 0
    for flag, other in (("--n", ["--modality", "A"]), ("--modality", ["--n", "1"])):
        for i, value in enumerate(EDGE_VALUES):
            out = tmp_path / "inspect" / f"{flag}.{i}"
            code = exit_code(["inspect-gates", "--checkpoint", str(checkpoint), *other,
                              flag, token(value), "--out", str(out)])
            assert_contract(code, out, f"inspect-gates {flag} {token(value)}",
                            marks=("participation.csv",))
            assert code != 3, f"inspect-gates {flag} {token(value)}: exit 3"
