"""The call ledger: every call one unit of a ``tools/step_counts.py`` workload makes,
pinned, so a call added to or removed from a training step or an evaluated
sample fails tier-1.

``step_counts.txt`` beside this file holds what ``tools/step_counts.py`` prints
for each workload in ``UNITS``, each set under a ``$`` line naming its command,
all under the fingerprint header that ``artifact_digests.txt`` has: another
Python or numpy makes other calls. Counts are of calls, not time, so they do not
move with the host's load. Every count must equal its pinned value: one that
rises fails, and so does one that falls, until the file is rewritten with the
command in ``REWRITE``. A rewrite changes a check, so name every count that
moved and why.
"""

import subprocess
import sys
from pathlib import Path

from test_artifact_digests import ROOT, fingerprint, pinned_lines

PINNED = Path(__file__).with_name("step_counts.txt")
REWRITE = "python3 tests/test_step_counts.py"
# (workload, warm-up units, counted units): all three sets take under 2 s together.
UNITS = (("train", 10, 50), ("plain", 10, 50), ("eval", 3, 30))


def count_sets() -> list[str]:
    """Each set's ``$`` line and printed lines, in ``UNITS`` order. Each set runs in a
    subprocess, as the tool would, so this process's ``gridmoe`` stays the one it is;
    the three run at once."""
    runs = {}
    for workload, warmup, steps in UNITS:
        command = ["tools/step_counts.py", "--workload", workload,
                   "--warmup", str(warmup), "--steps", str(steps)]
        runs[" ".join(["$ python3", *command])] = subprocess.Popen(
            [sys.executable, str(ROOT / command[0]), *command[1:]],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = []
    for header, run in runs.items():
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, f"{header}\n{err}"
        lines += [header, *out.splitlines()]
    return lines


def parse(lines: list[str]) -> dict[tuple[str, str], str]:
    """``(set, call)`` to its printed calls per unit; ``total`` is a call of each set."""
    counts, header = {}, None
    for line in lines:
        if line.startswith("$ "):
            header = line
        else:
            count, call = line.split("  ", 1)
            counts[header, call] = count
    return counts


def test_step_calls_match_the_pinned_ledger():
    pinned = parse(pinned_lines(PINNED, REWRITE))
    assert pinned, f"{PINNED.name} pins no count"
    actual = parse(count_sets())
    moved = []
    for key in sorted(set(pinned) | set(actual)):
        old, new = pinned.get(key, "0.00"), actual.get(key, "0.00")
        if float(old) != float(new):
            moved.append(f"{key[0][2:]}: {key[1]}: {old} -> {new} "
                         + ("(rose)" if float(new) > float(old) else "(fell)"))
    assert not moved, ("calls per unit that moved; a fall passes once the ledger is "
                       f"rewritten with {REWRITE}:\n" + "\n".join(moved))


if __name__ == "__main__":
    PINNED.write_text("\n".join([*fingerprint(REWRITE), *count_sets()]) + "\n")
