"""Run artifacts: the CSV formats, and ``write_atomic``, which renames a whole file into place.

A CSV starts with a schema comment; floats get repr-level precision, so identical runs match.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path
from typing import Iterable, Sequence


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over ``path``.

    A write that fails or is killed partway leaves ``path`` as it was (absent
    or the previous complete file), never half written; a killed process may
    leave the hidden temporary file behind. The error raised names ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        tmp.unlink(missing_ok=True)


def format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_rows(path, schema: str, rows: Iterable[Sequence]) -> None:
    """The schema line, then ``rows`` of cells, rendered as ``CsvLogger`` streams them."""
    text = io.TextIOWrapper(io.BytesIO(), newline="")
    text.write(f"# schema={schema}.v1\n")
    csv.writer(text).writerows(rows)
    write_atomic(path, text.detach().getvalue())


def write_csv(path, columns: Sequence[str], rows: Iterable[dict], schema: str) -> None:
    write_rows(path, schema, [columns, *([format_value(row[c]) for c in columns] for row in rows)])


class CsvLogger:
    """Streaming writer for the per-step logs; an error raised names its file."""

    def __init__(self, path, columns: Sequence[str], schema: str):
        self.path = Path(path)
        self.columns = tuple(columns)
        self._fh = open(self.path, "w", newline="")
        self._fh.write(f"# schema={schema}.v1\n")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(self.columns)

    def write(self, row: dict) -> None:
        try:
            self._writer.writerow([format_value(row[c]) for c in self.columns])
        except OSError as exc:
            exc.filename = str(self.path)
            raise

    def close(self) -> None:
        try:
            self._fh.close()  # flushes first; closes even when the flush fails
        except OSError as exc:
            exc.filename = str(self.path)
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_csv(path) -> list[dict]:
    """Read one of our CSVs back, skipping schema comment lines."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))
