"""The two writers of every run file: tables and JSON documents.

A table is a few ``# `` header lines, one row of column names and one row
per record, numbers at 17 significant digits, every line ended by LF
alone.  A JSON document is written with indent 2, sorted keys and a
trailing newline, so equal documents give equal bytes.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


def write_table(path, columns: dict, *, header_lines=()) -> None:
    """Write named columns as CSV.

    ``columns`` maps each column name, in order, to a sequence with one
    cell per row, or to one value repeated on every row.  Numbers are
    written with ``.17g``, text as it is and None as an empty cell.  CSV
    rows are formatted one at a time, so no table of strings is held.
    """
    lengths = {len(value) for value in columns.values() if np.ndim(value) == 1}
    if len(lengths) != 1:
        raise ValueError(f"table columns need one common length, got {sorted(lengths)}")
    n_rows = lengths.pop()
    cells = [
        np.asarray(value).tolist() if np.ndim(value) == 1 else itertools.repeat(value, n_rows)
        for value in columns.values()
    ]
    with open(path, "w", newline="\n") as fh:   # LF on every platform
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in zip(*cells))


def write_json(path, document) -> None:
    """Write one JSON document: indent 2, sorted keys, trailing newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else format(value, ".17g")
