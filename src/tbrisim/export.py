"""The two writers of every run file: tables and JSON documents.

A table is a few ``# `` header lines, one row of column names and one row
per record, numbers at 17 significant digits, every line ended by LF
alone.  A JSON document is written with indent 2, sorted keys and a
trailing newline, so equal documents give equal bytes.
"""

from __future__ import annotations

import json

import numpy as np


def write_table(path, columns: dict, *, header_lines=()) -> None:
    """Write named columns as CSV.

    ``columns`` maps each column name, in order, to a sequence with one
    cell per row.  Numbers are written with ``.17g``, text as it is and
    None as an empty cell.  CSV rows are formatted one at a time, so no
    table of strings is held.
    """
    cells = [np.asarray(value) for value in columns.values()]
    shapes = sorted({column.shape for column in cells})
    if len(shapes) != 1 or len(shapes[0]) != 1:   # a lone value or text has shape ()
        raise ValueError(f"table columns need one common length, got shapes {shapes}")
    cells = [column.tolist() for column in cells]
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
