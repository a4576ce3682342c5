"""The run files: their two writers, the reader of every JSON document and ``inspect``'s checks.

A table is a few ``# `` header lines, one row of column names and one row
per record, numbers at 17 significant digits, every line ended by LF
alone.  A JSON document is written with indent 2, sorted keys and a
trailing newline, so equal documents give equal bytes.  ``check_run`` and
``compare_runs`` read them back for ``tbrisim inspect``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .exceptions import ParameterError

# `compare_runs` accepts |a - b| <= INSPECT_TOL * max(1, |a|, |b|) in every
# numeric CSV cell and JSON leaf: relative above 1, absolute below.  It lies far
# above one build's rounding (payloads across BLAS thread counts: 4.3e-14 apart,
# fit parameters <= 3e-13 relative) and far below any change of the physics.
INSPECT_TOL = 1e-9
# Manifest and config keys that describe the machine, the hashes, the output
# routing or the trajectory's evaluation plan rather than the result;
# `compare_runs` does not compare them.
_UNCOMPARED_KEYS = frozenset({"environment", "files", "output", "interpolated_points", "time_nodes"})
# The manifest keys `check_run` reports; a manifest without them is refused.
_MANIFEST_KEYS = ("config_hash", "seed", "derived")


def write_table(path, columns: dict, *, header_lines=()) -> None:
    """Write named columns as CSV.

    ``columns`` maps each column name, in order, to a sequence with one
    cell per row.  Numbers are written with ``.17g``, text as it is and
    None as an empty cell.  CSV rows are formatted one at a time, each by
    one ``%`` over its cells, so no table of strings is held; only a
    column holding text or None is turned into strings first.
    """
    arrays = [np.asarray(value) for value in columns.values()]
    shapes = sorted({column.shape for column in arrays})
    if len(shapes) != 1 or len(shapes[0]) != 1:   # a lone value or text has shape ()
        raise ValueError(f"table columns need one common length, got shapes {shapes}")
    numeric = [column.dtype.kind in "biuf" for column in arrays]
    cells = [column.tolist() if number else list(map(_cell, column.tolist()))
             for column, number in zip(arrays, numeric)]
    row_format = ",".join("%.17g" if number else "%s" for number in numeric) + "\n"
    with open(path, "w", newline="\n") as fh:   # LF on every platform
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.write(",".join(columns) + "\n")
        fh.writelines(row_format % row for row in zip(*cells))


def write_json(path, document) -> None:
    """Write one JSON document: indent 2, sorted keys, trailing newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else format(value, ".17g")


def read_document(path, what: str) -> dict:
    """The JSON object in the file ``path``; ParameterError (exit 2), naming "``what`` ``path``",
    if it cannot be read, is not UTF-8 JSON, holds an integer past Python's 4,300-digit limit,
    nests deeper than the parser allows or holds no object."""
    name = f"{what} {path}".lstrip()
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ParameterError(f"{name} is not valid JSON or cannot be read: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParameterError(f"{name} must hold a JSON object, got {type(doc).__name__}")
    return doc


def sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, the digest a manifest lists for it."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_run(rundir, against=None):
    """Yield (line, status) one at a time for ``inspect RUNDIR [--against OTHER]``: the
    manifest's _MANIFEST_KEYS as JSON, then per listed file "ok" and its digest's first 12
    hex digits (0), "MISSING" or "HASH MISMATCH" (3); then, ``against`` given, the
    ``compare_runs`` of those files and the manifest.  ParameterError for a bad manifest."""
    rundir, path = Path(rundir), Path(rundir) / "manifest.json"
    manifest = read_document(path, "manifest")
    if not (manifest.keys() >= {*_MANIFEST_KEYS} and isinstance(manifest.get("files", {}), dict)):
        raise ParameterError(f"manifest {path} must hold "
                             f"{', '.join(_MANIFEST_KEYS)} and, if any, a files object")
    yield json.dumps({k: manifest[k] for k in _MANIFEST_KEYS}, indent=2), 0
    files = manifest.get("files", {})
    for name, recorded in files.items():
        if not (rundir / name).is_file():
            yield f"{name}: MISSING", 3
        elif sha256(rundir / name) != recorded:
            yield f"{name}: HASH MISMATCH", 3
        else:
            yield f"{name}: ok {recorded[:12]}", 0
    if against is not None:
        yield from compare_runs(rundir, against, [*files, "manifest.json"])


def _fields(path: Path) -> dict:
    """JSON leaves by key path but _UNCOMPARED_KEYS, or CSV cells by line:column, as numbers
    where they parse as one."""
    try:
        text = path.read_text() if path.suffix == ".csv" else ""
    except ValueError as exc:   # not text
        raise ParameterError(f"{path} is not valid CSV: {exc}") from exc
    pending = [("", read_document(path, ""))] if path.suffix == ".json" else []
    fields = {}
    while pending:   # a JSON document, walked down to its leaves
        where, doc = pending.pop()
        if isinstance(doc, dict):
            pending += [(f"{where}.{key}" if where else key, value)
                        for key, value in doc.items() if key not in _UNCOMPARED_KEYS]
        elif isinstance(doc, list):
            pending += [(f"{where}[{j}]", value) for j, value in enumerate(doc)]
        else:
            fields[where] = doc
    for r, line in enumerate(text.splitlines()):   # a table, cell by cell
        for c, cell in enumerate(line.split(",")):
            try:
                fields[f"{r}:{c}"] = float(cell)
            except ValueError:
                fields[f"{r}:{c}"] = cell
    return fields


def compare_runs(rundir, other, names):
    """Yield (line, status) one at a time per file name: "bytes equal", or the largest
    differences over the CSV cells and JSON leaves.  Status 3 if the file is missing in
    either run, is not a table and differs, or has a field beyond INSPECT_TOL; else 0."""
    rundir, other = Path(rundir), Path(other)
    for name in names:
        mine, theirs = rundir / name, other / name
        if not (mine.is_file() and theirs.is_file()):
            yield f"{name}: MISSING in {other if mine.is_file() else rundir}", 3
            continue
        if mine.read_bytes() == theirs.read_bytes():
            yield f"{name}: bytes equal", 0
            continue
        if mine.suffix not in (".csv", ".json"):
            yield f"{name}: bytes differ (not a table)", 3
            continue
        a, b = _fields(mine), _fields(theirs)
        # A JSON key of one run only (a diagnostic added since) is listed; CSV cells
        # of one run only mean the tables differ in shape, which fails.
        beyond = sorted(a.keys() ^ b.keys()) if mine.suffix == ".csv" else []
        worst_abs, worst_rel, worst_key = 0.0, 0.0, None
        for key in sorted(a.keys() & b.keys()):
            x, y = a[key], b[key]
            numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
            if x == y or numeric and math.isnan(x) and math.isnan(y):
                continue
            diff = abs(x - y) if numeric else math.nan
            if not math.isfinite(diff):   # text, or NaN/inf against a number
                beyond.append(key)
                continue
            worst_abs = max(worst_abs, diff)
            rel = diff / max(abs(x), abs(y))
            if rel > worst_rel:
                worst_rel, worst_key = rel, key
            if diff > INSPECT_TOL * max(1.0, abs(x), abs(y)):
                beyond.append(key)
        line = f"{name}: max abs diff {worst_abs:.3g}, max rel diff {worst_rel:.3g} ({worst_key})"
        if mine.suffix == ".json":
            for where, keys in ((rundir, a.keys() - b.keys()), (other, b.keys() - a.keys())):
                if keys:
                    line += f"; {len(keys)} only in {where}: {', '.join(sorted(keys)[:5])}"
        if beyond:
            line += f"; {len(beyond)} beyond tolerance, e.g. {', '.join(sorted(beyond)[:3])}"
        yield line, 3 if beyond else 0
