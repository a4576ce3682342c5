"""Golden digests: a committed numeric reference for three runs.

A digest holds a run's config hash, its config echo and the manifest's
``derived`` block and, for every CSV table the run writes, its shape, its
column names, the per-column sums and sums of squares, and ``ROWS`` fixed
rows: the first, the last and rows evenly spaced between.  For the
``MATRICES`` case it holds the same for H, E and V, rebuilt from the run's
``config.json`` through the library, one matrix row per table row.
V is digested with each column's largest-magnitude component (argmax's
first, on ties) made positive: ``diagonalize`` returns LAPACK's column
signs, which LAPACK does not promise and another BLAS build may pick
differently, and no output reads them.
Table numbers are kept to ``DIGITS`` significant digits: that rounding,
5e-11 relative, sits far below the comparison's tolerance of 1e-9 and
keeps the three files under 60 KB.
``tests/test_golden.py`` digests fresh runs and compares them with the
files here through ``tbrisim inspect --against``'s comparison.

Run this script only in a change whose CHANGES.md entry names the values
that move and says why; never to admit an unexplained change:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden/regen.py

It rewrites a case leaf by leaf (``merge``): a number within the comparison's
tolerance of its committed value keeps the committed value, so a refresh on
another host moves only the leaves that changed, and a column dropped from
a table leaves the other columns' cells as they were.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import tbrisim as tb
from tbrisim import cli, config
from tbrisim.export import INSPECT_TOL, compare_runs

GOLDEN = Path(__file__).resolve().parent
ROWS = 12
DIGITS = 10
SMALL_CONFIG = {
    "model": {"n": 3, "m": 6, "eta": 0.1, "seed": 5},
    "grid": {"kind": "auto", "points": 120},
}
CASES = {
    "fig1_seed1": ["reproduce-fig1", "--seed", "1"],
    "fig2_seed1": ["reproduce-fig2", "--seed", "1"],
    "n3_m6_seed5": ["run", "--config"],
}
# The case whose H, E and V are pinned too, under the names of the .npy files
# that runs wrote before the library alone handed them back.
MATRICES = "n3_m6_seed5"


def produce(name: str, workdir: Path) -> Path:
    """Run case ``name`` through ``tbrisim.cli.main`` into ``workdir``; returns the run directory."""
    argv = list(CASES[name])
    if argv[0] == "run":
        config = workdir / f"{name}.config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        argv.append(str(config))
    rundir = workdir / name
    code = cli.main([*argv, "--out", str(rundir)])
    if code != 0:
        raise RuntimeError(f"{name}: tbrisim exited {code}")
    return rundir


def digest(rundir: Path, *, matrices: bool = False) -> dict:
    """The digest of one run directory, H, E and V included if ``matrices``; see the
    module docstring."""
    manifest = json.loads((rundir / "manifest.json").read_text())
    tables = {}
    for name in sorted(manifest["files"]):
        table = _read_table(rundir / name)
        if table is not None:
            tables[name] = _table_digest(*table)
    if matrices:
        tables.update(_matrix_digests(json.loads((rundir / "config.json").read_text())))
    config = {key: value for key, value in manifest["config"].items() if key != "output"}
    return {"config_hash": manifest["config_hash"], "config": config,
            "derived": manifest["derived"], "tables": tables}


def _matrix_digests(doc: dict) -> dict:
    """Digests of H, E and V built from a run's config document, each row a table row."""
    params = config.config_from_dict(doc).model
    basis = tb.build_basis(params.n, params.m)
    h = tb.build_hamiltonian(basis, tb.sample_spectrum(params), tb.sample_two_body(params))
    decomp = tb.diagonalize(h)
    vectors = decomp.vectors
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    out = {}
    for name, values in (("hamiltonian.npy", h.entries), ("eigenvalues.npy", decomp.energies),
                         ("eigenvectors.npy", vectors * np.where(lead < 0, -1.0, 1.0))):
        values = values.reshape(len(values), -1)
        out[name] = _table_digest([str(j) for j in range(values.shape[1])], values.tolist())
    return out


def _read_table(path: Path):
    """(column names, rows) of a CSV table, or None for a JSON document."""
    if path.suffix == ".json":
        return None
    lines = [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0], [[_cell(cell) for cell in line] for line in lines[1:]]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _table_digest(columns: list, rows: list) -> dict:
    cells = list(zip(*rows)) if rows else [()] * len(columns)
    numeric = [all(map(_is_number, c)) for c in cells]
    picks = sorted({round(x) for x in np.linspace(0, len(rows) - 1, ROWS)}) if rows else []
    return {
        "shape": [len(rows), len(columns)],
        "columns": columns,
        "sum": [_round(math.fsum(c)) if ok else None for c, ok in zip(cells, numeric)],
        "sum_sq": [_round(math.fsum(x * x for x in c)) if ok else None for c, ok in zip(cells, numeric)],
        "rows": {str(r): [_round(x) if _is_number(x) else x for x in rows[r]] for r in picks},
    }


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _round(x: float) -> float:
    return float(format(x, f".{DIGITS}g"))


def render(doc, indent: str = "") -> str:
    """JSON with sorted keys, one object member per line and every list on one line."""
    if not isinstance(doc, dict) or not doc:
        return json.dumps(doc, separators=(",", ":"))
    inner = indent + "  "
    members = (f"{inner}{json.dumps(key)}: {render(doc[key], inner)}" for key in sorted(doc))
    return "{\n" + ",\n".join(members) + f"\n{indent}}}"


def merge(committed, fresh):
    """``fresh``, with each numeric leaf within INSPECT_TOL * max(1, |a|, |b|) of the committed
    leaf at its place put back to the committed value.  Dicts merge key by key over the fresh
    keys, so a key only in ``committed`` is dropped; lists of equal length merge item by item;
    anything else, text or a list of another length, is the fresh value.  A table digest's
    ``sum``, ``sum_sq`` and rows are first laid out on the fresh columns by name, so a column
    dropped or added leaves every other column's committed cells."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        if "columns" in committed and "columns" in fresh:
            committed = _on_columns(committed, fresh["columns"])
        return {key: merge(committed[key], value) if key in committed else value
                for key, value in fresh.items()}
    if isinstance(committed, list) and isinstance(fresh, list) and len(committed) == len(fresh):
        return [merge(a, b) for a, b in zip(committed, fresh)]
    if (_is_number(committed) and _is_number(fresh)
            and abs(committed - fresh) <= INSPECT_TOL * max(1.0, abs(committed), abs(fresh))):
        return committed
    return fresh


def _on_columns(table: dict, columns: list) -> dict:
    """A table digest's per-column lists laid out on ``columns``, None for a column it lacks."""
    def cells(values):
        by_name = dict(zip(table["columns"], values))
        return [by_name.get(name) for name in columns]

    return {**table, "sum": cells(table["sum"]), "sum_sq": cells(table["sum_sq"]),
            "rows": {row: cells(values) for row, values in table["rows"].items()}}


def main() -> int:
    """Regenerate every case: print how its fresh digest differs from the committed one, as
    ``tests/test_golden.py`` compares them, and write the case's ``merge`` of the two where
    that differs from the file."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            path = GOLDEN / f"{name}.json"
            fresh = Path(tmp) / path.name
            doc = digest(produce(name, Path(tmp)), matrices=name == MATRICES)
            fresh.write_text(render(doc) + "\n")
            for line, _ in compare_runs(fresh.parent, GOLDEN, [path.name]):
                print(line)
            old = path.read_text()
            text = render(merge(json.loads(old), doc)) + "\n"
            if text != old:
                path.write_text(text)
                print(f"wrote {path} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
