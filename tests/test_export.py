"""The run-file writers: CSV tables and canonical JSON documents."""

from __future__ import annotations


import numpy as np
import pytest

from tbrisim.export import write_json, write_table

COLUMNS = {
    "k": np.arange(3),
    "x": np.array([0.1, -2.5e-300, np.inf]),
    "floor": [1 / 3] * 3,
    "tag": ["eq14"] * 3,        # text
    "fit": [None, 2.0, None],   # None: an empty cell
}


def test_write_table_csv_cells(tmp_path):
    write_table(tmp_path / "t.csv", COLUMNS, header_lines=["seed=1", "note"])
    assert (tmp_path / "t.csv").read_bytes() == (
        b"# seed=1\n# note\n"
        b"k,x,floor,tag,fit\n"
        b"0,0.10000000000000001,0.33333333333333331,eq14,\n"
        b"1,-2.5e-300,0.33333333333333331,eq14,2\n"
        b"2,inf,0.33333333333333331,eq14,\n"
    )


def test_write_table_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="common length"):
        write_table(tmp_path / "t.csv", {"a": [1.0, 2.0], "b": [1.0]})
    # a lone value is refused, not repeated on every row; so is text standing for a column
    with pytest.raises(ValueError, match="common length"):
        write_table(tmp_path / "t.csv", {"only_repeated": 1.0})
    with pytest.raises(ValueError, match="common length"):
        write_table(tmp_path / "t.csv", {"a": [1.0, 2.0], "tag": "eq"})
    assert not (tmp_path / "t.csv").exists()


def test_write_json_is_canonical(tmp_path):
    """Equal documents give equal bytes, whatever their key order: indent 2, LF, final newline."""
    write_json(tmp_path / "a.json", {"b": [1, 2.5], "a": {"y": None, "x": "text"}})
    write_json(tmp_path / "b.json", {"a": {"x": "text", "y": None}, "b": [1, 2.5]})
    data = (tmp_path / "a.json").read_bytes()
    assert data == (tmp_path / "b.json").read_bytes()
    assert data == b'{\n  "a": {\n    "x": "text",\n    "y": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
