"""Fresh runs against the committed golden digests (tests/golden/).

Each case runs through ``tbrisim.cli.main``, is digested, and compared
with its committed digest by ``tbrisim.export.compare_runs``, the
comparison of ``inspect --against``: every JSON leaf within
``INSPECT_TOL * max(1, |a|, |b|)``, text equal.  A leaf the digest pins
that the fresh run no longer produces, listed as only in the golden
directory, fails too.
"""

from __future__ import annotations

import pytest

from tbrisim.export import compare_runs

from golden.regen import CASES, GOLDEN, MATRICES, digest, merge, produce, render


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_its_golden_digest(tmp_path, name):
    fresh = tmp_path / "digests"
    fresh.mkdir()
    doc = digest(produce(name, tmp_path), matrices=name == MATRICES)
    (fresh / f"{name}.json").write_text(render(doc) + "\n")
    [(line, status)] = compare_runs(fresh, GOLDEN, [f"{name}.json"])
    assert status == 0, line
    assert f"only in {GOLDEN}:" not in line, line


def test_regen_merge_keeps_committed_leaves_within_tolerance():
    """A number within INSPECT_TOL keeps its committed value; a number beyond it, a key of
    one side only, text and a list of another length follow the fresh digest.  A table
    digest that loses a column keeps the other columns' committed sums and cells."""
    committed = {"kept": [1.0, 2e-16, 5], "moved": 1.0, "gone": 3.0,
                 "row": [1.0, "eq14"], "label": "old", "shape": [4, 2],
                 "table": {"shape": [2, 3], "columns": ["t", "n_0", "tag"],
                           "sum": [1.0, 2.0, None], "sum_sq": [1.0, 4.0, None],
                           "rows": {"0": [0.0, 3e-16, "eq14"], "1": [1.0, 1.0, "eq14"]}}}
    fresh = {"kept": [1.0 + 5e-10, 3e-16, 5], "moved": 1.0 + 2e-9, "new": 4.0,
             "row": [1.0 + 5e-10], "label": "new", "shape": [4, 3],
             "table": {"shape": [2, 2], "columns": ["t", "n_0"],
                       "sum": [1.0, 2.0 + 5e-10], "sum_sq": [1.0 + 5e-10, 4.0 + 2e-8],
                       "rows": {"0": [0.0, 1e-16], "1": [1.0, 1.0 + 5e-10]}}}
    assert merge(committed, fresh) == {
        "kept": [1.0, 2e-16, 5], "moved": 1.0 + 2e-9, "new": 4.0,
        "row": [1.0 + 5e-10], "label": "new", "shape": [4, 3],
        "table": {"shape": [2, 2], "columns": ["t", "n_0"],
                  "sum": [1.0, 2.0], "sum_sq": [1.0, 4.0 + 2e-8],
                  "rows": {"0": [0.0, 3e-16], "1": [1.0, 1.0]}},
    }
