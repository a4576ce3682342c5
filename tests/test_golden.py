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

from golden.regen import CASES, GOLDEN, MATRICES, digest, produce, render


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_its_golden_digest(tmp_path, name):
    fresh = tmp_path / "digests"
    fresh.mkdir()
    doc = digest(produce(name, tmp_path), matrices=name == MATRICES)
    (fresh / f"{name}.json").write_text(render(doc) + "\n")
    [(line, status)] = compare_runs(fresh, GOLDEN, [f"{name}.json"])
    assert status == 0, line
    assert f"only in {GOLDEN}:" not in line, line
