"""Fresh runs against the committed golden digests (tests/golden/).

Each case runs through ``tbrisim.cli.main``, is digested, and compared
with its committed digest by ``inspect --against``'s comparison: every
JSON leaf within ``INSPECT_TOL * max(1, |a|, |b|)``, text equal.  A leaf
the digest pins that the fresh run no longer produces fails too.
"""

from __future__ import annotations

import json

import pytest

from tbrisim import cli

from golden.regen import CASES, GOLDEN, MATRICES, digest, produce, render


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_its_golden_digest(tmp_path, name, capsys):
    fresh = tmp_path / "digests"
    fresh.mkdir()
    doc = digest(produce(name, tmp_path), matrices=name == MATRICES)
    (fresh / f"{name}.json").write_text(render(doc) + "\n")
    capsys.readouterr()
    status = cli._compare_runs(fresh, GOLDEN, [f"{name}.json"])
    assert status == 0, capsys.readouterr().out
    committed = json.loads((GOLDEN / f"{name}.json").read_text())
    missing = dict(cli._json_leaves(committed)).keys() - dict(cli._json_leaves(doc)).keys()
    assert not missing, sorted(missing)[:5]
