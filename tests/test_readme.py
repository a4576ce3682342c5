"""README's "Library use" runs as written, and ``tbrisim`` exports exactly the names it documents."""

from __future__ import annotations

import json
import math
import re
import types
from pathlib import Path

import tbrisim as tb
from tbrisim import config, pipeline

README = Path(__file__).parents[1] / "README.md"
# The names the first "Library use" block calls, the two its prose documents, and the exceptions.
CALLED = {
    "ModelParams", "build_basis", "sample_spectrum", "build_hamiltonian", "sample_two_body",
    "diagonalize", "classify", "golden_rule_gamma", "energy_variance", "default_grid",
    "simulate_trajectory", "survival_models", "asymptotic_occupations", "predict_occupations",
    "prediction_error",
}
DOCUMENTED = CALLED | {"TimeGrid", "evolve_amplitudes"}
EXCEPTIONS = {"ParameterError", "PreconditionError", "InsufficientStatisticsError",
              "EigensolverError", "FitConvergenceError", "StageError"}


def library_use() -> tuple[str, list[str]]:
    """The "Library use" section's text and its python code blocks, in order."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return section, re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_use_runs(tmp_path, monkeypatch):
    """Both blocks run as shown: the step-by-step analysis, then the whole run, whose output
    directory lands under ``tmp_path``."""
    _, (first, second) = library_use()
    names: dict = {}
    exec(compile(first, "README.md", "exec"), names)
    assert math.isfinite(names["rms"]) and names["worst"] >= names["rms"] >= 0
    assert names["traj"].w0.tobytes() == names["traj"].class_populations[0].tobytes()
    monkeypatch.chdir(tmp_path)
    exec(compile(second, "README.md", "exec"), {})
    manifest = json.loads((tmp_path / "runs" / "x" / "manifest.json").read_text())
    assert math.isfinite(manifest["derived"]["rms_eq14"])


def test_manifest_table_names_every_derived_leaf_a_run_writes(tmp_path):
    """The "Manifest" table's first column names exactly the top-level ``derived`` leaves of
    a run's manifest, so a retired leaf leaves the table with the run."""
    section = README.read_text().split("\n### Manifest\n", 1)[1].split("\n### ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    named = [name for cell in rows for name in re.findall(r"`(\w+)`", cell)]
    doc = {"model": {"n": 3, "m": 6, "eta": 0.1, "seed": 5}, "grid": {"points": 20},
           "output": {"directory": str(tmp_path / "run")}}
    derived = pipeline.run(config.config_from_dict(doc))["derived"]
    assert sorted(named) == sorted(derived)


def test_readme_states_no_timing_or_memory_figure():
    """README is the user's document: a timing, memory or throughput figure, or a host's vCPU
    count, belongs to the CHANGES.md entry that measured it, where it keeps its date."""
    figure = re.compile(r"\d\s*(?:ns|ms|MB|MiB|GB|GF/s)(?![A-Za-z])|\bvCPU")
    found = [line for line in README.read_text().splitlines() if figure.search(line)]
    assert found == []


def test_top_level_names_are_the_documented_api():
    """The public non-module names of ``tbrisim`` are the 23 the README documents: the
    ``tb.`` names its code calls, ``TimeGrid`` and ``evolve_amplitudes``, which its prose
    names, and the six exception classes."""
    section, (first, _) = library_use()
    assert set(re.findall(r"\btb\.(\w+)", first)) == CALLED
    assert all(f"`{name}`" in section for name in DOCUMENTED - CALLED)
    public = {name for name, value in vars(tb).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == DOCUMENTED | EXCEPTIONS
