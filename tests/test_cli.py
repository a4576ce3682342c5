"""Config handling, pipeline runs, exports, manifest hashing, CLI exit codes."""

from __future__ import annotations

import ast
import copy
import csv
import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tbrisim as tb
from tbrisim import cli, config, export, pipeline, spectral, strength, theory
from tbrisim.exceptions import (
    FitConvergenceError,
    InsufficientStatisticsError,
    ParameterError,
    PreconditionError,
)

from conftest import make_system, strict_json


def small_doc(tmp_path, eta=0.1, seed=5, **extra):
    doc = {
        "model": {"n": 3, "m": 6, "eta": eta, "seed": seed},
        "grid": {"kind": "auto", "points": 120},
        "output": {"directory": str(tmp_path / "out")},
    }
    doc.update(extra)
    return doc


def test_config_defaults_round_trip():
    default = config.config_from_dict({})
    assert default.model.n == 6 and default.model.m == 12
    assert default.model.eta == 0.003 and default.model.seed == 1
    assert default.document["initial_state"] == "mid-spectrum"
    again = config.config_from_dict(default.to_dict())
    assert again == default
    assert config.config_hash(again.to_dict()) == config.config_hash(default.to_dict())


def test_config_validation_errors():
    """Each bad config is a ParameterError (exit 2) before the basis is enumerated."""
    small = {"n": 3, "m": 6}
    for doc in (
        {"grid": {"kind": "cubic"}},
        {"grid": {"kind": "log", "points": 10}},
        {"output": {"formats": ["yaml"]}},
        {"model": {"n": 0}},
        {"model": {"n": 2, "m": 4}},   # 6 levels: too few for the mid-spectrum spacing
        {"model": {"n": 4, "m": 4}},   # one state
        {"model": {"n": 2, "m": 5, "eta": 0.083}},   # 9 class-1 states under the golden rule
        {"config_version": 99},
        [1, 2],
        {"model": small, "grid": {"points": "many"}},
        {"model": small, "grid": {"points": 2.5}},
        {"model": small, "grid": {"points": -5}},
        {"model": small, "grid": {"kind": "linear", "start": -1.0, "stop": 5.0, "points": 10}},
        {"model": small, "grid": {"kind": "log", "start": 0.1, "stop": "10", "points": 10}},
        {"model": small, "grid": {"kind": "auto", "start": 3.0, "stop": 9.0}},   # ends unused
        {"model": small, "grid": {"start": 0.0}},
        {"model": small, "initial_state": 0b1111},        # 4 particles, n=3
        {"model": small, "initial_state": "0b1000011"},   # orbital 6 with m=6
        {"model": small, "grid": [1]},
        {"model": small, "grid": "x"},
        {"model": small, "hamiltonian": None},
        {"model": small, "output": ["csv"]},
        {"model": []},
        {"model": {"n": 2.7, "m": 6}},
        {"model": {"n": 3, "m": "6"}},
        {"model": {**small, "seed": 1.5}},
        {"model": {**small, "seed": True}},
        {"model": {**small, "seed": -1}},
        {"output": {"formats": 5}},
        {"hamiltonian": {"one_orbital_terms": "false"}},
        {"output": {"binary_dumps": "no"}},
        {"model": {**small, "eta": float("nan")}},
        {"model": {**small, "d0": float("inf")}},
        {"model": {"d0": 2.0}},
        {"model": {"d0": True}},
        {"initial_state": 63.5},
        {"model": {"eta": 0.083, "sed": 7}, "gird": {"points": 50}},   # misspelt keys
        {"output": {"binary_dump": True}},
        {"model": {**small, "eta": 10**400}},   # an integer no float holds
        {"model": small, "grid": {"kind": "log", "start": 1, "stop": 10**400}},
        {"model": small, "grid": {"kind": "log", "start": 0.0, "stop": 10.0, "points": 10}},
    ):
        with pytest.raises(ParameterError):
            config.config_from_dict(doc)
    parsed = config.config_from_dict({"model": small, "initial_state": "0b111000"})
    assert parsed.document["initial_state"] == 0b111000


@pytest.mark.parametrize("stored, spellings", [
    ("mid-spectrum", ["mid-spectrum", " Mid-Spectrum ", "MID-SPECTRUM"]),
    (7, [7, "7", "0b111", "0x7", " 0b111 "]),
])
def test_one_initial_state_has_one_config_hash(stored, spellings):
    """Every spelling of one initial state gives one config: "mid-spectrum" or the integer
    bitmask, so the same experiment carries one config hash."""
    small = {"n": 3, "m": 6}
    parsed = [config.config_from_dict({"model": small, "initial_state": s}) for s in spellings]
    assert {p.document["initial_state"] for p in parsed} == {stored}
    assert len({config.config_hash(p.to_dict()) for p in parsed}) == 1


@pytest.mark.parametrize("one, other", [
    ({"model": {"eta": -0.0}}, {"model": {"eta": 0.0}}),
    ({"model": {"jitter": -0.0}}, {}),
    ({"grid": {"kind": "log", "start": 1, "stop": 9.0}},
     {"grid": {"kind": "log", "start": 1.0, "stop": 9.0}}),
    ({"grid": {"kind": "linear", "start": -0.0, "stop": 9.0}},
     {"grid": {"kind": "linear", "start": 0, "stop": 9.0}}),
], ids=["eta", "jitter", "log-start", "linear-start"])
def test_one_number_has_one_config_hash(one, other):
    """Two spellings of one number, -0.0 and 0.0 or 1 and 1.0, give one config hash, so two
    runs of one experiment write the same headers and agree under ``inspect --against``."""
    hashes = {config.config_hash(config.config_from_dict(doc).to_dict()) for doc in (one, other)}
    assert len(hashes) == 1


def test_auto_grid_accepts_only_null_ends(tmp_path, capsys):
    """An auto grid picks its own ends: null ends give the default config and hash, and
    numbers exit 2 before any output, since the run would ignore them."""
    null_ends = config.config_from_dict({"grid": {"kind": "auto", "start": None, "stop": None}})
    assert null_ends == config.config_from_dict({})
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(small_doc(tmp_path, grid={"kind": "auto", "start": 3.0, "stop": 9.0})))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "grid kind 'auto' sets its own start and stop" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _key_paths(doc, prefix=""):
    """Dotted path of every key in a nested JSON object."""
    for key, value in doc.items():
        yield f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _key_paths(value, f"{prefix}{key}.")


def test_readme_config_block_is_the_default():
    """The config block README shows as the defaults parses to the default config and holds
    no key that DEFAULTS lacks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = json.loads(
        readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    )
    assert set(_key_paths(block)) <= set(_key_paths(config.DEFAULTS))
    shown = config.config_from_dict(block)
    assert shown.to_dict() == config.config_from_dict({}).to_dict()


def test_readme_synopsis_lists_each_subcommands_flags():
    """README's "Command line" block names every subcommand with exactly the --flags that
    its parser accepts."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.splitlines():
        if line.startswith("tbrisim "):
            command = documented.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(a for a in cli._build_parser()._actions if a.dest == "command")
    accepted = {
        name: {opt for a in sub._actions for opt in a.option_strings if opt.startswith("--")}
        - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == accepted


def test_a_retired_analysis_block_is_ignored(tmp_path):
    """An older document's analysis block validates and changes neither the config nor its
    hash: every run tries all three fits."""
    with_block = small_doc(tmp_path, analysis={"fits": False, "convolution_check": True})
    parsed, plain = (config.config_from_dict(doc) for doc in (with_block, small_doc(tmp_path)))
    assert parsed == plain and "analysis" not in parsed.to_dict()
    assert config.config_hash(parsed.to_dict()) == config.config_hash(plain.to_dict())
    path = tmp_path / "old.json"
    path.write_text(json.dumps(with_block))
    assert cli.main(["run", "--config", str(path)]) == 0


def test_a_retired_hamiltonian_block_must_hold_true(tmp_path, capsys):
    """Both switches on is the one Hamiltonian: such a block is dropped like the analysis
    block.  A false, or a value that is not true, exits 2 before the run and names them."""
    on = small_doc(tmp_path, hamiltonian={"one_orbital_terms": True, "diagonal_pair_terms": True})
    parsed, plain = (config.config_from_dict(doc) for doc in (on, small_doc(tmp_path)))
    assert parsed == plain and "hamiltonian" not in parsed.to_dict()
    assert config.config_hash(parsed.to_dict()) == config.config_hash(plain.to_dict())
    path = tmp_path / "old.json"
    path.write_text(json.dumps(on))
    assert cli.main(["run", "--config", str(path)]) == 0
    for block in ({"one_orbital_terms": False}, {"diagonal_pair_terms": "false"}):
        doc = small_doc(tmp_path, hamiltonian=block)
        doc["output"]["directory"] = str(tmp_path / "refused")
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config.hamiltonian")
        assert "one-orbital-term and diagonal-pair-term switches are retired" in err
        assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("output", [
    {"formats": ["csv"]}, {"formats": []}, {"binary_dumps": False},
    {"formats": ["csv"], "binary_dumps": False},
])
def test_retired_output_keys_at_their_no_op_are_dropped(tmp_path, output):
    """A CSV-only formats list and binary_dumps false ask for the files every run writes:
    the keys are dropped, so the config and its hash are those without them."""
    doc = small_doc(tmp_path)
    doc["output"].update(output)
    parsed, plain = (config.config_from_dict(d) for d in (doc, small_doc(tmp_path)))
    assert parsed == plain and parsed.to_dict()["output"] == {"directory": str(tmp_path / "out")}
    assert config.config_hash(parsed.to_dict()) == config.config_hash(plain.to_dict())


@pytest.mark.parametrize("d0", [1, 1.0])
def test_a_unit_ladder_spacing_is_the_default_config(d0):
    """d0 = 1 is the unit every energy is given in: the key is dropped, so the config and
    its hash are those of the empty document."""
    parsed, plain = config.config_from_dict({"model": {"d0": d0}}), config.config_from_dict({})
    assert parsed == plain and "d0" not in parsed.to_dict()["model"]
    assert config.config_hash(parsed.to_dict()) == config.config_hash(plain.to_dict())


@pytest.mark.parametrize("block, extra, named", [
    ("output", {"formats": ["csv", "json"]}, "occupations.csv holds the table"),
    ("output", {"formats": "csv"}, "occupations.csv holds the table"),
    ("output", {"binary_dumps": True}, "numpy.save on h.entries, decomp.energies"),
    ("output", {"binary_dump": True}, "unknown key"),
    ("model", {"sed": 7}, "unknown key"),
    ("model", {"d0": 2.0}, "units of the ladder spacing"),
])
def test_retired_values_and_unknown_keys_exit_2(tmp_path, capsys, block, extra, named):
    """Any other value of a retired key, and a key no config has, exits 2 before any output;
    the message names the key's dotted path and, for a retired one, what replaces it."""
    doc = small_doc(tmp_path)
    doc[block].update(extra)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.{block}.{next(iter(extra))} ") and named in err
    assert not (tmp_path / "out").exists()


def test_orbitals_beyond_a_64_bit_bitmask_exit_2(tmp_path, capsys):
    """A state is an int64 bitmask: m=64 is refused before the basis, m=63 validates."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"model": {"n": 1, "m": 64},
                                "output": {"directory": str(tmp_path / "out")}}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "m must be at most 63" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert config.config_from_dict({"model": {"n": 1, "m": 63}}).model.m == 63


def test_select_initial_state_bitmask(small_2_4):
    assert pipeline.select_initial_state(small_2_4.h, 0b0011) == 0
    with pytest.raises(PreconditionError):
        pipeline.select_initial_state(small_2_4.h, 0b0111)


def test_select_initial_state_mid_spectrum_free_fermions():
    params = tb.ModelParams(n=3, m=6, eta=0.0, seed=1)
    basis = tb.build_basis(3, 6)
    h = tb.build_hamiltonian(basis, tb.sample_spectrum(params), tb.sample_two_body(params))
    i = pipeline.select_initial_state(h, "mid-spectrum")
    diag = h.diagonal()
    assert abs(diag[i] - np.median(diag)) <= 1.0


def test_run_small_system(tmp_path):
    """A run writes the manifest and exactly the files it lists."""
    manifest = pipeline.run(config.config_from_dict(small_doc(tmp_path)))
    outdir = tmp_path / "out"
    assert {path.name for path in outdir.iterdir()} == {*manifest["files"], "manifest.json"} == {
        "config.json", "occupations.csv", "prediction.csv", "strength.csv", "plotdata.csv",
        "manifest.json",
    }
    assert manifest["derived"]["n_states"] == 20
    saved = json.loads((outdir / "manifest.json").read_text())
    assert saved["config_hash"] == manifest["config_hash"] and saved["seed"] == 5


def test_every_table_has_lf_lines_and_full_rows(tmp_path):
    """Every CSV of a run and of the sweep summary: no CR, and each data row has as
    many cells as the column row."""
    config_path = tmp_path / "config.json"
    doc = small_doc(tmp_path, output={"directory": str(tmp_path / "sweep")})
    config_path.write_text(json.dumps(doc))
    assert cli.main(["sweep", "--eta", "0.1", "--config", str(config_path)]) == 0
    tables = sorted((tmp_path / "sweep").rglob("*.csv"))
    assert {path.name for path in tables} == {
        "occupations.csv", "prediction.csv", "strength.csv", "plotdata.csv", "summary.csv",
    }
    for path in tables:
        data = path.read_bytes()
        assert b"\r" not in data, path.name
        rows = [line.split(",") for line in data.decode().split("\n")[:-1] if line[0] != "#"]
        assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}, path.name


def _fitted_doc(tmp_path):
    """A config small enough to run fast whose three fits all converge."""
    return {
        "model": {"n": 4, "m": 8, "eta": 0.083, "seed": 1},
        "output": {"directory": str(tmp_path / "out")},
    }


def test_manifest_records_each_fit(tmp_path):
    derived = pipeline.run(config.config_from_dict(_fitted_doc(tmp_path)))["derived"]
    for key in ("bw_fit", "hybrid_fit", "fermi_dirac"):
        assert derived[key]["status"] == "converged", key
    for key in ("bw_fit", "hybrid_fit"):
        record = derived[key]
        assert record["iterations"] > 0
        assert set(record["stderr"]) <= set(record) and record["stderr"]
        assert isinstance(record["at_bound"], (list, tuple))
    assert derived["sigma"] == derived["hybrid_fit"]["sigma"]


def test_each_fit_returns_its_strict_json_manifest_record(tmp_path, fig1, fig2):
    """A fit's result is the record the manifest stores: strict JSON as it is returned,
    the uniform profile's infinite temperature included."""
    records = {
        "bw_fit": strength.fit_bw(fig2.profile, gamma0=fig2.gamma),
        "hybrid_fit": strength.fit_hybrid(fig2.profile, gamma0=fig2.gamma),
        "fermi_dirac": theory.fit_fermi_dirac(fig2.n_inf, fig2.spectrum, 6),
    }
    fig1_fd = theory.fit_fermi_dirac(fig1.n_inf, fig1.spectrum, 6)
    uniform_fd = theory.fit_fermi_dirac(np.full(12, 0.5), np.arange(12.0), 6)
    for record in (records["bw_fit"], records["hybrid_fit"], fig1_fd, uniform_fd):
        json.dumps(record, allow_nan=False)
    doc = copy.deepcopy(config.PRESETS["reproduce-fig2"])
    doc["output"]["directory"] = str(tmp_path / "fig2")
    pipeline.run(config.config_from_dict(doc))
    saved = strict_json((tmp_path / "fig2" / "manifest.json").read_text())["derived"]
    for key, record in records.items():
        assert saved[key] == json.loads(json.dumps({"status": "converged", **record})), key
    assert set(saved["fermi_dirac"]) == {"status", "beta", "alpha", "residual", "at_bound"}
    assert "w0_longtime_average" not in saved
    assert saved["n_pc_ipr"] == fig2.profile.n_pc_ipr()
    assert saved["n_pc_ratio"] == fig2.gamma / fig2.spacing_mid


def test_manifest_records_eigensolver_and_environment(tmp_path):
    pipeline.run(config.config_from_dict(_fitted_doc(tmp_path)))
    saved = json.loads((tmp_path / "out" / "manifest.json").read_text())
    eigensolver = saved["derived"]["eigensolver"]
    assert eigensolver["probes"] == spectral.PROBES
    assert 0 <= eigensolver["orthonormality_residual"] < spectral.ORTHONORMALITY_TOL
    assert 0 <= eigensolver["reconstruction_residual"] < spectral.RECONSTRUCTION_TOL
    assert isinstance(saved["derived"]["fermi_dirac"]["at_bound"], list)
    environment = saved["environment"]
    assert environment["numpy"] == np.__version__
    assert set(environment) == {"numpy", "blas", "blas_version", "blas_threads",
                                "eigensolver"}
    threads = environment["blas_threads"]
    assert threads is None or threads >= 1


@pytest.mark.parametrize(
    "grid, interpolated",
    [
        ({"kind": "auto", "points": 120}, True),
        ({"kind": "linear", "start": 1.0, "stop": 5.0, "points": 12}, False),   # no t = 0
    ],
)
def test_manifest_records_trajectory_diagnostics(tmp_path, grid, interpolated):
    """derived.dynamics: the unitarity drift, the interpolated prefix s and its node count K
    (s = 0 and K null on the direct path); K + 2 (T - s) < 2 T columns when s > 0."""
    manifest = pipeline.run(config.config_from_dict(small_doc(tmp_path, grid=grid)))
    saved = json.loads((tmp_path / "out" / "manifest.json").read_text())["derived"]["dynamics"]
    assert saved == manifest["derived"]["dynamics"]
    assert set(saved) == {"unitarity_drift", "interpolated_points", "time_nodes"}
    assert 0.0 <= saved["unitarity_drift"] <= tb.dynamics.UNITARITY_TOL
    split, count = saved["interpolated_points"], saved["time_nodes"]
    lines = (tmp_path / "out" / "occupations.csv").read_text().splitlines()
    points = len([line for line in lines if not line.startswith("#")]) - 1   # less the column row
    if interpolated:
        assert isinstance(count, int) and 1 <= split <= points
        assert count + 2 * (points - split) < 2 * points
    else:
        assert split == 0 and count is None


def test_size_guard_refuses_a_dense_matrix_beyond_physical_memory(tmp_path):
    """n=10, m=20 (N=184,756) exits 2 before any enumeration; n=7, m=14 validates."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"model": {"n": 10, "m": 20},
                                "output": {"directory": str(tmp_path / "out")}}))
    start = time.perf_counter()
    assert cli.main(["run", "--config", str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    assert not (tmp_path / "out").exists()
    assert config.config_from_dict({"model": {"n": 7, "m": 14}}).model.n == 7


@pytest.mark.parametrize("solver, copies", [("dsyevd in place", 3), ("numpy.linalg.eigh", 6)])
def test_size_guard_sizes_for_the_eigensolver_path(monkeypatch, solver, copies):
    """The guard counts the N x N arrays of the path diagonalize takes, three in place and six
    on eigh, plus the trajectory, against the memory reported available: n=6, m=12 (N=924)
    with 400 points validates with exactly that much and is refused with a byte less.
    Arithmetic only: both the path and the memory are patched, and nothing runs."""
    need = 924**2 * 8 * copies + 924 * 400 * config.POINT_BYTES
    monkeypatch.setattr(config, "_eigensolver", lambda: solver)
    monkeypatch.setattr(config, "_available_memory", lambda: need)
    assert config.config_from_dict({"model": {"n": 6, "m": 12}}).model.n == 6
    monkeypatch.setattr(config, "_available_memory", lambda: need - 1)
    with pytest.raises(ParameterError, match=re.escape(f"({solver})")):
        config.config_from_dict({"model": {"n": 6, "m": 12}})


def test_available_memory_is_at_most_physical_memory(monkeypatch):
    """MemAvailable, where reported, lies within physical memory, the fallback where
    /proc/meminfo cannot be read; where physical memory is not reported either it is 0,
    and the size guard is off."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 0 < config._available_memory() <= physical

    def unreadable(*args, **kwargs):
        raise FileNotFoundError("/proc/meminfo")

    def unreported(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(config, "open", unreadable, raising=False)   # shadows the builtin
    assert config._available_memory() == physical
    monkeypatch.setattr(os, "sysconf", unreported)
    assert config._available_memory() == 0
    huge = config.config_from_dict({"model": {"n": 6, "m": 12}, "grid": {"points": 10**11}})
    assert huge.document["grid"]["points"] == 10**11


def test_size_guard_counts_the_trajectory_grid():
    """n=6, m=12 validates with 400 points; 10**11 points, each holding POINT_BYTES per
    state of phase rows and their product, exceed physical memory and are refused by
    validation alone."""
    assert config.config_from_dict({"grid": {"points": 400}}).document["grid"]["points"] == 400
    with pytest.raises(ParameterError, match="grid points"):
        config.config_from_dict({"model": {"n": 6, "m": 12}, "grid": {"points": 10**11}})


def test_size_guard_budgets_the_trajectory_peak():
    """A grid point adds at most POINT_BYTES per basis state to the trajectory's peak, and
    more than half of that: the phase rows and their GEMM product are alive together, two
    rows of N float64 per time each when every time is evaluated directly (a log grid from
    t = 10, where no Chebyshev prefix pays).  Measured by tracemalloc as the growth of the
    peak from 2N + 1 to 10N points; the fixed part, O(N) rows, is within the dense term."""
    s = make_system(4, 8, 0.083, 1)
    size, peaks = s.basis.size, []
    for points in (2 * size + 1, 10 * size):
        tracemalloc.start()
        try:
            trajectory = tb.simulate_trajectory(s.decomp, s.basis, s.partition, s.i,
                                                np.geomspace(10.0, 1e6, points))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert trajectory.interpolated_points == 0
    per_state_point = (peaks[1] - peaks[0]) / (size * (8 * size - 1))
    assert config.POINT_BYTES / 2 < per_state_point <= config.POINT_BYTES, per_state_point


def test_failed_fit_is_recorded_and_the_others_still_run(tmp_path, monkeypatch):
    """One fit that cannot run leaves the other fits and the run untouched."""
    def no_bw(*args, **kwargs):
        raise FitConvergenceError("forced")

    def no_fd(*args, **kwargs):
        raise PreconditionError("forced")

    monkeypatch.setattr(strength, "fit_bw", no_bw)
    monkeypatch.setattr(theory, "fit_fermi_dirac", no_fd)
    derived = pipeline.run(config.config_from_dict(_fitted_doc(tmp_path)))["derived"]
    assert derived["bw_fit"] == {"status": "unavailable", "reason": "forced"}
    assert derived["fermi_dirac"] == {"status": "unavailable", "reason": "forced"}
    assert derived["hybrid_fit"]["status"] == "converged"


def test_failed_hybrid_fit_falls_back_to_delta_e(tmp_path, monkeypatch):
    """A hybrid fit that cannot run is recorded as unavailable, and sigma falls back to Delta_E."""
    def no_hybrid(*args, **kwargs):
        raise FitConvergenceError("forced")

    monkeypatch.setattr(strength, "fit_hybrid", no_hybrid)
    derived = pipeline.run(config.config_from_dict(_fitted_doc(tmp_path)))["derived"]
    assert derived["hybrid_fit"] == {"status": "unavailable", "reason": "forced"}
    assert derived["bw_fit"]["status"] == "converged"
    assert derived["sigma"] == derived["delta_e"]


@pytest.mark.parametrize("eta", [1e-16, 1e-8])
def test_a_vanishing_interaction_runs_on_delta_e(tmp_path, eta):
    """A default-model run at a vanishing eta raises no RuntimeWarning (the suite makes one an
    error): Delta_E stays positive (2.08e-7 at 1e-16), the hybrid fit is unavailable, since
    Delta_E is under its moment quadrature, and sigma falls back to Delta_E."""
    doc = {"model": {"eta": eta}, "output": {"directory": str(tmp_path / "out")}}
    pipeline.run(config.config_from_dict(doc))
    derived = strict_json((tmp_path / "out" / "manifest.json").read_text())["derived"]
    assert derived["delta_e"] > 0
    assert derived["hybrid_fit"]["status"] == "unavailable"
    assert derived["sigma"] == derived["delta_e"]


def test_a_huge_eta_runs_without_a_warning(tmp_path, capsys):
    """n=3, m=6 runs at eta 1e30, 1e200 and 1e300 exit 0 on seeds 1-3 with no RuntimeWarning
    (the suite makes one an error): the trajectory's fold at a target on the node 0.0 divides
    by no scale that rounds to 0, and from 1e200, where the hybrid shape's squared norm at its
    start width underflows, the hybrid fit is unavailable, not a ZeroDivisionError.  Above
    ``ModelParams``' bound of 1e300, 1e306 (an overflow in the fits' squared widths) and 1e307
    (infinite widths) exit 2 with one config error line and write nothing."""
    path = tmp_path / "config.json"
    for eta in (1e30, 1e200, 1e300, 1e306, 1e307):
        for seed in (1, 2, 3):
            out = tmp_path / f"{eta:g}-{seed}"
            path.write_text(json.dumps(small_doc(tmp_path, eta=eta, seed=seed,
                                                 output={"directory": str(out)})))
            capsys.readouterr()
            code = cli.main(["run", "--config", str(path)])
            if eta > 1e300:
                assert code == 2 and not out.exists(), (eta, seed)
                assert capsys.readouterr().err == (
                    f"config error: eta must be finite and at most 1e300, got {eta!r}\n")
                continue
            assert code == 0, (eta, seed)
            hybrid = strict_json((out / "manifest.json").read_text())["derived"]["hybrid_fit"]
            if eta >= 1e200:
                assert hybrid["status"] == "unavailable"
                assert hybrid["reason"].startswith("the hybrid shape underflows at the start")


def test_run_free_fermions_frozen(tmp_path):
    """eta = 0: occupations never move and W0 stays exactly 1."""
    manifest = pipeline.run(config.config_from_dict(small_doc(tmp_path, eta=0.0)))
    saved = strict_json((tmp_path / "out" / "manifest.json").read_text())
    assert saved["derived"]["n_pc_ratio"] == manifest["derived"]["n_pc_ratio"] == 0.0
    with open(tmp_path / "out" / "occupations.csv") as fh:
        rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
    first = [float(rows[0][f"n_{a}"]) for a in range(6)]
    last = [float(rows[-1][f"n_{a}"]) for a in range(6)]
    assert last == pytest.approx(first, abs=1e-12)
    assert all(abs(float(r["W0"]) - 1.0) < 1e-12 for r in rows)
    assert manifest["derived"]["gamma_golden_rule"] == 0.0
    with open(tmp_path / "out" / "plotdata.csv") as fh:   # zero widths: both model curves are 1
        models = list(csv.DictReader(l for l in fh if not l.startswith("#")))
    assert len(models) == len(rows)
    assert {(r["W0_model_bw"], r["W0_model_gaussian"]) for r in models} == {("1", "1")}


def test_free_fermion_manifest_records_the_undefined_n_pc_ratio_as_null(tmp_path):
    """The default free-fermion model has a mid-spectrum spacing of 0 (the degenerate ladder
    sums), so Gamma_GR / spacing has no value: n_pc_ratio is null, and the manifest is JSON."""
    doc = {"model": {"eta": 0.0}, "output": {"directory": str(tmp_path / "out")}}
    pipeline.run(config.config_from_dict(doc))
    derived = strict_json((tmp_path / "out" / "manifest.json").read_text())["derived"]
    assert derived["mean_spacing_mid"] == 0.0 and derived["gamma_golden_rule"] == 0.0
    assert derived["n_pc_ratio"] is None
    assert derived["n_pc_ipr"] == 1.0   # every eigenstate is one basis state


def test_run_deterministic_outputs(tmp_path):
    doc1 = small_doc(tmp_path)
    doc1["output"]["directory"] = str(tmp_path / "a")
    doc2 = small_doc(tmp_path)
    doc2["output"]["directory"] = str(tmp_path / "b")
    m1 = pipeline.run(config.config_from_dict(doc1))
    m2 = pipeline.run(config.config_from_dict(doc2))
    for name in ("occupations.csv", "prediction.csv", "strength.csv", "plotdata.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert m1["files"][name] == m2["files"][name]
    assert m1["config_hash"] == m2["config_hash"]


def test_eq14_starts_from_the_initial_bitmask_on_a_late_grid(tmp_path):
    """On a grid that starts after t=0, eq. 14 still interpolates from the initial state:
    n_pred(t) = n(0) W0(t) + n(inf) (1 - W0(t)), with n(0) the bits of the initial bitmask."""
    doc = small_doc(tmp_path, grid={"kind": "linear", "start": 2.0, "stop": 20.0, "points": 10})
    derived = pipeline.run(config.config_from_dict(doc))["derived"]
    table = {}
    for name in ("occupations.csv", "prediction.csv"):
        with open(tmp_path / "out" / name) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        table[name] = {col: np.array(values) for col, values in zip(rows[0], zip(*rows[1:]))}
    w0 = table["occupations.csv"]["W0"].astype(float)
    assert w0.min() < 0.99   # the first time is past the initial state
    n0 = (derived["initial_state_bitmask"] >> np.arange(6)) & 1
    for a, n_inf in enumerate(derived["asymptotic_occupations"]):
        expected = n0[a] * w0 + n_inf * (1.0 - w0)
        predicted = table["prediction.csv"][f"n_{a}"].astype(float)
        assert np.abs(predicted - expected).max() <= 1e-15, a


def test_emit_plotdata_empty_grid(tmp_path):
    empty = tb.TimeGrid(np.array([]))
    pipeline.emit_plotdata(empty, tb.survival_models(1.0, 1.0, empty), tmp_path / "plotdata.csv")
    text = (tmp_path / "plotdata.csv").read_text().splitlines()
    data_lines = [l for l in text if l and not l.startswith("#")]
    assert data_lines == ["t,W0_model_bw,W0_model_gaussian"]  # column row only


def test_trajectory_tables_join_row_by_row(tmp_path):
    """fig2 seed 1: occupations.csv, prediction.csv and plotdata.csv have the same rows on
    byte-identical t cells, so each series is written once and the tables join losslessly.

    The model cells are exp(-Gamma t) and exp(-Delta_E^2 t^2) of the manifest's widths bit
    for bit, and every row of the exact and of the eq.-14 occupations holds the n = 6
    particles.
    """
    out = tmp_path / "fig2"
    assert cli.main(["reproduce-fig2", "--seed", "1", "--out", str(out)]) == 0
    derived = json.loads((out / "manifest.json").read_text())["derived"]
    tables = []
    for name in ("occupations.csv", "prediction.csv", "plotdata.csv"):
        with open(out / name) as fh:
            tables.append(list(csv.DictReader(l for l in fh if not l.startswith("#"))))
    exact, predicted, models = tables
    assert len(exact) == len(predicted) == len(models) > 1
    assert [r["t"] for r in exact] == [r["t"] for r in predicted] == [r["t"] for r in models]
    t = np.array([float(r["t"]) for r in models])
    gamma, delta_e = derived["gamma_golden_rule"], derived["delta_e"]
    bw = np.array([float(r["W0_model_bw"]) for r in models])
    gaussian = np.array([float(r["W0_model_gaussian"]) for r in models])
    assert np.array_equal(bw, np.exp(-gamma * t))
    assert np.array_equal(gaussian, np.exp(-(delta_e**2) * t * t))
    for rows in (exact, predicted):
        sums = [sum(float(r[f"n_{a}"]) for a in range(12)) for r in rows]
        assert np.abs(np.array(sums) - 6.0).max() <= 1e-10


def test_main_run_and_inspect(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_doc(tmp_path)))
    assert cli.main(["run", "--config", str(config_path)]) == 0
    assert cli.main(["inspect", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "config_hash" in out and "manifest.json" not in json.loads("{}")


def test_main_inspect_detects_tampering(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_doc(tmp_path)))
    cli.main(["run", "--config", str(config_path)])
    target = tmp_path / "out" / "occupations.csv"
    target.write_text(target.read_text() + "tampered\n")
    assert cli.main(["inspect", str(tmp_path / "out")]) == 3


def _scale_cell(path: Path, factor: float) -> None:
    """Multiply the second cell of the first data row of a CSV payload by ``factor``."""
    lines = path.read_text().splitlines(keepends=True)
    j = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[j].split(",")
    cells[1] = f"{float(cells[1]) * factor:.17g}"
    lines[j] = ",".join(cells)
    path.write_text("".join(lines))


def test_main_inspect_against_another_run(tmp_path, capsys):
    """Two runs of one config: bytes equal, routing and the trajectory plan ignored; a
    numeric change is reported with its size and fails above INSPECT_TOL; a missing file fails,
    and so does a listed file that is not a table and differs."""
    outs = []
    for tag in ("a", "b"):
        doc = small_doc(tmp_path, output={"directory": str(tmp_path / tag)})
        pipeline.run(config.config_from_dict(doc))
        outs.append(str(tmp_path / tag))
    capsys.readouterr()
    assert cli.main(["inspect", outs[0], "--against", outs[1]]) == 0
    out = capsys.readouterr().out
    for name in ("occupations.csv", "prediction.csv", "strength.csv", "plotdata.csv"):
        assert f"{name}: bytes equal" in out
    assert "config.json: max abs diff 0, max rel diff 0" in out   # only output.directory differs

    manifest_path = Path(outs[1]) / "manifest.json"
    original = manifest_path.read_text()
    manifest = json.loads(original)
    manifest["derived"]["new_diagnostic"] = 1.0   # added since the other run: listed, no failure
    manifest["derived"]["dynamics"].update(interpolated_points=0, time_nodes=None)   # another plan
    manifest_path.write_text(json.dumps(manifest))
    assert cli.main(["inspect", outs[0], "--against", outs[1]]) == 0
    assert f"1 only in {outs[1]}: derived.new_diagnostic" in capsys.readouterr().out
    manifest["derived"]["bw_fit"]["status"] = "converged"   # a changed text value fails
    manifest_path.write_text(json.dumps(manifest))
    assert cli.main(["inspect", outs[0], "--against", outs[1]]) == 3
    assert "beyond tolerance, e.g. derived.bw_fit.status" in capsys.readouterr().out
    manifest_path.write_text(original)

    target = Path(outs[1]) / "occupations.csv"
    _scale_cell(target, 1 + 1e-12)
    assert cli.main(["inspect", outs[0], "--against", outs[1]]) == 0
    line = [x for x in capsys.readouterr().out.splitlines() if x.startswith("occupations.csv:")][-1]
    rel = float(line.split("max rel diff ")[1].split()[0])
    assert rel == pytest.approx(1e-12, rel=1e-2) and "beyond" not in line

    _scale_cell(target, 1 + 1e-6)
    assert cli.main(["inspect", outs[0], "--against", outs[1]]) == 3
    assert "occupations.csv: max abs diff" in capsys.readouterr().out

    shorter = Path(outs[1]) / "prediction.csv"   # a table of another shape fails
    shorter.write_text("".join(shorter.read_text().splitlines(keepends=True)[:-1]))
    assert cli.main(["inspect", outs[0], "--against", outs[1]]) == 3
    line = [x for x in capsys.readouterr().out.splitlines() if x.startswith("prediction.csv:")][-1]
    assert "beyond tolerance" in line

    target.unlink()
    assert cli.main(["inspect", outs[0], "--against", outs[1]]) == 3
    assert "occupations.csv: MISSING" in capsys.readouterr().out

    for out, text in zip(outs, ("a\n", "b\n")):
        (Path(out) / "notes.txt").write_text(text)
    assert list(export.compare_runs(*outs, ["notes.txt"])) == [
        ("notes.txt: bytes differ (not a table)", 3)]


def test_inspect_against_and_sweep_output_is_pinned(tmp_path, capsys):
    """Every line `inspect A --against B` prints, in order, with its exit code, for two n=4,
    m=8 runs of one config where B has one CSV cell scaled by 1 + 1e-6, one manifest leaf
    added and one text leaf changed; and the bytes of a two-eta sweep's summary.csv.

    The literal parts pin the format; the digits that depend on the host's BLAS (derived
    values, file hashes) are read from the run's own files."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_fitted_doc(tmp_path)))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    _scale_cell(b / "plotdata.csv", 1 + 1e-6)   # W0_model_bw at t = 0, exactly 1
    changed = json.loads((b / "manifest.json").read_text())
    changed["derived"]["added_leaf"] = 1.0
    changed["derived"]["rng"] = "another generator"
    (b / "manifest.json").write_text(json.dumps(changed))
    capsys.readouterr()
    assert cli.main(["inspect", str(a), "--against", str(b)]) == 3
    manifest = json.loads((a / "manifest.json").read_text())
    names = ["config.json", "occupations.csv", "plotdata.csv", "prediction.csv", "strength.csv"]
    assert list(manifest["files"]) == names
    summary = json.dumps({k: manifest[k] for k in ("config_hash", "seed", "derived")}, indent=2)
    run_hash = "24de6fc1ba52004d4e42b991f0e5633bf9b3697b7de10d0afbfa24197ad1d780"
    assert summary.splitlines()[:4] == ["{", f'  "config_hash": "{run_hash}",', '  "seed": 1,',
                                        '  "derived": {']
    assert capsys.readouterr().out.splitlines() == [
        *summary.splitlines(),
        *(f"{name}: ok {hashlib.sha256((a / name).read_bytes()).hexdigest()[:12]}"
          for name in names),
        "config.json: max abs diff 0, max rel diff 0 (None)",
        "occupations.csv: bytes equal",
        "plotdata.csv: max abs diff 1e-06, max rel diff 1e-06 (4:1); "
        "1 beyond tolerance, e.g. 4:1",
        "prediction.csv: bytes equal",
        "strength.csv: bytes equal",
        f"manifest.json: max abs diff 0, max rel diff 0 (None); 1 only in {b}: "
        "derived.added_leaf; 1 beyond tolerance, e.g. derived.rng",
    ]

    sweep = tmp_path / "sweep"
    argv = ["sweep", "--eta", "0.05,0.083", "--config", str(config_path), "--out", str(sweep)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"sweep summary in {sweep / 'summary.csv'}\n"
    rows = ["eta,gamma_golden_rule,gamma_bw_fit,delta_e,n_pc_ipr,rms_eq14,config_hash"]
    eta_hashes = {"0.05": "0a8758da592a63c10e5d015d477efa9242126cfae4b78b0be751fee80affc24a",
                  "0.083": run_hash}
    for eta, eta_hash in eta_hashes.items():
        d = json.loads((sweep / f"eta={eta}" / "manifest.json").read_text())["derived"]
        values = [d["gamma_golden_rule"], d["bw_fit"]["gamma"], d["delta_e"], d["n_pc_ipr"],
                  d["rms_eq14"]]
        rows.append(",".join([eta, *(f"{v:.17g}" for v in values), eta_hash]))
    assert (sweep / "summary.csv").read_bytes() == "".join(f"{row}\n" for row in rows).encode()


# JSON that Python's parser refuses: nested deeper than its recursion limit, and an
# integer past its 4,300-digit conversion limit.
NESTED = "[" * 200_000 + "]" * 200_000
DIGITS = '{"model": {"seed": ' + "9" * 5_000 + "}}"


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["run", "--config", str(bad)]) == 2
    for content in (DIGITS.encode(), b"\xff\xfe{", NESTED.encode()):   # one line, no output
        bad.write_bytes(content)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {bad} ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
    missing = cli.main(["inspect", str(tmp_path / "nowhere")])
    assert missing == 2
    listed = tmp_path / "list.json"   # a flag cannot write into a config that is not an object
    listed.write_text("[1, 2]")
    assert cli.main(["run", "--config", str(listed), "--seed", "3"]) == 2
    listed.write_text(json.dumps({"model": [1]}))   # nor into a block that is not an object
    capsys.readouterr()
    assert cli.main(["run", "--config", str(listed), "--seed", "3", "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: config block 'model' must be a JSON object, got [1]\n"
    assert not (tmp_path / "out").exists()
    base = tmp_path / "base.json"   # a sweep checks its base config before the first run
    base.write_text(json.dumps({"output": {"directory": 5}}))
    assert cli.main(["sweep", "--eta", "0.1", "--config", str(base)]) == 2


@pytest.mark.parametrize("text", [
    "not json", "[1, 2]", '{"files": {}}',
    '{"config_hash": "x", "seed": 1, "derived": {}, "files": []}',
    pytest.param(NESTED, id="nested"), pytest.param(None, id="directory"),
])
def test_inspect_refuses_a_malformed_manifest(tmp_path, capsys, text):
    """A manifest that is not JSON, not an object, lacks config_hash/seed/derived or holds
    files that are not an object exits 2, as does a manifest.json that is a directory."""
    if text is None:
        (tmp_path / "manifest.json").mkdir()
    else:
        (tmp_path / "manifest.json").write_text(text)
    assert cli.main(["inspect", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: manifest ") and err.count("\n") == 1


@pytest.mark.parametrize("name,content", [
    ("manifest.json", b"not json"), ("occupations.csv", b"\xff\xfe not text"),
    pytest.param("manifest.json", NESTED.encode(), id="manifest.json-nested"),
    pytest.param("manifest.json", DIGITS.encode(), id="manifest.json-digits"),
    pytest.param("config.json", b"\xff\xfe{", id="config.json-not utf-8"),
])
def test_inspect_against_refuses_a_malformed_file(tmp_path, capsys, name, content):
    """A file of the other run that is not JSON, or not text, exits 2 with a config error."""
    doc = small_doc(tmp_path, output={"directory": str(tmp_path / "a")})
    pipeline.run(config.config_from_dict(doc))
    other = tmp_path / "b"
    other.mkdir()
    (other / name).write_bytes(content)
    capsys.readouterr()
    assert cli.main(["inspect", str(tmp_path / "a"), "--against", str(other)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {other / name} is not valid ")


def test_inspect_against_reports_a_file_missing_in_the_run(tmp_path, capsys):
    """A file the run's manifest lists but the run lacks is MISSING in that run, exit 3,
    alone and against another run that has it, and each other file is still compared."""
    doc = small_doc(tmp_path, output={"directory": str(tmp_path / "a")})
    pipeline.run(config.config_from_dict(doc))
    lacking = tmp_path / "lacking"
    shutil.copytree(tmp_path / "a", lacking)
    (lacking / "strength.csv").unlink()
    capsys.readouterr()
    assert cli.main(["inspect", str(lacking)]) == 3
    assert "strength.csv: MISSING" in capsys.readouterr().out.splitlines()
    assert cli.main(["inspect", str(lacking), "--against", str(tmp_path / "a")]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert f"strength.csv: MISSING in {lacking}" in lines
    assert "occupations.csv: bytes equal" in lines and "manifest.json: bytes equal" in lines


def test_inspect_reports_a_directory_in_place_of_a_file_as_missing(tmp_path, capsys):
    """A directory where the manifest lists a file is that file MISSING (exit 3), in the
    run itself and in the run it is compared with."""
    doc = small_doc(tmp_path, output={"directory": str(tmp_path / "a")})
    pipeline.run(config.config_from_dict(doc))
    other = tmp_path / "b"
    shutil.copytree(tmp_path / "a", other)
    (other / "strength.csv").unlink()
    (other / "strength.csv").mkdir()
    capsys.readouterr()
    assert cli.main(["inspect", str(other)]) == 3
    assert "strength.csv: MISSING" in capsys.readouterr().out.splitlines()
    assert cli.main(["inspect", str(tmp_path / "a"), "--against", str(other)]) == 3
    assert f"strength.csv: MISSING in {other}" in capsys.readouterr().out.splitlines()


def test_negative_seed_exits_2_before_the_run(tmp_path, capsys):
    """numpy's generators refuse a negative seed; validation refuses it first."""
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"model": {"n": 3, "m": 6, "seed": -1},
                                "output": {"directory": str(tmp_path / "out")}}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "c.json", "--out", "F"],
    ["reproduce-fig2", "--out", "F/sub"],
    ["sweep", "--eta", "0.1,0.2", "--config", "c.json", "--out", "F"],
])
def test_an_output_path_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch, argv):
    """An output directory that names an existing file, or a path under one, is a config
    error (exit 2, one line) before the basis is enumerated: the file keeps its bytes and
    nothing is created."""
    def enumerated(*args):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(pipeline, "build_basis", enumerated)
    (tmp_path / "c.json").write_text(json.dumps(small_doc(tmp_path)))
    (tmp_path / "F").write_bytes(b"a file\n")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([str(tmp_path / a) if a.startswith(("c.json", "F")) else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output directory {tmp_path / 'F'}")
    assert err.count("\n") == 1 and "cannot be made" in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "F").read_bytes() == b"a file\n"


def test_cli_makes_no_directory_and_writes_no_file():
    """cli.py parses arguments and formats output: it opens no file, makes no directory and
    calls no writer; pipeline and export do all three."""
    writers = {"open", "mkdir", "write_text", "write_bytes", "write_table", "write_json"}
    tree = ast.parse(Path(cli.__file__).read_text())
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "print" in called and called.isdisjoint(writers), called & writers


def test_main_flag_overrides(tmp_path, capsys):
    """--seed and --out override the document's seed and directory; the rest is the document's."""
    grid = {"kind": "linear", "start": 0.0, "stop": 5.0, "points": 40}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_doc(tmp_path, grid=grid)))
    out2 = tmp_path / "other"
    code = cli.main(["run", "--config", str(config_path), "--seed", "9", "--out", str(out2)])
    assert code == 0
    saved = json.loads((out2 / "config.json").read_text())
    assert saved["model"]["seed"] == 9 and saved["output"]["directory"] == str(out2)
    assert saved["grid"] == grid and not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "c.json", "--grid", "auto"],
    ["run", "--config", "c.json", "--eta", "0.2"],
    ["run", "--config", "c.json", "--initial-state", "0b111"],
    ["reproduce-fig1", "--grid", "auto"],
    ["reproduce-fig2", "--grid", "log:0.01:10:50"],
    ["sweep", "--eta", "0.1", "--grid", "auto"],
])
def test_retired_flags_exit_2_before_any_output(tmp_path, capsys, argv):
    """The grid, eta and initial state have one way in, the config document: a flag for one
    of them is a usage error (exit 2) before any file is written."""
    (tmp_path / "c.json").write_text(json.dumps(small_doc(tmp_path)))
    argv = [str(tmp_path / arg) if arg == "c.json" else arg for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_sweep(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    doc = small_doc(tmp_path)
    doc["output"]["directory"] = str(tmp_path / "sweep")
    config_path.write_text(json.dumps(doc))
    code = cli.main(
        ["sweep", "--eta", "0.02,0.05", "--config", str(config_path)]
    )
    assert code == 0
    with open(tmp_path / "sweep" / "summary.csv") as fh:
        summary = list(csv.DictReader(fh))
    assert [row["eta"] for row in summary] == ["0.02", "0.05"]   # not 0.050000000000000003
    for row in summary:   # one summary, whose rows name their run directories and config hashes
        manifest = tmp_path / "sweep" / f"eta={row['eta']}" / "manifest.json"
        assert row["config_hash"] == json.loads(manifest.read_text())["config_hash"]
    assert not (tmp_path / "sweep" / "summary.json").exists()


def test_sweep_checks_every_eta_before_the_first_run(tmp_path, capsys, monkeypatch):
    """An invalid or a repeated eta exits 2 before any run: the sweep creates no directory.
    A run directory that cannot be made, a file where the second eta's would go, exits 2
    before the basis is enumerated: the first run's directory stays empty, no summary written."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_doc(tmp_path, output={
        "directory": str(tmp_path / "sweep")})))
    for etas, named in (("0.1,nan", "eta must be finite"), ("0.1,0.1", "eta 0.1 is repeated"),
                        ("0.1,1e-1", "eta 0.1 is repeated"), ("0.1,x", "bad eta list '0.1,x'"),
                        (",", "eta list is empty")):
        assert cli.main(["sweep", "--eta", etas, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err and err.count("\n") == 1, etas
        assert not (tmp_path / "sweep").exists()

    def enumerated(*args):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(pipeline, "build_basis", enumerated)
    blocking = tmp_path / "sweep" / "eta=0.2"
    blocking.parent.mkdir()
    blocking.write_bytes(b"a file\n")
    assert cli.main(["sweep", "--eta", "0.1,0.2", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output directory {blocking} cannot be made: ")
    assert err.count("\n") == 1
    assert [path for path in (tmp_path / "sweep").rglob("*") if path.is_file()] == [blocking]
    assert blocking.read_bytes() == b"a file\n"
    assert not (tmp_path / "sweep" / "summary.csv").exists()


def test_sweep_gives_each_eta_its_own_directory(tmp_path, capsys):
    """Two etas that agree to six digits still get two run directories, each intact."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_doc(tmp_path, output={
        "directory": str(tmp_path / "sweep")})))
    assert cli.main(["sweep", "--eta", "0.1,0.1000001", "--config", str(config_path)]) == 0
    runs = sorted(path.name for path in (tmp_path / "sweep").iterdir() if path.is_dir())
    assert runs == ["eta=0.1", "eta=0.1000001"]
    for name in runs:
        assert cli.main(["inspect", str(tmp_path / "sweep" / name)]) == 0


def test_sweep_names_negative_zero_as_the_zero_it_runs(tmp_path, capsys):
    """eta -0.0 runs as 0.0, the config's spelling, and its directory and summary row say
    0.0; given with 0.0 it is a repeated eta."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_doc(tmp_path, output={
        "directory": str(tmp_path / "sweep")})))
    assert cli.main(["sweep", "--eta=0.0,-0.0", "--config", str(config_path)]) == 2
    assert "eta 0.0 is repeated" in capsys.readouterr().err
    assert cli.main(["sweep", "--eta=-0.0,0.1", "--config", str(config_path)]) == 0
    runs = sorted(path.name for path in (tmp_path / "sweep").iterdir() if path.is_dir())
    assert runs == ["eta=0.0", "eta=0.1"]
    with open(tmp_path / "sweep" / "summary.csv") as fh:
        assert [row["eta"] for row in csv.DictReader(fh)] == ["0.0", "0.1"]
    saved = json.loads((tmp_path / "sweep" / "eta=0.0" / "config.json").read_text())
    assert repr(saved["model"]["eta"]) == "0.0"


def test_preset_configs():
    fig1 = config.PRESETS["reproduce-fig1"]
    c1 = config.config_from_dict({"model": {**fig1["model"], "seed": 3},
                                  "output": {"directory": "x"}})
    c2 = config.config_from_dict(config.PRESETS["reproduce-fig2"])
    assert c1.model.eta == 0.003 and c1.model.seed == 3 and c1.outdir == "x"
    assert c2.model.eta == 0.083 and c2.model.n == 6 and c2.model.m == 12
    assert c2.model.seed == 1 and c2.outdir == "runs/fig2"


def test_reproduce_fig1_manifest_values(tmp_path, capsys):
    """Preset run lands near the reported weak-coupling widths."""
    code = cli.main(["reproduce-fig1", "--out", str(tmp_path / "fig1"), "--seed", "1"])
    assert code == 0
    manifest = strict_json((tmp_path / "fig1" / "manifest.json").read_text())
    derived = manifest["derived"]
    assert abs(derived["gamma_golden_rule"] / 0.50 - 1) < 0.30
    assert abs(derived["delta_e"] / 1.16 - 1) < 0.15
    assert derived["n_states"] == 924
    assert manifest["seed"] == 1 and manifest["config"]["model"]["eta"] == 0.003
    floor = derived["saturation_3_over_npc_envelope"]
    assert floor == 3.0 / derived["n_pc_envelope"]
    assert floor / 2 <= 1.0 / derived["n_pc_ipr"] <= 2 * floor


def test_main_numerical_stage_error_exit_code(tmp_path, capsys, monkeypatch):
    """A stage that fails surfaces as a stage error (exit 3) that names the stage and, from
    the export stage on, the files written so far."""
    def too_few(decomp):
        raise InsufficientStatisticsError("only 6 levels near the median; need >= 10")

    monkeypatch.setattr(pipeline, "spectral_stats", too_few)
    config_path = tmp_path / "small.json"
    config_path.write_text(json.dumps(small_doc(tmp_path)))
    assert cli.main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "diagonalization" in err
    assert "partial outputs" not in err   # nothing is written before the export stage

    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.undo()
    monkeypatch.setattr(strength, "write_profile_csv", disk_full)
    assert cli.main(["run", "--config", str(config_path)]) == 3
    stage_line, partial_line = capsys.readouterr().err.splitlines()
    assert stage_line.startswith("numerical error in stage 'export': ")
    assert partial_line.startswith(f"partial outputs: {tmp_path / 'out' / 'config.json'}, ")


@pytest.mark.parametrize("jitter", [0.0, 0.3])
@pytest.mark.parametrize("eta", [0.0, 0.083])
def test_every_small_config_runs_or_exits_2(tmp_path, eta, jitter):
    """Every 1 <= n <= m <= 8 either runs (exit 0) or is refused before the run (exit 2):
    none fails in a stage for want of levels.  The refused ones are exactly those with fewer
    than 10 basis states, or, when eta > 0, fewer than 10 class-1 states; the rest run."""
    for m in range(1, 9):
        for n in range(1, m + 1):
            out = tmp_path / f"{n}_{m}"
            doc = {"model": {"n": n, "m": m, "eta": eta, "jitter": jitter},
                   "grid": {"kind": "auto", "points": 40}, "output": {"directory": str(out)}}
            path = tmp_path / "config.json"
            path.write_text(json.dumps(doc))
            class1 = n * (m - n) + math.comb(n, 2) * math.comb(m - n, 2)
            small = math.comb(m, n) < 10 or (eta > 0 and class1 < 10)
            assert cli.main(["run", "--config", str(path)]) == (2 if small else 0), (n, m)
            assert out.exists() != small


# Values the config fuzzer puts at each leaf: right and wrong types, edge values, and
# NaN/inf.  No valid (n, m) exceeds C(10, 5) = 252 states: m is 10 at most where it is
# valid, and the model block, n and m are never deleted (their defaults give 924).  No
# valid grid exceeds 40 points: the large integers go only where a check refuses them.
_FUZZ_ODD = (None, True, "x", "", [], {}, -1, 0, 2.5, math.nan, math.inf)
_FUZZ_LEAVES = {
    ("config_version",): (1, 2, "1", 1.0),
    ("model", "n"): (1, 2, 3, 5, 6, 11, "3", 3.0),
    ("model", "m"): (1, 3, 5, 6, 8, 10, 64, "6", 6.0),
    ("model", "eta"): (0.0, 0.003, 0.083, 0.5, 1, -0.1, "0.1", -math.inf),
    ("model", "seed"): (1, 7, 2**64, 1.5, "1", -5),
    ("model", "jitter"): (0.0, 0.3, 0.99, 1.0, -0.1, "0.3"),
    ("model", "d0"): (1, 1.0, 2.0, "1"),
    ("initial_state",): ("mid-spectrum", " MID-spectrum ", "0b111", "0x38", 0b101010, 0b1011,
                         0b1111, 7.0, -7, 2**70, "nonsense", [7], "0b111111"),
    ("grid", "kind"): ("auto", "log", "linear", "cubic", "AUTO"),
    ("grid", "start"): (0.0, 0.5, 1.0, 20.0, -1.0, "1"),
    ("grid", "stop"): (0.0, 0.5, 1.0, 20.0, -1.0, "20"),
    ("grid", "points"): (1, 2, 3, 17, 40, "40", 40.0),
    ("output", "formats"): (["csv"], ["npy"], "csv"),
    ("output", "binary_dumps"): (False, True, "no"),
    ("analysis",): ({"fits": False}, 5),
    ("hamiltonian",): ({"one_orbital_terms": True}, {"one_orbital_terms": False}),
    ("model",): ([3, 6], "n=3"),
    ("grid",): ([], "auto"),
    ("unknown",): (1,),
}


def _fuzzed_doc(rng, outdir: str) -> dict:
    """The n=3, m=6 document with one to three leaves set, deleted or given a stray type."""
    doc = {"config_version": 1, "model": {"n": 3, "m": 6, "eta": 0.083, "seed": 1, "jitter": 0.0},
           "initial_state": "mid-spectrum",
           "grid": {"kind": "auto", "start": None, "stop": None, "points": 40}}
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(sorted(_FUZZ_LEAVES))
        block = doc
        for key in path[:-1]:
            block = block.setdefault(key, {}) if isinstance(block, dict) else {}
        if not isinstance(block, dict):
            continue
        draw = rng.random()
        if draw < 0.15 and path[-1] not in ("model", "n", "m"):
            block.pop(path[-1], None)
        else:
            pool = _FUZZ_ODD if draw < 0.35 else _FUZZ_LEAVES[path]
            block[path[-1]] = copy.deepcopy(rng.choice(pool))
    doc["output"] = {"directory": outdir}
    return doc


def test_config_fuzzer_runs_or_exits_2(tmp_path, capsys):
    """400 mutated documents through ``main``: each runs (0) or is refused (2), and none
    raises.  The one exit 3 left is an explicit initial state near a spectrum edge, too few
    class-1 states for the golden-rule density window, which no check before H can see."""
    rng, codes, edge = random.Random(0), {}, []
    for k in range(400):
        out = tmp_path / f"run{k}"
        doc = _fuzzed_doc(rng, str(out))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        codes[code] = codes.get(code, 0) + 1
        assert code in (0, 2, 3), (code, doc)
        assert out.exists() == (code != 2), (code, doc)
        if code == 3:
            assert "stage 'strength'" in err and "class-1 states" in err, (doc, err)
            assert doc["initial_state"] != "mid-spectrum", doc
            edge.append((doc["model"], doc["initial_state"]))
    with capsys.disabled():
        print(f"config fuzzer: exit codes {dict(sorted(codes.items()))}, "
              f"edge initial states (model, state) {edge}")
    assert codes.get(0, 0) > 0 and codes.get(2, 0) > 0


def test_cli_import_leaves_scipy_optimize_unloaded():
    """Importing the CLI loads no scipy.optimize."""
    env = dict(os.environ, PYTHONPATH=str(Path(tb.__file__).parents[1]))
    code = "import sys, tbrisim.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "False"


def test_reproduce_fig2_loads_no_scipy(tmp_path):
    """numpy is the only runtime dependency: a whole fig2 run, fits included, imports no scipy,
    nor numpy.ma (~15 ms), which np.median and np.unique import."""
    env = dict(os.environ, PYTHONPATH=str(Path(tb.__file__).parents[1]))
    code = (
        "import sys, tbrisim.cli\n"
        f"assert tbrisim.cli.main(['reproduce-fig2', '--out', {str(tmp_path / 'fig2')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m.split('.')[:2] == ['numpy', 'ma']))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    assert done.stdout.strip().splitlines()[-1] == "[]"
