"""Config handling, pipeline runs, exports, manifest hashing, CLI exit codes."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tbrisim as tb
from tbrisim import cli, config, pipeline, spectral, strength, theory
from tbrisim.exceptions import (
    FitConvergenceError,
    InsufficientStatisticsError,
    ParameterError,
    PreconditionError,
)

from conftest import strict_json


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
    assert default.initial_state == "mid-spectrum"
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
    ):
        with pytest.raises(ParameterError):
            config.config_from_dict(doc)
    assert config.config_from_dict({"model": small, "initial_state": "0b111000"}).initial_state


@pytest.mark.parametrize("stored, spellings", [
    ("mid-spectrum", ["mid-spectrum", " Mid-Spectrum ", "MID-SPECTRUM"]),
    (7, [7, "7", "0b111", "0x7", " 0b111 "]),
])
def test_one_initial_state_has_one_config_hash(stored, spellings):
    """Every spelling of one initial state gives one config: "mid-spectrum" or the integer
    bitmask, so the same experiment carries one config hash."""
    small = {"n": 3, "m": 6}
    parsed = [config.config_from_dict({"model": small, "initial_state": s}) for s in spellings]
    assert {p.initial_state for p in parsed} == {stored}
    assert len({config.config_hash(p.to_dict()) for p in parsed}) == 1


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
    assert pipeline.select_initial_state(small_2_4.h, "0b0011") == 0
    with pytest.raises(ParameterError):
        pipeline.select_initial_state(small_2_4.h, 0b0111)
    with pytest.raises(ParameterError):
        pipeline.select_initial_state(small_2_4.h, "nonsense")


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
    assert {path.name for path in outdir.iterdir()} == {*manifest.files, "manifest.json"} == {
        "config.json", "occupations.csv", "prediction.csv", "strength.csv", "plotdata.csv",
        "manifest.json",
    }
    assert manifest.derived["n_states"] == 20
    saved = json.loads((outdir / "manifest.json").read_text())
    assert saved["config_hash"] == manifest.config_hash and saved["seed"] == 5


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
    derived = pipeline.run(config.config_from_dict(_fitted_doc(tmp_path))).derived
    for key in ("bw_fit", "hybrid_fit", "fermi_dirac"):
        assert derived[key]["status"] == "converged", key
    for key in ("bw_fit", "hybrid_fit"):
        record = derived[key]
        assert record["iterations"] > 0
        assert set(record["stderr"]) <= set(record) and record["stderr"]
        assert isinstance(record["at_bound"], (list, tuple))
    assert derived["sigma"] == derived["hybrid_fit"]["sigma"]


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
    assert set(environment) == {"numpy", "blas", "blas_version", "blas_threads"}
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
    assert saved == manifest.derived["dynamics"]
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


def test_size_guard_counts_the_trajectory_grid():
    """n=6, m=12 validates with 400 points; 10**11 points of (N, points) complex amplitudes
    exceed physical memory and are refused by validation alone."""
    assert config.config_from_dict({"grid": {"points": 400}}).grid_points == 400
    with pytest.raises(ParameterError, match="grid points"):
        config.config_from_dict({"model": {"n": 6, "m": 12}, "grid": {"points": 10**11}})


def test_failed_fit_is_recorded_and_the_others_still_run(tmp_path, monkeypatch):
    """One fit that cannot run leaves the other fits and the run untouched."""
    def no_bw(*args, **kwargs):
        raise FitConvergenceError("forced")

    def no_fd(*args, **kwargs):
        raise PreconditionError("forced")

    monkeypatch.setattr(strength, "fit_bw", no_bw)
    monkeypatch.setattr(theory, "fit_fermi_dirac", no_fd)
    derived = pipeline.run(config.config_from_dict(_fitted_doc(tmp_path))).derived
    assert derived["bw_fit"] == {"status": "unavailable", "reason": "forced"}
    assert derived["fermi_dirac"] == {"status": "unavailable", "reason": "forced"}
    assert derived["hybrid_fit"]["status"] == "converged"


def test_failed_hybrid_fit_falls_back_to_delta_e(tmp_path, monkeypatch):
    """A hybrid fit that cannot run is recorded as unavailable, and sigma falls back to Delta_E."""
    def no_hybrid(*args, **kwargs):
        raise FitConvergenceError("forced")

    monkeypatch.setattr(strength, "fit_hybrid", no_hybrid)
    derived = pipeline.run(config.config_from_dict(_fitted_doc(tmp_path))).derived
    assert derived["hybrid_fit"] == {"status": "unavailable", "reason": "forced"}
    assert derived["bw_fit"]["status"] == "converged"
    assert derived["sigma"] == derived["delta_e"]


def test_run_free_fermions_frozen(tmp_path):
    """eta = 0: occupations never move and W0 stays exactly 1."""
    manifest = pipeline.run(config.config_from_dict(small_doc(tmp_path, eta=0.0)))
    saved = strict_json((tmp_path / "out" / "manifest.json").read_text())
    assert saved["derived"]["n_pc_ratio"] == manifest.derived["n_pc_ratio"] == 0.0
    with open(tmp_path / "out" / "occupations.csv") as fh:
        rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
    first = [float(rows[0][f"n_{a}"]) for a in range(6)]
    last = [float(rows[-1][f"n_{a}"]) for a in range(6)]
    assert last == pytest.approx(first, abs=1e-12)
    assert all(abs(float(r["W0"]) - 1.0) < 1e-12 for r in rows)
    assert manifest.derived["gamma_golden_rule"] == 0.0
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


def test_run_deterministic_outputs(tmp_path):
    doc1 = small_doc(tmp_path)
    doc1["output"]["directory"] = str(tmp_path / "a")
    doc2 = small_doc(tmp_path)
    doc2["output"]["directory"] = str(tmp_path / "b")
    m1 = pipeline.run(config.config_from_dict(doc1))
    m2 = pipeline.run(config.config_from_dict(doc2))
    for name in ("occupations.csv", "prediction.csv", "strength.csv", "plotdata.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert m1.files[name] == m2.files[name]
    assert m1.config_hash == m2.config_hash


def test_eq14_starts_from_the_initial_bitmask_on_a_late_grid(tmp_path):
    """On a grid that starts after t=0, eq. 14 still interpolates from the initial state:
    n_pred(t) = n(0) W0(t) + n(inf) (1 - W0(t)), with n(0) the bits of the initial bitmask."""
    doc = small_doc(tmp_path, grid={"kind": "linear", "start": 2.0, "stop": 20.0, "points": 10})
    derived = pipeline.run(config.config_from_dict(doc)).derived
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
    numeric change is reported with its size and fails above INSPECT_TOL; a missing file fails."""
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


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["run", "--config", str(bad)]) == 2
    missing = cli.main(["inspect", str(tmp_path / "nowhere")])
    assert missing == 2
    listed = tmp_path / "list.json"   # a flag cannot write into a config that is not an object
    listed.write_text("[1, 2]")
    assert cli.main(["run", "--config", str(listed), "--seed", "3"]) == 2
    base = tmp_path / "base.json"   # a sweep checks its base config before the first run
    base.write_text(json.dumps({"output": {"directory": 5}}))
    assert cli.main(["sweep", "--eta", "0.1", "--config", str(base)]) == 2


@pytest.mark.parametrize("text", [
    "not json", "[1, 2]", '{"files": {}}',
    '{"config_hash": "x", "seed": 1, "derived": {}, "files": []}',
])
def test_inspect_refuses_a_malformed_manifest(tmp_path, capsys, text):
    """A manifest that is not JSON, not an object, lacks config_hash/seed/derived or holds
    files that are not an object exits 2."""
    (tmp_path / "manifest.json").write_text(text)
    assert cli.main(["inspect", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: manifest ")


@pytest.mark.parametrize("name,content", [
    ("manifest.json", b"not json"), ("occupations.csv", b"\xff\xfe not text"),
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


def test_negative_seed_exits_2_before_the_run(tmp_path, capsys):
    """numpy's generators refuse a negative seed; validation refuses it first."""
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"model": {"n": 3, "m": 6, "seed": -1},
                                "output": {"directory": str(tmp_path / "out")}}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_sweep_checks_every_eta_before_the_first_run(tmp_path, capsys):
    """One invalid eta exits 2 before any run: the sweep creates no directory."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_doc(tmp_path, output={
        "directory": str(tmp_path / "sweep")})))
    assert cli.main(["sweep", "--eta", "0.1,nan", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "sweep").exists()


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
    assert floor / 2 <= derived["w0_longtime_average"] <= 2 * floor


def test_main_numerical_stage_error_exit_code(tmp_path, capsys, monkeypatch):
    """A stage that fails surfaces as a stage error (exit 3) that names the stage."""
    def too_few(decomp):
        raise InsufficientStatisticsError("only 6 levels near the median; need >= 10")

    monkeypatch.setattr(pipeline, "spectral_stats", too_few)
    config_path = tmp_path / "small.json"
    config_path.write_text(json.dumps(small_doc(tmp_path)))
    assert cli.main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "diagonalization" in err


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
