"""Config handling, pipeline runs, exports, manifest hashing, CLI exit codes."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tbrisim as tb
from tbrisim import cli, spectral, strength, theory
from tbrisim.exceptions import FitConvergenceError, ParameterError, PreconditionError


def small_doc(tmp_path, eta=0.1, seed=5, **extra):
    doc = {
        "model": {"n": 3, "m": 6, "eta": eta, "seed": seed},
        "grid": {"kind": "auto", "points": 120},
        "output": {"directory": str(tmp_path / "out")},
        "analysis": {"fits": False, "fermi_dirac": True},
    }
    doc.update(extra)
    return doc


def test_config_defaults_round_trip():
    config = cli.config_from_dict({})
    assert config.model.n == 6 and config.model.m == 12
    assert config.model.eta == 0.003 and config.model.seed == 1
    assert config.initial_state == "mid-spectrum"
    again = cli.config_from_dict(config.to_dict())
    assert again == config
    assert cli.config_hash(again) == cli.config_hash(config)


def test_config_validation_errors():
    with pytest.raises(ParameterError):
        cli.config_from_dict({"grid": {"kind": "cubic"}})
    with pytest.raises(ParameterError):
        cli.config_from_dict({"grid": {"kind": "log", "points": 10}})
    with pytest.raises(ParameterError):
        cli.config_from_dict({"output": {"formats": ["yaml"]}})
    with pytest.raises(ParameterError):
        cli.config_from_dict({"model": {"n": 0}})
    with pytest.raises(ParameterError):
        cli.config_from_dict({"config_version": 99})
    with pytest.raises(ParameterError):
        cli.config_from_dict([1, 2])


def test_select_initial_state_bitmask(small_2_4):
    assert cli.select_initial_state(small_2_4.h, 0b0011) == 0
    assert cli.select_initial_state(small_2_4.h, "0b0011") == 0
    with pytest.raises(ParameterError):
        cli.select_initial_state(small_2_4.h, 0b0111)
    with pytest.raises(ParameterError):
        cli.select_initial_state(small_2_4.h, "nonsense")


def test_select_initial_state_mid_spectrum_free_fermions():
    params = tb.ModelParams(n=3, m=6, eta=0.0, seed=1)
    basis = tb.build_basis(3, 6)
    h = tb.build_hamiltonian(basis, tb.sample_spectrum(params), tb.sample_two_body(params))
    i = cli.select_initial_state(h, "mid-spectrum")
    diag = h.diagonal()
    assert abs(diag[i] - np.median(diag)) <= 1.0


def test_run_small_system(tmp_path):
    manifest = cli.run(cli.config_from_dict(small_doc(tmp_path)))
    outdir = tmp_path / "out"
    for name in (
        "config.json",
        "occupations.csv",
        "prediction.csv",
        "strength.csv",
        "spreading.json",
        "plotdata.csv",
        "manifest.json",
    ):
        assert (outdir / name).exists(), name
    assert manifest.derived["n_states"] == 20
    assert set(manifest.files) >= {"config.json", "occupations.csv", "plotdata.csv"}
    saved = json.loads((outdir / "manifest.json").read_text())
    assert saved["config_hash"] == manifest.config_hash


def _fitted_doc(tmp_path):
    """A config small enough to run fast whose three fits all converge."""
    return {
        "model": {"n": 4, "m": 8, "eta": 0.083, "seed": 1},
        "output": {"directory": str(tmp_path / "out")},
    }


def test_manifest_records_each_fit(tmp_path):
    derived = cli.run(cli.config_from_dict(_fitted_doc(tmp_path))).derived
    for key in ("bw_fit", "hybrid_fit", "fermi_dirac"):
        assert derived[key]["status"] == "converged", key
    for key in ("bw_fit", "hybrid_fit"):
        record = derived[key]
        assert record["iterations"] > 0
        assert set(record["stderr"]) <= set(record) and record["stderr"]
        assert isinstance(record["at_bound"], (list, tuple))
    assert derived["sigma"] == derived["hybrid_fit"]["sigma"]


def test_manifest_records_eigensolver_and_environment(tmp_path):
    cli.run(cli.config_from_dict(_fitted_doc(tmp_path)))
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


def test_size_guard_refuses_a_dense_matrix_beyond_physical_memory(tmp_path):
    """n=10, m=20 (N=184,756) exits 2 before any enumeration; n=7, m=14 validates."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"model": {"n": 10, "m": 20},
                                "output": {"directory": str(tmp_path / "out")}}))
    start = time.perf_counter()
    assert cli.main(["run", "--config", str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    assert not (tmp_path / "out").exists()
    assert cli.config_from_dict({"model": {"n": 7, "m": 14}}).model.n == 7


def test_failed_fit_is_recorded_and_the_others_still_run(tmp_path, monkeypatch):
    """One fit that cannot run leaves the other fits and the run untouched."""
    def no_bw(*args, **kwargs):
        raise FitConvergenceError("forced")

    def no_fd(*args, **kwargs):
        raise PreconditionError("forced")

    monkeypatch.setattr(strength, "fit_bw", no_bw)
    monkeypatch.setattr(theory, "fit_fermi_dirac", no_fd)
    derived = cli.run(cli.config_from_dict(_fitted_doc(tmp_path))).derived
    assert derived["bw_fit"] == {"status": "unavailable", "reason": "forced"}
    assert derived["fermi_dirac"] == {"status": "unavailable", "reason": "forced"}
    assert derived["hybrid_fit"]["status"] == "converged"


def test_disabled_fits_are_recorded(tmp_path):
    derived = cli.run(cli.config_from_dict(small_doc(tmp_path))).derived
    assert derived["bw_fit"]["status"] == derived["hybrid_fit"]["status"] == "unavailable"
    assert derived["sigma"] == derived["delta_e"]


def test_run_free_fermions_frozen(tmp_path):
    """eta = 0: occupations never move and W0 stays exactly 1."""
    manifest = cli.run(cli.config_from_dict(small_doc(tmp_path, eta=0.0)))
    with open(tmp_path / "out" / "occupations.csv") as fh:
        rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
    first = [float(rows[0][f"n_{a}"]) for a in range(6)]
    last = [float(rows[-1][f"n_{a}"]) for a in range(6)]
    assert last == pytest.approx(first, abs=1e-12)
    assert all(abs(float(r["W0"]) - 1.0) < 1e-12 for r in rows)
    assert manifest.derived["gamma_golden_rule"] == 0.0


def test_run_deterministic_outputs(tmp_path):
    doc1 = small_doc(tmp_path)
    doc1["output"]["directory"] = str(tmp_path / "a")
    doc2 = small_doc(tmp_path)
    doc2["output"]["directory"] = str(tmp_path / "b")
    m1 = cli.run(cli.config_from_dict(doc1))
    m2 = cli.run(cli.config_from_dict(doc2))
    for name in ("occupations.csv", "prediction.csv", "strength.csv", "plotdata.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert m1.files[name] == m2.files[name]
    assert m1.config_hash == m2.config_hash


def test_run_json_format_and_binary_dumps(tmp_path):
    doc = small_doc(
        tmp_path,
        output={
            "directory": str(tmp_path / "out"),
            "formats": ["csv", "json"],
            "binary_dumps": True,
        },
    )
    cli.run(cli.config_from_dict(doc))
    outdir = tmp_path / "out"
    table = json.loads((outdir / "occupations.json").read_text())
    assert table["columns"][0] == "t"
    entries, header = tb.load_hamiltonian(outdir / "hamiltonian.bin")
    assert header["n"] == 3 and entries.shape == (20, 20)
    decomp, _ = tb.load_decomposition(outdir / "decomposition.bin")
    assert decomp.size == 20


def test_emit_plotdata_empty_grid(tmp_path, small_3_6):
    empty = tb.TimeGrid(np.array([]))
    traj = tb.simulate_trajectory(
        small_3_6.decomp, small_3_6.basis, small_3_6.partition, small_3_6.i, empty
    )
    pred = tb.predict_occupations(
        np.zeros(6), np.zeros(6), np.array([]), empty
    )
    paths = cli.emit_plotdata(traj, pred, tmp_path)
    text = paths[0].read_text().splitlines()
    data_lines = [l for l in text if l and not l.startswith("#")]
    assert len(data_lines) == 1  # header row only


def test_emit_plotdata_rejects_mismatched_grids(tmp_path, small_3_6):
    pred = tb.predict_occupations(
        np.zeros(6), np.zeros(6), np.array([0.0]), np.array([0.0])
    )
    with pytest.raises(ParameterError):
        cli.emit_plotdata(small_3_6.trajectory, pred, tmp_path)


def test_plotdata_round_trip_conserves_particles(tmp_path, small_3_6):
    pred = tb.predict_occupations(
        small_3_6.trajectory.occupations[:, 0],
        small_3_6.n_inf,
        small_3_6.trajectory.w0,
        small_3_6.grid,
    )
    cli.emit_plotdata(small_3_6.trajectory, pred, tmp_path)
    with open(tmp_path / "plotdata.csv") as fh:
        rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
    for row in rows[:: max(len(rows) // 8, 1)]:
        exact = sum(float(row[f"n_exact_{a}"]) for a in range(6))
        pred_sum = sum(float(row[f"n_pred_{a}"]) for a in range(6))
        assert exact == pytest.approx(3.0, abs=1e-10)
        assert pred_sum == pytest.approx(3.0, abs=1e-10)


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


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["run", "--config", str(bad)]) == 2
    missing = cli.main(["inspect", str(tmp_path / "nowhere")])
    assert missing == 2


def test_main_flag_overrides(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_doc(tmp_path)))
    out2 = tmp_path / "other"
    code = cli.main(
        ["run", "--config", str(config_path), "--seed", "9", "--out", str(out2),
         "--grid", "linear:0:5:40"]
    )
    assert code == 0
    saved = json.loads((out2 / "config.json").read_text())
    assert saved["model"]["seed"] == 9
    assert saved["grid"]["kind"] == "linear" and saved["grid"]["points"] == 40


def test_main_sweep(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    doc = small_doc(tmp_path)
    doc["output"]["directory"] = str(tmp_path / "sweep")
    config_path.write_text(json.dumps(doc))
    code = cli.main(
        ["sweep", "--eta", "0.02,0.05", "--config", str(config_path)]
    )
    assert code == 0
    summary = json.loads((tmp_path / "sweep" / "summary.json").read_text())
    assert [row["eta"] for row in summary] == [0.02, 0.05]
    assert (tmp_path / "sweep" / "eta=0.02" / "manifest.json").exists()
    assert (tmp_path / "sweep" / "summary.csv").exists()


def test_preset_configs():
    c1 = cli.fig1_config(seed=3, outdir="x")
    c2 = cli.fig2_config()
    assert c1.model.eta == 0.003 and c1.model.seed == 3 and c1.outdir == "x"
    assert c2.model.eta == 0.083 and c2.model.n == 6 and c2.model.m == 12


def test_reproduce_fig1_manifest_values(tmp_path, capsys):
    """Preset run lands near the reported weak-coupling widths."""
    code = cli.main(["reproduce-fig1", "--out", str(tmp_path / "fig1"), "--seed", "1"])
    assert code == 0
    manifest = json.loads((tmp_path / "fig1" / "manifest.json").read_text())
    derived = manifest["derived"]
    assert abs(derived["gamma_golden_rule"] / 0.50 - 1) < 0.30
    assert abs(derived["delta_e"] / 1.16 - 1) < 0.15
    assert derived["n_states"] == 924
    meta = json.loads((tmp_path / "fig1" / "occupations.meta.json").read_text())
    assert meta["seed"] == 1 and meta["model"]["eta"] == 0.003
    lines = (tmp_path / "fig1" / "plotdata.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    column = rows[0].index("W0_saturation")
    floor = 3.0 / derived["n_pc_envelope"]
    assert {float(row[column]) for row in rows[1:]} == {floor}
    assert floor / 2 <= derived["w0_longtime_average"] <= 2 * floor


def test_main_numerical_stage_error_exit_code(tmp_path, capsys):
    """Too few levels for spectral statistics surfaces as a stage error (exit 3)."""
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps({
        "model": {"n": 2, "m": 4, "eta": 0.1, "seed": 1},
        "output": {"directory": str(tmp_path / "tiny-out")},
    }))
    assert cli.main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "diagonalization" in err


def test_grid_flag_parsing():
    assert cli._parse_grid_flag("auto") == {"kind": "auto"}
    assert cli._parse_grid_flag("auto:200") == {"kind": "auto", "points": 200}
    assert cli._parse_grid_flag("log:0.01:10:50") == {
        "kind": "log", "start": 0.01, "stop": 10.0, "points": 50,
    }
    with pytest.raises(ParameterError):
        cli._parse_grid_flag("weird:1:2:3")


def test_cli_import_leaves_scipy_optimize_unloaded():
    """Importing the CLI loads no scipy.optimize."""
    env = dict(os.environ, PYTHONPATH=str(Path(tb.__file__).parents[1]))
    code = "import sys, tbrisim.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "False"


def test_reproduce_fig2_loads_no_scipy(tmp_path):
    """numpy is the only runtime dependency: a whole fig2 run, fits included, imports no scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(tb.__file__).parents[1]))
    code = (
        "import sys, tbrisim.cli\n"
        f"assert tbrisim.cli.main(['reproduce-fig2', '--out', {str(tmp_path / 'fig2')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    assert done.stdout.strip().splitlines()[-1] == "[]"
