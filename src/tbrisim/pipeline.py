"""One run: a validated config through every stage to the hashed output files.

``run`` enumerates the basis, assembles and diagonalizes H, analyzes the
initial state's strength function and widths, evolves it, compares the
exact occupations with the eq.-14 interpolation, and writes the tables,
the config echo and the manifest.  A stage that fails raises
``StageError`` with its name and the files written so far.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import dynamics, strength, theory
from .basis import build_basis, classify, occupation_bits
from .config import ExperimentConfig, config_hash
from .exceptions import ParameterError, StageError
from .export import sha256, write_json, write_table
from .hamiltonian import HamiltonianMatrix, build_hamiltonian, sample_spectrum, sample_two_body
from .spectral import PROBES, _environment, _sorted_median, diagonalize, spectral_stats


def select_initial_state(h: HamiltonianMatrix, rule: int | str) -> int:
    """The basis index of a config's initial-state rule: "mid-spectrum" or a bitmask.

    "mid-spectrum" picks the state whose diagonal energy is closest to the median (lowest
    index on ties): on an even N the float median's rounding picks one of the two middle
    energies, equally far from their exact midpoint (seeds 1-10: fig1 the upper on 1, 4, 7, 9,
    fig2 on all but 5, 10).  A bitmask that is not a basis state raises PreconditionError.
    """
    if rule == "mid-spectrum":
        diag = h.diagonal()
        return int(np.argmin(np.abs(diag - _sorted_median(np.sort(diag)))))
    return h.basis.position(rule)


def _build_grid(config: ExperimentConfig, delta_e: float, gamma: float, n_classes: int):
    grid = config.document["grid"]
    if grid["kind"] == "auto":
        return dynamics.default_grid(delta_e, gamma, n_classes, points=grid["points"])
    spaced = np.geomspace if grid["kind"] == "log" else np.linspace
    points = spaced(grid["start"], grid["stop"], grid["points"])
    return dynamics.TimeGrid(dynamics._sorted_unique(points))


def emit_plotdata(grid: dynamics.TimeGrid, models, path, *, header_lines=()) -> None:
    """Write the model W0 curves that the figures overlay: t, W0_model_bw, W0_model_gaussian.

    ``models`` is the pair (exp(-Gamma t), exp(-Delta_E^2 t^2)) of ``theory.survival_models``.

    The exact and interpolated series drawn against them are in occupations.csv
    and prediction.csv, row for row on the same t.
    """
    columns = {"t": grid.points, "W0_model_bw": models[0], "W0_model_gaussian": models[1]}
    header = [*header_lines, "model survival curves; times in 1/energy units"]
    write_table(path, columns, header_lines=header)


def _make_outdir(config: ExperimentConfig) -> Path:   # a file, or a path under one: exit 2
    try:
        Path(config.outdir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"output directory {config.outdir} cannot be made: {exc}") from exc
    return Path(config.outdir)


def run(config: ExperimentConfig) -> dict:
    """Execute the full pipeline for one config and write all outputs; return the manifest,
    the dict written to manifest.json: the config echo, its hash and seed, the derived
    values, the file hashes and the library environment that produced the bytes."""
    doc = config.to_dict()
    cfg_hash = config_hash(doc)
    outdir = _make_outdir(config)
    written: list[Path] = []
    header_lines = [f"config_hash={cfg_hash}", f"seed={config.model.seed}"]

    @contextmanager
    def stage(name):
        try:
            yield
        except Exception as exc:
            raise StageError(name, exc, [str(p) for p in written]) from exc

    params = config.model
    with stage("basis"):
        basis = build_basis(params.n, params.m)
    with stage("hamiltonian"):
        epsilon = sample_spectrum(params)
        h = build_hamiltonian(basis, epsilon, sample_two_body(params))
    with stage("diagonalization"):
        decomp = diagonalize(h)
        spacing_mid = spectral_stats(decomp)
    with stage("initial-state"):
        i = select_initial_state(h, doc["initial_state"])
        bitmask = int(basis.states[i])
        partition = classify(basis, bitmask)
    with stage("strength"):
        profile = strength.strength_function(decomp, i)
        delta_e = strength.energy_variance(h, i)
        gamma_gr = strength.golden_rule_gamma(h, partition, i)
        bw_record = strength.attempt_fit(strength.fit_bw, profile, gamma0=gamma_gr)
        hybrid_record = strength.attempt_fit(strength.fit_hybrid, profile, gamma0=gamma_gr)
        sigma = strength.spreading_params(profile, delta_e, gamma_gr)
    with stage("dynamics"):
        grid = _build_grid(config, delta_e, gamma_gr, partition.n_classes)
        trajectory = dynamics.simulate_trajectory(decomp, basis, partition, i, grid)
        n_inf = dynamics.asymptotic_occupations(decomp, i, basis)
    with stage("theory"):
        n0 = occupation_bits(basis.states[i:i + 1], params.m)[:, 0]   # the initial bitmask
        prediction = theory.predict_occupations(n0, n_inf, trajectory.w0, grid)
        rms_eq14, max_eq14, rms_eq14_per_point = theory.prediction_error(
            trajectory.occupations, prediction
        )
        n_pc_env = theory.n_pc_envelope(profile)
        models = theory.survival_models(gamma_gr, delta_e, grid)
        fd_record = strength.attempt_fit(theory.fit_fermi_dirac, n_inf, epsilon, params.n)

    with stage("export"):
        def out(name: str) -> Path:
            """Path of one output file, listed among the written ones before it is written."""
            written.append(outdir / name)
            return written[-1]

        write_json(out("config.json"), doc)
        dynamics.write_trajectory_csv(trajectory, out("occupations.csv"), header_lines=header_lines)
        theory.write_prediction_csv(prediction, out("prediction.csv"), header_lines=header_lines)
        strength.write_profile_csv(profile, out("strength.csv"), header_lines=header_lines)
        emit_plotdata(grid, models, out("plotdata.csv"), header_lines=header_lines)

        derived = {
            "n_states": basis.size,
            "mean_spacing_mid": spacing_mid,
            "delta_e": delta_e,
            "gamma_golden_rule": gamma_gr,
            "bw_fit": bw_record,
            "hybrid_fit": hybrid_record,
            "sigma": sigma,
            "n_pc_ratio": gamma_gr / spacing_mid if spacing_mid > 0 else None,
            "n_pc_ipr": profile.n_pc_ipr(),
            "n_pc_envelope": n_pc_env,
            "initial_state_index": i,
            "initial_state_bitmask": bitmask,
            "initial_state_energy": float(h.entries[i, i]),
            "rms_eq14": rms_eq14,
            "rms_eq14_per_point": rms_eq14_per_point,
            "max_eq14": max_eq14,
            "saturation_3_over_npc_envelope": 3.0 / n_pc_env,
            "asymptotic_occupations": [float(x) for x in n_inf],
            "fermi_dirac": fd_record,
            "eigensolver": {
                "orthonormality_residual": decomp.orthonormality_residual,
                "reconstruction_residual": decomp.reconstruction_residual,
                "probes": PROBES,
            },
            "dynamics": {
                "unitarity_drift": trajectory.unitarity_drift,
                "interpolated_points": trajectory.interpolated_points,
                "time_nodes": trajectory.time_nodes,
            },
            "rng": "PCG64 (numpy default_rng) with per-purpose child streams",
        }
        manifest = {
            "config": doc, "config_hash": cfg_hash, "seed": params.seed, "derived": derived,
            "files": {p.name: sha256(p) for p in written}, "environment": _environment(),
        }
        write_json(outdir / "manifest.json", manifest)
    return manifest


def sweep(root: Path, configs: list[ExperimentConfig]) -> Path:
    """Make every config's directory, then run the configs in order; tabulate them in
    ``root``/summary.csv, each eta as the repr its run directory is named by, and return it."""
    list(map(_make_outdir, configs))   # a config error here comes before any run
    rows = []
    for config, manifest in zip(configs, map(run, configs)):
        d = manifest["derived"]
        rows.append((repr(config.model.eta), d["gamma_golden_rule"], d["bw_fit"].get("gamma"),
                     d["delta_e"], d["n_pc_ipr"], d["rms_eq14"], manifest["config_hash"]))
    names = "eta gamma_golden_rule gamma_bw_fit delta_e n_pc_ipr rms_eq14 config_hash".split()
    write_table(root / "summary.csv", dict(zip(names, zip(*rows))))
    return root / "summary.csv"
