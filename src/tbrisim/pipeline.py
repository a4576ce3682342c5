"""One run: a validated config through every stage to the hashed output files.

``run`` enumerates the basis, assembles and diagonalizes H, analyzes the
initial state's strength function and widths, evolves it, compares the
exact occupations with the eq.-14 interpolation, and writes the tables,
the config echo and the manifest.  A stage that fails raises
``StageError`` with its name and the files written so far.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import dynamics, strength, theory
from .basis import build_basis, classify, occupation_bits
from .config import ExperimentConfig, _initial_bitmask, config_hash
from .exceptions import FitConvergenceError, PreconditionError, StageError
from .export import write_json, write_table
from .hamiltonian import HamiltonianMatrix, build_hamiltonian, sample_spectrum, sample_two_body
from .spectral import PROBES, _sorted_median, diagonalize, spectral_stats

_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads",
)


@dataclass
class RunManifest:
    """Echo of the config plus derived quantities, output-file hashes and
    the library environment that produced the bytes (not part of the hash)."""

    config: dict
    config_hash: str
    seed: int
    derived: dict
    files: dict
    environment: dict


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its getter; None if none is found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return int(getter())
    return None


def _environment() -> dict:
    """numpy version, BLAS build and BLAS thread count: eigh's last bits depend on them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def select_initial_state(h: HamiltonianMatrix, rule) -> int:
    """Resolve an initial-state rule to a basis index.

    "mid-spectrum" picks the state whose diagonal energy is closest to the
    median diagonal energy (lowest index on ties); an integer (or integer
    string) is treated as an explicit bitmask and validated.
    """
    bitmask = _initial_bitmask(rule, h.basis.n, h.basis.m)
    if bitmask is None:
        diag = h.diagonal()
        return int(np.argmin(np.abs(diag - _sorted_median(np.sort(diag)))))
    return h.basis.position(bitmask)


def _build_grid(config: ExperimentConfig, delta_e: float, gamma: float, n_classes: int):
    if config.grid_kind == "auto":
        return dynamics.default_grid(delta_e, gamma, n_classes, points=config.grid_points)
    spaced = np.geomspace if config.grid_kind == "log" else np.linspace
    points = spaced(config.grid_start, config.grid_stop, config.grid_points)
    return dynamics.TimeGrid(dynamics._sorted_unique(points))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def emit_plotdata(
    grid: dynamics.TimeGrid, models: theory.SurvivalModelCurves, path, *, header_lines=()
) -> None:
    """Write the model W0 curves that the figures overlay: t, W0_model_bw, W0_model_gaussian.

    The exact and interpolated series drawn against them are in occupations.csv
    and prediction.csv, row for row on the same t.
    """
    columns = {
        "t": grid.points,
        "W0_model_bw": models.breit_wigner,
        "W0_model_gaussian": models.gaussian,
    }
    header = [*header_lines, "model survival curves; times in 1/energy units"]
    write_table(path, columns, header_lines=header)


def _attempt_fit(fit, *args, **kwargs):
    """Run one optional fit: (result, manifest record) or (None, the reason it is unavailable).

    Each fit is tried on its own, so one that cannot run leaves the others
    and the rest of the pipeline untouched.
    """
    try:
        result = fit(*args, **kwargs)
    except (PreconditionError, FitConvergenceError) as exc:
        return None, {"status": "unavailable", "reason": str(exc)}
    return result, {"status": "converged", **asdict(result)}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute the full pipeline for one config and write all outputs."""
    doc = config.to_dict()
    cfg_hash = config_hash(doc)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
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
        spectrum = sample_spectrum(params)
        tensor = sample_two_body(params)
        h = build_hamiltonian(basis, spectrum, tensor)
    with stage("diagonalization"):
        decomp = diagonalize(h)
        spacing_mid = spectral_stats(decomp)
    with stage("initial-state"):
        i = select_initial_state(h, config.initial_state)
        bitmask = int(basis.states[i])
        partition = classify(basis, bitmask)
    with stage("strength"):
        profile = strength.strength_function(decomp, i)
        delta_e = strength.energy_variance(h, i)
        gamma_gr = strength.golden_rule_gamma(h, partition, i)
        _, bw_record = _attempt_fit(strength.fit_bw, profile, gamma0=gamma_gr)
        _, hybrid_record = _attempt_fit(strength.fit_hybrid, profile, gamma0=gamma_gr)
        spreading = strength.spreading_params(profile, delta_e, gamma_gr, spacing_mid)
    with stage("dynamics"):
        grid = _build_grid(config, delta_e, gamma_gr, partition.n_classes)
        trajectory = dynamics.simulate_trajectory(decomp, basis, partition, i, grid)
        n_inf = dynamics.asymptotic_occupations(decomp, i, basis)
        w0_longtime = dynamics.average_survival(decomp, i)
    with stage("theory"):
        n0 = occupation_bits(basis.states[i:i + 1], params.m)[:, 0]   # the initial bitmask
        prediction = theory.predict_occupations(n0, n_inf, trajectory.w0, grid)
        rms_eq14, max_eq14, rms_eq14_per_point = theory.deviation(
            trajectory.occupations - prediction.occupations, prediction.grid.points
        )
        n_pc_env = theory.n_pc_envelope(profile)
        models = theory.survival_models(gamma_gr, delta_e, grid)
        fd, fd_record = _attempt_fit(theory.fit_fermi_dirac, n_inf, spectrum, params.n)
        if fd and fd.infinite_temperature:   # JSON has no inf or NaN
            fd_record.update(temperature="inf", mu=None)

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
            "sigma": spreading.sigma,
            "e_c": spreading.e_c,
            "n_pc_ratio": spreading.n_pc_ratio,
            "n_pc_ipr": spreading.n_pc_ipr,
            "n_pc_envelope": n_pc_env,
            "initial_state_index": i,
            "initial_state_bitmask": bitmask,
            "initial_state_energy": float(h.entries[i, i]),
            "rms_eq14": rms_eq14,
            "rms_eq14_per_point": rms_eq14_per_point,
            "max_eq14": max_eq14,
            "w0_longtime_average": w0_longtime,
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
        manifest = RunManifest(
            config=doc, config_hash=cfg_hash, seed=params.seed, derived=derived,
            files={p.name: _sha256(p) for p in written}, environment=_environment(),
        )
        write_json(outdir / "manifest.json", asdict(manifest))
    return manifest
