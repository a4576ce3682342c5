"""Experiment orchestration and command-line interface.

A run is fully described by one JSON config; every output file embeds the
config hash and seed, and the manifest records content hashes so that a
repeated run can be verified byte for byte.  Subcommands:

    run             execute a config (flags can override single fields)
    reproduce-fig1  preset: n=6, m=12, eta=0.003, mid-spectrum initial state
    reproduce-fig2  preset: same with eta=0.083
    sweep           run a list of eta values and tabulate the widths
    inspect         print a run's manifest and verify file hashes; with
                    --against OTHER, compare every file with OTHER's

Exit codes: 0 success, 2 config error, 3 numerical-stage error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, strength, theory
from .basis import build_basis, classify
from .exceptions import (
    FitConvergenceError,
    ParameterError,
    PreconditionError,
    StageError,
)
from .export import write_json, write_table
from .hamiltonian import (
    HamiltonianMatrix,
    ModelParams,
    build_hamiltonian,
    sample_spectrum,
    sample_two_body,
)
from .spectral import PROBES, diagonalize, spectral_stats

CONFIG_VERSION = 1
# Dense N x N float64 arrays alive at the peak of a run: H, the copy eigh
# factorizes, its workspace (~2 N^2) and the eigenvectors.
DENSE_COPIES = 6
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads",
)

# `inspect --against` accepts |a - b| <= INSPECT_TOL * max(1, |a|, |b|) in every
# numeric CSV cell and JSON leaf: relative above 1, absolute below.  It lies far
# above one build's rounding (payloads across BLAS thread counts: 4.3e-14 apart,
# fit parameters <= 3e-13 relative) and far below any change of the physics.
INSPECT_TOL = 1e-9
# Manifest and config keys that describe the machine, the hashes, the output
# routing or the trajectory's evaluation plan rather than the result;
# `inspect --against` does not compare them.
_UNCOMPARED_KEYS = frozenset({"environment", "files", "output", "interpolated_points", "time_nodes"})

_MODEL_DEFAULTS = {"n": 6, "m": 12, "eta": 0.003, "seed": 1, "d0": 1.0, "jitter": 0.0}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully defaulted description of one run; see README for field docs."""

    model: ModelParams
    initial_state: int | str = "mid-spectrum"
    grid_kind: str = "auto"           # auto | log | linear
    grid_start: float | None = None
    grid_stop: float | None = None
    grid_points: int = 400
    fits: bool = True
    fermi_dirac: bool = True
    convolution_check: bool = False
    one_orbital_terms: bool = True
    diagonal_pair_terms: bool = True
    outdir: str = "run"
    formats: tuple[str, ...] = ("csv",)
    binary_dumps: bool = False

    def to_dict(self) -> dict:
        return {
            "config_version": CONFIG_VERSION,
            "model": {
                "n": self.model.n,
                "m": self.model.m,
                "eta": self.model.eta,
                "seed": self.model.seed,
                "d0": self.model.d0,
                "jitter": self.model.jitter,
            },
            "hamiltonian": {
                "one_orbital_terms": self.one_orbital_terms,
                "diagonal_pair_terms": self.diagonal_pair_terms,
            },
            "initial_state": self.initial_state,
            "grid": {
                "kind": self.grid_kind,
                "start": self.grid_start,
                "stop": self.grid_stop,
                "points": self.grid_points,
            },
            "analysis": {
                "fits": self.fits,
                "fermi_dirac": self.fermi_dirac,
                "convolution_check": self.convolution_check,
            },
            "output": {
                "directory": self.outdir,
                "formats": list(self.formats),
                "binary_dumps": self.binary_dumps,
            },
        }


@dataclass
class RunManifest:
    """Echo of the config plus derived quantities, output-file hashes and
    the library environment that produced the bytes (not part of the hash)."""

    config: dict
    config_hash: str
    seed: int
    derived: dict
    files: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)


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


def _check_dense_size(model: ModelParams, points: int) -> None:
    """Refuse a run whose dense H, eigendecomposition and (N, points) complex
    amplitudes exceed physical memory."""
    states = math.comb(model.m, model.n)
    need = states**2 * 8 * DENSE_COPIES + states * points * 16
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):   # not reported on this platform
        return
    if 0 < physical < need:
        raise ParameterError(
            f"n={model.n}, m={model.m} has {states} basis states; the dense Hamiltonian, "
            f"its eigendecomposition and {points} grid points need ~{need / 1e9:.3g} GB, "
            f"more than the {physical / 1e9:.3g} GB of physical memory"
        )


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a (possibly partial) parsed JSON document."""
    if not isinstance(data, dict):
        raise ParameterError("config root must be a JSON object")
    version = data.get("config_version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ParameterError(f"unsupported config_version {version}")
    blocks = {key: data.get(key, {}) for key in ("model", "hamiltonian", "grid", "analysis", "output")}
    for key, block in blocks.items():
        if not isinstance(block, dict):
            raise ParameterError(f"config block {key!r} must be a JSON object, got {block!r}")
    model_block, ham, grid, analysis, output = blocks.values()
    model_in = {**_MODEL_DEFAULTS, **model_block}
    for key in ("n", "m", "seed"):
        if isinstance(model_in[key], bool) or not isinstance(model_in[key], int):
            raise ParameterError(f"model {key} must be an integer, got {model_in[key]!r}")
    try:
        model = ModelParams(
            n=model_in["n"],
            m=model_in["m"],
            eta=float(model_in["eta"]),
            seed=model_in["seed"],
            d0=float(model_in["d0"]),
            jitter=float(model_in["jitter"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"bad model block: {exc}") from exc
    kind = grid.get("kind", "auto")
    if kind not in ("auto", "log", "linear"):
        raise ParameterError(f"grid kind must be auto|log|linear, got {kind!r}")
    if kind != "auto":
        ends = [grid.get("start"), grid.get("stop")]
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in ends)
        if not (numeric and all(map(math.isfinite, ends))):
            raise ParameterError(f"grid kind {kind!r} requires finite start and stop, got {ends}")
        if kind == "log" and min(ends) <= 0:
            raise ParameterError("log grid requires start > 0 and stop > 0")
        if kind == "linear" and min(ends) < 0:
            raise ParameterError("linear grid requires start >= 0 and stop >= 0")
    points = grid.get("points", 400)
    if isinstance(points, bool) or not isinstance(points, int) or points < 0:
        raise ParameterError(f"grid points must be a non-negative integer, got {points!r}")
    _check_dense_size(model, points)
    initial_state = data.get("initial_state", "mid-spectrum")
    _initial_bitmask(initial_state, model.n, model.m)
    formats = tuple(output.get("formats", ["csv"]))
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ParameterError(f"unknown output format {fmt!r}")
    return ExperimentConfig(
        model=model,
        initial_state=initial_state,
        grid_kind=kind,
        grid_start=grid.get("start"),
        grid_stop=grid.get("stop"),
        grid_points=points,
        fits=bool(analysis.get("fits", True)),
        fermi_dirac=bool(analysis.get("fermi_dirac", True)),
        convolution_check=bool(analysis.get("convolution_check", False)),
        one_orbital_terms=bool(ham.get("one_orbital_terms", True)),
        diagonal_pair_terms=bool(ham.get("diagonal_pair_terms", True)),
        outdir=str(output.get("directory", "run")),
        formats=formats,
        binary_dumps=bool(output.get("binary_dumps", False)),
    )


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the physics-defining fields; output routing is excluded so the
    same experiment written to two directories carries one hash."""
    doc = config.to_dict()
    doc.pop("output")
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def fig1_config(seed: int = 1, outdir: str = "runs/fig1", **overrides) -> ExperimentConfig:
    return _preset_config(eta=0.003, seed=seed, outdir=outdir, **overrides)


def fig2_config(seed: int = 1, outdir: str = "runs/fig2", **overrides) -> ExperimentConfig:
    return _preset_config(eta=0.083, seed=seed, outdir=outdir, **overrides)


def _preset_config(*, eta: float, seed: int, outdir: str, **overrides) -> ExperimentConfig:
    doc = {
        "model": {"n": 6, "m": 12, "eta": eta, "seed": seed, "d0": 1.0, "jitter": 0.0},
        "output": {"directory": outdir, **overrides.pop("output", {})},
    }
    doc.update(overrides)
    return config_from_dict(doc)


def select_initial_state(h: HamiltonianMatrix, rule) -> int:
    """Resolve an initial-state rule to a basis index.

    "mid-spectrum" picks the state whose diagonal energy is closest to the
    median diagonal energy (lowest index on ties); an integer (or integer
    string) is treated as an explicit bitmask and validated.
    """
    bitmask = _initial_bitmask(rule, h.basis.n, h.basis.m)
    if bitmask is None:
        diag = h.diagonal()
        return int(np.argmin(np.abs(diag - np.median(diag))))
    return h.basis.position(bitmask)


def _initial_bitmask(rule, n: int, m: int) -> int | None:
    """The bitmask an initial-state rule names, None for "mid-spectrum"; ParameterError if
    it is not a state of n particles in m orbitals."""
    if isinstance(rule, str) and rule.strip().lower() == "mid-spectrum":
        return None
    try:
        bitmask = int(rule, 0) if isinstance(rule, str) else int(rule)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"initial-state rule {rule!r} not understood") from exc
    if bitmask.bit_count() != n:
        raise ParameterError(
            f"bitmask {bitmask:#x} has {bitmask.bit_count()} particles, expected {n}"
        )
    if bitmask < 0 or bitmask >> m:
        raise ParameterError(f"bitmask {bitmask:#x} uses orbitals beyond m={m}")
    return bitmask


def _build_grid(config: ExperimentConfig, delta_e: float, gamma: float, n_classes: int):
    if config.grid_kind == "auto":
        return dynamics.default_grid(delta_e, gamma, n_classes, points=config.grid_points)
    if config.grid_kind == "log":
        pts = np.geomspace(config.grid_start, config.grid_stop, config.grid_points)
    else:
        pts = np.linspace(config.grid_start, config.grid_stop, config.grid_points)
    return dynamics.TimeGrid(np.unique(pts))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def emit_plotdata(
    trajectory: dynamics.OccupationTrajectory,
    prediction: theory.ThermalizationPrediction,
    outdir,
    *,
    models: theory.SurvivalModelCurves | None = None,
    header_lines=(),
) -> list[Path]:
    """Write the aligned exact-vs-predicted table used to draw the figures.

    Columns: t, exact n_alpha, predicted n_alpha, W0 plus model overlays,
    then the class populations.  Returns the written paths.
    """
    times = trajectory.grid.points
    if len(prediction.grid.points) != len(times) or (
        len(times) and not np.array_equal(prediction.grid.points, times)
    ):
        raise ParameterError("trajectory and prediction grids differ")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    columns = {
        "t": times,
        **{f"n_exact_{a}": row for a, row in enumerate(trajectory.occupations)},
        **{f"n_pred_{a}": row for a, row in enumerate(prediction.occupations)},
        "W0": trajectory.w0,
    }
    if models:
        columns.update(
            W0_model_bw=models.breit_wigner,
            W0_model_gaussian=models.gaussian,
            W0_saturation=models.saturation,
        )
    columns.update(
        (f"W_{s}", row) for s, row in enumerate(trajectory.class_populations[1:], start=1)
    )
    path = outdir / "plotdata.csv"
    header = [*header_lines, "exact occupations vs interpolated prediction; times in 1/energy units"]
    write_table(path, columns, header_lines=header)
    return [path]


def _attempt_fit(enabled: bool, fit, *args, **kwargs):
    """Run one optional fit: (result, manifest record) or (None, the reason it is unavailable).

    Each fit is tried on its own, so one that cannot run leaves the others
    and the rest of the pipeline untouched.
    """
    if not enabled:
        return None, {"status": "unavailable", "reason": "disabled in the analysis config"}
    try:
        result = fit(*args, **kwargs)
    except (PreconditionError, FitConvergenceError) as exc:
        return None, {"status": "unavailable", "reason": str(exc)}
    return result, {"status": "converged", **asdict(result)}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute the full pipeline for one config and write all outputs."""
    cfg_hash = config_hash(config)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    header_lines = [f"config_hash={cfg_hash}", f"seed={config.model.seed}"]

    @contextmanager
    def stage(name):
        try:
            yield
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc, [str(p) for p in written]) from exc

    params = config.model
    with stage("basis"):
        basis = build_basis(params.n, params.m)
    with stage("hamiltonian"):
        spectrum = sample_spectrum(params)
        tensor = sample_two_body(params)
        h = build_hamiltonian(
            basis,
            spectrum,
            tensor,
            one_orbital_terms=config.one_orbital_terms,
            diagonal_pair_terms=config.diagonal_pair_terms,
        )
    with stage("diagonalization"):
        decomp = diagonalize(h)
        stats = spectral_stats(decomp)
    with stage("initial-state"):
        i = select_initial_state(h, config.initial_state)
        partition = classify(basis, int(basis.states[i]))
    with stage("strength"):
        profile = strength.strength_function(decomp, i)
        delta_e = strength.energy_variance(h, i)
        gamma_gr = strength.golden_rule_gamma(h, partition, i)
        _, bw_record = _attempt_fit(config.fits, strength.fit_bw, profile, gamma0=gamma_gr)
        _, hybrid_record = _attempt_fit(
            config.fits, strength.fit_hybrid, profile, stats, gamma0=gamma_gr
        )
        spreading = strength.spreading_params(
            profile, delta_e, gamma_gr, stats.mean_spacing_mid, fit=config.fits
        )
    with stage("dynamics"):
        grid = _build_grid(config, delta_e, gamma_gr, partition.n_classes)
        trajectory = dynamics.simulate_trajectory(decomp, basis, partition, i, grid)
        n_inf = dynamics.asymptotic_occupations(decomp, i, basis)
        w0_longtime = dynamics.average_survival(decomp, i)
    with stage("theory"):
        prediction = theory.predict_occupations(
            trajectory.occupations[:, 0] if len(grid) else np.zeros(params.m),
            n_inf,
            trajectory.w0,
            grid,
        )
        rms_eq14, max_eq14 = theory.prediction_error(trajectory.occupations, prediction)
        diff = trajectory.occupations - prediction.occupations
        rms_eq14_per_point = float(np.sqrt(np.mean(diff**2))) if diff.size else 0.0
        n_pc_env = theory.n_pc_envelope(profile, stats)
        models = None
        if spreading.gamma_gr > 0 and spreading.delta_e > 0:
            models = theory.survival_models(spreading, n_pc_env, grid)
        fd, fd_record = _attempt_fit(
            config.fermi_dirac, theory.fit_fermi_dirac, n_inf, spectrum, params.n
        )
        if fd and fd.infinite_temperature:   # JSON has no inf or NaN
            fd_record.update(temperature="inf", mu=None)
        conv_sum = None
        if config.convolution_check:
            conv = theory.convolve_strength_map(profile, decomp, stats)
            conv_sum = float(conv.sum())

    with stage("export"):
        def out(name: str) -> Path:
            """Path of one output file, listed among the written ones before it is written."""
            written.append(outdir / name)
            return written[-1]

        ids = {"config_hash": cfg_hash, "seed": params.seed}
        write_json(out("config.json"), config.to_dict())
        dynamics.write_trajectory_csv(trajectory, out("occupations.csv"), header_lines=header_lines)
        write_json(out("occupations.meta.json"), {
            **ids,
            "model": config.to_dict()["model"],
            "initial_state_index": i,
            "initial_state_bitmask": int(basis.states[i]),
            "grid_points": len(grid),
        })
        theory.write_prediction_csv(prediction, out("prediction.csv"), header_lines=header_lines)
        strength.write_profile_csv(profile, out("strength.csv"), header_lines=header_lines)
        write_json(out("spreading.json"), {**asdict(spreading), **ids})
        written.extend(
            emit_plotdata(trajectory, prediction, outdir, models=models, header_lines=header_lines)
        )
        if "json" in config.formats:
            write_table(out("occupations.json"), trajectory.columns(), header_lines=header_lines)
        if config.binary_dumps:   # the model they belong to is config.json's
            np.save(out("hamiltonian.npy"), h.entries)
            np.save(out("eigenvalues.npy"), decomp.energies)
            np.save(out("eigenvectors.npy"), decomp.vectors)

        derived = {
            "n_states": basis.size,
            "mean_spacing_mid": stats.mean_spacing_mid,
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
            "initial_state_bitmask": int(basis.states[i]),
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
            "convolution_completeness": conv_sum,
            "rng": "PCG64 (numpy default_rng) with per-purpose child streams",
        }
        manifest = RunManifest(
            config=config.to_dict(), config_hash=cfg_hash, seed=params.seed, derived=derived,
            environment=_environment(),
        )
        manifest.files = {p.name: _sha256(p) for p in written}
        write_json(outdir / "manifest.json", asdict(manifest))
    return manifest


def _parse_grid_flag(value: str) -> dict:
    parts = value.split(":")
    try:
        if parts[0] == "auto":
            return {"kind": "auto", **({"points": int(parts[1])} if len(parts) > 1 else {})}
        if parts[0] in ("log", "linear") and len(parts) == 4:
            start, stop, points = float(parts[1]), float(parts[2]), int(parts[3])
            return {"kind": parts[0], "start": start, "stop": stop, "points": points}
    except ValueError as exc:
        raise ParameterError(f"bad grid spec {value!r}: {exc}") from exc
    raise ParameterError(
        f"bad grid spec {value!r}; use auto[:points] or log:START:STOP:POINTS"
    )


def _apply_overrides(doc: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        doc.setdefault("model", {})["seed"] = args.seed
    if getattr(args, "eta", None) is not None:
        doc.setdefault("model", {})["eta"] = args.eta
    if getattr(args, "out", None) is not None:
        doc.setdefault("output", {})["directory"] = args.out
    if getattr(args, "format", None) is not None:
        doc.setdefault("output", {})["formats"] = sorted({"csv", args.format})
    if getattr(args, "grid", None) is not None:
        doc["grid"] = _parse_grid_flag(args.grid)
    if getattr(args, "initial_state", None) is not None:
        doc["initial_state"] = args.initial_state
    return doc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbrisim",
        description="Thermalization of interacting fermions with a random two-body interaction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--grid", help="time grid: auto[:points] or log:START:STOP:POINTS")
        p.add_argument("--format", choices=["csv", "json"], help="additional export format")

    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--eta", type=float, help="override interaction strength")
    p_run.add_argument("--initial-state", dest="initial_state", help="mid-spectrum or bitmask")
    add_common(p_run)

    for name in ("reproduce-fig1", "reproduce-fig2"):
        p_fig = sub.add_parser(name, help=f"run the {name.split('-')[1]} preset")
        add_common(p_fig)

    p_sweep = sub.add_parser("sweep", help="run several interaction strengths")
    p_sweep.add_argument("--eta", required=True, help="comma-separated eta values")
    p_sweep.add_argument("--config", help="base config file (optional)")
    add_common(p_sweep)

    p_inspect = sub.add_parser("inspect", help="print a run manifest and verify hashes")
    p_inspect.add_argument("rundir", help="run output directory")
    p_inspect.add_argument(
        "--against", metavar="OTHER",
        help=f"compare every file with OTHER's; exit 3 beyond {INSPECT_TOL:g} (see INSPECT_TOL)",
    )
    return parser


def _load_config_doc(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config {path} is not valid JSON: {exc}") from exc


def _cmd_run(args) -> int:
    doc = _apply_overrides(_load_config_doc(args.config), args)
    manifest = run(config_from_dict(doc))
    print(json.dumps(manifest.derived, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_reproduce(args, eta: float, default_out: str) -> int:
    doc = {
        "model": {"eta": eta},
        "output": {"directory": default_out},
    }
    doc = _apply_overrides(doc, args)
    doc["model"].setdefault("seed", 1)
    manifest = run(config_from_dict(doc))
    d = manifest.derived
    print(
        f"N={d['n_states']}  Gamma_GR={d['gamma_golden_rule']:.4g}  "
        f"Delta_E={d['delta_e']:.4g}  N_pc(ipr)={d['n_pc_ipr']:.4g}  "
        f"N_pc(env)={d['n_pc_envelope']:.4g}  "
        f"rms_eq14={d['rms_eq14']:.4g}"
    )
    print(f"outputs in {Path(doc['output']['directory']).resolve()}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        etas = [float(x) for x in args.eta.split(",") if x.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad eta list {args.eta!r}: {exc}") from exc
    if not etas:
        raise ParameterError("eta list is empty")
    base_doc = _apply_overrides(_load_config_doc(args.config), args)
    root = Path(base_doc.get("output", {}).get("directory", "runs/sweep"))
    summary = []
    for eta in etas:
        doc = copy.deepcopy(base_doc)
        doc.setdefault("model", {})["eta"] = eta
        doc.setdefault("output", {})["directory"] = str(root / f"eta={eta:g}")
        manifest = run(config_from_dict(doc))
        d = manifest.derived
        summary.append(
            {
                "eta": eta,
                "gamma_golden_rule": d["gamma_golden_rule"],
                "gamma_bw_fit": d["bw_fit"].get("gamma"),
                "delta_e": d["delta_e"],
                "n_pc_ipr": d["n_pc_ipr"],
                "rms_eq14": d["rms_eq14"],
                "config_hash": manifest.config_hash,
            }
        )
    root.mkdir(parents=True, exist_ok=True)
    write_json(root / "summary.json", summary)
    cols = ["eta", "gamma_golden_rule", "gamma_bw_fit", "delta_e", "n_pc_ipr", "rms_eq14"]
    write_table(root / "summary.csv", {c: [row[c] for row in summary] for c in cols})
    print(f"sweep summary in {root / 'summary.json'}")
    return 0


def _cmd_inspect(args) -> int:
    manifest_path = Path(args.rundir) / "manifest.json"
    if not manifest_path.exists():
        raise ParameterError(f"no manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    print(json.dumps({k: manifest[k] for k in ("config_hash", "seed", "derived")}, indent=2))
    status = 0
    for name, recorded in manifest.get("files", {}).items():
        path = Path(args.rundir) / name
        if not path.exists():
            print(f"{name}: MISSING")
            status = 3
        elif _sha256(path) != recorded:
            print(f"{name}: HASH MISMATCH")
            status = 3
        else:
            print(f"{name}: ok {recorded[:12]}")
    if args.against is not None:
        names = [*manifest.get("files", {}), "manifest.json"]
        status = max(status, _compare_runs(Path(args.rundir), Path(args.against), names))
    return status


def _json_leaves(doc, path=""):
    """(key path, scalar) for every leaf of a parsed JSON document but _UNCOMPARED_KEYS."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key not in _UNCOMPARED_KEYS:
                yield from _json_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for j, value in enumerate(doc):
            yield from _json_leaves(value, f"{path}[{j}]")
    else:
        yield path, doc


def _csv_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _fields(path: Path) -> dict:
    """JSON leaves by key path, or CSV cells by line:column (numbers parsed)."""
    if path.suffix == ".json":
        return dict(_json_leaves(json.loads(path.read_text())))
    return {
        f"{r}:{c}": _csv_cell(cell)
        for r, line in enumerate(path.read_text().splitlines())
        for c, cell in enumerate(line.split(","))
    }


def _compare_runs(rundir: Path, other: Path, names) -> int:
    """Print per file "bytes equal" or the largest numeric differences; 3 if beyond INSPECT_TOL."""
    status = 0
    for name in names:
        mine, theirs = rundir / name, other / name
        if not theirs.exists():
            print(f"{name}: MISSING in {other}")
            status = 3
            continue
        if mine.read_bytes() == theirs.read_bytes():
            print(f"{name}: bytes equal")
            continue
        if mine.suffix not in (".csv", ".json"):
            print(f"{name}: bytes differ (not a table)")
            status = 3
            continue
        a, b = _fields(mine), _fields(theirs)
        # A JSON key of one run only (a diagnostic added since) is listed; CSV cells
        # of one run only mean the tables differ in shape, which fails.
        beyond = sorted(a.keys() ^ b.keys()) if mine.suffix == ".csv" else []
        worst_abs, worst_rel, worst_key = 0.0, 0.0, None
        for key in sorted(a.keys() & b.keys()):
            x, y = a[key], b[key]
            numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
            if x == y or numeric and math.isnan(x) and math.isnan(y):
                continue
            diff = abs(x - y) if numeric else math.nan
            if not math.isfinite(diff):   # text, or NaN/inf against a number
                beyond.append(key)
                continue
            worst_abs = max(worst_abs, diff)
            rel = diff / max(abs(x), abs(y))
            if rel > worst_rel:
                worst_rel, worst_key = rel, key
            if diff > INSPECT_TOL * max(1.0, abs(x), abs(y)):
                beyond.append(key)
        line = f"{name}: max abs diff {worst_abs:.3g}, max rel diff {worst_rel:.3g} ({worst_key})"
        if mine.suffix == ".json":
            for where, keys in ((rundir, a.keys() - b.keys()), (other, b.keys() - a.keys())):
                if keys:
                    line += f"; {len(keys)} only in {where}: {', '.join(sorted(keys)[:5])}"
        if beyond:
            line += f"; {len(beyond)} beyond tolerance, e.g. {', '.join(sorted(beyond)[:3])}"
            status = 3
        print(line)
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "reproduce-fig1":
            return _cmd_reproduce(args, eta=0.003, default_out="runs/fig1")
        if args.command == "reproduce-fig2":
            return _cmd_reproduce(args, eta=0.083, default_out="runs/fig2")
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        parser.error(f"unknown command {args.command!r}")
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"numerical error in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        if exc.partial_outputs:
            print("partial outputs: " + ", ".join(exc.partial_outputs), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
