"""Command-line interface: parse arguments, run configs, print results.

A run is fully described by one JSON config (``tbrisim.config``) and
executed by ``tbrisim.pipeline.run``; every output file embeds the config
hash and seed, and the manifest records content hashes so that a repeated
run can be verified byte for byte.  Subcommands:

    run             execute a config (--seed and --out override its seed and directory)
    reproduce-fig1  run the preset of the paper's figure 1 or 2
    reproduce-fig2  (``config.PRESETS``)
    sweep           run a list of eta values and tabulate the widths
    inspect         print a run's manifest and verify file hashes; with
                    --against OTHER, compare every file with OTHER's

Exit codes: 0 success, 2 config error, 3 numerical-stage error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

from .config import PRESETS, config_from_dict
from .exceptions import ParameterError, StageError
from .export import write_table
# The benchmark (perfbench/) looks up run, emit_plotdata and config_from_dict in this module.
from .pipeline import _sha256, emit_plotdata, run  # noqa: F401

# `inspect --against` accepts |a - b| <= INSPECT_TOL * max(1, |a|, |b|) in every
# numeric CSV cell and JSON leaf: relative above 1, absolute below.  It lies far
# above one build's rounding (payloads across BLAS thread counts: 4.3e-14 apart,
# fit parameters <= 3e-13 relative) and far below any change of the physics.
INSPECT_TOL = 1e-9
# Manifest and config keys that describe the machine, the hashes, the output
# routing or the trajectory's evaluation plan rather than the result;
# `inspect --against` does not compare them.
_UNCOMPARED_KEYS = frozenset({"environment", "files", "output", "interpolated_points", "time_nodes"})
# The manifest keys `inspect` prints; a manifest without them is refused (exit 2).
_MANIFEST_KEYS = ("config_hash", "seed", "derived")


def _block(doc: dict, name: str) -> dict:
    """The config block ``name`` of ``doc``, added empty if it is absent."""
    block = doc.setdefault(name, {})
    if not isinstance(block, dict):
        raise ParameterError(f"config block {name!r} must be a JSON object, got {block!r}")
    return block


def _apply_overrides(doc: dict, args) -> dict:
    if args.seed is not None:
        _block(doc, "model")["seed"] = args.seed
    if args.out is not None:
        _block(doc, "output")["directory"] = args.out
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

    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    add_common(p_run)

    for name, preset in PRESETS.items():
        p_fig = sub.add_parser(name, help=f"run the preset with eta={preset['model']['eta']}")
        add_common(p_fig)

    p_sweep = sub.add_parser("sweep", help="run several interaction strengths")
    p_sweep.add_argument("--eta", dest="etas", required=True, help="comma-separated eta values")
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
            doc = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParameterError(f"config {path} must hold a JSON object, got {doc!r}")
    return doc


def _cmd_run(args) -> int:
    doc = _apply_overrides(_load_config_doc(args.config), args)
    manifest = run(config_from_dict(doc))
    print(json.dumps(manifest["derived"], indent=2, sort_keys=True))
    return 0


def _cmd_reproduce(args) -> int:
    config = config_from_dict(_apply_overrides(copy.deepcopy(PRESETS[args.command]), args))
    d = run(config)["derived"]
    print(
        f"N={d['n_states']}  Gamma_GR={d['gamma_golden_rule']:.4g}  "
        f"Delta_E={d['delta_e']:.4g}  N_pc(ipr)={d['n_pc_ipr']:.4g}  "
        f"N_pc(env)={d['n_pc_envelope']:.4g}  "
        f"rms_eq14={d['rms_eq14']:.4g}"
    )
    print(f"outputs in {Path(config.outdir).resolve()}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        etas = [float(x) for x in args.etas.split(",") if x.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad eta list {args.etas!r}: {exc}") from exc
    if not etas:
        raise ParameterError("eta list is empty")
    base_doc = _apply_overrides(_load_config_doc(args.config), args)
    base = config_from_dict(base_doc)   # a bad base config exits 2 before any run
    root = Path(base.outdir if "directory" in _block(base_doc, "output") else "runs/sweep")
    configs = []
    for eta in etas:   # every eta's config is checked before the first run
        doc = copy.deepcopy(base_doc)
        _block(doc, "model")["eta"] = eta
        _block(doc, "output")["directory"] = str(root / f"eta={eta!r}")
        configs.append(config_from_dict(doc))
    summary = []
    for eta, config in zip(etas, configs):
        manifest = run(config)
        d = manifest["derived"]
        # eta as its repr, the text of its run directory's name
        summary.append({"eta": repr(eta), "gamma_golden_rule": d["gamma_golden_rule"],
                        "gamma_bw_fit": d["bw_fit"].get("gamma"), "delta_e": d["delta_e"],
                        "n_pc_ipr": d["n_pc_ipr"], "rms_eq14": d["rms_eq14"],
                        "config_hash": manifest["config_hash"]})
    root.mkdir(parents=True, exist_ok=True)
    write_table(root / "summary.csv", {c: [row[c] for row in summary] for c in summary[0]})
    print(f"sweep summary in {root / 'summary.csv'}")
    return 0


def _cmd_inspect(args) -> int:
    manifest_path = Path(args.rundir) / "manifest.json"
    if not manifest_path.exists():
        raise ParameterError(f"no manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:   # not JSON, or not text
        raise ParameterError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not (isinstance(manifest, dict) and all(key in manifest for key in _MANIFEST_KEYS)
            and isinstance(manifest.get("files", {}), dict)):
        raise ParameterError(f"manifest {manifest_path} must be an object with "
                             f"{', '.join(_MANIFEST_KEYS)} and, if any, a files object")
    print(json.dumps({k: manifest[k] for k in _MANIFEST_KEYS}, indent=2))
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
    try:
        text = path.read_text()
        if path.suffix == ".json":
            return dict(_json_leaves(json.loads(text)))
    except ValueError as exc:   # not JSON, or not text
        raise ParameterError(f"{path} is not valid {path.suffix[1:].upper()}: {exc}") from exc
    return {
        f"{r}:{c}": _csv_cell(cell)
        for r, line in enumerate(text.splitlines())
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
    args = _build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "sweep": _cmd_sweep, "inspect": _cmd_inspect,
                **dict.fromkeys(PRESETS, _cmd_reproduce)}
    try:
        return commands[args.command](args)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"numerical error in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        if exc.partial_outputs:
            print("partial outputs: " + ", ".join(exc.partial_outputs), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
