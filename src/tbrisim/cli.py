"""Command-line interface: parse arguments, run configs, print results.

A run is fully described by one JSON config (``tbrisim.config``) and
executed by ``tbrisim.pipeline.run``; every output file embeds the config
hash and seed, and the manifest records content hashes so that a repeated
run can be verified byte for byte.  Subcommands:

    run             execute a config (--seed and --out override its seed and directory)
    reproduce-fig1  run the preset of the paper's figure 1 or 2
    reproduce-fig2  (``config.PRESETS``)
    sweep           run the configs of ``config.sweep_configs``; ``pipeline.sweep`` tabulates them
    inspect         print the lines of ``export.check_run``: the manifest, each file's
                    hash check and, with --against OTHER, its comparison with OTHER's

Exit codes: 0 success, 2 config error, 3 numerical-stage error.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

# The benchmark (perfbench/) looks up run, emit_plotdata and config_from_dict in this module.
from .config import PRESETS, config_from_dict, sweep_configs
from .exceptions import ParameterError, StageError
from .export import INSPECT_TOL, check_run, read_document
from .pipeline import emit_plotdata, run, sweep  # noqa: F401


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


def _config_doc(args) -> dict:
    """The document a command runs, its preset or --config file ({} if neither), with
    --seed and --out, where given, as its seed and output directory."""
    path, doc = getattr(args, "config", None), copy.deepcopy(PRESETS.get(args.command, {}))
    if path is not None:
        doc = read_document(path, "config")
    for name, key, value in (("model", "seed", args.seed), ("output", "directory", args.out)):
        if value is not None:
            block = doc.setdefault(name, {})
            if not isinstance(block, dict):
                raise ParameterError(f"config block {name!r} must be a JSON object, got {block!r}")
            block[key] = value
    return doc


def _cmd_run(args) -> int:
    manifest = run(config_from_dict(_config_doc(args)))
    print(json.dumps(manifest["derived"], indent=2, sort_keys=True))
    return 0


def _cmd_reproduce(args) -> int:
    config = config_from_dict(_config_doc(args))
    d = run(config)["derived"]
    print(f"N={d['n_states']}  Gamma_GR={d['gamma_golden_rule']:.4g}  Delta_E={d['delta_e']:.4g}  "
          f"N_pc(ipr)={d['n_pc_ipr']:.4g}  N_pc(env)={d['n_pc_envelope']:.4g}  "
          f"rms_eq14={d['rms_eq14']:.4g}")
    print(f"outputs in {Path(config.outdir).resolve()}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        etas = [float(x) for x in args.etas.split(",") if x.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad eta list {args.etas!r}: {exc}") from exc
    if not etas:
        raise ParameterError("eta list is empty")
    print(f"sweep summary in {sweep(*sweep_configs(_config_doc(args), etas))}")
    return 0


def _cmd_inspect(args) -> int:
    status = 0
    for line, line_status in check_run(args.rundir, args.against):   # printed as they come
        print(line)
        status = max(status, line_status)
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
