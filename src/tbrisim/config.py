"""The run config: one document of defaults, its validation and the presets.

``DEFAULTS`` is the complete config document.  A given document is merged
into it block by block and every leaf is checked against the type of its
default; the merged document is the config, which ``ExperimentConfig``
keeps whole, so a default is stated here once.  Every check runs before
the run allocates anything; a failed one is a ``ParameterError`` (exit 2).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .exceptions import ParameterError
from .hamiltonian import ModelParams
from .spectral import MIN_WINDOW_LEVELS

# Dense N x N float64 arrays alive at a run's peak where np.linalg.eigh runs: H, eigh's copy of
# H, its workspace (~2 N^2) and its separate V. dsyevd's steps in place hold only H, the
# eigenvector matrix they fill and one workspace (~N^2); the guard sizes for the fallback.
DENSE_COPIES = 6
# Bytes per state and grid point at the trajectory's peak: its phase rows and their product.
POINT_BYTES = 32
# The documents `tbrisim reproduce-fig1/-fig2` start from.
PRESETS = {
    "reproduce-fig1": {"model": {"eta": 0.003}, "output": {"directory": "runs/fig1"}},
    "reproduce-fig2": {"model": {"eta": 0.083}, "output": {"directory": "runs/fig2"}},
}
_FIG1_ETA = PRESETS["reproduce-fig1"]["model"]["eta"]   # the default model is figure 1's
DEFAULTS = {
    "config_version": 1,
    "model": {"n": 6, "m": 12, "eta": _FIG1_ETA, "seed": 1, "jitter": 0.0},
    "initial_state": "mid-spectrum",
    "grid": {"kind": "auto", "start": None, "stop": None, "points": 400},
    "output": {"directory": "run"},
}
# Keys that older documents carry and DEFAULTS no longer has, by dotted path:
# (is the value a no-op, why the key went).  A no-op value is dropped unread,
# so the config and its hash are those without the key; any other value is
# refused, since dropping it would give another run than the document asks for.
RETIRED = {
    "config.analysis": (lambda value: True, "every run tries all three fits"),
    "config.hamiltonian": (
        lambda block: isinstance(block, dict) and all(v is True for v in block.values()),
        "the one-orbital-term and diagonal-pair-term switches are retired; only true is accepted",
    ),
    "config.model.d0": (
        lambda value: value == 1 and not isinstance(value, bool),
        "energies are in units of the ladder spacing, so only 1 is accepted; "
        "another spacing d0 gives d0 times the run at 1",
    ),
    "config.output.formats": (
        lambda value: isinstance(value, list) and all(fmt == "csv" for fmt in value),
        'the formats are retired; occupations.csv holds the table, so only ["csv"] is accepted',
    ),
    "config.output.binary_dumps": (
        lambda value: value is False,
        "the .npy dumps are retired; numpy.save on h.entries, decomp.energies or decomp.vectors "
        '(V up to each column\'s sign) (README "Library use") replaces them, so only false is accepted',
    ),
}
_UNKNOWN = (lambda value: False, 'unknown key; README "Config file" lists the keys')
# The values a leaf may take, by the type of its default: a float leaf also
# takes an integer, a leaf whose default is null (the grid's ends) a number.
_ACCEPTED = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    type(None): ((int, float, type(None)), "a number or null"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run config: its merged document (see README for the fields) and model."""

    document: dict
    model: ModelParams

    @property
    def outdir(self) -> str:
        return self.document["output"]["directory"]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.document)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a (possibly partial) parsed JSON document and build its config."""
    doc = _merge(DEFAULTS, data, "config")
    if doc["config_version"] != DEFAULTS["config_version"]:
        raise ParameterError(f"unsupported config_version {doc['config_version']}")
    model = ModelParams(**doc["model"])
    grid = doc["grid"]
    if grid["kind"] not in ("auto", "log", "linear"):
        raise ParameterError(f"grid kind must be auto|log|linear, got {grid['kind']!r}")
    ends = [grid["start"], grid["stop"]]
    if grid["kind"] == "auto" and ends != [None, None]:
        raise ParameterError(f"grid kind 'auto' sets its own start and stop; got {ends}, not null")
    if grid["kind"] != "auto":
        if None in ends or not all(map(math.isfinite, ends)):
            raise ParameterError(
                f"grid kind {grid['kind']!r} requires finite start and stop, got {ends}"
            )
        if grid["kind"] == "log" and min(ends) <= 0:
            raise ParameterError("log grid requires start > 0 and stop > 0")
        if grid["kind"] == "linear" and min(ends) < 0:
            raise ParameterError("linear grid requires start >= 0 and stop >= 0")
    if grid["points"] < 0:
        raise ParameterError(f"grid points must be a non-negative integer, got {grid['points']!r}")
    _check_size(model, grid["points"])
    bitmask = _initial_bitmask(doc["initial_state"], model.n, model.m)
    # One spelling per initial state, so one experiment has one config hash.
    doc["initial_state"] = "mid-spectrum" if bitmask is None else bitmask
    return ExperimentConfig(document=doc, model=model)


def sweep_configs(base: dict, etas) -> tuple[Path, list[ExperimentConfig]]:
    """A sweep's root, the base's output directory or runs/sweep, and per eta the base with
    that eta in ``root/eta=<repr(eta)>``, validated, the base first, before any run."""
    outdir = config_from_dict(base).outdir   # first, so that every block below is an object
    model, output = base.get("model", {}), base.get("output", {})
    root = Path(outdir if "directory" in output else "runs/sweep")
    return root, [config_from_dict({**base, "model": {**model, "eta": eta},
                                    "output": {**output, "directory": str(root / f"eta={eta!r}")}})
                  for eta in etas]


def _merge(default, value, where: str):
    """``value`` merged into ``default``: blocks key by key, a leaf checked against its default.

    A key that ``default`` lacks is dropped if ``RETIRED`` names it and its
    value is a no-op, and refused otherwise.  ``initial_state`` is a rule or
    a bitmask, checked by ``_initial_bitmask``.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ParameterError(f"{where} must be a JSON object, got {value!r}")
        for key in value:
            no_op, why = RETIRED.get(f"{where}.{key}", _UNKNOWN)
            if key not in default and not no_op(value[key]):
                raise ParameterError(f"{where}.{key} {value[key]!r}: {why}")
        return {
            key: _merge(sub, value[key], f"{where}.{key}") if key in value else copy.deepcopy(sub)
            for key, sub in default.items()
        }
    if where == "config.initial_state":
        return value
    types, name = _ACCEPTED[type(default)]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ParameterError(f"{where} must be {name}, got {value!r}")
    return float(value) if isinstance(default, float) else value


def config_hash(doc: dict) -> str:
    """Hash of a config document's physics-defining fields; output routing is excluded,
    so the same experiment written to two directories carries one hash."""
    physics = {key: value for key, value in doc.items() if key != "output"}
    canonical = json.dumps(physics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _check_size(model: ModelParams, points: int) -> None:
    """Refuse a model too small for a run's spectral windows or too large for memory.

    A run needs ``MIN_WINDOW_LEVELS`` basis states for the mid-spectrum
    spacing and, when eta > 0, as many class-1 states, n (m - n) +
    C(n, 2) C(m - n, 2), for the golden-rule density.  Its dense H and
    eigendecomposition (``DENSE_COPIES``) and its trajectory (``POINT_BYTES``)
    must fit in physical memory.
    """
    n, m = model.n, model.m
    states = math.comb(m, n)
    class1 = n * (m - n) + math.comb(n, 2) * math.comb(m - n, 2)
    if states < MIN_WINDOW_LEVELS:
        raise ParameterError(f"n={n}, m={m} has {states} basis states; the mid-spectrum "
                             f"spacing needs at least {MIN_WINDOW_LEVELS}")
    if model.eta > 0 and class1 < MIN_WINDOW_LEVELS:
        raise ParameterError(f"n={n}, m={m} couples {class1} class-1 states; the golden-rule "
                             f"density needs at least {MIN_WINDOW_LEVELS} when eta > 0")
    need = states**2 * 8 * DENSE_COPIES + states * points * POINT_BYTES
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):   # not reported on this platform
        return
    if 0 < physical < need:
        raise ParameterError(
            f"n={n}, m={m} has {states} basis states; the dense Hamiltonian, "
            f"its eigendecomposition and {points} grid points need ~{need / 1e9:.3g} GB, "
            f"more than the {physical / 1e9:.3g} GB of physical memory"
        )


def _initial_bitmask(rule, n: int, m: int) -> int | None:
    """The bitmask an initial-state rule names, None for "mid-spectrum"; ParameterError if
    it is not a state of n particles in m orbitals."""
    if isinstance(rule, str) and rule.strip().lower() == "mid-spectrum":
        return None
    if isinstance(rule, bool) or not isinstance(rule, (int, str)):
        raise ParameterError(f"initial-state rule {rule!r} must be an integer bitmask or a string")
    try:
        bitmask = int(rule, 0) if isinstance(rule, str) else rule
    except ValueError as exc:
        raise ParameterError(f"initial-state rule {rule!r} not understood") from exc
    if bitmask.bit_count() != n:
        raise ParameterError(
            f"bitmask {bitmask:#x} has {bitmask.bit_count()} particles, expected {n}"
        )
    if bitmask < 0 or bitmask >> m:
        raise ParameterError(f"bitmask {bitmask:#x} uses orbitals beyond m={m}")
    return bitmask
