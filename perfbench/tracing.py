"""Span tracer that times tbrisim's public functions from outside the package.

``Tracer.install`` replaces each function named in ``TRACED`` with a wrapper
at every name a ``tbrisim`` module binds it to, so a call is caught wherever
its caller looks the function up (``cli`` calls ``build_hamiltonian`` by its
imported name, ``spreading_params`` calls ``fit_hybrid`` as a module global).
Spans stay in memory; the benchmark writes them out when the run ends.

A span is ``[name, start, end, parent, op, extra]``: ``start``/``end`` are
``time.perf_counter`` readings, ``parent`` is the index of the enclosing span
in the same list (or None), ``op`` the op id (0 set-up, 1.. timed ops) and
``extra`` a dict of exact counts, computed when the op has ended.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from pathlib import Path

import numpy as np

TRACED = {
    "basis": ("build_basis", "classify", "occupancy_matrix"),
    "hamiltonian": ("sample_two_body", "build_hamiltonian"),
    "spectral": ("diagonalize", "spectral_stats"),
    "strength": (
        "strength_function", "energy_variance", "golden_rule_gamma",
        "fit_bw", "fit_hybrid", "spreading_params", "write_profile_csv",
    ),
    "dynamics": (
        "simulate_trajectory", "evolve_amplitudes", "survival_probability",
        "average_survival", "asymptotic_occupations", "write_trajectory_csv",
    ),
    "theory": (
        "predict_occupations", "prediction_error", "survival_models",
        "fit_fermi_dirac", "write_prediction_csv",
    ),
    "cli": ("run", "emit_plotdata"),
}

# Count metrics: metric name -> (span name, key in the span's extra dict).
COUNTS = {
    "hamiltonian.nnz": ("hamiltonian.build_hamiltonian", "nnz"),
    "spectral.matrix_mb": ("spectral.diagonalize", "matrix_mb"),
    "dynamics.grid_points": ("dynamics.simulate_trajectory", "grid_points"),
    "cli.bytes_written": ("cli.run", "bytes_written"),
}
RATES = {"hamiltonian.elements_per_s": ("hamiltonian.build_hamiltonian", "nnz")}
EIGH_REF = "spectral.eigh_ref"
OVERHEAD = "trace.overhead_s"

# Every per-layer metric a traced run reports, with its unit.  The final JSON
# line carries the ones BENCHMARK.json lists; the others are printed above it.
METRICS = {
    "basis.build_basis.s": "s", "basis.classify.s": "s", "basis.occupancy_matrix.s": "s",
    "basis.occupancy_matrix.calls": "count",
    "hamiltonian.sample_two_body.s": "s", "hamiltonian.build_hamiltonian.s": "s",
    "hamiltonian.nnz": "count", "hamiltonian.elements_per_s": "1/s",
    "spectral.diagonalize.s": "s", "spectral.eigh_ref.s": "s", "spectral.spectral_stats.s": "s",
    "spectral.matrix_mb": "MB",
    "strength.strength_function.s": "s", "strength.strength_function.calls": "count",
    "strength.energy_variance.s": "s", "strength.energy_variance.calls": "count",
    "strength.golden_rule_gamma.s": "s", "strength.golden_rule_gamma.calls": "count",
    "strength.fit_bw.s": "s", "strength.fit_bw.calls": "count", "strength.fit_hybrid.s": "s",
    "strength.fit_hybrid.calls": "count", "strength.spreading_params.self_s": "s",
    "strength.write_profile_csv.s": "s",
    "dynamics.simulate_trajectory.s": "s", "dynamics.simulate_trajectory.self_s": "s",
    "dynamics.evolve_amplitudes.s": "s", "dynamics.survival_probability.s": "s",
    "dynamics.survival_probability.calls": "count", "dynamics.average_survival.s": "s",
    "dynamics.asymptotic_occupations.s": "s", "dynamics.write_trajectory_csv.s": "s",
    "dynamics.grid_points": "count",
    "theory.predict_occupations.s": "s", "theory.prediction_error.s": "s",
    "theory.survival_models.s": "s", "theory.fit_fermi_dirac.s": "s",
    "theory.write_prediction_csv.s": "s",
    "cli.import.s": "s", "cli.run.s": "s", "cli.run.self_s": "s", "cli.emit_plotdata.s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


def _extras(name, args, result):
    """Exact counts recorded beside a span; ``Tracer.settle`` computes them."""
    if name == "hamiltonian.build_hamiltonian":
        return {"nnz": int(np.count_nonzero(result.entries))}
    if name == "spectral.diagonalize":
        return {"matrix_mb": 8 * result.size**2 / 1e6}
    if name == "dynamics.simulate_trajectory":
        return {"grid_points": len(result.grid)}
    if name == "cli.run":
        files = Path(args[0].outdir).iterdir()
        return {"bytes_written": sum(p.stat().st_size for p in files if p.is_file())}
    return None


class Tracer:
    """Collects spans for the ops it is enabled for; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.enabled = True
        self._stack: list[int] = []
        self._pending: list[tuple] = []

    def record(self, name, start, end, extra=None):
        """Add a finished span under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.op, extra])

    def install(self) -> list[tuple]:
        """Wrap every function in ``TRACED`` at each binding inside tbrisim.

        Returns the replaced bindings as (module, attribute, original).
        """
        wrappers = {}
        for module_name, names in TRACED.items():
            module = sys.modules[f"tbrisim.{module_name}"]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(f"{module_name}.{name}", original))
        replaced = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "tbrisim" and not module_name.startswith("tbrisim."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    replaced.append((module, attr, value))
        return replaced

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.record(name, 0.0, 0.0)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            self._pending.append((index, name, args, result))
            return result

        return traced

    def settle(self) -> None:
        """Finish the spans of the op that just ended; call it after the op's timing.

        Computes each span's exact counts, then times bare ``numpy.linalg.eigh``
        on the op's last diagonalized matrix (the ``spectral.eigh_ref`` span).
        Neither adds to any span of the op.
        """
        pending, self._pending = self._pending, []
        matrix = None
        for index, name, args, result in pending:
            self.spans[index][5] = _extras(name, args, result)
            if name == "spectral.diagonalize":
                h = args[0]
                matrix = h.entries if hasattr(h, "entries") else np.asarray(h, dtype=float)
        if matrix is not None:
            start = time.perf_counter()
            np.linalg.eigh(matrix)
            self.record(EIGH_REF, start, time.perf_counter())


def per_op(spans):
    """{op: {span name: {"s", "self_s", "calls", extras...}}} summed within each op."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, op, extra in spans:
        if parent is not None:
            covered[parent] += end - start
    table: dict = {}
    for index, (name, start, end, parent, op, extra) in enumerate(spans):
        row = table.setdefault(op, {}).setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += end - start
        row["self_s"] += end - start - covered[index]
        row["calls"] += 1
        for key, value in (extra or {}).items():
            row.setdefault(key, value)
    return table


def _phase(table, span):
    """Rows of ``span`` from the timed ops, else from set-up (op 0), else none."""
    rows = [names[span] for op, names in sorted(table.items()) if op > 0 and span in names]
    if rows:
        return rows, "ops"
    if span in table.get(0, {}):
        return [table[0][span]], "set-up"
    return [], "absent"


def layer_metrics(spans, names):
    """Per-layer metrics by name: {name: (value, samples, phase)}.

    ``.s``/``.self_s``/``.calls`` are medians per op of the summed span time,
    self time or call count; counts are the first op's value (they repeat
    exactly for a given seed); a metric whose span ran in neither the timed
    ops nor set-up reads 0.
    """
    table = per_op(spans)
    out = {}
    for name in names:
        if name in COUNTS or name in RATES:
            span, key = COUNTS.get(name) or RATES[name]
            rows, phase = _phase(table, span)
            if not rows:
                out[name] = (0, 0, phase)
            elif name in COUNTS:
                out[name] = (rows[0][key], len(rows), phase)
            else:
                out[name] = (statistics.median(r[key] / r["s"] for r in rows), len(rows), phase)
            continue
        span, _, kind = name.rpartition(".")
        if kind not in ("s", "self_s", "calls"):
            raise ValueError(f"no rule for per-layer metric {name!r}")
        rows, phase = _phase(table, span)
        middle = statistics.median_low if kind == "calls" else statistics.median
        value = middle([r[kind] for r in rows]) if rows else 0
        out[name] = (value, len(rows), phase)
    return out
