"""One benchmark process; run.py starts it and reads the JSON report it writes.

Roles:
  op     one fig2 op: ``tbrisim reproduce-fig2`` through ``tbrisim.cli.main``
  run    a warm workload: set-up, warm-up, then timed ops for ``--seconds``
  setup  the same set-up and warm-up, then exit (extra ``setup_s`` samples)

The report's ``ready`` is the ``time.monotonic()`` reading at which the first
timed op could start; run.py subtracts its own reading taken before the spawn.
Every report carries the library facts (``environment``) and the durations
of the calibration kernel (``calibration``).  The kernel is timed right after
each op and after set-up; ``kernel`` (fig2 op, set-up) and each op record's
``kernel`` are the median of that batch, so run.py can tell how fast the host
ran at that moment.
"""

import time

_import_start = time.perf_counter()
import tbrisim.cli  # noqa: E402  (the import is what cli.import.s times)

_import_end = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


# Kernel time taken after each op or set-up, as a share of the time it took.
CALIBRATION_SHARE = 0.1


class Calibration:
    """A fixed kernel whose durations measure how fast the host runs right now.

    It mixes the kinds of work tbrisim does (interpreted Python, a LAPACK
    ``eigh``, a complex matrix product) on inputs that never change, and it
    calls nothing from tbrisim, so a change to the package cannot change its
    time; only the host's speed can.
    """

    def __init__(self):
        rng = np.random.default_rng(20011)
        sym = rng.standard_normal((200, 200))
        self._sym = sym + sym.T
        self._vectors = np.exp(1j * rng.standard_normal((400, 400)))
        self._phases = np.exp(1j * rng.standard_normal((400, 64)))
        self.samples: list[float] = []

    def _kernel(self) -> int:
        total = 0
        for i in range(40_000):
            total += i * i % 7
        np.linalg.eigh(self._sym)
        np.abs(self._vectors @ self._phases) ** 2
        return total

    def after(self, busy_s: float) -> float:
        """Time the kernel for ``CALIBRATION_SHARE`` of ``busy_s``, at least once.

        Returns the batch's median kernel time.  Callers keep the time spent
        here out of their op times.
        """
        begin = time.perf_counter()
        batch = []
        while True:
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            batch.append(end - start)
            if end - begin >= CALIBRATION_SHARE * busy_s:
                self.samples += batch
                return statistics.median(batch)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _tracer(op: int):
    import tracing

    tracer = tracing.Tracer()
    tracer.op = op
    tracer.record("cli.import", _import_start, _import_end)
    tracer.install()
    return tracer


def fig2_op(args) -> dict:
    """One fig2 op; ``untimed_s`` is the time after the op that run.py must not count."""
    tracer = _tracer(args.op) if args.trace else None
    ready = time.monotonic()
    code = tbrisim.cli.main(["reproduce-fig2", "--seed", str(args.op_seed), "--out", args.out])
    done = time.perf_counter()
    if tracer:
        tracer.settle()
    calibration = Calibration()
    kernel = calibration.after(done - _import_start)
    report = {
        "ready": ready,
        "exit_code": code,
        "peak_rss_mb": _peak_rss_mb(),
        "spans": tracer.spans if tracer else [],
        "calibration": calibration.samples,
        "kernel": kernel,
        "environment": environment(),
    }
    report["untimed_s"] = time.perf_counter() - done
    return report


def warm_run(args) -> dict:
    import workloads

    tracer = _tracer(0) if args.trace else None
    tmp = Path(args.tmp)
    state = workloads.WARM[args.workload](args.seed, tmp)
    if tracer:
        tracer.settle()
        tracer.enabled = False  # the warm-up's small config would not describe the workload
    workloads.warm_up(tmp)
    ready = time.monotonic()
    calibration = Calibration()
    kernel = calibration.after(time.perf_counter() - _import_start)
    report = {"ready": ready, "kernel": kernel, "ops": [], "spans": [], "environment": environment()}
    if args.role == "run":
        report["ops"] = closed_loop(state, args.seconds, tracer, calibration)
        report["peak_rss_mb"] = _peak_rss_mb()
        report["spans"] = tracer.spans if tracer else []
    report["calibration"] = calibration.samples
    return report


def closed_loop(state, seconds: float, tracer=None, calibration=None) -> list[dict]:
    """Timed ops, one client, for ``seconds``; returns one record per op.

    Every op is checked after its timing ends and counts as failed when it
    raises or a check finds a problem.  At least two ops run, so that a traced
    run has a traced and an untraced op (odd ops are traced).  A record holds
    the op's time ``s``, its ``cycle_s`` (op and check, the op's share of the
    timed phase) and the calibration kernel's median time right after it.
    """
    ops = []
    begin = time.perf_counter()
    k = 0
    while len(ops) < 2 or time.perf_counter() - begin < seconds:
        k += 1
        traced = tracer is not None and k % 2 == 1
        if tracer:
            tracer.op, tracer.enabled = k, traced
        start = time.perf_counter()
        try:
            result = state.op(k)
            error = None
        except Exception:  # a failed op is counted, not fatal
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.enabled = False
            tracer.settle()
        problems = [error] if error else state.check(result)
        cycle = time.perf_counter() - start
        for problem in problems:
            print(f"op {k} failed: {problem}", file=sys.stderr)
        kernel = calibration.after(elapsed) if calibration else None
        ops.append({"s": elapsed, "cycle_s": cycle, "kernel": kernel, "ok": not problems,
                    "traced": traced})
    return ops


def environment() -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=["op", "run", "setup"])
    parser.add_argument("--report", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp")
    parser.add_argument("--op", type=int)
    parser.add_argument("--op-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    report = fig2_op(args) if args.role == "op" else warm_run(args)
    with open(args.report, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
