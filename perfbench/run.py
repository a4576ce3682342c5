"""tbrisim benchmark: run one workload, check every op, print its metrics.

    python3 perfbench/run.py --workload {fig2,ensemble,quench,large,all} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports the package from ``src/``.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of a traced run.  Human-readable lines
come first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results (every
sample, environment facts, spans of a traced run) go to ``perfbench/out/``.
See perfbench/README.md for the workloads and what each metric means.

End-to-end times are in reference seconds: each wall reading is divided by
how much slower than ``CALIBRATION_REF_S`` a fixed kernel (worker.Calibration)
ran right after it, so that the host's drifting speed cancels out.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("fig2", "ensemble", "quench", "large")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0   # one workload's run must exit within 180 s
# One BLAS thread: on a shared 2-vCPU machine a 2-thread OpenBLAS eigh at
# N=3432 varied 4.4-6.3 s between calls, a 1-thread one 7.5-8.0 s.
BLAS_THREADS = "1"
# Median time of worker.Calibration's kernel on the reference machine (see
# README.md) when it ran at its usual speed; one reference second is one
# wall second on that machine at that speed.
CALIBRATION_REF_S = 0.0116


class BenchError(Exception):
    """A run that cannot produce a result."""


def worker_env() -> dict:
    """Fixed environment for every worker, independent of the caller's shell."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        "LC_ALL": "C",
    }


def spawn(role: str, report: Path, deadline: float, *args) -> tuple[dict | None, int, float]:
    """Run one worker; return its report (None if it wrote none), exit code and spawn time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next worker could start")
    command = [sys.executable, str(WORKER), role, "--report", str(report), *map(str, args)]
    spawned = time.monotonic()
    proc = subprocess.Popen(command, env=worker_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    # A blocking wait sees the exit at once; Popen.wait(timeout) polls every 50 ms.
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    try:
        proc.wait()
    finally:
        watchdog.cancel()
    if timed_out.is_set():
        raise BenchError(f"worker {role} did not finish within {timeout:.0f} s")
    try:
        data = json.loads(report.read_text())
        report.unlink()
    except (OSError, ValueError):
        data = None
    return data, proc.returncode, spawned


def spawn_ok(role: str, report: Path, deadline: float, *args) -> tuple[dict, float]:
    """``spawn`` for workers whose failure leaves the run without a result."""
    data, code, spawned = spawn(role, report, deadline, *args)
    if data is None or code != 0:
        raise BenchError(f"worker {role} exited {code}" + ("" if data else " without a report"))
    return data, spawned


def environment(report: dict) -> dict:
    """Machine facts from here, library facts from a worker's report."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **report["environment"]}


def run_fig2(seed: int, seconds: float, trace: bool, tmp: Path, deadline: float) -> dict:
    """Closed loop of fresh ``reproduce-fig2`` processes; checks run here."""
    import workloads

    fig2 = workloads.Fig2(seed)
    ops, setups, setup_kernels, rss, spans, calibration = [], [], [], [], [], []
    env = None
    begin = time.perf_counter()
    k = 0
    while len(ops) < 2 or time.perf_counter() - begin < seconds:
        k += 1
        traced = trace and k % 2 == 1
        outdir = tmp / f"op-{k}"
        start = time.perf_counter()
        report, code, spawned = spawn("op", tmp / f"op-{k}.json", deadline, "--op", k,
                                      "--op-seed", fig2.next_seed(), "--out", outdir.relative_to(ROOT),
                                      "--trace", int(traced))
        elapsed = time.perf_counter() - start
        if report is None:
            report = {"exit_code": code, "kernel": None, "untimed_s": 0.0, "spans": []}
        else:
            elapsed -= report["untimed_s"]
            setups.append(report["ready"] - spawned)
            setup_kernels.append(report["kernel"])
            rss.append(report["peak_rss_mb"])
            calibration += report["calibration"]
            env = env or environment(report)
        problems = [f"exit code {code}/{report['exit_code']}"] if code or report["exit_code"] else []
        problems += fig2.check(outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        cycle = time.perf_counter() - start - report["untimed_s"]
        for problem in problems:
            print(f"op {k} failed: {problem}", file=sys.stderr)
        ops.append({"s": elapsed, "cycle_s": cycle, "kernel": report["kernel"], "ok": not problems,
                    "traced": traced})
        offset = len(spans)
        spans += [[*span[:3], None if span[3] is None else span[3] + offset, *span[4:]]
                  for span in report["spans"]]
    if not setups:
        raise BenchError("no fig2 process reported back")
    return {"ops": ops, "setup_s": setups, "setup_kernel": setup_kernels, "peak_rss_mb": rss,
            "spans": spans, "calibration": calibration, "environment": env}


def run_warm(workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
             deadline: float) -> dict:
    """One worker runs the timed ops; extra set-up-only workers add setup_s samples."""
    args = ("--workload", workload, "--seed", seed, "--tmp", tmp.relative_to(ROOT))
    report, spawned = spawn_ok("run", tmp / "run.json", deadline, *args, "--seconds", seconds,
                               "--trace", int(trace))
    setups, setup_kernels = [report["ready"] - spawned], [report["kernel"]]
    calibration = report["calibration"]
    for n in range(1, 1 if trace else SETUP_SAMPLES):
        extra, spawned = spawn_ok("setup", tmp / f"setup-{n}.json", deadline, *args)
        setups.append(extra["ready"] - spawned)
        setup_kernels.append(extra["kernel"])
        calibration += extra["calibration"]
    return {"ops": report["ops"], "setup_s": setups, "setup_kernel": setup_kernels,
            "peak_rss_mb": [report["peak_rss_mb"]], "spans": report["spans"],
            "calibration": calibration, "environment": environment(report)}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples above it, never below the median."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < (len(ordered) - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * k / (len(ordered) - 1)


def end_to_end(raw: dict) -> dict:
    """{name: (value, unit, samples, note)} for the untraced run.

    Times are in reference seconds: each wall reading times ``CALIBRATION_REF_S``
    over the calibration kernel's time measured right after it (the run's
    median kernel time for an op whose process reported nothing).
    """
    kernel = statistics.median(raw["calibration"])
    ops = raw["ops"]
    scale = [CALIBRATION_REF_S / (op["kernel"] or kernel) for op in ops]
    times = [op["s"] * f for op, f in zip(ops, scale)]
    timed_phase = sum(op["cycle_s"] * f for op, f in zip(ops, scale))
    wall_phase = sum(op["cycle_s"] for op in ops)
    setups = [s * CALIBRATION_REF_S / k for s, k in zip(raw["setup_s"], raw["setup_kernel"])]
    wall_setup, wall_op = statistics.median(raw["setup_s"]), statistics.median(op["s"] for op in ops)
    done = sum(op["ok"] for op in ops)
    tail_s, pct = tail(times)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups), f"median; wall {wall_setup:.4g} s"),
        "op_s": (statistics.median(times), "s", len(times), f"median; wall {wall_op:.4g} s"),
        "op_tail_s": (tail_s, "s", len(times), f"p{pct:.1f}"),
        "ops_per_s": (done / timed_phase, "1/s", done,
                      f"over {timed_phase:.3f} s; wall {done / wall_phase:.4g}/s over {wall_phase:.3f} s"),
        "peak_rss_mb": (max(raw["peak_rss_mb"]), "MB", len(raw["peak_rss_mb"]), "max"),
        "calibration_s": (kernel, "s", len(raw["calibration"]),
                          f"median; the host ran at {CALIBRATION_REF_S / kernel:.3f}x reference speed"),
    }


def per_layer(raw: dict) -> dict:
    """{name: (value, unit, samples, note)} for the traced run, in wall seconds."""
    import tracing

    units = tracing.METRICS
    layers = [name for name in units if name != tracing.OVERHEAD]
    metrics = {name: (value, units[name], samples, phase) for name, (value, samples, phase)
               in tracing.layer_metrics(raw["spans"], layers).items()}
    traced, untraced = ([op["s"] for op in raw["ops"] if op["traced"] == kind] for kind in (True, False))
    on, off = statistics.median(traced), statistics.median(untraced)
    metrics[tracing.OVERHEAD] = (on - off, units[tracing.OVERHEAD], len(raw["ops"]),
                                 f"traced {on:.6g} s (n={len(traced)}) - untraced {off:.6g} s (n={len(untraced)})")
    return metrics


def declared(spec: dict, trace: bool) -> list[str]:
    """Metric names the final JSON line carries: BENCHMARK.json's list for the mode."""
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    # Workers run in ROOT and get paths relative to it, so the exported files
    # (and cli.bytes_written) do not depend on where the checkout lives.
    tmp = OUT / f"tmp-{workload}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if workload == "fig2":
            raw = run_fig2(seed, seconds, trace, tmp, deadline)
        else:
            raw = run_warm(workload, seed, seconds, trace, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = len(raw["ops"])
    failed = sum(not op["ok"] for op in raw["ops"])
    metrics = per_layer(raw) if trace else end_to_end(raw)
    missing = set(declared(spec, trace)) - set(metrics)
    if missing:
        raise BenchError(f"BENCHMARK.json metrics {sorted(missing)} were not measured")
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": raw["environment"], "attempted": attempted, "failed": failed,
              "metrics": {k: dict(zip(("value", "unit", "samples", "note"), v))
                          for k, v in metrics.items()},
              "ops": raw["ops"], "setup_s": raw["setup_s"], "setup_kernel": raw["setup_kernel"],
              "calibration": raw["calibration"]}
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(raw["spans"]) + "\n")
    return result


def print_result(result: dict, gated: list[str]) -> None:
    env = result["environment"]
    print(f"# env nproc={env['nproc']} cpu={env['cpu']!r} blas={env['blas']!r} "
          f"blas_threads={env['blas_threads']} numpy={env['numpy']} scipy={env['scipy']} "
          f"python={env['python']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"# workload={result['workload']} seed={result['seed']} seconds={result['seconds']:g} "
          f"trace={int(result['trace'])}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>14.8g} {m['unit']:6s} n={m['samples']:<5d} {m['note']}"
              + ("" if name in gated else " (not in BENCHMARK.json)"))
    print(f"{'fail_frac':36s} {fail_frac:>14.6g} {'1':6s} n={result['attempted']:<5d} "
          f"{result['failed']} of {result['attempted']} ops failed (carried as failed/attempted)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tbrisim" / "cli.py").is_file():
        print(f"no tbrisim sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    results = []
    try:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            results.append(run_workload(workload, args.seed, args.seconds, bool(args.trace), spec))
            print_result(results[-1], declared(spec, bool(args.trace)))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + name:
               {"value": r["metrics"][name]["value"], "unit": r["metrics"][name]["unit"]}
               for r in results for name in declared(spec, bool(args.trace))}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
