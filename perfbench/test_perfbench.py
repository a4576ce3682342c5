"""Tests of the benchmark itself: failed checks are counted, spans nest, phases."""

import hashlib
import json

import pytest

import tracing
import worker
import workloads
from tbrisim import cli


def _small_run(outdir):
    config = {"model": workloads.WARM_UP_MODEL, "output": {"directory": str(outdir)}}
    cli.run(cli.config_from_dict(config))


def _flip_byte(outdir):
    path = outdir / "occupations.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


def _rescale_weights(outdir):
    """Wrong strength.csv with a manifest hash that matches it."""
    path = outdir / "strength.csv"
    lines = path.read_text().splitlines()
    row = max((line for line in lines if line[0].isdigit()), key=lambda line: float(line.split(",")[2]))
    k, energy, weight = row.split(",")
    path.write_text("\n".join(lines).replace(row, f"{k},{energy},{2 * float(weight)!r}") + "\n")
    manifest_path = outdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"]["strength.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


class SmallRuns(workloads.Large):
    """``Large`` on the small warm-up config; op 2 corrupts its output."""

    n, m = workloads.WARM_UP_MODEL["n"], workloads.WARM_UP_MODEL["m"]

    def __init__(self, tmp, corrupt):
        super().__init__(seed=1, tmp=tmp)
        self.corrupt = corrupt

    def op(self, k):
        outdir = self.tmp / f"op-{k}"
        _small_run(outdir)
        if k == 2:
            self.corrupt(outdir)
        return outdir


@pytest.mark.parametrize("corrupt", [_flip_byte, _rescale_weights])
def test_corrupted_output_counts_as_failed(tmp_path, corrupt):
    ops = worker.closed_loop(SmallRuns(tmp_path, corrupt), seconds=0)
    assert [op["ok"] for op in ops] == [True, False]
    assert not any(tmp_path.iterdir()), "op outputs are deleted after their checks"


def test_nested_calls_are_traced(tmp_path):
    tracer = tracing.Tracer()
    replaced = tracer.install()
    try:
        tracer.op = 1
        _small_run(tmp_path / "run")
        tracer.settle()
    finally:
        for module, attr, original in replaced:
            setattr(module, attr, original)
    table = tracing.per_op(tracer.spans)[1]
    assert table["strength.fit_hybrid"]["calls"] == 2  # one call is nested in spreading_params
    assert table["hamiltonian.build_hamiltonian"]["nnz"] == workloads.expected_nnz(4, 8)
    run = table["cli.run"]
    assert 0 < run["self_s"] < run["s"]


def test_counts_and_probe_stay_out_of_op_spans(tmp_path):
    tracer = tracing.Tracer()
    replaced = tracer.install()
    try:
        tracer.op = 1
        _small_run(tmp_path / "run")
        run_end = max(span[2] for span in tracer.spans)
        assert all(span[5] is None for span in tracer.spans), "counts wait for settle"
        tracer.settle()
    finally:
        for module, attr, original in replaced:
            setattr(module, attr, original)
    probe = tracer.spans[-1]
    assert probe[0] == tracing.EIGH_REF and probe[3] is None and probe[1] >= run_end


def test_spans_outside_ops_and_set_up_are_absent():
    spans = [
        ["basis.build_basis", 0.0, 1.0, None, 0, None],
        ["cli.run", 1.0, 2.0, None, -1, None],
        ["basis.classify", 2.0, 2.5, None, 1, None],
        ["basis.classify", 3.0, 3.7, None, 2, None],
    ]
    metrics = tracing.layer_metrics(spans, ["basis.build_basis.s", "cli.run.s", "basis.classify.s"])
    assert metrics["basis.build_basis.s"] == (1.0, 1, "set-up")
    assert metrics["cli.run.s"] == (0, 0, "absent")
    assert metrics["basis.classify.s"][1:] == (2, "ops")
