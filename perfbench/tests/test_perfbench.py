"""Tests of the benchmark itself, on tiny grids (``--smoke``).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import numpy as np
import pytest

import measure
import tracer as tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(ROOT, ".perfbench_out", f"test-{request.node.name}")
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, trace, seed=7, seconds="0.3"):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_its_unit(workload):
    lines = _run(workload, trace=0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert any(line.split()[:1] == [name] and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), name


def test_smoke_traced_run_prints_every_per_layer_metric():
    result = json.loads(_run("forward", trace=1)[-1])
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"]


def _corrupt_closed_form(monkeypatch):
    original = workloads.closed_form
    monkeypatch.setattr(workloads, "closed_form", lambda x, s: 1.1 * original(x, s))


def _corrupt_control_reference(monkeypatch):
    original = workloads.control_reference

    def shifted(matrix, h):
        ref = original(matrix, h)
        return workloads.ControlReference(ref.lam_max, ref.lam_min, ref.f_star,
                                          ref.J_star * 1.05)

    monkeypatch.setattr(workloads, "control_reference", shifted)


@pytest.mark.parametrize("workload, corrupt", [
    ("forward", _corrupt_closed_form),
    ("control", _corrupt_control_reference),
])
def test_corrupted_reference_makes_ops_fail(workload, corrupt, monkeypatch, workdir):
    clean = measure.timed_pass(workload, 1, 0.01, os.path.join(workdir, "clean"), "smoke")
    assert all(r.ok for r in clean)
    corrupt(monkeypatch)
    records = measure.timed_pass(workload, 1, 0.01, os.path.join(workdir, "bad"), "smoke")
    assert records and not any(r.ok for r in records)
    summary = measure.summarize(records)
    assert summary["fail_ratio"] == 1.0
    assert all(r.error.startswith("check failed") for r in records)


def test_changed_sweep_output_between_repeats_fails(monkeypatch, workdir):
    repeats = iter(range(1, 1000))
    original = workloads.Op.output_bytes

    def drifting(self):
        data = original(self)
        return data + bytes([next(repeats)]) if data else data

    monkeypatch.setattr(workloads.Op, "output_bytes", drifting)
    records = measure.timed_pass("control", 1, 1.0, workdir, "smoke")
    sweeps = [r for r in records if r.label.startswith("sweep")]
    assert len(sweeps) >= 2
    assert sweeps[0].ok and not any(r.ok for r in sweeps[1:])
    assert all(r.ok for r in records if not r.label.startswith("sweep"))


def _layer_counts(lines):
    metrics = json.loads(lines[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k == "linalg.eig.iters"}


def test_layer_counts_repeat_exactly_and_sweep_counts_match_the_profile():
    first = _layer_counts(_run("control", trace=1, seed=3))
    with open(os.path.join(ROOT, ".perfbench_out", "trace-control-seed3.jsonl")) as handle:
        spans = [json.loads(line) for line in handle if '"note"' not in line]
    second = _layer_counts(_run("control", trace=1, seed=3))
    assert first == second
    assert first["linalg.eig.iters"] > 0 and first["linalg.solve.calls"] > 0

    # Under each run_sweep span: 32 factorizations and 32 eigen solves
    # over 11 distinct operators (10 orders plus the classical reference).
    parent = {sp["id"]: sp["parent"] for sp in spans}
    roots = {sp["id"] for sp in spans if sp["name"] == "limitlab.run_sweep"}
    assert roots
    counts = defaultdict(lambda: defaultdict(int))
    operators = defaultdict(set)
    for sp in spans:
        node = sp["parent"]
        while node is not None and node not in roots:
            node = parent.get(node)
        if node is not None:
            counts[node][sp["name"]] += 1
            if sp["name"] == "linalg.factor":
                operators[node].add(sp["attrs"]["op_key"])
    for root in roots:
        assert counts[root]["linalg.factor"] == 32
        assert counts[root]["linalg.eig"] == 32
        assert len(operators[root]) == 11


def test_missing_target_is_skipped_with_a_note(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("linalg.gone", "fraclap.linalg", "no_such_fn"),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.notes == ["skipped fraclap.linalg.no_such_fn: not found"]
    finally:
        tracer.uninstall()
    from fraclap import linalg
    assert not hasattr(linalg.cholesky_factor, "__wrapped__")


def test_closed_form_matches_the_unit_load_solution():
    # (-d^2/dx^2)^(1/2) sqrt(1 - x^2) = 1 on (-1, 1), so c_(1/2) = 1.
    x = np.linspace(-0.9, 0.9, 7)
    assert np.allclose(workloads.closed_form(x, 0.5), np.sqrt(1.0 - x**2), rtol=1e-14)
