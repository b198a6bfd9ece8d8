"""Self-tests of the benchmark harness (not of bfpo itself)."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent


@pytest.fixture(scope="module")
def harness():
    """run.py, workloads and tracer, loaded as run.py loads them.

    Loading run.py pins the BLAS thread count in ``os.environ`` and puts
    ``src/`` and ``perfbench/`` first on ``sys.path``; both are undone
    afterwards, so that no other test module sees them.
    """
    environ, path, modules = dict(os.environ), list(sys.path), set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        workloads = run.import_program()
        import tracer

        yield run, workloads, tracer
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
        for name in ("workloads", "tracer"):
            if name not in modules:
                sys.modules.pop(name, None)


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def traced_pass(harness, tmp_path_factory):
    """One population_alpha pass, each op untraced then traced, on seed 0."""
    run, workloads, tracer = harness
    before = {name: dict(vars(m)) for name, m in _modules(tracer).items()}
    workload = workloads.PopulationAlpha(0, tmp_path_factory.mktemp("population_alpha"))
    recorder = tracer.Tracer()
    affinity = os.sched_getaffinity(0)
    try:
        plain, traced = run.run_pass(workload, recorder)
    finally:
        os.sched_setaffinity(0, affinity)  # run_pass pins the process to one CPU
    return before, workload, recorder, plain, traced


def _modules(tracer) -> dict:
    return {m.__name__: m for m in tracer.bfpo_modules()}


def test_tracer_restores_every_wrapped_attribute(harness, traced_pass):
    before, _, recorder, _, traced = traced_pass
    assert len(recorder) > 0
    summary = recorder.summarize(0, traced.scale)
    assert summary.calls["datagen.generate_population"] == 3
    after = _modules(harness[2])
    assert set(after) == set(before)
    for name, attrs in before.items():
        for key, value in attrs.items():
            assert vars(after[name])[key] is value, f"{name}.{key} still wrapped"


def test_passes_agree_with_reference(harness, traced_pass):
    run, workloads, _ = harness
    _, workload, _, plain, traced = traced_pass
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    ops = workload.ops(traced=False)
    failed, problems = run.judge(
        [plain, traced], ops, reference["population_alpha"]["0"], workloads
    )
    assert (failed, problems) == (0, [])


def test_perturbed_reference_counts_op_as_failed(harness, traced_pass):
    run, workloads, _ = harness
    _, workload, _, plain, _ = traced_pass
    ops = workload.ops(traced=False)
    reference = {
        op.name: workloads.reference_view(c.fingerprint) for op, c in zip(ops, plain.checked)
    }
    assert run.judge([plain], ops, reference, workloads) == (0, [])
    reference[ops[1].name]["alpha_hat"] *= 1.0 + 1e-4
    failed, problems = run.judge([plain], ops, reference, workloads)
    assert failed == 1
    assert "alpha_hat" in problems[0]


def test_printed_names_match_benchmark_json(harness):
    workloads = harness[1]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", "population_alpha", "--seed", "0",
                      "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_frozen", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
