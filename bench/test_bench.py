"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every runnable workload, also one that BENCHMARK.json leaves out.
WORKLOADS = sorted(workloads.WORKLOADS)


def bench(capsys, workload, trace, seconds=0.3, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "MIN_OPS", 1)


def test_benchmark_names_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_with_its_unit(capsys, workload, trace):
    report, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    assert report["env"]["seed"] == 3 and report["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(capsys, workload):
    runs = [bench(capsys, workload, trace=1, seed=11) for _ in range(2)]
    counts = [
        {k: v["value"] for k, v in result["metrics"].items() if k.endswith((".calls", ".errors"))}
        for _, result in runs
    ]
    assert counts[0] == counts[1]
    assert [r["failed"] for _, r in runs][0] == [r["failed"] for _, r in runs][1]
    failures = [{k: v["count"] for k, v in report["failures"]["traced"].items()} for report, _ in runs]
    assert failures[0] == failures[1]


def test_pooled_check_flags_a_biased_mean():
    import biaslab

    sim = workloads.Simulate(biaslab, 1, None)
    long = ("long", "linear", 0.5, 0)
    assert sim.check_pooled([(long, sim.long_steps)] * 50) is None
    assert sim.check_pooled([(long, sim.long_steps * 1.05)] * 50) is not None


def test_absent_function_is_reported_not_raised(monkeypatch):
    import biaslab.design

    monkeypatch.delattr(biaslab.design, "verify_design")
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert "design.verify_design" in tracer.absent
    assert tracer.summary()["design.verify_design"] == {"calls": 0, "self_s": 0.0, "errors": 0}


def test_every_binding_is_wrapped():
    import biaslab.design
    import biaslab.geometry

    original = biaslab.design.solve_lp
    with tracing.Tracer() as tracer:
        assert biaslab.geometry.solve_lp is biaslab.design.solve_lp is not original
        inst = biaslab.make_instance(["G", "B"], ["a", "b"], [0.2, 0.8], [[1.0, -1.0], [0.0, 0.0]])
        biaslab.classify(inst, 0.5)
    assert biaslab.geometry.solve_lp is original
    summary = tracer.summary()
    assert summary["geometry.classify"]["calls"] == 1
    assert summary["design.solve_lp"]["calls"] == 1
    assert summary["design.build_lp"]["calls"] == 1


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
