"""The benchmark's own tests: smoke mode, schema, exact counts.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke runs use tiny overrides (``--n-real 4 --t-f 0.01``), so they
check the output schema and the tracing, not accuracy.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Counts a later change may rest a claim on: they must repeat exactly
# between two traced runs of the same seed.
EXACT_COUNTS = (
    "sim.normals.count",
    "sim.taylor15.real_steps",
    "sim.field.real_steps",
    "library.el_transform.cells",
    "regression.stls.iterations",
    "sim.io.bytes",
    "bench.write.bytes",
)


def bench(workload: str, trace: int, root: Path = ROOT,
          seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    for metric in SPEC["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = result_of(bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= len(workloads.WORKLOADS[workload])
    assert 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_smoke_runs_repeat_exact_counts(workload):
    first, second = (result_of(bench(workload, trace=1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    for name in EXACT_COUNTS:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("field", trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_child_spans():
    spans = [
        tracing.Span(0, "cli", 0.0, 10.0, None, None, "r"),
        tracing.Span(1, "bench.run", 1.0, 9.0, 0, "beam", "r"),
        tracing.Span(2, "sim.field", 2.0, 5.0, 1, "beam", "r"),
        tracing.Span(3, "bench.predict", 5.0, 8.0, 1, "beam", "r"),
        tracing.Span(4, "sim.field", 5.5, 7.5, 3, "beam", "r"),
    ]
    tree = tracing.SpanTree(spans)
    self_s = tree.self_by_name()
    assert self_s == {"bench.predict": 1.0, "bench.run": 2.0, "cli": 2.0,
                      "sim.field": 5.0}
    assert sum(self_s.values()) == spans[0].duration
    assert tree.total("sim.field") == 5.0
    assert tree.under(spans[4], "bench.predict")
    assert not tree.under(spans[2], "bench.predict")


def test_layer_metrics_split_prediction_sides_and_count_reruns():
    def side(discovered):
        return {"real_steps": 10, "node_steps": 1010, "discovered": discovered}

    spans = [
        tracing.Span(0, "cli", 0.0, 20.0, None, None, "r"),
        tracing.Span(1, "bench.run", 0.0, 20.0, 0, "wave", "r"),
        tracing.Span(2, "sim.field", 0.0, 4.0, 1, "wave", "r", side(False)),
        tracing.Span(3, "bench.predict", 4.0, 20.0, 1, "wave", "r"),
        tracing.Span(4, "sim.field", 4.0, 9.0, 3, "wave", "r", side(False)),
        tracing.Span(5, "sim.field", 9.0, 12.0, 3, "wave", "r", side(True),
                     error=tracing.DIVERGED_ERROR),
        tracing.Span(6, "sim.field", 12.0, 14.0, 3, "wave", "r", side(True)),
    ]
    m = tracing.layer_metrics(spans)
    assert m["sim.field.calls"] == 4
    assert m["sim.field.real_steps"] == 40
    assert m["sim.field.node_steps_per_s"] == 4040 / 14.0
    assert m["sim.diverged"] == 1
    assert m["bench.predict.resimulated"] == 1
    assert m["bench.predict.truth_s"] == 5.0
    assert m["bench.predict.discovered_s"] == 5.0
    assert m["bench.self_s"] == 6.0
