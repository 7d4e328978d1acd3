"""Tests of the benchmark itself, at a tiny size.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, synth={**w.synth, "frames": 5,
                                         "scenarios": ["standard", "low_light"]})


def run_tiny(name, tmp_path, trace=False):
    return workloads.run(tiny(name), seed=3, seconds=0.0, work_dir=tmp_path,
                         trace=trace)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_tiny("eval_desk", tmp_path_factory.mktemp("traced"), trace=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name, tmp_path):
    result = run_tiny(name, tmp_path)
    assert result.tally.failed == 0, result.tally.notes
    assert result.tally.attempted > 0
    assert set(result.metrics) == set(workloads.END_TO_END)
    assert all(np.isfinite(v) and v > 0 for v in result.metrics.values())


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert bench_run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


def _assert_printed(result, trace, metrics):
    payload = bench_run.result_json(result, trace)
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    lines = bench_run.report_lines(result, trace)
    for m in metrics:
        entry = payload["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines), m["name"]


def test_every_end_to_end_metric_is_printed_with_its_unit(tmp_path):
    _assert_printed(run_tiny("eval_wide", tmp_path), False, SPEC["end_to_end"])


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    _assert_printed(traced, True, SPEC["per_layer"])


def test_corrupted_output_raises_error_rate(tmp_path, monkeypatch):
    from navfuse import pipeline

    original = pipeline.pipeline_step

    def corrupting(frame, *args, **kwargs):
        res = original(frame, *args, **kwargs)
        if frame.index == 2:
            res.nav.waypoint[0] = np.nan
        return res

    monkeypatch.setattr(pipeline, "pipeline_step", corrupting)
    result = run_tiny("eval_desk", tmp_path)
    assert result.tally.failed > 0
    assert result.info["error_rate"] > 0
    assert bench_run.result_json(result, False)["correct"] is False


def test_rerun_mismatch_counts_every_differing_frame():
    tally = workloads.Tally()
    workloads.compare_rerun([b"a", b"b", b"c"], [b"a", b"x"], tally)
    assert tally.failed == 2


def test_trace_span_tree_is_well_formed(traced):
    tree = traced.tracer.spans
    assert spans.check_tree(tree) == []
    selfs = spans.self_times(tree)
    assert min(selfs) >= -1e-9
    # self times of each pipeline_step subtree add up to the root span
    subtree_self = {}
    for i, (_, _, _, parent, _) in enumerate(tree):
        root = i
        while tree[root][3] >= 0:
            root = tree[root][3]
        subtree_self[root] = subtree_self.get(root, 0.0) + selfs[i]
    roots = [i for i, s in enumerate(tree) if s[0] == spans.FRAME_ROOT and s[3] == -1]
    assert roots
    for i in roots:
        assert subtree_self[i] == pytest.approx(tree[i][2] - tree[i][1], abs=1e-9)
        assert tree[i][4] > 0


def test_check_tree_reports_a_child_outside_its_parent():
    tree = [["root", 0.0, 1.0, -1, -1], ["child", 0.5, 1.5, 0, -1]]
    assert spans.check_tree(tree)


def test_tracer_restores_every_wrapped_function():
    from navfuse import pipeline, tensor

    before = (pipeline.pipeline_step, tensor.add, tensor.Tensor.backward)
    with spans.Tracer():
        assert pipeline.pipeline_step is not before[0]
    assert (pipeline.pipeline_step, tensor.add, tensor.Tensor.backward) == before
