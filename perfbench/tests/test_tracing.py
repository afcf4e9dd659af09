"""Tests of the benchmark's own tracing and input generation.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# a small check that fails, so the body carries a witness
SMALL_CHECK = ["check", "characteristic_unprimed", "--n", "2", "--out", "report.json"]


def _span(sid, name, start, end, parent=None, rollup=None):
    return [sid, name, start, end, parent, 1, None, rollup]


def test_self_time_subtracts_children_and_rollups():
    spans = [
        _span(1, "root", 0.0, 10.0, rollup={"leaf": [3, 1.0, 12]}),
        _span(2, "child", 1.0, 3.0, parent=1),
        # two children overlapping in time count their union once
        _span(3, "child", 4.0, 7.0, parent=1),
        _span(4, "child", 6.0, 8.0, parent=1),
        _span(5, "grandchild", 4.5, 5.0, parent=3),
        # a child running past its parent's end is clipped to the parent
        _span(6, "late", 7.5, 12.0, parent=4),
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (2.0 + 4.0) - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.5)
    assert own[4] == pytest.approx(1.5)
    assert own[5] == pytest.approx(0.5)
    assert own[6] == pytest.approx(4.5)
    metrics = tracer.layer_metrics(spans)
    assert metrics["kernel.compose.calls"] == 0


def test_layer_metrics_aggregate_counts_and_peaks():
    spans = [
        [1, "kernel.compose", 0.0, 2.0, None, 1,
         {"term_products": 10, "out_terms": 4, "peak_terms": 4}, None],
        [2, "kernel.compose", 2.0, 3.0, None, 1,
         {"term_products": 30, "out_terms": 6, "peak_terms": 6}, None],
        [3, "verify.check", 3.0, 5.0, None, 1, {"witness_bytes": 40},
         {"kernel.poly_mul": [5, 0.5, 9]}],
    ]
    metrics = tracer.layer_metrics(spans, cpu_s=3.0, wall_s=2.0)
    assert metrics["kernel.compose.calls"] == 2
    assert metrics["kernel.compose.self_s"] == pytest.approx(3.0)
    assert metrics["kernel.compose.term_products"] == 40
    assert metrics["kernel.compose.peak_terms"] == 6
    assert metrics["kernel.compose.yield"] == pytest.approx(10 / 40)
    assert metrics["kernel.poly_mul.calls"] == 5
    assert metrics["kernel.poly_mul.term_products"] == 9
    assert metrics["verify.self_s"] == pytest.approx(1.5)
    assert metrics["verify.witness.bytes"] == 40
    assert metrics["cli.cores_used"] == pytest.approx(1.5)
    reported = {name for name, _unit, _better in tracer.PER_LAYER}
    assert set(metrics) == reported - {"trace.overhead_s"}


def _child(tmp_path, tag, trace, argv):
    pass_dir = tmp_path / tag
    pass_dir.mkdir()
    result = pass_dir / "result.json"
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--src",
           os.path.join(ROOT, "src"), "--result", str(result), "--trace", str(trace),
           "--", *argv]
    completed = subprocess.run(cmd, cwd=pass_dir, capture_output=True, timeout=120)
    assert completed.returncode == 1, completed.stderr.decode()
    report = json.loads((pass_dir / "report.json").read_text())
    body = json.dumps(report["body"], sort_keys=True, indent=2)
    spans = tracer.load_spans(pass_dir / "spans.json") if trace else None
    return body, spans


def test_traced_and_untraced_bodies_are_byte_identical(tmp_path):
    plain, _ = _child(tmp_path, "plain", 0, SMALL_CHECK)
    traced, spans = _child(tmp_path, "traced", 1, SMALL_CHECK)
    assert plain == traced
    assert '"witness": {' in plain
    names = {span[tracer.NAME] for span in spans}
    assert {"cli.run_suite", "cli.check", "verify.check", "kernel.compose"} <= names


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    counts = []
    for tag in ("first", "second"):
        _, spans = _child(tmp_path, tag, 1, SMALL_CHECK)
        metrics = tracer.layer_metrics(spans)
        counts.append({
            name: value
            for name, value in metrics.items()
            if not name.endswith("_s") and not name.endswith(".s")
            and name not in ("cli.cores_used", "cli.check_s.sum")
        })
    assert counts[0] == counts[1]
    assert counts[0]["kernel.compose.term_products"] > 0
    assert counts[0]["verify.witness.bytes"] > 0


def test_same_seed_gives_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        first, second, other = (tmp_path / f"{name}-{tag}" for tag in "abc")
        for folder in (first, second, other):
            folder.mkdir()
        a = workloads.generate(name, 7, str(first))
        b = workloads.generate(name, 7, str(second))
        c = workloads.generate(name, 8, str(other))
        assert a == b
        assert a["inputs"]
        assert c["seed"] == 8


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracer.PER_LAYER
    )


def test_check_and_body_digests_are_both_compared():
    manifest = {"checks": 2}
    reference = {"checks": {"0:a": "x", "1:b": "y"}, "body_sha256": "body"}

    def outcome(digests, body, wrong=()):
        return {"digests": digests, "body_sha256": body, "wrong": list(wrong)}

    good = outcome({"0:a": "x", "1:b": "y"}, "body")
    assert run.count_failures([good, good], reference, manifest) == (4, 0, [])
    # a body that differs while every check digest agrees is still a failure
    body_only = outcome({"0:a": "x", "1:b": "y"}, "other")
    assert run.count_failures([body_only], reference, manifest) == (2, 1, [(0, "body")])
    check = outcome({"0:a": "x", "1:b": "z"}, "other")
    assert run.count_failures([check], reference, manifest) == (
        2, 1, [(0, "1:b"), (0, "body")])
    wrong = outcome({"0:a": "x", "1:b": "y"}, "body", wrong=["0:a"])
    assert run.count_failures([wrong], reference, manifest)[1] == 1
    # without a reference, the first pass is the baseline
    assert run.count_failures([good, body_only], None, manifest) == (4, 1, [(1, "body")])
