"""Self-tests of the benchmark's span arithmetic, percentile rule and
metric catalogue."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402
from perfbench.harness import closed_loop, tail_percentile  # noqa: E402
from perfbench.layers import LAYER_METRICS, REQUIRED, WRAPPED  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Span, covered_length, layer_metrics, self_times, uncalled,
)


def span(name, start, end, parent=None, rows=None, tag=None):
    return Span(name, start, end, parent, "r1", rows, tag)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length(0.0, 10.0, []) == 0.0
    assert covered_length(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert covered_length(0.0, 10.0, [(6.0, 8.0), (1.0, 2.0)]) == 3.0
    assert covered_length(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == 1.5
    assert covered_length(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]) == 8.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("rdf.parse_ntriples", 1.0, 4.0, parent=0),
        span("cq.run_cq", 5.0, 9.0, parent=0),
        span("query.evaluate", 5.5, 8.5, parent=2),
        span("rdf.Graph.match", 6.0, 7.0, parent=3),
    ]
    assert self_times(spans) == [3.0, 3.0, 1.0, 2.0, 1.0]
    # Self times partition the root span.
    assert sum(self_times(spans)) == spans[0].duration


def test_layer_metrics_are_per_operation():
    group = [
        span("cli.import", 0.0, 0.2),
        span("cli.main", 0.2, 1.2),
        span("cq.run_cq", 0.3, 0.7, parent=1, tag="CQ3.5"),
        span("query.evaluate", 0.4, 0.6, parent=2, rows=4),
        span("rdf.Graph.match", 0.45, 0.5, parent=3, rows=30),
        span("rdf.Graph.match", 0.5, 0.55, parent=3, rows=10),
    ]
    out = layer_metrics([group, group], operations=2)
    assert out["cli.import_ms"] == pytest.approx(200.0)
    assert out["cli.main.self_ms"] == pytest.approx(600.0)
    assert out["rdf.Graph.match.calls"] == 2
    assert out["rdf.Graph.match.rows"] == 40
    assert out["query.evaluate.rows"] == 4
    assert out["query.match_rows_per_result"] == 10.0
    assert out["query.evaluate.self_ms"] == pytest.approx(100.0)
    assert out["cq.CQ3.5.ms"] == pytest.approx(400.0)
    assert out["cq.CQ1.1.ms"] == 0.0
    assert out["openpredict.build_features.calls"] == 0


def test_uncalled_names_missing_wrappers():
    group = [span("cli.main", 0.0, 1.0)]
    assert uncalled([group], ("cli.main", "query.evaluate")) == ["query.evaluate"]


def test_tail_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(1, 100)]
    cut, beyond = tail_percentile(values)
    assert cut is None and beyond == 9
    values = [float(v) for v in range(1, 101)]
    cut, beyond = tail_percentile(values)
    assert cut == pytest.approx(90.9) and beyond == 10
    assert tail_percentile([5.0]) == (None, 0)


def test_closed_loop_runs_whole_passes_within_budget(monkeypatch):
    clock = [0.0]
    seen = []

    def one_pass(index):
        seen.append(index)
        clock[0] += 1.0

    monkeypatch.setattr(harness.time, "perf_counter", lambda: clock[0])
    assert closed_loop(3.5, one_pass) == 3
    assert seen == [0, 1, 2]


def test_catalogue_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == [(m.name, m.unit, m.better) for m in LAYER_METRICS]
    assert {w["name"] for w in bench["workloads"]} == set(REQUIRED)
    wrapped = {w.name for w in WRAPPED}
    for names in REQUIRED.values():
        assert set(names) <= wrapped
