"""What the traced run wraps, which per-layer metrics it reports, and which
end-to-end metric on which workload each layer metric should move.

``BENCHMARK.json`` lists the same per-layer metrics; a self-test keeps the
two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

CLI = "cli-1x"
LIB = "library-16x"
CV = "openpredict-cv"


@dataclass(frozen=True)
class Wrapped:
    name: str            # span name: <layer module>.<function>
    module: str
    attr: str            # "func" or "Class.method"
    rows: bool = False   # record len(result) as the span's rows
    tag_arg: bool = False  # tag the span with its first argument


WRAPPED = (
    Wrapped("cli.main", "plexflow.cli", "main"),
    Wrapped("rdf.parse_ntriples", "plexflow.rdf", "parse_ntriples"),
    Wrapped("rdf.serialize_ntriples", "plexflow.rdf", "serialize_ntriples"),
    Wrapped("rdf.Graph.match", "plexflow.rdf", "Graph.match", rows=True),
    Wrapped("turtle.parse_turtle", "plexflow.turtle", "parse_turtle"),
    Wrapped("fixture.generate_fixture", "plexflow.fixture", "generate_fixture"),
    Wrapped("trace.Tracer.emit", "plexflow.trace", "Tracer.emit"),
    Wrapped("query.parse_query", "plexflow.query", "parse_query"),
    Wrapped("query.evaluate", "plexflow.query", "evaluate", rows=True),
    Wrapped("cq.run_cq", "plexflow.cq", "run_cq", tag_arg=True),
    Wrapped("workflow.load_workflow", "plexflow.workflow", "load_workflow"),
    Wrapped("workflow.validate", "plexflow.workflow", "validate"),
    Wrapped("fairaudit.audit", "plexflow.fairaudit", "audit"),
    Wrapped("versiondiff.diff", "plexflow.versiondiff", "diff"),
    Wrapped("openpredict.generate_bundle", "plexflow.openpredict", "generate_bundle"),
    Wrapped("openpredict.cross_validate", "plexflow.openpredict", "cross_validate"),
    Wrapped("openpredict.build_features", "plexflow.openpredict", "build_features"),
    Wrapped("openpredict.train_logistic", "plexflow.openpredict", "train_logistic"),
    Wrapped("openpredict.predict_proba", "plexflow.openpredict", "predict_proba"),
    Wrapped("openpredict.metrics", "plexflow.openpredict", "metrics"),
)

# Wrapped functions each workload must call at least once in a traced run;
# a zero count means a binding was missed and the layer would read 0 ms.
REQUIRED = {
    CLI: ("cli.main", "rdf.parse_ntriples", "turtle.parse_turtle",
          "rdf.serialize_ntriples", "fixture.generate_fixture",
          "trace.Tracer.emit", "rdf.Graph.match", "query.parse_query",
          "query.evaluate", "cq.run_cq", "workflow.load_workflow",
          "workflow.validate", "fairaudit.audit", "versiondiff.diff"),
    LIB: ("rdf.Graph.match", "query.parse_query", "query.evaluate",
          "cq.run_cq", "workflow.load_workflow", "workflow.validate",
          "fairaudit.audit", "versiondiff.diff"),
    CV: ("cli.main", "fixture.generate_fixture", "trace.Tracer.emit",
         "rdf.serialize_ntriples", "openpredict.generate_bundle",
         "openpredict.cross_validate", "openpredict.build_features",
         "openpredict.train_logistic", "openpredict.predict_proba",
         "openpredict.metrics"),
}

CQ_IDS = ("CQ1.1", "CQ1.2", "CQ1.3", "CQ1.4", "CQ2.1", "CQ2.2", "CQ2.3",
          "CQ3.1", "CQ3.2", "CQ3.3", "CQ3.4", "CQ3.5")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: tuple[tuple[str, str], ...]   # (end-to-end metric, workload)


_P50, _TPUT, _P90, _SETUP, _RSS = ("latency_p50_ms", "throughput_ops_s",
                                   "latency_p90_ms", "setup_s", "peak_rss_mb")


def _ms(name: str, *moves) -> LayerMetric:
    return LayerMetric(name, "ms", "lower", tuple(moves))


def _count(name: str, *moves, better: str = "lower") -> LayerMetric:
    return LayerMetric(name, "count", better, tuple(moves))


LAYER_METRICS = (
    _ms("cli.import_ms", (_P50, CLI), (_TPUT, CLI)),
    _ms("cli.main.self_ms", (_P50, CLI), (_TPUT, CLI)),
    _ms("rdf.parse_ntriples.self_ms", (_P50, CLI), (_SETUP, LIB)),
    _ms("turtle.parse_turtle.self_ms", (_P50, CLI), (_SETUP, LIB)),
    _ms("rdf.serialize_ntriples.self_ms", (_TPUT, CLI)),
    _ms("fixture.generate_fixture.self_ms", (_TPUT, CLI)),
    _ms("trace.Tracer.emit.self_ms", (_TPUT, CLI)),
    _count("rdf.Graph.match.calls", (_TPUT, LIB), (_P90, LIB)),
    _count("rdf.Graph.match.rows", (_TPUT, LIB), (_P90, LIB)),
    _ms("rdf.Graph.match.self_ms", (_TPUT, LIB), (_P90, LIB)),
    _count("query.parse_query.calls", (_P50, CLI)),
    _ms("query.parse_query.self_ms", (_P50, CLI)),
    _ms("query.evaluate.self_ms", (_P90, LIB)),
    _count("query.evaluate.rows", (_P90, LIB), better="higher"),
    LayerMetric("query.match_rows_per_result", "ratio", "lower", ((_P90, LIB),)),
    *(_ms(f"cq.{cq_id}.ms", (_P90, LIB)) for cq_id in CQ_IDS),
    _ms("workflow.load_workflow.self_ms", (_TPUT, LIB)),
    _ms("workflow.validate.self_ms", (_TPUT, LIB)),
    _ms("fairaudit.audit.self_ms", (_TPUT, LIB)),
    _ms("versiondiff.diff.self_ms", (_TPUT, LIB)),
    _count("openpredict.build_features.calls", (_P50, CV), (_RSS, CV)),
    _ms("openpredict.build_features.self_ms", (_P50, CV), (_RSS, CV)),
    _ms("openpredict.train_logistic.self_ms", (_P50, CV)),
    _ms("openpredict.predict_proba.self_ms", (_P50, CV)),
    _ms("openpredict.metrics.self_ms", (_P50, CV)),
    _ms("openpredict.cross_validate.self_ms", (_P50, CV)),
    _ms("openpredict.generate_bundle.self_ms", (_P50, CV)),
    LayerMetric("trace_overhead", "ratio", "lower", ()),
)
