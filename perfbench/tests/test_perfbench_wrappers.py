"""Self-tests of the span wrappers: every binding is wrapped, nothing is
left wrapped afterwards, and the traced child bootstrap answers exactly
like ``python -m plexflow``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

import plexflow  # noqa: E402
import plexflow.cli  # noqa: E402
import plexflow.cq  # noqa: E402
import plexflow.query  # noqa: E402
from plexflow.rdf import Graph  # noqa: E402

from perfbench import harness  # noqa: E402
from perfbench.spans import SpanRecorder, install  # noqa: E402


def test_install_wraps_from_imports_and_restores():
    originals = (plexflow.cli.parse_ntriples, plexflow.cq.evaluate,
                 plexflow.run_query, Graph.match)
    recorder = SpanRecorder("t1")
    installed = install(recorder)
    try:
        assert plexflow.cli.parse_ntriples is not originals[0]
        assert plexflow.cq.evaluate is plexflow.query.evaluate
        g = plexflow.parse_ntriples("<urn:a> <urn:b> <urn:c> .\n").freeze()
        table = plexflow.run_query("SELECT ?s WHERE { ?s ?p ?o }", g)
    finally:
        installed.uninstall()
    assert (plexflow.cli.parse_ntriples, plexflow.cq.evaluate,
            plexflow.run_query, Graph.match) == originals
    assert len(table) == 1
    by_name = {s.name: s for s in recorder.spans}
    assert {"rdf.parse_ntriples", "query.parse_query", "query.evaluate",
            "rdf.Graph.match"} <= set(by_name)
    assert by_name["query.evaluate"].rows == 1
    match_parent = recorder.spans[by_name["rdf.Graph.match"].parent]
    assert match_parent.name == "query.evaluate"
    assert all(s.request == "t1" for s in recorder.spans)


def test_traced_child_matches_untraced(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    (tmp_path / "g.nt").write_text(
        plexflow.serialize_ntriples(plexflow.generate_fixture()))
    argv = ["cq", "--id", "CQ3.1", "--graph", "g.nt"]
    plain = harness.run_child(argv, tmp_path)
    traced, spans = harness.traced_child(argv, tmp_path, "r1")
    assert plain.code == traced.code == 0
    assert plain.stdout == traced.stdout
    names = [s.name for s in spans]
    assert names[0] == "cli.import" and names[1] == "cli.main"
    assert names.count("cq.run_cq") == 1
    assert not list(tmp_path.glob("spans-*.json"))
