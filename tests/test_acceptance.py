"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
all). Tolerances and runtime budgets are pinned here, not configurable.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from plexflow.cli import EXIT_FAILURES, EXIT_OK, main
from plexflow.cq import delta_counts, run_cq
from plexflow.fairaudit import FAIL, PASS, audit
from plexflow.fixture import REFERENCE_ACCURACY, V01, V02
from plexflow.openpredict import (
    HIDE_ASSOCIATIONS, HIDE_DRUGS, cross_validate, generate_bundle,
    logistic_loss_and_grad, metrics, roc_auc,
)
from plexflow.query import evaluate
from plexflow.rdf import (
    Graph, IRI, Triple, bnode, iri, isomorphic, lit, nt_term, parse_ntriples,
    serialize_ntriples,
)
from plexflow.vocab import BPMN, DCAT, OPREDICT as OP

import numpy as np

from test_query_oracle import (
    brute_closure, oracle_evaluate, random_graph, random_query, row_multiset,
)
from test_metrics import auc_by_pair_counting, random_case


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {name}: PASS", flush=True)


TABLE_URLS = {
    "https://www.ncbi.nlm.nih.gov/pmc/articles/PMC3159979/bin/msb201126-s4.xls",
    "http://www.paccanarolab.org/static_content/disease_similarity/mim2mesh.tsv",
    "http://compbio.charite.de/jenkins/job/hpo.annotations/1266/artifact/misc/"
    "phenotype_annotation_hpoteam.tab",
    "https://raw.githubusercontent.com/dhimmel/drugbank/"
    "3e87872db5fca5ac427ce27464ab945c0ceb4ec6/data/mapping/pubchem.tsv",
    "http://download.bio2rdf.org/files/release/4/kegg/kegg-drug.nq.gz",
    "http://download.bio2rdf.org/files/release/4/sider/sider-se.nq.gz",
    "https://media.nature.com/full/nature-assets/srep/2016/161017/srep35241/"
    "extref/srep35241-s3.txt",
}


def test_criterion_1_cq_counts(fixture_graph):
    with criterion("1 competency-question counts"):
        start = time.perf_counter()

        t = run_cq("CQ1.1", fixture_graph, {"workflow": V01})
        kinds = [term.value for term in t.column("stepType")]
        assert kinds.count(BPMN.ManualTask) == 28
        assert kinds.count(BPMN.ScriptTask) == 14
        t = run_cq("CQ1.1", fixture_graph, {"workflow": V02})
        kinds = [term.value for term in t.column("stepType")]
        assert kinds.count(BPMN.ManualTask) == 9
        assert kinds.count(BPMN.ScriptTask) == 9

        v01 = run_cq("CQ2.2", fixture_graph, {"workflow": V01})
        v02 = run_cq("CQ2.2", fixture_graph, {"workflow": V02})
        assert len(v01) == 60 and len(v02) == 18 and len(v01) + len(v02) == 78

        t = run_cq("CQ3.1", fixture_graph)
        assert len(t) == 2
        priors = [p for p in t.column("priorVersion") if p is not None]
        assert priors == [IRI(V01)]

        t = run_cq("CQ3.2", fixture_graph, {"from": V01, "to": V02})
        assert delta_counts(t) == {"removed": 47, "changed": 3, "added": 7}

        t = run_cq("CQ3.3", fixture_graph, {"from": V01, "to": V02})
        assert len(t) == 3

        t = run_cq("CQ3.4", fixture_graph, {"from": V01, "to": V02})
        assert delta_counts(t) == {"removed": 0, "changed": 0, "added": 2}

        t = run_cq("CQ3.5", fixture_graph)
        assert len(set(t.column("activity")) - {None}) == 14
        v01_values = {row[3].lexical for row in t.rows
                      if row[1] == IRI(V01) and row[3] is not None}
        assert REFERENCE_ACCURACY in v01_values

        t = run_cq("CQ1.3", fixture_graph, {"workflow": V02})
        assert {term.lexical for term in t.column("downloadURL")} == TABLE_URLS
        assert len(t) == 7

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"CQ suite took {elapsed:.2f}s"


def test_criterion_2_rdf_roundtrip(fixture_graph):
    with criterion("2 RDF round-trip"):
        start = time.perf_counter()
        assert parse_ntriples(serialize_ntriples(fixture_graph)) == fixture_graph

        rng = random.Random(20240)
        for _ in range(100):
            g = Graph()
            for _ in range(rng.randrange(0, 200)):
                o = (lit(f"v{rng.randrange(25)}") if rng.random() < 0.3
                     else iri(f"urn:n{rng.randrange(20)}"))
                g.add(Triple(iri(f"urn:n{rng.randrange(20)}"),
                             iri(f"urn:p{rng.randrange(6)}"), o))
            assert parse_ntriples(serialize_ntriples(g)) == g

        for _ in range(25):
            g = Graph()
            for _ in range(rng.randrange(1, 30)):
                s = (bnode(f"s{rng.randrange(5)}") if rng.random() < 0.35
                     else iri(f"urn:n{rng.randrange(8)}"))
                o = (bnode(f"o{rng.randrange(5)}") if rng.random() < 0.35
                     else iri(f"urn:n{rng.randrange(8)}"))
                g.add(Triple(s, iri(f"urn:p{rng.randrange(3)}"), o))
            again = parse_ntriples(serialize_ntriples(g))
            assert again == g
            assert isomorphic(again, g, blank_budget=20)

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"round-trip suite took {elapsed:.2f}s"


def test_criterion_3_query_oracle():
    with criterion("3 query-engine oracle"):
        start = time.perf_counter()
        rng = random.Random(31337)
        for case in range(100):
            g = random_graph(rng)
            query = random_query(rng, g)
            assert row_multiset(evaluate(query, g).rows) == row_multiset(
                oracle_evaluate(query, g)), f"case {case}"

        pred = iri("urn:next")
        for _ in range(50):
            n = rng.randrange(2, 25)
            g = Graph()
            for _ in range(rng.randrange(1, 50)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a < b:
                    g.add(Triple(iri(f"urn:v{a}"), pred, iri(f"urn:v{b}")))
            if len(g) == 0:
                g.add(Triple(iri("urn:v0"), pred, iri("urn:v1")))
            g.freeze()
            from plexflow.query import run_query
            table = run_query("SELECT ?a ?b WHERE { ?a <urn:next>+ ?b }", g)
            got = {(a.value, b.value) for a, b in table.rows}
            want = {(a.value, b.value) for a, b in brute_closure(g, pred)}
            assert got == want

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"query oracle took {elapsed:.2f}s"


def test_criterion_4_metric_oracles():
    with criterion("4 metric oracles"):
        rng = random.Random(441)
        for _ in range(1000):
            scores, labels = random_case(rng)
            assert abs(roc_auc(scores, labels)
                       - auc_by_pair_counting(scores, labels)) < 1e-12

        for _ in range(300):
            scores, labels = random_case(rng)
            record = metrics(scores, labels)
            if record.precision + record.recall > 0:
                harmonic = (2 * record.precision * record.recall
                            / (record.precision + record.recall))
            else:
                harmonic = 0.0
            assert abs(record.f1 - harmonic) < 1e-12

        transforms = (lambda x: 2.0 * x + 3.0, math.exp,
                      lambda x: x ** 3 + 0.25 * x)
        for _ in range(200):
            scores, labels = random_case(rng)
            base = roc_auc(scores, labels)
            for f in transforms:
                assert roc_auc([f(s) for s in scores], labels) == base


def test_criterion_5_gradient_check():
    with criterion("5 gradient finite-difference check"):
        rng = np.random.default_rng(52)
        X = rng.uniform(0, 1, (60, 10))
        y = (rng.uniform(size=60) < 0.5).astype(float)
        eps = 1e-5
        worst = 0.0
        for _ in range(10):
            w = rng.normal(0, 1.0, 10)
            b = float(rng.normal())
            _, gw, gb = logistic_loss_and_grad(w, b, X, y, l2=1e-4)
            analytic = np.append(gw, gb)
            fd = np.zeros(11)
            for k in range(10):
                probe = w.copy()
                probe[k] = w[k] + eps
                up, _, _ = logistic_loss_and_grad(probe, b, X, y, 1e-4)
                probe[k] = w[k] - eps
                down, _, _ = logistic_loss_and_grad(probe, b, X, y, 1e-4)
                fd[k] = (up - down) / (2 * eps)
            up, _, _ = logistic_loss_and_grad(w, b + eps, X, y, 1e-4)
            down, _, _ = logistic_loss_and_grad(w, b - eps, X, y, 1e-4)
            fd[10] = (up - down) / (2 * eps)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-6, f"max relative gradient error {worst:.3e}"


def test_criterion_6_pipeline_properties():
    with criterion("6 pipeline properties"):
        start = time.perf_counter()
        bundle, gold = generate_bundle(100, 80, seed=42)
        planted_assoc = cross_validate(bundle, gold, HIDE_ASSOCIATIONS,
                                       folds=10, seed=42)
        planted_drugs = cross_validate(bundle, gold, HIDE_DRUGS,
                                       folds=10, seed=42)
        assert planted_assoc.mean.roc_auc >= 0.80, planted_assoc.mean
        assert planted_drugs.mean.roc_auc >= 0.80, planted_drugs.mean

        null_bundle, null_gold = generate_bundle(100, 80, seed=42,
                                                 planted=False)
        null_record = cross_validate(null_bundle, null_gold, HIDE_ASSOCIATIONS,
                                     folds=10, seed=42)
        assert 0.45 <= null_record.mean.roc_auc <= 0.55, null_record.mean

        assert (planted_drugs.mean.roc_auc
                <= planted_assoc.mean.roc_auc + 0.05)

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"pipeline suite took {elapsed:.2f}s"


def test_criterion_7_fair_audit(fixture_graph):
    with criterion("7 FAIR audit"):
        report = audit(fixture_graph)
        for result in report.results:
            if result.rule.id in ("A1.2", "A2"):
                continue
            assert result.status == PASS, result.rule.id

        victim = IRI(OP["Distribution_release-4-kegg-kegg-drug.nq.gz"])
        broken = Graph()
        for t in fixture_graph.match():
            if t.s == victim and t.p == IRI(DCAT.downloadURL):
                continue
            broken.add(t)
        broken.freeze()
        before = {r.rule.id: r.status for r in report.results}
        after = {r.rule.id: r.status for r in audit(broken).results}
        flipped = {rule for rule in before if before[rule] != after[rule]}
        assert flipped == {"F3"}
        assert after["F3"] == FAIL

        assert audit(fixture_graph).to_json() == report.to_json()


def test_criterion_8_cli_determinism(tmp_path, capsys):
    with criterion("8 CLI determinism"):
        graph_path = tmp_path / "fixture.nt"
        graph_again = tmp_path / "fixture2.nt"
        assert main(["fixture", "--out", str(graph_path)]) == EXIT_OK
        assert main(["fixture", "--out", str(graph_again)]) == EXIT_OK
        assert graph_path.read_bytes() == graph_again.read_bytes()

        def twice(args, out_name):
            a = tmp_path / f"{out_name}_a"
            b = tmp_path / f"{out_name}_b"
            assert main(args + ["--out", str(a)]) in (EXIT_OK, EXIT_FAILURES)
            assert main(args + ["--out", str(b)]) in (EXIT_OK, EXIT_FAILURES)
            assert a.read_bytes() == b.read_bytes()

        rq = tmp_path / "q.rq"
        rq.write_text(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
            "PREFIX dcat: <http://www.w3.org/ns/dcat#>\n"
            "SELECT ?d WHERE { ?d rdf:type dcat:Distribution . }\n",
            encoding="utf-8")
        twice(["query", "--graph", str(graph_path), "--query", str(rq),
               "--format", "json"], "query")
        twice(["cq", "--id", "CQ3.2", "--graph", str(graph_path),
               "--from", V01, "--to", V02], "cq")
        twice(["diff", "--graph", str(graph_path), "--from", V01,
               "--to", V02], "diff")
        twice(["audit", "--graph", str(graph_path)], "audit")

        capsys.readouterr()
        assert main(["validate", str(graph_path)]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["validate", str(graph_path)]) == EXIT_OK
        assert capsys.readouterr().out == first

        run_args = ["run-openpredict", "--scheme", "drugs", "--folds", "4",
                    "--seed", "42", "--drugs", "30", "--diseases", "24"]
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        t1, t2 = tmp_path / "t1.nt", tmp_path / "t2.nt"
        assert main(run_args + ["--metrics", str(m1), "--trace", str(t1)]) == EXIT_OK
        assert main(run_args + ["--metrics", str(m2), "--trace", str(t2)]) == EXIT_OK
        assert m1.read_bytes() == m2.read_bytes()
        assert t1.read_bytes() == t2.read_bytes()
