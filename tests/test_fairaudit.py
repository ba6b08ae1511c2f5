import hashlib
import json

import pytest

from plexflow.fairaudit import (
    AuditError, FAIL, NOT_MACHINE_CHECKABLE, PASS, RULES, audit,
)
from plexflow.rdf import RDF_TYPE, Graph, IRI
from plexflow.turtle import parse_turtle
from plexflow.vocab import DCAT, DUL, OPREDICT as OP, PROV, prefixes_turtle


def _without(g, predicate=None, subject=None):
    out = Graph()
    for t in g.match():
        if predicate is not None and t.p == IRI(predicate):
            if subject is None or t.s == IRI(subject):
                continue
        out.add(t)
    return out.freeze()


def test_audit_requires_frozen_graph():
    with pytest.raises(AuditError):
        audit(Graph())


def test_rule_ids_unique_and_documented():
    ids = [r.id for r in RULES]
    assert len(ids) == len(set(ids))
    assert all(r.description for r in RULES)


def test_fixture_passes_every_machine_checkable_rule(fixture_graph):
    report = audit(fixture_graph)
    for result in report.results:
        if result.rule.id in ("A1.2", "A2"):
            assert result.status == NOT_MACHINE_CHECKABLE
            assert result.note
        else:
            assert result.status == PASS, (result.rule.id, result.offenders)
    assert not report.error_failures
    assert not report.warning_failures


def test_dropping_one_download_url_flips_exactly_f3(fixture_graph):
    victim = OP["Distribution_mesh_annotation_mim2mesh.tsv"]
    broken = _without(fixture_graph, predicate=DCAT.downloadURL, subject=victim)
    before = {r.rule.id: r.status for r in audit(fixture_graph).results}
    after_report = audit(broken)
    after = {r.rule.id: r.status for r in after_report.results}
    flipped = {rule for rule in before if before[rule] != after[rule]}
    assert flipped == {"F3"}
    assert after_report.result("F3").offenders == (
        "opredict:Distribution_mesh_annotation_mim2mesh.tsv",)


def test_blank_dataset_fails_f1():
    g = parse_turtle(prefixes_turtle() + """
_:ds rdf:type dcat:Dataset ;
  rdfs:label "blank dataset" ; dc:description "desc" ;
  dc:license <https://creativecommons.org/licenses/by/4.0/> ;
  dcat:distribution opredict:Dist_X .
opredict:Dist_X rdf:type dcat:Distribution ;
  dcat:downloadURL "https://example.org/x.csv" ;
  dcat:mediaType edam:format_2330 .
opredict:Usage_X rdf:type prov:Usage ; prov:entity opredict:Dist_X .
""").freeze()
    report = audit(g)
    assert report.result("F1").status == FAIL


def test_bad_url_scheme_fails_a1_1():
    g = parse_turtle(prefixes_turtle() + """
opredict:Dist_X rdf:type dcat:Distribution ;
  dcat:downloadURL "gopher://old.example.org/x" ;
  dcat:mediaType edam:format_2330 .
opredict:Usage_X rdf:type prov:Usage ; prov:entity opredict:Dist_X .
""").freeze()
    report = audit(g)
    assert report.result("A1.1").status == FAIL
    assert report.result("F3").status == PASS


def test_foreign_predicate_is_a_warning_only():
    g = parse_turtle(prefixes_turtle() + """
opredict:x <https://unregistered.example.org/ns#p> opredict:y .
""").freeze()
    report = audit(g)
    i1 = report.result("I1")
    assert i1.status == FAIL and i1.rule.severity == "warning"
    assert not report.error_failures
    assert report.warning_failures


def test_non_edam_media_type_fails_i2():
    g = parse_turtle(prefixes_turtle() + """
opredict:Dist_X rdf:type dcat:Distribution ;
  dcat:downloadURL "https://example.org/x.csv" ;
  dcat:mediaType opredict:HomegrownFormat .
opredict:Usage_X rdf:type prov:Usage ; prov:entity opredict:Dist_X .
""").freeze()
    assert audit(g).result("I2").status == FAIL


def test_unused_distribution_fails_i3():
    g = parse_turtle(prefixes_turtle() + """
opredict:Dist_X rdf:type dcat:Distribution ;
  dcat:downloadURL "https://example.org/x.csv" ;
  dcat:mediaType edam:format_2330 .
""").freeze()
    assert audit(g).result("I3").status == FAIL


def test_missing_license_and_creator_fail_r_rules(fixture_graph):
    from plexflow.vocab import DC
    no_license = _without(fixture_graph, predicate=DC.license)
    report = audit(no_license)
    assert report.result("R1.1").status == FAIL
    no_creator = _without(fixture_graph, predicate=DC.creator)
    assert audit(no_creator).result("R1.2").status == FAIL


def test_monotone_under_inspected_removals(fixture_graph):
    # Deleting more of the edges a rule inspects never turns a failing
    # rule passing.
    from plexflow.vocab import DC, DCAT as DCAT_NS
    one_gone = _without(fixture_graph, predicate=DCAT_NS.downloadURL,
                        subject=OP["Distribution_mesh_annotation_mim2mesh.tsv"])
    assert audit(one_gone).result("F3").status == FAIL
    all_gone = _without(one_gone, predicate=DCAT_NS.downloadURL)
    report = audit(all_gone)
    assert report.result("F3").status == FAIL
    assert len(report.result("F3").offenders) == 7
    no_licenses = _without(all_gone, predicate=DC.license)
    report = audit(no_licenses)
    assert report.result("F3").status == FAIL
    assert report.result("R1.1").status == FAIL


def test_report_bytes_identical_across_runs(fixture_graph):
    a = audit(fixture_graph).to_json()
    b = audit(fixture_graph).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["summary"]["not_machine_checkable"] == 2
    assert [r["id"] for r in payload["results"]] == [r.id for r in RULES]


def test_offender_lists_under_mutations_are_pinned(fixture_graph):
    # One digest over the reports of 64 mutated fixtures: each predicate
    # dropped, then each rdf:type triple of a class the rules target
    # dropped alone. It pins every rule's offender list, not only its status.
    triples = list(fixture_graph.match())
    targeted = {IRI(c) for c in (DCAT.Dataset, DCAT.Distribution, DUL.Workflow,
                                 PROV.Usage)}
    drops = [{t for t in triples if t.p == p}
             for p in sorted(fixture_graph.predicates(), key=lambda p: p.value)]
    typings = [t for t in triples if t.p == RDF_TYPE and t.o in targeted]
    drops += [{t} for t in sorted(typings, key=lambda t: (t.s.value, t.o.value))]
    digest = hashlib.sha256()
    for drop in drops:
        mutated = Graph()
        for t in triples:
            if t not in drop:
                mutated.add(t)
        digest.update(audit(mutated.freeze()).to_json().encode())
    assert len(drops) == 64
    assert digest.hexdigest() == (
        "15382c70140c63e54711e95151673aeb3a4397f45bcbfab51c8135a0a265208e")
