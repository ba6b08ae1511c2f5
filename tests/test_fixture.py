import hashlib

from plexflow.fixture import (
    LICENSE, REFERENCE_ACCURACY, V01, V02, generate_fixture,
)
from plexflow.rdf import IRI, Literal, lit, parse_ntriples, serialize_ntriples
from plexflow.vocab import BPMN, DC, DCAT, OPREDICT as OP, PPLAN, RDF
from plexflow.workflow import load_workflow, validate


# SHA-256 of the fixture's canonical N-Triples. The bytes are a gate: the
# CQ answers, the audit and the benchmark's reference outputs all rest on
# them, so a change to them must be deliberate.
FIXTURE_SHA256 = "379ad7e0d0ea968057d2d87b2a988671eb60a5abd8174c98c7133faf189dd646"


def test_generation_is_byte_deterministic():
    first = serialize_ntriples(generate_fixture())
    second = serialize_ntriples(generate_fixture())
    assert first == second
    assert hashlib.sha256(first.encode("utf-8")).hexdigest() == FIXTURE_SHA256


def test_fixture_builds_each_distinct_term_once():
    terms = [term for t in generate_fixture().match() for term in t]
    assert len({id(term) for term in terms}) == len(set(terms)) == 640


def test_fixture_roundtrips_through_ntriples(fixture_graph):
    text = serialize_ntriples(fixture_graph)
    again = parse_ntriples(text)
    assert again == fixture_graph


def test_fixture_is_frozen_and_ground(fixture_graph):
    assert fixture_graph.frozen
    from plexflow.rdf import BlankNode
    for t in fixture_graph.match():
        assert not isinstance(t.s, BlankNode)
        assert not isinstance(t.o, BlankNode)


def test_both_workflows_validate(fixture_graph):
    for wf in (V01, V02):
        assert validate(load_workflow(fixture_graph, wf)) == []


def test_reference_accuracy_literal_present(fixture_graph):
    hits = fixture_graph.match(None, IRI(DC.description), lit(REFERENCE_ACCURACY))
    assert len(hits) == 1
    assert hits[0].s == IRI(OP.ModelEvaluation_Accuracy_Execution_1546302862)


def test_table_urls_are_exact(fixture_graph):
    expected = {
        OP["Distribution_gold_standard_drug_indications_msb201126-s4.xls"]:
            "https://www.ncbi.nlm.nih.gov/pmc/articles/PMC3159979/bin/"
            "msb201126-s4.xls",
        OP["Distribution_mesh_annotation_mim2mesh.tsv"]:
            "http://www.paccanarolab.org/static_content/disease_similarity/"
            "mim2mesh.tsv",
        OP["Distribution_phenotype_annotation_hpoteam.tab_Build_1266"]:
            "http://compbio.charite.de/jenkins/job/hpo.annotations/1266/"
            "artifact/misc/phenotype_annotation_hpoteam.tab",
        OP["Distribution_pubchem_to_drugbank_pubchem.tsv"]:
            "https://raw.githubusercontent.com/dhimmel/drugbank/"
            "3e87872db5fca5ac427ce27464ab945c0ceb4ec6/data/mapping/pubchem.tsv",
        OP["Distribution_release-4-kegg-kegg-drug.nq.gz"]:
            "http://download.bio2rdf.org/files/release/4/kegg/kegg-drug.nq.gz",
        OP["Distribution_release-4-sider-sider-se.nq.gz"]:
            "http://download.bio2rdf.org/files/release/4/sider/sider-se.nq.gz",
        OP["Distribution_srep-2016-161017-srep35241-extref-srep35241-s3.txt"]:
            "https://media.nature.com/full/nature-assets/srep/2016/161017/"
            "srep35241/extref/srep35241-s3.txt",
    }
    for dist, url in expected.items():
        assert fixture_graph.value(IRI(dist), IRI(DCAT.downloadURL)) == lit(url)
    typed = fixture_graph.subjects(IRI(RDF.type), IRI(DCAT.Distribution))
    assert len(typed) == 7


def test_every_model_evaluation_has_measure_and_time(fixture_graph):
    from plexflow.vocab import MLS, PROV
    for subject in fixture_graph.subjects(IRI(RDF.type), IRI(MLS.ModelEvaluation)):
        assert fixture_graph.objects(subject, IRI(MLS.specifiedBy))
        (generation,) = fixture_graph.objects(subject, IRI(PROV.qualifiedGeneration))
        assert fixture_graph.objects(generation, IRI(PROV.atTime))


def test_activities_never_point_at_instructions(fixture_graph):
    from plexflow.vocab import PROV
    corresponds = IRI(PPLAN.correspondsToStep)
    for activity in fixture_graph.subjects(IRI(RDF.type), IRI(PPLAN.Activity)):
        targets = fixture_graph.objects(activity, corresponds)
        assert len(targets) == 1
        assert fixture_graph.match(targets[0], IRI(RDF.type), IRI(PPLAN.Step))
        # No direct activity-to-plan link exists in the profile.
        assert not fixture_graph.match(activity, IRI(PROV.hadPlan), None)


def test_workflow_dates_match_published_versioning(fixture_graph):
    from plexflow.vocab import XSD
    v01, v02 = IRI(V01), IRI(V02)
    created = IRI(DC.created)
    assert fixture_graph.value(v01, created) == Literal("2018-11-27", XSD.date)
    assert fixture_graph.value(v02, created) == Literal("2019-05-15", XSD.date)
    assert fixture_graph.value(v01, IRI(DC.modified)) == Literal("2019-05-15",
                                                                 XSD.date)
    assert fixture_graph.value(v02, IRI(DC.modified)) == Literal("2019-07-03",
                                                                 XSD.date)


def test_licenses_on_workflows_and_datasets(fixture_graph):
    license_term = IRI(DC.license)
    for wf in (V01, V02):
        assert fixture_graph.value(IRI(wf), license_term) == IRI(LICENSE)
    for ds in fixture_graph.subjects(IRI(RDF.type), IRI(DCAT.Dataset)):
        assert fixture_graph.objects(ds, license_term)


def test_every_step_has_exactly_one_instruction_by_query(fixture_graph):
    from plexflow.query import run_query
    table = run_query(
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
        "PREFIX p-plan: <http://purl.org/net/p-plan#>\n"
        "PREFIX dul: <http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#>\n"
        "SELECT ?step ?instruction WHERE {\n"
        "  ?step rdf:type p-plan:Step .\n"
        "  ?step dul:isDescribedBy ?instruction .\n"
        "}", fixture_graph)
    assert len(table) == 78  # one row per step: exactly one instruction each
    assert len(set(table.column("step")) - {None}) == 78


def test_precedes_never_crosses_plans(fixture_graph):
    from plexflow.vocab import DUL
    step_of = IRI(PPLAN.isStepOfPlan)
    for t in fixture_graph.match(None, IRI(DUL.precedes), None):
        assert (fixture_graph.objects(t.s, step_of)
                == fixture_graph.objects(t.o, step_of))


def test_single_pattern_manual_count_on_v01_scope(fixture_graph):
    # The v0.1 view emitted on its own contains exactly the main protocol's
    # 28 manual steps (all of its notebook cells are computational).
    from plexflow.workflow import emit_triples
    view = load_workflow(fixture_graph, V01)
    scope = emit_triples(view).freeze()
    manuals = scope.match(None, IRI(RDF.type), IRI(BPMN.ManualTask))
    assert len(manuals) == 28
    scripts = scope.match(None, IRI(RDF.type), IRI(BPMN.ScriptTask))
    assert len(scripts) == 14 + 18
