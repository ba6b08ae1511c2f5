import pytest

from plexflow import vocab
from plexflow.rdf import IRI
from plexflow.turtle import parse_turtle


def test_expand_known_terms():
    assert IRI(vocab.expand_str("p-plan:Step")) == IRI(
        "http://purl.org/net/p-plan#Step")
    assert IRI(vocab.expand_str("rdf:type")) == IRI(
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    assert IRI(vocab.expand_str("opredict:Plan_Main_Protocol_v01")) == IRI(
        "https://w3id.org/fair/openpredict/Plan_Main_Protocol_v01")


def test_expand_unknown_prefix():
    with pytest.raises(vocab.UnknownPrefixError):
        IRI(vocab.expand_str("nope:thing"))
    with pytest.raises(vocab.UnknownPrefixError):
        IRI(vocab.expand_str("not-a-curie"))


def test_compress_roundtrips_with_expand():
    for curie in ("p-plan:Step", "rdf:type", "opredict:Plan_Main_Protocol_v01",
                  "edam:format_3256", "dc:hasVersion"):
        assert vocab.compress(IRI(vocab.expand_str(curie))) == curie


def test_compress_identity_on_catalog():
    for curie, iri_str in vocab.TERM_CATALOG.items():
        assert vocab.expand_str(vocab.compress(iri_str)) == iri_str
        assert vocab.compress(IRI(vocab.expand_str(curie))) == curie


def test_compress_leaves_foreign_iris_alone():
    assert vocab.compress("https://example.org/other") == "https://example.org/other"


def test_namespace_bases_end_properly():
    for prefix, base in vocab.NAMESPACES.items():
        assert base.endswith("#") or base.endswith("/"), (prefix, base)


def test_prefixes_unique_up_to_default_alias():
    # '' is a deliberate alias of opredict; all other bases are distinct.
    bases = [base for prefix, base in vocab.NAMESPACES.items() if prefix != ""]
    assert len(bases) == len(set(bases))


def test_catalog_covers_required_terms():
    required = [
        "p-plan:Plan", "p-plan:Step", "p-plan:Variable", "p-plan:Activity",
        "p-plan:isStepOfPlan", "p-plan:hasInputVar", "p-plan:hasOutputVar",
        "p-plan:correspondsToStep", "dul:Workflow", "dul:isDescribedBy",
        "dul:precedes", "pwo:hasFirstStep", "bpmn:ManualTask", "bpmn:ScriptTask",
        "prov:Usage", "prov:qualifiedUsage", "prov:entity", "prov:Association",
        "prov:agent", "prov:hadRole", "prov:hadPlan", "prov:wasAttributedTo",
        "prov:generated", "prov:qualifiedGeneration", "prov:Generation",
        "prov:atTime", "prov:wasRevisionOf", "prov:SoftwareAgent",
        "dcat:Dataset", "dcat:Distribution", "dcat:distribution",
        "dcat:downloadURL", "dcat:mediaType", "dc:hasVersion", "dc:creator",
        "dc:created", "dc:modified", "dc:description", "dc:language",
        "dc:publisher", "dc:LinguisticSystem", "opmw:WorkflowExecutionArtifact",
        "mls:ModelEvaluation", "mls:specifiedBy", "mls:EvaluationMeasure",
        "sh:NodeShape", "sh:sparql", "sh:SPARQLConstraint", "sh:targetClass",
        "edam:operation_2409", "edam:format_1915", "edam:format_2330",
        "edam:format_2376", "edam:format_3256", "edam:topic_0128",
        "reprod:Cell", "fabio:Triplestore",
    ]
    for curie in required:
        assert curie in vocab.TERM_CATALOG, curie


def test_catalog_total_over_fixture_vocabulary(fixture_graph):
    # Every predicate and every class used in the example graph must be a
    # catalog term; instance IRIs just need a registered namespace.
    rdf_type = IRI(vocab.expand_str("rdf:type"))
    for t in fixture_graph.match():
        assert vocab.in_catalog_namespace(t.p.value), t.p.value
        pred_curie = vocab.compress(t.p.value)
        assert pred_curie in vocab.TERM_CATALOG, pred_curie
        if t.p == rdf_type:
            class_curie = vocab.compress(t.o.value)
            if not class_curie.startswith("opredict:"):
                assert class_curie in vocab.TERM_CATALOG, class_curie
        if isinstance(t.s, IRI):
            assert vocab.in_catalog_namespace(t.s.value), t.s.value


def test_prefixes_turtle_preamble_parses():
    doc = vocab.prefixes_turtle() + "\nopredict:x rdf:type p-plan:Step .\n"
    g = parse_turtle(doc)
    assert len(g) == 1
