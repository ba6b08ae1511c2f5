import pytest

from plexflow.rdf import (
    IRI, Literal, Triple, iri, lit, parse_ntriples, serialize_ntriples,
)
from plexflow.turtle import TurtleParseError, parse_turtle
from plexflow.vocab import DC, OPREDICT as OP, PROV, XSD

from conftest import load_listing


def test_minimal_prefix_document():
    g = parse_turtle("@prefix ex: <urn:e#> . ex:s ex:p ex:o .")
    assert len(g) == 1
    (t,) = g.match()
    assert t.s == iri("urn:e#s") and t.o == iri("urn:e#o")


def test_sparql_style_prefix():
    g = parse_turtle("PREFIX ex: <urn:e#>\nex:s ex:p ex:o .")
    assert len(g) == 1


def test_semicolon_and_comma_sugar_match_expanded_form():
    sugar = parse_turtle(
        "@prefix ex: <urn:e#> .\n"
        "ex:s ex:p ex:a , ex:b ;\n"
        "     ex:q ex:c ;\n"
        "     a ex:T .\n")
    expanded = parse_turtle(
        "@prefix ex: <urn:e#> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "ex:s ex:p ex:a .\n"
        "ex:s ex:p ex:b .\n"
        "ex:s ex:q ex:c .\n"
        "ex:s rdf:type ex:T .\n")
    assert sugar == expanded


def test_literals_blank_nodes_and_empty_prefix():
    g = parse_turtle(
        "@prefix : <urn:base#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        ':x :label "hello"@en ;\n'
        '   :count "3"^^xsd:integer .\n'
        "_:node :label \"blank\" .\n")
    assert len(g) == 3
    assert g.value(iri("urn:base#x"), iri("urn:base#label")) == lit("hello", lang="en")


def test_unknown_prefix_reported():
    with pytest.raises(TurtleParseError) as err:
        parse_turtle("nope:s nope:p nope:o .")
    assert "unknown prefix" in str(err.value)


def test_unsupported_constructs_rejected_by_name():
    cases = {
        "@prefix ex: <urn:e#> . ex:s ex:p [ ex:q ex:o ] .": "anonymous blank node",
        "@prefix ex: <urn:e#> . ex:s ex:p ( ex:a ex:b ) .": "collection",
        "@base <urn:base/> .": "@base",
        "@prefix ex: <urn:e#> . ex:s ex:p 42 .": "numeric literal",
        '@prefix ex: <urn:e#> . ex:s ex:p """long""" .': "multi-line string",
        "@prefix ex: <urn:e#> . ex:s ex:p true .": "boolean literal",
    }
    for doc, needle in cases.items():
        with pytest.raises(TurtleParseError) as err:
            parse_turtle(doc)
        assert needle in str(err.value)


def test_syntax_error_has_position():
    with pytest.raises(TurtleParseError) as err:
        parse_turtle("@prefix ex: <urn:e#> .\nex:s ex:p .")
    assert err.value.line == 2


def test_relative_iri_rejected():
    with pytest.raises(TurtleParseError):
        parse_turtle("<relative> <urn:p> <urn:o> .")


@pytest.mark.parametrize("doc, col", [
    ("_:b1 <urn:p> <b1> .", 14),
    ('_:b1 <urn:p> "x"^^<b1> .', 19),
    ("_:b1 <b1> <urn:o> .", 6),
    ("@prefix x: <> . _:b1 <urn:p> x:b1 .", 30),
])
def test_relative_iri_spelled_like_an_earlier_blank_label_is_rejected(doc, col):
    # The parser's term table must not hand the blank node _:b1 back for
    # the IRI text 'b1'.
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(doc)
    assert (err.value.line, err.value.col) == (1, col)
    assert "not an absolute IRI: 'b1'" in str(err.value)


@pytest.mark.parametrize("datatype", [
    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString>", "rdf:langString"])
def test_ill_formed_literal_is_a_parse_error_at_the_literal(datatype):
    doc = ("@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
           f'<urn:s> <urn:p>\n  "x"^^{datatype} .\n')
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(doc)
    assert (err.value.line, err.value.col) == (3, 3)
    assert "rdf:langString literal requires a language tag" in str(err.value)


def test_local_names_with_dots_and_dashes():
    g = parse_turtle(
        "@prefix ex: <urn:e#> .\n"
        "ex:release-4-drugbank-drugbank.nq.gz ex:p ex:o .\n")
    (t,) = g.match()
    assert t.s == iri("urn:e#release-4-drugbank-drugbank.nq.gz")


# -- the bundled example listings --------------------------------------------

def test_prospective_listing_parses_to_23_triples():
    g = parse_turtle(load_listing("prospective.ttl"))
    assert len(g) == 23
    usage = IRI(OP.Usage_Fetch_download_Drugbank_dataset_to_variable)
    entities = g.objects(usage, IRI(PROV.entity))
    assert IRI(OP["Distribution_release-4-drugbank-drugbank.nq.gz"]) in entities
    assert IRI(OP.Variable_Drugbank_dataset_online) in entities


def test_retrospective_listing_statement_count_and_content():
    # Hand count of the example block: 8 activity statements, 4 on the
    # accuracy artifact, 2 on the generation node.
    g = parse_turtle(load_listing("retrospective.ttl"))
    assert len(g) == 14
    assert parse_ntriples(serialize_ntriples(g)) == g
    activity = IRI(OP.Activity_Model_preparation_train_and_evaluation_Execution_1546302862)
    generated = g.match(activity, IRI(PROV.generated), None)
    assert len(generated) == 6
    accuracy = IRI(OP.ModelEvaluation_Accuracy_Execution_1546302862)
    assert g.value(accuracy, IRI(DC.description)) == lit("0.833336")
    gen = IRI(OP.Generation_Execution_1546302862)
    at = g.value(gen, IRI(PROV.atTime))
    assert at == Literal("2019-01-01T00:02:31.011", XSD.dateTime)


def test_versioning_listing_v02_block():
    # Hand count of the v0.2 block: two rdf:type statements plus ten
    # property statements.
    g = parse_turtle(load_listing("versioning.ttl"))
    v02 = IRI(OP.Plan_Main_Protocol_v02)
    v02_triples = g.match(s=v02)
    assert len(v02_triples) == 12
    assert Triple(v02, IRI(PROV.wasRevisionOf),
                  IRI(OP.Plan_Main_Protocol_v01)) in g
    assert g.value(v02, IRI(DC.hasVersion)) == lit("0.2")
    assert g.value(v02, IRI(DC.created)) == lit("2019-05-15")
