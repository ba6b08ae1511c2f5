"""The term lexer shared by the N-Triples, Turtle and SPARQL readers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plexflow.cq import query_text
from plexflow.fixture import generate_fixture
from plexflow.lexing import EscapeError, unescape
from plexflow.query import QueryError, QueryParseError, evaluate, parse_query
from plexflow.rdf import (
    IRI, Graph, NTriplesParseError, RdfError, Triple, lit, parse_ntriples,
    serialize_ntriples,
)
from plexflow.turtle import TurtleParseError, parse_turtle
from plexflow.vocab import prefixes_turtle

from conftest import load_listing


def _nt_object(body: str):
    (t,) = parse_ntriples(f'<urn:s> <urn:p> {body} .\n').match()
    return t.o


def _ttl_object(body: str):
    (t,) = parse_turtle(f'<urn:s> <urn:p> {body} .\n').match()
    return t.o


def _rq_object(body: str):
    query = parse_query(f"SELECT ?s WHERE {{ ?s <urn:p> {body} }}")
    return query.where.elements[0].o


SYNTAXES = [
    pytest.param(_nt_object, NTriplesParseError, id="ntriples"),
    pytest.param(_ttl_object, TurtleParseError, id="turtle"),
    pytest.param(_rq_object, QueryParseError, id="sparql"),
]

LITERAL_ESCAPES = [
    ("é", "é"),
    ("\\u00E9", "é"),
    ("\\U0001F600", "\U0001F600"),
    ('\\t\\"\\\\', '\t"\\'),
    ("\\uZZZZ", None),
    ("\\u12", None),
    ("\\UFFFFFFFF", None),
    ("\\U0011FFFF", None),
    ("\\uD800", None),
    ("\\q", None),
    ("\\", None),
]


@pytest.mark.parametrize("read, error", SYNTAXES)
@pytest.mark.parametrize("escaped, decoded", LITERAL_ESCAPES)
def test_literal_escapes_decode_alike_in_every_syntax(read, error, escaped, decoded):
    body = f'"x{escaped}"'
    if decoded is None:
        with pytest.raises(error):
            read(body)
    else:
        assert read(body) == lit(f"x{decoded}")


IRI_ESCAPES = [
    ("urn:x\\u0020a", "urn:x a"),
    ("urn:x\\U0000003Ea", "urn:x>a"),
    ("urn:x\\uZZZZ", None),
    ("urn:x\\", None),
]


@pytest.mark.parametrize("read, error", SYNTAXES)
@pytest.mark.parametrize("escaped, decoded", IRI_ESCAPES)
def test_iri_escapes_decode_alike_in_every_syntax(read, error, escaped, decoded):
    body = f"<{escaped}>"
    if decoded is None:
        with pytest.raises(error):
            read(body)
    else:
        assert read(body) == IRI(decoded)


@pytest.mark.parametrize("read", [_ttl_object, _rq_object])
def test_escape_error_points_at_the_term(read):
    with pytest.raises((TurtleParseError, QueryParseError)) as err:
        read('\n  "ok\\uZZZZ"')
    assert (err.value.line, err.value.col) == (2, 3)


def test_unescape_leaves_escape_free_text_alone():
    text = "plain text, no escapes"
    assert unescape(text) is text
    with pytest.raises(EscapeError):
        unescape("tail\\")


def test_turtle_reads_serializer_output_with_escaped_iri():
    g = Graph([Triple(IRI("urn:x a"), IRI("urn:p"), lit('say "hi"\n'))])
    text = serialize_ntriples(g)
    assert "\\u0020" in text
    assert parse_turtle(text) == g
    assert parse_ntriples(text) == g


def test_bad_regex_is_a_parse_error_with_position():
    with pytest.raises(QueryParseError) as err:
        parse_query('SELECT ?o WHERE { ?s ?p ?o FILTER(REGEX(?o, "(")) }')
    assert err.value.col == 45
    with pytest.raises(QueryParseError):
        parse_query('SELECT ?o WHERE { ?s ?p ?o FILTER(REGEX(?o, "a{99999999999}")) }')


def test_ill_formed_query_literal_is_a_parse_error():
    rdf_lang_string = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString>"
    with pytest.raises(QueryParseError):
        parse_query(f'SELECT ?s WHERE {{ ?s ?p "x"^^{rdf_lang_string} }}')
    with pytest.raises(QueryParseError):
        parse_query('SELECT ?s WHERE { ?s ?p "x"^^<relative> }')


def test_truncated_ntriples_statement_is_a_parse_error():
    for line in ("<urn:s>", "<urn:s> <urn:p>", "<urn:s> <urn:p> "):
        with pytest.raises(NTriplesParseError):
            parse_ntriples(line)


# -- fuzzing: mutated documents may only fail with typed errors ---------------

FUZZ_ALPHABET = '\\uU"<>@^:_([#'

# Every 30th statement of the fixture: IRIs, plain, typed and tagged
# literals, at a size that keeps each parse well under a millisecond.
NT_SAMPLE = "".join(serialize_ntriples(generate_fixture()).splitlines(True)[::30])
TTL_SAMPLE = load_listing("prospective.ttl")
# The template has no literal, so one filter adds a REGEX and a tagged string.
RQ_SAMPLE = query_text("cq3_5.rq").replace(
    "} ORDER BY",
    '  FILTER(?workflow != "v0.1"@en)\n'
    '  FILTER(REGEX(?value, "^0[.][0-9]+$"))\n} ORDER BY')


def mutations(text: str):
    """Up to three edits, each dropping 0-2 characters and inserting a short
    run from the alphabet; half of them land at an IRI or string boundary."""
    edges = sorted({j for i, ch in enumerate(text) if ch in '<>"' for j in (i, i + 1)})
    position = st.one_of(st.integers(0, len(text)), st.sampled_from(edges))
    edit = st.tuples(position, st.integers(0, 2),
                     st.text(FUZZ_ALPHABET, min_size=1, max_size=8))

    def apply(edits):
        out = text
        for pos, drop, insert in edits:
            out = out[:pos] + insert + out[pos + drop:]
        return out

    return st.lists(edit, min_size=1, max_size=3).map(apply)


FUZZ = settings(derandomize=True, max_examples=100, deadline=None)


@FUZZ
@given(mutations(NT_SAMPLE))
def test_mutated_ntriples_raise_only_typed_errors(doc):
    try:
        parse_ntriples(doc)
    except RdfError:
        pass


@FUZZ
@given(mutations(prefixes_turtle() + NT_SAMPLE))
def test_mutated_ntriples_as_turtle_raise_only_typed_errors(doc):
    try:
        parse_turtle(doc)
    except TurtleParseError:
        pass


@FUZZ
@given(mutations(TTL_SAMPLE))
def test_mutated_turtle_raise_only_typed_errors(doc):
    try:
        parse_turtle(doc)
    except TurtleParseError:
        pass


# One execution that the sample query finds, so its filters run.
RQ_GRAPH = parse_turtle(prefixes_turtle() + """
opredict:Activity_1 rdf:type p-plan:Activity ;
    p-plan:correspondsToStep opredict:Step_1 ;
    prov:generated opredict:Artifact_1 .
opredict:Step_1 p-plan:isStepOfPlan opredict:Plan_1 .
opredict:Plan_1 rdf:type dul:Workflow .
opredict:Artifact_1 dc:description "0.83" .
""").freeze()


def test_query_sample_has_an_answer():
    assert len(evaluate(parse_query(RQ_SAMPLE), RQ_GRAPH)) == 1


@FUZZ
@given(mutations(RQ_SAMPLE))
def test_mutated_query_raise_only_typed_errors(doc):
    try:
        evaluate(parse_query(doc), RQ_GRAPH)
    except QueryError:
        pass
