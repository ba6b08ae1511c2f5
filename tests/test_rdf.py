import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plexflow.rdf import (
    BlankBudgetError, BlankNode, FrozenGraphError, Graph, IRI, Literal,
    NTriplesParseError, RdfError, Triple, XSD_NS, XSD_STRING, RDF_LANG_STRING,
    bnode, iri, isomorphic, lit, nt_term, parse_ntriples, serialize_ntriples,
)

XSD_INTEGER = XSD_NS + "integer"


# -- terms -------------------------------------------------------------------

def test_iri_requires_scheme():
    assert IRI("urn:a").value == "urn:a"
    assert IRI("https://example.org/x")
    with pytest.raises(RdfError):
        IRI("no-scheme-here")
    with pytest.raises(RdfError):
        IRI("/relative/path")


def test_blank_label_charset():
    assert BlankNode("b1").label == "b1"
    with pytest.raises(RdfError):
        BlankNode("has space")
    with pytest.raises(RdfError):
        BlankNode("")


def test_literal_defaults_and_lang():
    plain = lit("hello")
    assert plain.datatype == XSD_STRING and plain.lang is None
    tagged = lit("hello", lang="en")
    assert tagged.datatype == RDF_LANG_STRING
    with pytest.raises(RdfError):
        Literal("x", RDF_LANG_STRING)  # langString needs a tag
    with pytest.raises(RdfError):
        Literal("x", "urn:some:type", "en")


def test_literal_identity_is_lexical():
    # No value-space canonicalization: different lexical forms differ.
    a = lit("01", "http://www.w3.org/2001/XMLSchema#int")
    b = lit("1", "http://www.w3.org/2001/XMLSchema#int")
    assert a != b


def test_triple_position_rules():
    s, p, o = iri("urn:s"), iri("urn:p"), iri("urn:o")
    Triple(s, p, o)
    Triple(bnode("x"), p, lit("v"))
    with pytest.raises(RdfError):
        Triple(lit("v"), p, o)
    with pytest.raises(RdfError):
        Triple(s, bnode("x"), o)  # type: ignore[arg-type]


# -- graph -------------------------------------------------------------------

def _triple(s, p, o):
    return Triple(iri(s), iri(p), iri(o))


def test_insert_is_idempotent():
    g = Graph()
    t = _triple("urn:a", "urn:p", "urn:b")
    assert g.add(t) is True
    assert g.add(t) is False
    assert len(g) == 1


def test_match_is_exact_and_sorted():
    g = Graph()
    g.add(_triple("urn:a", "urn:p", "urn:b"))
    g.add(_triple("urn:a", "urn:q", "urn:c"))
    g.add(_triple("urn:b", "urn:p", "urn:c"))
    assert len(g.match()) == 3
    assert len(g.match(s=iri("urn:a"))) == 2
    assert [t.o.value for t in g.match(p=iri("urn:p"))] == ["urn:b", "urn:c"]
    assert g.match(s=iri("urn:zzz")) == []


def _every_shape(rng, subjects, preds, objects):
    """One random (s, p, o) query for each of the 8 bound/unbound shapes."""
    return [tuple(rng.choice(pool) if bound else None
                  for bound, pool in zip(shape, (subjects, preds, objects)))
            for shape in itertools.product((False, True), repeat=3)]


def test_match_agrees_with_linear_scan_randomized():
    # Each graph is read unfrozen, frozen, and frozen again, once the first
    # frozen round has replaced its buckets with sorted copies.
    rng = random.Random(7)
    subjects = [iri(f"urn:n{i}") for i in range(12)] + [bnode("b1"), bnode("b2")]
    objects = subjects + [lit("x"), lit("x", lang="en"), lit("1", XSD_INTEGER)]
    preds = [iri(f"urn:p{i}") for i in range(4)]
    absent = [iri("urn:absent")]
    for _ in range(100):
        g = Graph()
        for _ in range(rng.randrange(0, 200)):
            g.add(Triple(rng.choice(subjects), rng.choice(preds), rng.choice(objects)))
        all_triples = list(g)
        queries = [query for _ in range(3) for query in
                   _every_shape(rng, subjects + absent, preds + absent, objects + absent)]
        for state in ("unfrozen", "frozen", "frozen, buckets sorted"):
            if state == "frozen":
                g.freeze()
            for s, p, o in queries:
                expected = [t for t in all_triples
                            if (s is None or t.s == s)
                            and (p is None or t.p == p)
                            and (o is None or t.o == o)]
                assert g.match(s, p, o) == expected, (state, s, p, o)


def test_fully_bound_match_equals_the_subject_predicate_match_filtered():
    # match(s, p, o) reads the one (s, p) bucket. The parsed graph shares
    # one object per term, so the hand-built literals equal the parsed ones
    # without being them.
    rng = random.Random(23)
    absent = iri("urn:absent")
    hand_built = [Literal("v1"), Literal("2", XSD_INTEGER)]
    for _ in range(40):
        lines = []
        for _ in range(rng.randrange(1, 80)):
            o = (f'"v{rng.randrange(3)}"' if rng.random() < 0.2 else
                 f'"{rng.randrange(3)}"^^<{XSD_INTEGER}>' if rng.random() < 0.2
                 else f"<urn:n{rng.randrange(8)}>")
            lines.append(f"<urn:n{rng.randrange(8)}> <urn:p{rng.randrange(3)}> {o} .")
        g = parse_ntriples("\n".join(lines) + "\n")
        subjects = sorted({t.s for t in g}, key=nt_term) + [absent]
        preds = sorted({t.p for t in g}, key=nt_term) + [absent]
        objects = sorted({t.o for t in g}, key=nt_term) + [absent] + hand_built
        assert not any(o is term for o in hand_built for term in objects[:-2])
        for state in ("unfrozen", "frozen", "frozen, buckets sorted"):
            if state == "frozen":
                g.freeze()
            for s, p, o in itertools.product(subjects, preds, objects):
                expected = [t for t in g.match(s, p, None) if t.o == o]
                assert g.match(s, p, o) == expected, (state, s, p, o)


@pytest.mark.parametrize("frozen", [False, True])
def test_match_returns_a_fresh_list(frozen):
    nodes = [iri(f"urn:n{i}") for i in range(3)]
    preds = [iri("urn:p"), iri("urn:q")]
    g = Graph(Triple(s, p, o) for s in nodes for p in preds for o in nodes)
    if frozen:
        g.freeze()
    extra = _triple("urn:x", "urn:x", "urn:x")
    mutations = (lambda found: found.append(extra), list.clear, list.reverse)
    for query in _every_shape(random.Random(3), nodes, preds, nodes):
        before, size = g.match(*query), g.bucket_size(*query)
        assert before
        for mutate in mutations:
            mutate(g.match(*query))
            assert g.match(*query) == before, (query, mutate)
            assert g.bucket_size(*query) == size, (query, mutate)


def test_freeze_blocks_mutation():
    g = Graph()
    g.add(_triple("urn:a", "urn:p", "urn:b"))
    g.freeze()
    with pytest.raises(FrozenGraphError):
        g.add(_triple("urn:a", "urn:p", "urn:c"))
    copy = g.copy()
    copy.add(_triple("urn:a", "urn:p", "urn:c"))
    assert len(copy) == 2 and len(g) == 1


# -- N-Triples ---------------------------------------------------------------

def test_parse_minimal_statement():
    g = parse_ntriples("<urn:a> <urn:p> <urn:b> .")
    assert len(g) == 1
    assert Triple(iri("urn:a"), iri("urn:p"), iri("urn:b")) in g


def test_parse_empty_input():
    assert len(parse_ntriples("")) == 0
    assert len(parse_ntriples("# only a comment\n\n")) == 0


def test_parse_literals_and_blanks():
    text = '\n'.join([
        '_:x <urn:p> "plain" .',
        '<urn:a> <urn:p> "tagged"@en .',
        '<urn:a> <urn:q> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .',
        '<urn:a> <urn:r> "esc\\test\\n\\"q\\"" . # trailing comment',
    ])
    g = parse_ntriples(text)
    assert len(g) == 4
    literals = {t.o.lexical for t in g.match() if isinstance(t.o, Literal)}
    assert "esc\test\n\"q\"" in literals
    blanks = [t.s for t in g.match() if isinstance(t.s, BlankNode)]
    assert blanks == [BlankNode("x")]


def test_parse_unicode_escapes():
    g = parse_ntriples('<urn:a> <urn:p> "caf\\u00E9 \\U0001F600" .')
    (t,) = g.match()
    assert t.o.lexical == "café \U0001F600"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples("<urn:a> <urn:p> <urn:b> .\n<urn:a> <urn:p> .")
    assert err.value.line == 2
    with pytest.raises(NTriplesParseError):
        parse_ntriples("<relative> <urn:p> <urn:b> .")
    with pytest.raises(NTriplesParseError):
        parse_ntriples('<urn:a> <urn:p> "bad\\escape" .')
    with pytest.raises(NTriplesParseError):
        parse_ntriples("<urn:a> <urn:p> <urn:b>")  # missing dot


# Characters str.splitlines breaks at but N-Triples does not. The serializer
# writes the last three raw; all may appear raw inside a literal.
NON_NT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                      "\u2028", "\u2029"]


@pytest.mark.parametrize("ch", NON_NT_LINE_BREAKS, ids=lambda ch: f"U+{ord(ch):04X}")
def test_literal_with_a_non_nt_line_break_round_trips(ch):
    g = Graph([Triple(iri("urn:s"), iri("urn:p"), lit(f"a{ch}b"))])
    assert parse_ntriples(serialize_ntriples(g)) == g
    raw = parse_ntriples(f'<urn:s> <urn:p> "a{ch}b" .\n<urn:s> <urn:p> "c" .\n')
    assert {t.o.lexical for t in raw.match()} == {f"a{ch}b", "c"}


@pytest.mark.parametrize("ch", NON_NT_LINE_BREAKS[-3:], ids=lambda ch: f"U+{ord(ch):04X}")
def test_iri_with_a_raw_non_nt_line_break_round_trips(ch):
    g = Graph([Triple(iri(f"urn:a{ch}b"), iri("urn:p"), iri(f"urn:o{ch}"))])
    assert ch in serialize_ntriples(g)
    assert parse_ntriples(serialize_ntriples(g)) == g


def test_nt_line_ends_keep_their_line_numbers():
    for end in ("\n", "\r\n", "\r"):
        with pytest.raises(NTriplesParseError) as err:
            parse_ntriples(f"<urn:a> <urn:p> <urn:b> .{end}{end}<urn:a> <urn:p> .{end}")
        assert err.value.line == 3


def test_serialize_empty_graph():
    assert serialize_ntriples(Graph()) == ""


def test_serialize_is_canonical_and_order_free():
    triples = [
        _triple("urn:b", "urn:p", "urn:c"),
        _triple("urn:a", "urn:q", "urn:c"),
        _triple("urn:a", "urn:p", "urn:b"),
    ]
    g1 = Graph(triples)
    g2 = Graph(reversed(triples))
    out1, out2 = serialize_ntriples(g1), serialize_ntriples(g2)
    assert out1 == out2
    assert out1.splitlines() == sorted(out1.splitlines())
    assert out1.endswith("\n")


def test_roundtrip_identity_on_random_ground_graphs():
    rng = random.Random(11)
    for _ in range(100):
        g = Graph()
        for _ in range(rng.randrange(0, 60)):
            o = (lit(f"v{rng.randrange(20)}") if rng.random() < 0.3
                 else iri(f"urn:n{rng.randrange(15)}"))
            g.add(Triple(iri(f"urn:n{rng.randrange(15)}"),
                         iri(f"urn:p{rng.randrange(5)}"), o))
        assert parse_ntriples(serialize_ntriples(g)) == g


def test_escaping_roundtrip():
    nasty = lit('tab\there "quotes" back\\slash\nnewline\rret\x01ctl')
    g = Graph([Triple(iri("urn:s"), iri("urn:p"), nasty)])
    again = parse_ntriples(serialize_ntriples(g))
    assert again == g


def test_nt_term_formats():
    assert nt_term(iri("urn:a")) == "<urn:a>"
    assert nt_term(bnode("x")) == "_:x"
    assert nt_term(lit("v")) == '"v"'
    assert nt_term(lit("v", lang="en")) == '"v"@en'
    assert nt_term(lit("1", "urn:t")) == '"1"^^<urn:t>'


# -- isomorphism -------------------------------------------------------------

def test_isomorphic_reflexive_and_ground(fixture_graph):
    g = parse_ntriples("<urn:a> <urn:p> <urn:b> .")
    assert isomorphic(g, g)
    h = parse_ntriples("<urn:a> <urn:p> <urn:c> .")
    assert not isomorphic(g, h)


def test_isomorphic_blank_relabeling():
    g1 = parse_ntriples("_:a <urn:p> _:b .")
    g2 = parse_ntriples("_:x <urn:p> _:y .")
    g3 = parse_ntriples("_:x <urn:p> _:x .")
    assert isomorphic(g1, g2)
    assert not isomorphic(g1, g3)


def test_isomorphic_enumerates_bijections():
    g1 = parse_ntriples("_:a <urn:p> _:b .\n_:b <urn:p> _:c .\n_:c <urn:q> <urn:end> .")
    g2 = parse_ntriples("_:z <urn:q> <urn:end> .\n_:x <urn:p> _:y .\n_:y <urn:p> _:z .")
    assert isomorphic(g1, g2)
    g3 = parse_ntriples("_:x <urn:p> _:y .\n_:z <urn:p> _:y .\n_:z <urn:q> <urn:end> .")
    assert not isomorphic(g1, g3)


def test_isomorphic_budget_is_enforced():
    lines1 = [f"_:a{i} <urn:p> _:b{i} ." for i in range(11)]
    lines2 = [f"_:c{i} <urn:p> _:d{i} ." for i in range(11)]
    g1 = parse_ntriples("\n".join(lines1))
    g2 = parse_ntriples("\n".join(lines2))
    with pytest.raises(BlankBudgetError):
        isomorphic(g1, g2)  # 44 blanks > default budget of 20
    assert isomorphic(g1, g2, blank_budget=50)


def test_roundtrip_with_blanks_is_isomorphic():
    rng = random.Random(13)
    for _ in range(30):
        g = Graph()
        for _ in range(rng.randrange(1, 15)):
            s = (bnode(f"s{rng.randrange(4)}") if rng.random() < 0.4
                 else iri(f"urn:n{rng.randrange(6)}"))
            o = (bnode(f"o{rng.randrange(4)}") if rng.random() < 0.4
                 else iri(f"urn:n{rng.randrange(6)}"))
            g.add(Triple(s, iri(f"urn:p{rng.randrange(3)}"), o))
        again = parse_ntriples(serialize_ntriples(g))
        assert again == g
        assert isomorphic(again, g)


# -- escape fast paths against the character loops they replaced -----------

def loop_escape_literal(text: str) -> str:
    out = []
    for ch in text:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def loop_escape_iri(value: str) -> str:
    out = []
    for ch in value:
        if ch in '<>"{}|^`\\' or ord(ch) <= 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def loop_nt_term(term) -> str:
    if isinstance(term, IRI):
        return f"<{loop_escape_iri(term.value)}>"
    body = f'"{loop_escape_literal(term.lexical)}"'
    if term.lang is not None:
        return f"{body}@{term.lang}"
    if term.datatype != XSD_STRING:
        return f"{body}^^<{loop_escape_iri(term.datatype)}>"
    return body


def assert_escapes_match_loops(text: str):
    for term in (IRI("urn:x:" + text), Literal(text), Literal(text, lang="en"),
                 Literal(text, "urn:dt:" + text)):
        assert nt_term(term) == loop_nt_term(term), repr(text)


BELOW_0X800 = "".join(map(chr, range(0x800)))
ECHARS_AND_CONTROLS = ("\t\n\r\b\f\"'\\<>{}|^` \x7f"
                       + "".join(map(chr, range(0x20))))
ASTRAL_SAMPLE = "".join(chr(c) for c in
                        random.Random(0x1F600).sample(range(0x10000, 0x110000), 2048))


def test_escapes_equal_character_loops_per_character():
    for ch in BELOW_0X800 + ECHARS_AND_CONTROLS + ASTRAL_SAMPLE:
        assert_escapes_match_loops(ch)
        assert_escapes_match_loops(f"a{ch}b{ch}")
    assert_escapes_match_loops(BELOW_0X800)
    assert_escapes_match_loops(ASTRAL_SAMPLE)


ESCAPES = settings(derandomize=True, max_examples=400, deadline=None)


@ESCAPES
@given(st.text(alphabet=st.sampled_from(BELOW_0X800 + ASTRAL_SAMPLE)))
def test_escapes_equal_character_loops_on_mixed_text(text):
    assert_escapes_match_loops(text)


@ESCAPES
@given(st.text(alphabet=st.sampled_from(ECHARS_AND_CONTROLS + "az\u00e9\U0001F600")))
def test_escapes_equal_character_loops_on_escape_dense_text(text):
    assert_escapes_match_loops(text)


# -- interned terms ----------------------------------------------------------

def _term_objects(g: Graph) -> tuple[int, int]:
    """(term objects, distinct terms) across the graph's triples."""
    terms = [term for t in g.match() for term in t]
    return len({id(term) for term in terms}), len(set(terms))


def test_parsed_graph_holds_one_object_per_distinct_term(sixteen_copy_graph):
    assert _term_objects(sixteen_copy_graph) == (5470, 5470)


def test_parsed_turtle_holds_one_object_per_distinct_term(fixture_graph):
    from plexflow.turtle import parse_turtle
    from plexflow.vocab import prefixes_turtle

    g = parse_turtle(prefixes_turtle() + serialize_ntriples(fixture_graph))
    assert g == fixture_graph
    assert _term_objects(g) == (640, 640)


HAND_BUILT = [iri("urn:s"), bnode("b1"), lit("v"), lit("v", lang="en-GB"),
              lit("1", XSD_INTEGER)]


def test_hand_built_terms_equal_parsed_ones_with_the_same_hash():
    text = "".join(f"<urn:s> <urn:p> {nt_term(term)} .\n" for term in HAND_BUILT)
    parsed = [t.o for t in parse_ntriples(text).match()]
    for term in HAND_BUILT:
        (same,) = [other for other in parsed if other == term]
        assert hash(same) == hash(term)
        assert hash(term) == hash(tuple(getattr(term, name)
                                        for name in term._fields))


# -- index statistics used by the query planner ------------------------------

def test_bucket_size_predicates_and_inverse_closure_agree_with_scans(
        sixteen_copy_graph):
    rng = random.Random(515)

    def check_frozen(g, nodes, preds):
        assert g.predicates() == sorted({t.p for t in g.match()}, key=nt_term)
        for term in nodes:
            for _ in range(2):  # a second read sums the buckets again
                assert g.bucket_size(s=term) == len(g.match(term, None, None))
                assert g.bucket_size(o=term) == len(g.match(None, None, term))
        for _ in range(20):
            s, p, o = (rng.choice([None, rng.choice(pool)])
                       for pool in (nodes, preds + [iri("urn:absent")], nodes))
            size, found = g.bucket_size(s, p, o), len(g.match(s, p, o))
            assert size >= found
            if sum(term is not None for term in (s, p, o)) <= 1:
                assert size == found

    for _ in range(30):
        nodes = [iri(f"urn:n{i}") for i in range(rng.randrange(2, 9))]
        preds = [iri(f"urn:p{i}") for i in range(rng.randrange(1, 4))]
        g = Graph()
        for _ in range(rng.randrange(1, 40)):
            t = Triple(rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
            # Unfrozen, a subject's and an object's size follow every add.
            before = g.bucket_size(s=t.s), g.bucket_size(o=t.o)
            added = g.add(t)
            assert (g.bucket_size(s=t.s), g.bucket_size(o=t.o)) == (
                before[0] + added, before[1] + added)
        check_frozen(g.freeze(), nodes, preds)
    # Every subject and object of the frozen 16-copy graph.
    g = sixteen_copy_graph
    check_frozen(g, sorted({term for t in g.match() for term in (t.s, t.o)},
                           key=nt_term), g.predicates())


def test_predicate_string_readers_resolve_iris_and_reject_non_iris():
    g = Graph([_triple("urn:a", "urn:p", "urn:b"),
               Triple(iri("urn:a"), iri("urn:q"), lit("x"))]).freeze()
    for _ in range(2):  # the second call reads the resolved predicate
        assert g.iri_objects(iri("urn:a"), "urn:p") == ["urn:b"]
        assert g.str_value(iri("urn:a"), "urn:q") == "x"
        with pytest.raises(RdfError):
            g.iri_objects(iri("urn:a"), "no-scheme")
        with pytest.raises(RdfError):
            g.str_value(iri("urn:a"), "no-scheme")
