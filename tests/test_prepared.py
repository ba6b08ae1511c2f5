"""Prepared competency questions: parameters written into the template
text as terms, and the parsed query and the planner's choices reused per
parameter values on the same frozen graph."""

import gc
import re
import weakref

import pytest

import plexflow.query
from plexflow.cq import CATALOGUE, CqError, query_text, run_cq
from plexflow.fixture import V01, V02, generate_fixture
from plexflow.query import (
    PreparedQuery, QueryError, QueryParseError, _Choices, _Lexer, evaluate, parse_query,
)
from plexflow.rdf import IRI, Graph, iri
from plexflow.vocab import PPLAN

from conftest import relabel

COPIES = 16


def _copy_params(copy: int) -> dict[str, str]:
    """$workflow = v0.1 and $from/$to = v0.1/v0.2 of copy ``copy``."""
    v01, v02 = relabel(V01, copy), relabel(V02, copy)
    return {"workflow": v01, "from": v01, "to": v02}


def _substituted(filename: str, params: dict[str, str]) -> str:
    """The template with ``<iri>`` written in for every ``$name``."""
    return re.sub(r"\$(\w+)", lambda m: f"<{params[m.group(1)]}>", query_text(filename))


def _values(params: dict[str, str], names) -> dict:
    return {name: iri(params[name]) for name in names}


def test_every_template_takes_its_catalogue_parameters_in_first_use_order():
    for cq_id, entry in CATALOGUE.items():
        assert PreparedQuery(query_text(entry.file)).params == entry.params, cq_id


def test_binding_equals_parsing_the_substituted_text_for_every_copy():
    for cq_id, entry in CATALOGUE.items():
        prepared = PreparedQuery(query_text(entry.file))
        for copy in range(COPIES):
            params = _copy_params(copy)
            bound = prepared.bind(_values(params, entry.params))
            assert bound == parse_query(_substituted(entry.file, params)), (cq_id, copy)


def test_a_parameter_stands_for_a_whole_iri_term():
    prepared = PreparedQuery("SELECT ?s WHERE { ?s $p+ $o . FILTER(?s != $o) }")
    assert prepared.params == ("p", "o")
    bound = prepared.bind({"p": iri("urn:p"), "o": iri("urn:o")})
    assert bound == parse_query(
        "SELECT ?s WHERE { ?s <urn:p>+ <urn:o> . FILTER(?s != <urn:o>) }")
    with pytest.raises(QueryError, match=r"missing query parameter \$o"):
        prepared.bind({"p": iri("urn:p")})
    # A '$' that starts no parameter name is left in the text it parses.
    with pytest.raises(QueryParseError, match="unsubstituted query parameter"):
        PreparedQuery("SELECT ?s WHERE { ?s <urn:p> $ }").bind({})
    # parse_query still refuses a parameter left in the text.
    with pytest.raises(QueryParseError, match="unsubstituted query parameter"):
        parse_query("SELECT ?s WHERE { ?s <urn:p> $o }")


def test_every_dollar_in_a_template_starts_a_parameter_outside_strings():
    # Binding substitutes text, so a '$' inside a string or IRI, or one
    # naming no parameter, would change what a template means.
    marker = "urn:x-param:"
    for cq_id, entry in CATALOGUE.items():
        text = query_text(entry.file)
        assert set(re.findall(r"\$(\w*)", text)) <= set(entry.params), cq_id
        lexer = _Lexer(_substituted(entry.file, {n: marker + n for n in entry.params}))
        while (tok := lexer.next_token()).kind != "EOF":
            if marker in str(tok.value):
                assert tok.kind == "IRIREF", (cq_id, tok)


def test_a_bound_iri_that_nt_term_escapes_keeps_its_value():
    prepared = PreparedQuery("SELECT ?s WHERE { ?s <urn:p> $o }")
    value = IRI("urn:a b")
    bound = prepared.bind({"o": value})
    assert bound.where.elements[0].o == value


@pytest.mark.parametrize("value", ["http://a b", "http://a>b", "http://a/\\u0041"])
def test_a_parameter_no_iri_reference_can_spell_is_a_cq_error(fixture_graph, value):
    # Text substitution failed on these inside the parser, or decoded the
    # escape; a bound term would quietly match nothing.
    with pytest.raises(CqError, match="parameter --workflow must be an absolute IRI"):
        run_cq("CQ1.1", fixture_graph, {"workflow": value})


def _estimates_counted(monkeypatch) -> list[int]:
    calls = [0]
    estimate = plexflow.query._estimate

    def counted(*args):
        calls[0] += 1
        return estimate(*args)

    monkeypatch.setattr(plexflow.query, "_estimate", counted)
    return calls


def test_replayed_choices_answer_as_estimating_does_on_16_copies(
        sixteen_copy_graph, monkeypatch):
    g = sixteen_copy_graph
    estimates = _estimates_counted(monkeypatch)
    for cq_id, entry in CATALOGUE.items():
        prepared = PreparedQuery(query_text(entry.file))
        for copy in range(COPIES if entry.params else 1):
            params = _copy_params(copy)
            values = _values(params, entry.params)
            query, choices = prepared.bind_for(g, values)
            first = evaluate(query, g, choices=choices)
            before = estimates[0]
            query, choices = prepared.bind_for(g, values)
            replayed = evaluate(query, g, choices=choices)
            assert estimates[0] == before, (cq_id, copy)  # the replay estimates nothing
            fresh = evaluate(parse_query(_substituted(entry.file, params)), g)
            assert first.rows == replayed.rows == fresh.rows, (cq_id, copy)
        # run_cq answers the same the second time, CQ2.1's reordering included.
        params = {n: _copy_params(5)[n] for n in entry.params}
        assert run_cq(cq_id, g, params) == run_cq(cq_id, g, params), cq_id


def _without_some_steps(g: Graph) -> Graph:
    """``g`` less every third step's ``p-plan:isStepOfPlan`` triple."""
    links = g.match(None, iri(PPLAN.isStepOfPlan), None)
    dropped = set(links[::3])
    return Graph(t for t in g if t not in dropped).freeze()


def test_the_same_parameters_on_two_graphs_get_each_graph_its_own_answer(
        monkeypatch):
    full = generate_fixture().freeze()
    part = _without_some_steps(full)
    params = {"workflow": V01, "from": V01, "to": V02}
    estimates = _estimates_counted(monkeypatch)
    for cq_id in ("CQ1.1", "CQ1.2", "CQ2.2", "CQ3.2", "CQ3.3"):
        entry = CATALOGUE[cq_id]
        want = {id(g): evaluate(parse_query(_substituted(entry.file, params)), g)
                for g in (full, part)}
        assert want[id(full)] != want[id(part)], cq_id
        wanted = {n: params[n] for n in entry.params}
        for g in (full, part, full, part):
            before = estimates[0]
            assert run_cq(cq_id, g, wanted) == want[id(g)], cq_id
            # The other graph ran last, so nothing is replayed across.
            assert estimates[0] > before, cq_id


def test_the_memo_holds_its_graph_weakly():
    g = generate_fixture().freeze()
    params = {"workflow": V01, "from": V01, "to": V02}
    for cq_id, entry in CATALOGUE.items():
        run_cq(cq_id, g, {n: params[n] for n in entry.params})
        run_cq(cq_id, g, {n: params[n] for n in entry.params})
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_a_replay_must_use_up_exactly_its_record(fixture_graph):
    g = fixture_graph.copy().freeze()
    entry = CATALOGUE["CQ1.1"]
    values = _values({"workflow": V01}, entry.params)
    prepared = PreparedQuery(query_text(entry.file))
    query, choices = prepared.bind_for(g, values)
    evaluate(query, g, choices=choices)
    record = tuple(choices.made)
    assert record  # CQ1.1 chooses among its patterns
    assert evaluate(query, g, choices=_Choices(record)) == evaluate(query, g)
    for wrong in (record + (0,), record[:-1], (99,) + record[1:]):
        with pytest.raises(RuntimeError, match="replayed plan"):
            evaluate(query, g, choices=_Choices(wrong))


def test_each_template_is_parsed_once_per_parameters_and_graph(
        fixture_graph, monkeypatch):
    g = fixture_graph.copy().freeze()
    param_sets = [{"workflow": V01, "from": V01, "to": V02},
                  {"workflow": V02, "from": V02, "to": V01}]
    parsed = []
    parser = plexflow.query._Parser

    def counted(text):
        parsed.append(text)
        return parser(text)

    monkeypatch.setattr(plexflow.query, "_Parser", counted)
    for params in param_sets:
        for cq_id, entry in CATALOGUE.items():
            run_cq(cq_id, g, {n: params[n] for n in entry.params})
    assert len(parsed) == sum(len(param_sets) if entry.params else 1
                              for entry in CATALOGUE.values())
    parsed.clear()
    for params in param_sets:
        for cq_id, entry in CATALOGUE.items():
            run_cq(cq_id, g, {n: params[n] for n in entry.params})
    assert not parsed
