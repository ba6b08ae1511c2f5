import hashlib
import re

import pytest

from plexflow.cq import CATALOGUE, query_text
from plexflow.fixture import V01, V02
from plexflow.query import (
    _MAX_GROUP_DEPTH, Comparison, Minus, OptionalGroup, QueryError, QueryParseError, ResultTable,
    TriplePattern, Union, Values, Var, evaluate, explain, parse_query, run_query,
)
from plexflow.rdf import Graph, Literal, Triple, iri, lit

from conftest import k_copy_graph

BPMN = "http://dkm.fbk.eu/ontologies/bpmn#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def g_of(*spo) -> Graph:
    g = Graph()
    for s, p, o in spo:
        obj = o if isinstance(o, Literal) else iri(o)
        g.add(Triple(iri(s), iri(p), obj))
    return g.freeze()


# -- parsing -----------------------------------------------------------------

def test_parse_single_pattern_with_a_keyword():
    ast = parse_query(
        f"PREFIX bpmn: <{BPMN}>\nSELECT ?s WHERE {{ ?s a bpmn:ManualTask }}")
    patterns = [e for e in ast.where.elements if isinstance(e, TriplePattern)]
    assert len(patterns) == 1
    assert patterns[0].p == iri(RDF_TYPE)
    assert ast.variables == [Var("s")]


def test_parse_values_clause():
    ast = parse_query(
        f"PREFIX bpmn: <{BPMN}>\n"
        "SELECT ?step WHERE {\n"
        "  ?step a ?stepType .\n"
        "  values ?stepType { bpmn:ManualTask }\n"
        "}")
    values = [e for e in ast.where.elements if isinstance(e, Values)]
    assert len(values) == 1
    assert values[0].var == Var("stepType")
    assert values[0].terms == [iri(BPMN + "ManualTask")]


def test_parse_closure_modifier():
    ast = parse_query(
        "PREFIX dul: <urn:dul#>\n"
        "SELECT ?a ?b WHERE { ?a dul:precedes+ ?b }")
    (pattern,) = [e for e in ast.where.elements if isinstance(e, TriplePattern)]
    assert pattern.plus is True


def test_parse_minus_optional_filter():
    ast = parse_query(
        "SELECT ?s WHERE {\n"
        "  ?s <urn:p> ?v .\n"
        "  OPTIONAL { ?s <urn:q> ?w }\n"
        "  MINUS { ?s <urn:r> ?v }\n"
        "  FILTER (?v != ?w)\n"
        "  FILTER (!BOUND(?w))\n"
        "  FILTER (REGEX(?v, \"x+\"))\n"
        "}")
    kinds = [type(e).__name__ for e in ast.where.elements]
    assert kinds.count("OptionalGroup") == 1
    assert kinds.count("Minus") == 1
    assert kinds.count("Filter") == 3


def test_parse_union_of_three_branches():
    ast = parse_query("SELECT * WHERE { ?s <urn:p> ?o . { ?s <urn:q> ?a } "
                      "UNION { ?s <urn:r> ?b } UNION { ?b <urn:r> ?c } }")
    (union,) = [e for e in ast.where.elements if isinstance(e, Union)]
    assert [len(branch.elements) for branch in union.branches] == [1, 1, 1]
    table = evaluate(ast, g_of(("urn:x", "urn:p", "urn:y")))
    assert table.variables == ["s", "o", "a", "b", "c"]


def test_unsupported_constructs_rejected_by_name():
    for text, name in (
            ("SELECT ?s WHERE { ?s ?p ?o } OFFSET 5", "OFFSET"),
            ("SELECT ?s WHERE { BIND(1 AS ?s) }", "BIND"),
            ("ASK { ?s ?p ?o }", "ASK"),
            ("SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s", "GROUP"),
            ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5", "LIMIT")):
        with pytest.raises(QueryParseError) as err:
            parse_query(text)
        assert name in str(err.value)


def test_parse_errors_have_position_and_prefix_check():
    with pytest.raises(QueryParseError) as err:
        parse_query("SELECT ?s WHERE { ?s nope:p ?o }")
    assert "unknown prefix" in str(err.value)
    with pytest.raises(QueryParseError):
        parse_query("SELECT ?s WHERE { ?s <urn:p> }")


def test_projection_must_be_in_scope():
    with pytest.raises(QueryError):
        parse_query("SELECT ?missing WHERE { ?s <urn:p> ?o }")


def nested_query(depth: int, kind: str) -> str:
    """A query whose groups nest ``depth`` deep, the WHERE group included:
    each level is an OPTIONAL group, or a UNION with a one-pattern branch."""
    if kind == "optional":
        return ("SELECT ?s WHERE { ?s <urn:p> ?o "
                + "OPTIONAL { ?s <urn:p> ?o " * (depth - 1) + "}" * depth)
    group = "{ ?s <urn:p> ?o }"
    for _ in range(depth - 1):
        group = f"{{ {group} UNION {{ ?s <urn:p> ?o }} }}"
    return f"SELECT ?s WHERE {group}"


@pytest.mark.parametrize("kind, rows", [("optional", 1), ("union", _MAX_GROUP_DEPTH)])
def test_groups_nested_to_the_limit_parse_evaluate_and_explain(kind, rows):
    g = g_of(("urn:a", "urn:p", "urn:x"))
    query = parse_query(nested_query(_MAX_GROUP_DEPTH, kind))
    assert evaluate(query, g).rows == [(iri("urn:a"),)] * rows
    deepest = "  " * (_MAX_GROUP_DEPTH - 1) + "pattern ?s <urn:p> ?o estimate=1 rows=1"
    assert deepest in explain(query, g)


@pytest.mark.parametrize("kind", ["optional", "union"])
def test_a_group_nested_one_level_too_deep_is_a_parse_error(kind):
    text = nested_query(_MAX_GROUP_DEPTH + 1, kind)
    brace = [m.start() for m in re.finditer("{", text)][_MAX_GROUP_DEPTH]
    with pytest.raises(QueryParseError, match="nested deeper than") as exc:
        parse_query(text)
    assert (exc.value.line, exc.value.col) == (1, brace + 1)


# -- evaluation --------------------------------------------------------------

def test_single_pattern_match():
    g = g_of(("urn:s1", RDF_TYPE, BPMN + "ManualTask"),
             ("urn:s2", RDF_TYPE, BPMN + "ManualTask"),
             ("urn:s3", RDF_TYPE, BPMN + "ScriptTask"))
    table = run_query(
        f"PREFIX bpmn: <{BPMN}>\nSELECT ?s WHERE {{ ?s a bpmn:ManualTask }}", g)
    assert [row[0].value for row in table.rows] == ["urn:s1", "urn:s2"]


def test_join_on_shared_variable():
    g = g_of(("urn:a", "urn:p", "urn:b"), ("urn:b", "urn:q", "urn:c"),
             ("urn:a", "urn:p", "urn:x"))
    table = run_query(
        "SELECT ?x ?z WHERE { ?x <urn:p> ?y . ?y <urn:q> ?z }", g)
    assert table.rows == [(iri("urn:a"), iri("urn:c"))]


def test_closure_on_chain():
    g = g_of(("urn:s1", "urn:pre", "urn:s2"), ("urn:s2", "urn:pre", "urn:s3"))
    table = run_query("SELECT ?a ?b WHERE { ?a <urn:pre>+ ?b }", g)
    pairs = {(a.value, b.value) for a, b in table.rows}
    assert pairs == {("urn:s1", "urn:s2"), ("urn:s1", "urn:s3"),
                     ("urn:s2", "urn:s3")}


def test_closure_with_bound_subject_and_cycles():
    g = g_of(("urn:a", "urn:p", "urn:b"), ("urn:b", "urn:p", "urn:a"),
             ("urn:c", "urn:p", "urn:a"), ("urn:a", "urn:t", "urn:T"),
             ("urn:c", "urn:t", "urn:T"))
    table = run_query("SELECT ?x WHERE { <urn:a> <urn:p>+ ?x }", g)
    assert {row[0].value for row in table.rows} == {"urn:a", "urn:b"}
    # Self-join through the closure only keeps cyclic nodes: urn:c reaches
    # the cycle but never returns to itself.
    table = run_query("SELECT ?x WHERE { ?x <urn:p>+ ?x }", g)
    assert [row[0].value for row in table.rows] == ["urn:a", "urn:b"]
    # The same with ?x bound first by the smaller rdf:type-like bucket.
    query = parse_query("SELECT ?x WHERE { ?x <urn:t> <urn:T> . ?x <urn:p>+ ?x }")
    assert explain(query, g)[0].startswith("pattern ?x <urn:t> <urn:T>")
    assert [row[0].value for row in evaluate(query, g).rows] == ["urn:a"]


def test_minus_removes_compatible_rows():
    g = g_of(("urn:a", "urn:p", "urn:x"), ("urn:b", "urn:p", "urn:x"),
             ("urn:a", "urn:q", "urn:x"))
    table = run_query(
        "SELECT ?s WHERE { ?s <urn:p> ?o . MINUS { ?s <urn:q> ?o } }", g)
    assert [row[0].value for row in table.rows] == ["urn:b"]


def test_minus_removing_everything_gives_empty_table():
    g = g_of(("urn:a", "urn:p", "urn:x"))
    table = run_query(
        "SELECT ?s WHERE { ?s <urn:p> ?o . MINUS { ?s <urn:p> ?o } }", g)
    assert len(table) == 0


def test_minus_without_shared_variables_keeps_rows():
    g = g_of(("urn:a", "urn:p", "urn:x"), ("urn:c", "urn:q", "urn:d"))
    table = run_query(
        "SELECT ?s WHERE { ?s <urn:p> ?o . MINUS { ?y <urn:q> ?z } }", g)
    assert len(table) == 1


def test_union_keeps_every_branch_row_as_a_bag():
    g = g_of(("urn:a", "urn:p", "urn:x"), ("urn:a", "urn:q", "urn:x"),
             ("urn:b", "urn:q", "urn:y"), ("urn:a", "urn:name", "urn:n"),
             ("urn:b", "urn:name", "urn:m"))
    table = run_query(
        "SELECT ?s ?o ?w WHERE { ?s <urn:name> ?n . "
        "{ ?s <urn:p> ?o } UNION { ?s <urn:q> ?o } UNION { ?s <urn:q> ?w } }", g)
    assert [tuple(t and t.value for t in row) for row in table.rows] == [
        ("urn:a", None, "urn:x"), ("urn:a", "urn:x", None),
        ("urn:a", "urn:x", None), ("urn:b", None, "urn:y"),
        ("urn:b", "urn:y", None)]


def test_minus_of_a_union_keys_on_the_variables_every_row_binds():
    g = g_of(("urn:a", "urn:p", "urn:x"), ("urn:b", "urn:p", "urn:y"),
             ("urn:c", "urn:p", "urn:z"), ("urn:a", "urn:gone", "urn:x"),
             ("urn:t", "urn:hides", "urn:b"))
    query = parse_query(
        "SELECT ?s WHERE { ?s <urn:p> ?o . MINUS { { ?s <urn:gone> ?o } "
        "UNION { ?t <urn:hides> ?s } } }")
    assert [row[0].value for row in evaluate(query, g).rows] == ["urn:c"]
    assert explain(query, g)[-1] == "minus key=(?s) pairs=2 rows=1"


def test_optional_left_join_and_bound_filter():
    g = g_of(("urn:a", "urn:p", "urn:x"), ("urn:b", "urn:p", "urn:y"),
             ("urn:a", "urn:extra", "urn:e"))
    table = run_query(
        "SELECT ?s ?e WHERE { ?s <urn:p> ?o . "
        "OPTIONAL { ?s <urn:extra> ?e } }", g)
    by_s = {row[0].value: row[1] for row in table.rows}
    assert by_s["urn:a"] == iri("urn:e")
    assert by_s["urn:b"] is None
    table = run_query(
        "SELECT ?s WHERE { ?s <urn:p> ?o . "
        "OPTIONAL { ?s <urn:extra> ?e } FILTER (!BOUND(?e)) }", g)
    assert [row[0].value for row in table.rows] == ["urn:b"]


def test_a_filter_inside_optional_tests_the_merged_row():
    # SPARQL 1.1 Query, §18.2.2.6: OPTIONAL { P FILTER(F) } is
    # LeftJoin(G, P, F), so F sees the outer row's ?x.
    g = g_of(("urn:a", "urn:p", lit("1")), ("urn:a", "urn:q", "urn:o"),
             ("urn:b", "urn:p", lit("2")), ("urn:b", "urn:q", "urn:o2"))
    table = run_query('SELECT ?s ?x ?o WHERE { ?s <urn:p> ?x . '
                      'OPTIONAL { ?s <urn:q> ?o . FILTER(?x = "1") } }', g)
    assert table.rows == [(iri("urn:a"), lit("1"), iri("urn:o")),
                          (iri("urn:b"), lit("2"), None)]


def test_a_filter_inside_minus_sees_only_the_groups_own_rows():
    # Minus(G, Filter(F, P)): ?x is unbound inside the group, so the
    # FILTER drops every group row and MINUS removes nothing.
    g = g_of(("urn:a", "urn:p", lit("1")), ("urn:a", "urn:q", "urn:o"),
             ("urn:b", "urn:p", lit("2")), ("urn:b", "urn:q", "urn:o2"))
    table = run_query('SELECT ?s ?x WHERE { ?s <urn:p> ?x . '
                      'MINUS { ?s <urn:q> ?o . FILTER(?x = "1") } }', g)
    assert table.rows == [(iri("urn:a"), lit("1")), (iri("urn:b"), lit("2"))]


def test_filter_comparisons():
    g = Graph()
    g.add(Triple(iri("urn:a"), iri("urn:v"), lit("alpha")))
    g.add(Triple(iri("urn:b"), iri("urn:v"), lit("beta")))
    g.add(Triple(iri("urn:c"), iri("urn:v"),
                 lit("5", "http://www.w3.org/2001/XMLSchema#integer")))
    g.freeze()
    table = run_query(
        'SELECT ?s WHERE { ?s <urn:v> ?o . FILTER (?o = "alpha") }', g)
    assert [row[0].value for row in table.rows] == ["urn:a"]
    table = run_query(
        "SELECT ?s WHERE { ?s <urn:v> ?o . FILTER (?o > 3) }", g)
    assert [row[0].value for row in table.rows] == ["urn:c"]
    # Type-mismatched comparisons are false, not errors.
    table = run_query(
        "SELECT ?s WHERE { ?s <urn:v> ?o . FILTER (?o < 3) }", g)
    assert len(table) == 0
    table = run_query(
        'SELECT ?s WHERE { ?s <urn:v> ?o . FILTER (REGEX(?o, "^a")) }', g)
    assert [row[0].value for row in table.rows] == ["urn:a"]


def test_values_restricts_bindings():
    g = g_of(("urn:s1", RDF_TYPE, BPMN + "ManualTask"),
             ("urn:s2", RDF_TYPE, BPMN + "ScriptTask"))
    table = run_query(
        f"PREFIX bpmn: <{BPMN}>\n"
        "SELECT ?s ?t WHERE { ?s a ?t . VALUES ?t { bpmn:ManualTask } }", g)
    assert [row[0].value for row in table.rows] == ["urn:s1"]


def test_two_values_blocks_on_one_variable_keep_the_bag_intersection():
    g = g_of(("urn:s", "urn:p", "urn:o"))
    query = parse_query("SELECT ?x WHERE { VALUES ?x { <urn:a> <urn:b> <urn:b> } "
                        "VALUES ?x { <urn:b> <urn:c> } }")
    assert explain(query, g) == ["values ?x terms=3 rows=3",
                                 "values ?x terms=2 rows=2"]
    assert evaluate(query, g).rows == [(iri("urn:b"),), (iri("urn:b"),)]


def test_values_lines_are_written_on_empty_rows_but_a_union_is_skipped():
    g = g_of(("urn:a", "urn:p", "urn:o"))
    query = parse_query("SELECT ?x WHERE { VALUES ?x { } "
                        "{ ?x <urn:p> ?o } UNION { ?x <urn:q> ?o } "
                        "VALUES ?x { <urn:a> } }")
    assert explain(query, g) == ["values ?x terms=0 rows=0",
                                 "values ?x terms=1 rows=0"]
    assert evaluate(query, g).rows == []


def test_a_values_row_that_matches_no_triple_drops_out_of_the_pattern_join():
    g = g_of(("urn:a", "urn:p", "urn:x"), ("urn:b", "urn:p", "urn:y"))
    query = parse_query("SELECT ?s ?o WHERE { VALUES ?s { <urn:z> <urn:a> } "
                        "?s <urn:p> ?o }")
    assert explain(query, g) == ["values ?s terms=2 rows=2",
                                 "pattern ?s <urn:p> ?o estimate=1 rows=1"]
    assert evaluate(query, g).rows == [(iri("urn:a"), iri("urn:x"))]


def test_distinct_collapses_duplicates():
    g = g_of(("urn:a", "urn:p", "urn:x"), ("urn:a", "urn:q", "urn:y"))
    plain = run_query("SELECT ?s WHERE { ?s ?p ?o }", g)
    distinct = run_query("SELECT DISTINCT ?s WHERE { ?s ?p ?o }", g)
    assert len(plain) == 2 and len(distinct) == 1
    assert set(plain.rows) == set(distinct.rows)


def test_order_by_and_default_canonical_order():
    g = g_of(("urn:b", "urn:p", "urn:1"), ("urn:a", "urn:p", "urn:2"))
    by_s = run_query("SELECT ?s ?o WHERE { ?s <urn:p> ?o } ORDER BY ?s", g)
    assert [row[0].value for row in by_s.rows] == ["urn:a", "urn:b"]
    by_o = run_query("SELECT ?s ?o WHERE { ?s <urn:p> ?o } ORDER BY ?o", g)
    assert [row[1].value for row in by_o.rows] == ["urn:1", "urn:2"]


def test_order_by_desc_reverses_and_ties_keep_ascending_row_order():
    g = g_of(("urn:a", "urn:p", "urn:1"), ("urn:b", "urn:p", "urn:2"),
             ("urn:c", "urn:q", "urn:2"), ("urn:d", "urn:q", "urn:1"))
    # The UNION yields the urn:q rows first, out of row order.
    table = run_query("SELECT ?s ?o WHERE { { ?s <urn:q> ?o } UNION "
                      "{ ?s <urn:p> ?o } } ORDER BY DESC(?o)", g)
    assert [(s.value, o.value) for s, o in table.rows] == [
        ("urn:b", "urn:2"), ("urn:c", "urn:2"), ("urn:a", "urn:1"), ("urn:d", "urn:1")]
    # Later keys break the ties of earlier ones, each in its own direction.
    table = run_query("SELECT ?s ?o WHERE { { ?s <urn:q> ?o } UNION "
                      "{ ?s <urn:p> ?o } } ORDER BY ?o desc(?s)", g)
    assert [s.value for s, _ in table.rows] == ["urn:d", "urn:a", "urn:c", "urn:b"]


def test_order_by_asc_is_bare_variable():
    g = g_of(("urn:b", "urn:p", "urn:1"), ("urn:a", "urn:p", "urn:2"),
             ("urn:c", "urn:p", "urn:1"))
    for key in ("?o", "ASC(?o)", "asc(?o)"):
        table = run_query(f"SELECT ?s ?o WHERE {{ ?s <urn:p> ?o }} ORDER BY {key}", g)
        assert [s.value for s, _ in table.rows] == ["urn:b", "urn:c", "urn:a"], key


@pytest.mark.parametrize("order, col", [("DESC ?o", 49), ("DESC()", 49),
                                        ("ASC(?o", 50)])
def test_order_by_direction_needs_one_parenthesized_variable(order, col):
    with pytest.raises(QueryParseError) as err:
        parse_query(f"SELECT ?s WHERE {{ ?s <urn:p> ?o }} ORDER BY {order}")
    assert (err.value.line, err.value.col) == (1, col)


def test_order_by_direction_on_unbound_variable():
    with pytest.raises(QueryError, match="ORDER BY variable [?]unbound does not"):
        parse_query("SELECT ?s WHERE { ?s <urn:p> ?o } ORDER BY DESC(?unbound)")


@pytest.mark.parametrize("order", ["?o", "DESC(?o)"])
def test_order_by_variable_must_be_projected(order):
    # Rows are sorted after projection, so an unprojected key has no column.
    with pytest.raises(QueryError, match="ORDER BY variable [?]o is not projected"):
        parse_query(f"SELECT ?s WHERE {{ ?s <urn:p> ?o }} ORDER BY {order}")
    parse_query(f"SELECT * WHERE {{ ?s <urn:p> ?o }} ORDER BY {order}")


def test_star_projection_uses_first_appearance_order():
    g = g_of(("urn:a", "urn:p", "urn:b"))
    table = run_query("SELECT * WHERE { ?x <urn:p> ?y }", g)
    assert table.variables == ["x", "y"]


def test_a_variable_only_in_minus_is_out_of_scope():
    # SPARQL 1.1 Query, §18.2.1: a MINUS group puts no variable in scope.
    g = g_of(("urn:a", "urn:p", "urn:b"), ("urn:b", "urn:q", "urn:c"))
    pattern = "WHERE { ?x <urn:p> ?y . MINUS { ?y <urn:q> ?z } }"
    assert run_query(f"SELECT * {pattern}", g).variables == ["x", "y"]
    with pytest.raises(QueryError, match="projected variable [?]z does not "
                       "occur in the pattern outside MINUS"):
        parse_query(f"SELECT ?x ?z {pattern}")
    with pytest.raises(QueryError, match="ORDER BY variable [?]z does not "
                       "occur in the pattern outside MINUS"):
        parse_query(f"SELECT * {pattern} ORDER BY ?z")


def test_evaluate_requires_frozen_graph():
    g = Graph()
    g.add(Triple(iri("urn:a"), iri("urn:p"), iri("urn:b")))
    with pytest.raises(QueryError):
        run_query("SELECT ?s WHERE { ?s ?p ?o }", g)


def test_repeated_variable_in_pattern():
    g = g_of(("urn:a", "urn:p", "urn:a"), ("urn:b", "urn:p", "urn:c"),
             ("urn:c", "urn:p", "urn:b"), ("urn:d", "urn:p", "urn:d"),
             ("urn:a", "urn:t", "urn:T"), ("urn:c", "urn:t", "urn:T"),
             ("urn:p", "urn:p", "urn:o"))
    table = run_query("SELECT ?x WHERE { ?x <urn:p> ?x }", g)
    assert [row[0].value for row in table.rows] == ["urn:a", "urn:d"]
    # ?x bound first by the smaller <urn:t> bucket, then matched as both ends.
    query = parse_query("SELECT ?x WHERE { ?x <urn:t> <urn:T> . ?x <urn:p> ?x }")
    assert explain(query, g)[0].startswith("pattern ?x <urn:t> <urn:T>")
    assert [row[0].value for row in evaluate(query, g).rows] == ["urn:a"]
    # A subject that is also the predicate.
    table = run_query("SELECT ?x ?y WHERE { ?x ?x ?y }", g)
    assert [(x.value, y.value) for x, y in table.rows] == [("urn:p", "urn:o")]


def test_unsubstituted_parameter_is_an_error():
    with pytest.raises(QueryParseError) as err:
        parse_query("SELECT ?s WHERE { ?s <urn:p> $workflow }")
    assert "parameter" in str(err.value)


def test_tsv_and_json_output():
    g = g_of(("urn:a", "urn:p", "urn:b"))
    table = run_query(
        "SELECT ?s ?missing WHERE { ?s <urn:p> ?o . "
        "OPTIONAL { ?s <urn:q> ?missing } }", g)
    tsv = table.to_tsv()
    assert tsv.splitlines()[0] == "?s\t?missing"
    assert tsv.splitlines()[1] == "<urn:a>\t"
    assert '"rows"' in table.to_json()


# -- EXPLAIN -----------------------------------------------------------------

def test_explain_records_join_order_estimates_and_hash_keys():
    g = g_of(("urn:a", "urn:type", "urn:T"), ("urn:b", "urn:type", "urn:T"),
             ("urn:c", "urn:type", "urn:T"), ("urn:a", "urn:name", "urn:x"),
             ("urn:c", "urn:name", "urn:z"), ("urn:a", "urn:next", "urn:b"),
             ("urn:b", "urn:next", "urn:c"), ("urn:b", "urn:gone", "urn:y"))
    query = parse_query(
        "SELECT * WHERE { ?s <urn:type> <urn:T> . ?s <urn:name> ?n . "
        "OPTIONAL { ?s <urn:next>+ ?t } MINUS { ?t <urn:gone> ?u } "
        "FILTER(BOUND(?t)) }")
    plan = explain(query, g)
    # The OPTIONAL starts from the two outer ?s values. urn:c has no
    # successor, so ?t is neither a MINUS seed nor a MINUS key: the key is
    # empty. The p+ estimate is the first hop's bucket per seed row: for
    # urn:a and urn:c each, the 2 <urn:next> triples, no more than the
    # statements with that subject.
    assert plan == [
        "pattern ?s <urn:name> ?n estimate=2 rows=2",
        "pattern ?s <urn:type> <urn:T> estimate=5 rows=2",
        "  seed start rows=2",
        "  pattern ?s <urn:next>+ ?t estimate=4 rows=2",
        "optional key=(?s) pairs=2 rows=3",
        "  pattern ?t <urn:gone> ?u estimate=1 rows=1",
        "minus key=() pairs=3 rows=2",
        "filter rows=1",
    ]
    # ?u occurs only in the MINUS group, so SELECT * has no column for it.
    assert evaluate(query, g).rows == [(iri("urn:a"), iri("urn:x"), iri("urn:c"))]


def test_a_group_with_more_seed_rows_than_its_first_estimate_runs_unseeded():
    # Three outer (?a, ?b) seeds, more than the smallest first-step
    # estimate (2), so the OPTIONAL does not start from them and runs
    # alone. Its urn:a4 row has no outer (?a, ?b) and pairs with no outer
    # row, so the answers are those of a seeded start.
    g = g_of(("urn:a1", "urn:p", "urn:b1"), ("urn:a2", "urn:p", "urn:b2"),
             ("urn:a3", "urn:p", "urn:b3"), ("urn:a1", "urn:q", "urn:c1"),
             ("urn:a4", "urn:q", "urn:c2"), ("urn:c1", "urn:r", "urn:b1"),
             ("urn:c2", "urn:r", "urn:b4"), ("urn:c1", "urn:s", "urn:d1"),
             ("urn:c2", "urn:s", "urn:d2"), ("urn:c3", "urn:s", "urn:d3"),
             ("urn:c4", "urn:s", "urn:d4"))
    query = parse_query("SELECT * WHERE { ?a <urn:p> ?b . "
                        "OPTIONAL { ?a <urn:q> ?c . ?c <urn:r> ?b . ?c <urn:s> ?d } }")
    plan = explain(query, g)
    assert plan == [
        "pattern ?a <urn:p> ?b estimate=3 rows=3",
        "  pattern ?a <urn:q> ?c estimate=2 rows=2",
        "  pattern ?c <urn:r> ?b estimate=4 rows=2",
        "  pattern ?c <urn:s> ?d estimate=4 rows=2",
        "optional key=(?a ?b) pairs=1 rows=3",
    ]
    assert evaluate(query, g).rows == [
        (iri("urn:a1"), iri("urn:b1"), iri("urn:c1"), iri("urn:d1")),
        (iri("urn:a2"), iri("urn:b2"), None, None),
        (iri("urn:a3"), iri("urn:b3"), None, None)]


def test_explain_shows_union_branches_before_the_patterns():
    g = g_of(("urn:a", "urn:type", "urn:T"), ("urn:b", "urn:type", "urn:T"),
             ("urn:a", "urn:p", "urn:x"), ("urn:b", "urn:q", "urn:y"),
             ("urn:b", "urn:q", "urn:z"))
    query = parse_query(
        "SELECT * WHERE { ?s <urn:type> <urn:T> . "
        "{ ?s <urn:p> ?o } UNION { ?s <urn:q> ?o . ?s <urn:type> ?k } }")
    assert explain(query, g) == [
        "  pattern ?s <urn:p> ?o estimate=1 rows=1",
        "  pattern ?s <urn:q> ?o estimate=2 rows=2",
        "  pattern ?s <urn:type> ?k estimate=4 rows=2",
        "union branches=2 key=() pairs=3 rows=3",
        "pattern ?s <urn:type> <urn:T> estimate=6 rows=3",
    ]


def test_estimate_uses_the_buckets_of_the_values_bound():
    # ?kind is bound to the rare type, so ?s rdf:type ?kind (1 candidate)
    # runs before ?s <urn:p> ?o (3), though the predicate bucket of
    # rdf:type (4) is the larger one.
    g = g_of(("urn:a", RDF_TYPE, "urn:Rare"), ("urn:a", RDF_TYPE, "urn:Common"),
             ("urn:b", RDF_TYPE, "urn:Common"), ("urn:c", RDF_TYPE, "urn:Common"),
             ("urn:a", "urn:p", "urn:x"), ("urn:b", "urn:p", "urn:x"),
             ("urn:c", "urn:p", "urn:x"))
    query = parse_query("SELECT ?s WHERE { ?s <urn:p> ?o . ?s a ?kind . "
                        "VALUES ?kind { <urn:Rare> } }")
    plan = explain(query, g)
    assert plan[1] == f"pattern ?s <{RDF_TYPE}> ?kind estimate=1 rows=1"
    assert plan[2] == "pattern ?s <urn:p> ?o estimate=3 rows=1"


def cq_plan(cq_id: str, g: Graph) -> list[str]:
    """The explain lines of a question's query, with $workflow = V01 and
    $from/$to = V01/V02."""
    text = query_text(CATALOGUE[cq_id].file).replace("$workflow", f"<{V01}>")
    text = text.replace("$from", f"<{V01}>").replace("$to", f"<{V02}>")
    return explain(parse_query(text), g)


def work(plan: list[str]) -> int:
    """Rows after every step plus join pairs, over a plan's lines."""
    return sum(int(n) for line in plan
               for n in re.findall(r"\b(?:rows|pairs)=(\d+)", line))


def plan_work(cq_id: str, g: Graph) -> int:
    return work(cq_plan(cq_id, g))


def test_plan_work_grows_linearly_with_copies():
    one, four = k_copy_graph(1), k_copy_graph(4)
    for cq_id in ("CQ1.2", "CQ2.1", "CQ2.2", "CQ3.2", "CQ3.4", "CQ3.5"):
        base, scaled = plan_work(cq_id, one), plan_work(cq_id, four)
        assert base > 0
        assert scaled <= 4.5 * base, (cq_id, base, scaled)


def test_plan_work_of_one_version_questions_stays_flat_with_copies(
        sixteen_copy_graph):
    # These questions read one version, so other copies add no rows. A
    # UNION joined after the triple patterns would let the patterns run
    # over every copy: work linear in the copies, which the 4.5x bound
    # above lets through (it measured 4.7x for CQ2.2 at 16 copies).
    one = k_copy_graph(1)
    # CQ1.3 and CQ3.3 still break the bound (83 -> 129 and 22 -> 48): at
    # one copy their greedy order starts from a whole-graph bucket (7
    # distributions, 4 revisions) that is no longer the smallest at 16, and
    # the version-anchored start that wins there does more work.
    for cq_id in ("CQ1.1", "CQ1.2", "CQ1.4", "CQ2.1", "CQ2.2", "CQ3.2", "CQ3.4"):
        base = plan_work(cq_id, one)
        scaled = plan_work(cq_id, sixteen_copy_graph)
        assert scaled <= 1.5 * base, (cq_id, base, scaled)


# Per question, on the fixture and on its 16-copy relabelling: the SHA-256
# prefix of its explain text and its plan work. A change to the store or the
# planner that moves a join order, an estimate or a row count shows here;
# re-pin on purpose, and the work shows in the diff whether it rose.
# CQ3.2 and CQ3.4 were re-pinned when their three templates became one
# three-branch UNION: every old line reappears one level deeper with its
# estimate and rows, next to one VALUES line per branch and the UNION line.
# Every plan with an OPTIONAL or MINUS whose patterns bind an outer variable
# was re-pinned when those groups were first seeded from the outer rows:
# the groups gained their ``seed`` lines and follow the seeded estimates.
# CQ2.1 was re-pinned when its template dropped the (before, member)
# OPTIONAL and ``p+`` became a walk estimated by its first hop's bucket.
# CQ1.4, CQ3.1 and CQ3.5 were re-pinned when their one-pattern OPTIONALs
# began to extend each outer row: each lost its ``seed`` lines, and its
# ``optional key=...`` line became ``optional extend rows=R``.
# CQ3.2 and CQ3.4 were re-pinned when a group that does not start from its
# seed stopped joining the seed in: their MINUS groups lost their
# ``seed key=...`` lines.
PINNED_PLANS = {
    (1, "CQ1.1"): ("cf2f887d86c9e965", 164),
    (1, "CQ1.2"): ("b3dbbb964bcaddad", 704),
    (1, "CQ1.3"): ("6f1281a72d4b89ea", 83),
    (1, "CQ1.4"): ("9772e3c595bf9bbd", 439),
    (1, "CQ2.1"): ("76922d5eb9051121", 4),
    (1, "CQ2.2"): ("c82ff49a0b52af9e", 324),
    (1, "CQ2.3"): ("b407042ca5edabb3", 93),
    (1, "CQ3.1"): ("ed46679564ef3b71", 17),
    (1, "CQ3.2"): ("da80212894457aba", 1813),
    (1, "CQ3.3"): ("0cf9b245c9efbcc7", 22),
    (1, "CQ3.4"): ("7274dded88834272", 1527),
    (1, "CQ3.5"): ("6831fc9c2053abb8", 248),
    (16, "CQ1.1"): ("08235df9392326d1", 170),
    (16, "CQ1.2"): ("bf259402db748d93", 323),
    (16, "CQ1.3"): ("8f6ed59421cae364", 129),
    (16, "CQ1.4"): ("866bfb9c2077c240", 444),
    (16, "CQ2.1"): ("5ca794431d4c6fcc", 4),
    (16, "CQ2.2"): ("c82ff49a0b52af9e", 324),
    (16, "CQ2.3"): ("dd37364985085a4c", 1488),
    (16, "CQ3.1"): ("deb9b85909b61e93", 272),
    (16, "CQ3.2"): ("7f5c275e69efdb8b", 1608),
    (16, "CQ3.3"): ("c8f39d9855989f90", 48),
    (16, "CQ3.4"): ("ba1a4a6fbb11dfe1", 1073),
    (16, "CQ3.5"): ("a2ca26f061cb8a0b", 4256),
}


def test_every_cq_plan_is_pinned(sixteen_copy_graph):
    graphs = {1: k_copy_graph(1), 16: sixteen_copy_graph}
    plans = {}
    for copies, g in graphs.items():
        for cq_id in CATALOGUE:
            plan = cq_plan(cq_id, g)
            digest = hashlib.sha256("\n".join(plan).encode()).hexdigest()[:16]
            plans[copies, cq_id] = (digest, work(plan))
    assert plans == PINNED_PLANS
