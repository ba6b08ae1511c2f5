"""The triples grammar Turtle and SPARQL share: error positions and parse
results pinned across the shared lexer and parser base."""

import hashlib
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

import plexflow
from plexflow.cq import query_text
from plexflow.query import (Group, OrderKey, QueryParseError, SelectQuery, Var,
                            parse_query)
from plexflow.rdf import Literal, serialize_ntriples
from plexflow.turtle import TurtleParseError, parse_turtle

from conftest import DATA_DIR, load_listing

LANG_STRING = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString>"
EX = "@prefix ex: <urn:e#> .\n"
W = "SELECT ?s WHERE { "

# (id, document, error class, line, col, earlier answer). The last field is
# None where the answer is the one the two separate parsers gave, and says
# what they gave where the shared grammar changes it on purpose.
ERRORS = [
    ("ttl-base", "@base <urn:b/> .", TurtleParseError, 1, 1, None),
    ("ttl-anon", EX + "ex:s ex:p [ ex:q ex:o ] .", TurtleParseError, 2, 11, None),
    ("ttl-unknown-prefix", "nope:s nope:p nope:o .", TurtleParseError, 1, 1, None),
    ("ttl-missing-object", EX + "ex:s ex:p .", TurtleParseError, 2, 11, None),
    ("ttl-relative-iri", "<urn:s> <urn:p>\n  <relative> .", TurtleParseError, 2, 3, None),
    ("ttl-unterminated-string", '<urn:s> <urn:p> "abc', TurtleParseError, 1, 17, None),
    ("ttl-bad-langtag", '<urn:s> <urn:p> "x"@ .', TurtleParseError, 1, 20, None),
    ("ttl-bad-escape", '<urn:s> <urn:p>\n "a\\q" .', TurtleParseError, 2, 2, None),
    ("ttl-malformed-iri", "<urn:s> <urn:p> <urn:a b> .", TurtleParseError, 1, 17, None),
    ("ttl-blank-predicate", "<urn:s> _:b <urn:o> .", TurtleParseError, 1, 9, None),
    ("ttl-literal-subject", '"x" <urn:p> <urn:o> .', TurtleParseError, 1, 1, None),
    ("ttl-bare-subject", "<urn:s> .", TurtleParseError, 1, 9,
     "no error: a subject without a predicate-object list gave an empty graph"),
    ("ttl-missing-dot", "<urn:s> <urn:p> <urn:o>", TurtleParseError, 1, 24, None),
    ("ttl-prefix-with-local", "@prefix ex:foo <urn:e#> .", TurtleParseError, 1, 9, None),
    ("ttl-prefix-without-iri", "@prefix ex: ex:foo .", TurtleParseError, 1, 13, None),
    ("ttl-datatype-missing", '<urn:s> <urn:p> "x"^^"y" .', TurtleParseError, 1, 22, None),
    ("ttl-unknown-word", "<urn:s> <urn:p> foo .", TurtleParseError, 1, 17, None),
    ("ttl-bad-blank-label", "_:! <urn:p> <urn:o> .", TurtleParseError, 1, 1, None),
    ("ttl-langstring-iriref", f'<urn:s> <urn:p>\n  "x"^^{LANG_STRING} .',
     TurtleParseError, 2, 3, "RdfError without a position"),
    ("ttl-langstring-pname",
     "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
     '<urn:s> <urn:p> "x"^^rdf:langString .',
     TurtleParseError, 2, 17, "RdfError without a position"),
    ("rq-nested-group", W + "{ ?s ?p ?o } }", QueryParseError, 1, 19, None),
    ("rq-parameter", W + "$workflow ?p ?s }", QueryParseError, 1, 19, None),
    ("rq-unknown-prefix", W + "?s ex:p ?o }", QueryParseError, 1, 22, None),
    ("rq-prefix-without-colon", "PREFIX ex <urn:e#>\n" + W + "?s ?p ?o }",
     QueryParseError, 1, 8, None),
    ("rq-prefix-without-iri", "PREFIX ex: ex:x\n" + W + "?s ?p ?o }",
     QueryParseError, 1, 12, None),
    ("rq-blank-node", W + "_:b ?p ?s }", QueryParseError, 1, 19, None),
    ("rq-literal-predicate", W + '?s "p" ?o }', QueryParseError, 1, 22, None),
    ("rq-literal-subject", 'SELECT ?o WHERE { "x" <urn:p> ?o }', QueryParseError, 1, 19,
     "no error: the pattern parsed and matched nothing"),
    ("rq-plus-on-variable", W + "?s ?p+ ?o }", QueryParseError, 1, 24, None),
    ("rq-langstring", W + f'?s ?p\n  "x"^^{LANG_STRING} }}', QueryParseError, 2, 3, None),
    ("rq-relative-datatype", W + '?s ?p "x"^^<relative> }', QueryParseError, 1, 30, None),
    ("rq-datatype-missing", W + '?s ?p "x"^^?v }', QueryParseError, 1, 30, None),
    ("rq-unterminated-group", W + "?s ?p ?o ", QueryParseError, 1, 28, None),
    ("rq-bad-iri-escape", W + "?s ?p <urn:x\\uZZZZ> }", QueryParseError, 1, 25, None),
    ("rq-union", W + "{ ?s ?p ?o } UNION }", QueryParseError, 1, 38,
     "(1, 32), UNION rejected by name; UNION is now in the grammar, and the "
     "missing right group is named"),
    ("rq-union-without-left", W + "UNION { ?s ?p ?o } }", QueryParseError, 1, 19,
     "(1, 19), UNION rejected by name"),
    ("rq-bare-group-after-pattern", W + "?s ?p ?o . { ?s ?q ?o } }",
     QueryParseError, 1, 30, None),
    ("rq-grammar-before-lexical", W + '?s ?p }\n"unterminated', QueryParseError, 1, 25,
     "(2, 1), the later lexical error: the whole query was cut before parsing"),
    ("rq-grammar-before-escape", W + "?s ?p }\n<urn:\\uZZZZ>", QueryParseError, 1, 25,
     "(2, 1), the later lexical error: the whole query was cut before parsing"),
]


@pytest.mark.parametrize("doc, error, line, col",
                         [case[1:5] for case in ERRORS], ids=[case[0] for case in ERRORS])
def test_malformed_input_error_and_position(doc, error, line, col):
    parse = parse_turtle if error is TurtleParseError else parse_query
    with pytest.raises(error) as err:
        parse(doc)
    assert (err.value.line, err.value.col) == (line, col)


# SHA-256 prefixes of the parse results, recorded before Turtle and SPARQL
# shared one triples grammar: each query's AST repr with its parameters bound
# to <urn:param:NAME>, and each listing as canonical N-Triples. cq2_2 was
# recorded when UNION entered the grammar and replaced the separate sub-plan
# templates; cq3_2 and cq3_4 when each became one UNION template in place of
# a removed, a changed and an added one; cq2_1 when it dropped the OPTIONAL
# that listed every (before, member) pair of the chain.
QUERY_DIGESTS = {
    "cq1_1.rq": "4b92951fb1fea317",
    "cq1_2.rq": "aba489ee004036ce",
    "cq1_3.rq": "bfdbc86af5f22f64",
    "cq1_4.rq": "d7552a245c6c005d",
    "cq2_1.rq": "519f6d77c53ee6b1",
    "cq2_2.rq": "8a311437af2b354e",
    "cq2_3.rq": "dafc8ea82b41efa1",
    "cq3_1.rq": "5ba337fdc4e9461a",
    "cq3_2.rq": "9857475583dec035",
    "cq3_3.rq": "4bcd7d30bd252c01",
    "cq3_4.rq": "30dfb5e640365e5e",
    "cq3_5.rq": "2510872970148b76",
}
# The removed, changed and added templates that cq3_2 and cq3_4 replaced keep
# the digests they had as files: each is now the branch of its template that
# carries its tag, and BRANCHES says how that branch reads as the old query.
BRANCH_DIGESTS = {
    "cq3_2_added.rq": "c231c7e49580cbb3",
    "cq3_2_changed.rq": "3063e677c9e62776",
    "cq3_2_removed.rq": "44756a63d7f1b1ad",
    "cq3_4_added.rq": "38a822dcb405afbc",
    "cq3_4_changed.rq": "9869b1fdbe431dae",
    "cq3_4_removed.rq": "ac69bf67fc43b1b8",
}
# (template, branch tag, variables the branch names otherwise, the old
# template's projection).
BRANCHES = {
    "cq3_2_added.rq": ("cq3_2.rq", "added", {"new": "instruction", "prior": "old"},
                       ["instruction"]),
    "cq3_2_changed.rq": ("cq3_2.rq", "changed", {}, ["old", "new"]),
    "cq3_2_removed.rq": ("cq3_2.rq", "removed", {"old": "instruction"}, ["instruction"]),
    "cq3_4_added.rq": ("cq3_4.rq", "added", {"new": "distribution"}, ["distribution"]),
    "cq3_4_changed.rq": ("cq3_4.rq", "changed", {}, ["old", "new"]),
    "cq3_4_removed.rq": ("cq3_4.rq", "removed", {"old": "distribution"}, ["distribution"]),
}
LISTING_DIGESTS = {
    "prospective.ttl": "313204ba23eb1960",
    "retrospective.ttl": "bb97a161af49779f",
    "versioning.ttl": "e688ec79978ba578",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rename(node, names: dict):
    if isinstance(node, Var):
        return Var(names.get(node.name, node.name))
    if isinstance(node, list):
        return [_rename(n, names) for n in node]
    if is_dataclass(node):
        return replace(node, **{f.name: _rename(getattr(node, f.name), names)
                                for f in fields(node)})
    return node


def _parse_template(name: str) -> SelectQuery:
    return parse_query(re.sub(r"\$(\w+)", r"<urn:param:\1>", query_text(name)))


def _branch_as_template(name: str) -> SelectQuery:
    """The tagged branch that replaced `name`, without its VALUES tag, as the
    DISTINCT query ordered by its first column that `name` was."""
    template, tag, names, projection = BRANCHES[name]
    query = _parse_template(template)
    (union,) = query.where.elements
    (branch,) = [b for b in union.branches if b.elements[0].terms == [Literal(tag)]]
    variables = [Var(v) for v in projection]
    return SelectQuery(query.prefixes, variables, True,
                       Group(_rename(branch.elements[1:], names)), [OrderKey(variables[0])])


def test_every_template_and_listing_is_pinned():
    queries = Path(plexflow.__file__).parent / "queries"
    assert sorted(p.name for p in queries.glob("*.rq")) == sorted(QUERY_DIGESTS)
    assert sorted(p.name for p in DATA_DIR.glob("*.ttl")) == sorted(LISTING_DIGESTS)


@pytest.mark.parametrize("name, digest", {**QUERY_DIGESTS, **BRANCH_DIGESTS}.items())
def test_template_parses_to_pinned_ast(name, digest):
    query = _parse_template(name) if name in QUERY_DIGESTS else _branch_as_template(name)
    assert _digest(repr(query)) == digest


@pytest.mark.parametrize("name, digest", LISTING_DIGESTS.items())
def test_listing_parses_to_pinned_graph(name, digest):
    graph = parse_turtle(load_listing(name))
    assert _digest(serialize_ntriples(graph)) == digest
