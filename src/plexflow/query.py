"""SPARQL-subset parser and evaluator.

The grammar is frozen to what the competency-question catalogue needs:

- ``SELECT [DISTINCT] ?vars|* WHERE { ... } [ORDER BY key ...]``, where a
  key is ``?v``, ``ASC(?v)`` or ``DESC(?v)``;
- basic graph patterns with ``;`` / ``,`` sugar and the ``a`` keyword;
- a one-or-more-hops closure modifier ``+`` on IRI predicates;
- ``FILTER`` with ``= != < >`` comparisons, ``BOUND`` / ``!BOUND`` and
  ``REGEX(?var, "pattern")``;
- ``VALUES ?var { term ... }`` inline bindings;
- ``MINUS { ... }`` and ``OPTIONAL { ... }`` nested groups;
- ``{ ... } UNION { ... } [UNION { ... } ...]``; a bare nested group is
  accepted only as a UNION branch.

Anything else a full SPARQL 1.1 processor would accept (BIND, aggregates,
subqueries, property-path alternation, updates, ...) is rejected by name
at parse time.

The triples grammar is Turtle's: the query lexer's rule list splices in
:data:`plexflow.lexing.TRIPLES_RULES`, and the parser subclasses
:class:`plexflow.turtle.TriplesParser` for the token cursor, prefixes,
IRIs, literals and the ``;`` / ``,`` lists, adding only what is SPARQL's
own. Tokens are read one at a time, so the first error in document order
is the one reported. A malformed escape, an ill-formed literal and a REGEX
pattern that does not compile are all :class:`QueryParseError` with their
position, never an error during evaluation; so is a ``{`` that opens a group
more than ``_MAX_GROUP_DEPTH`` deep, which keeps the parser and the
evaluator, both recursive, within Python's recursion limit.

Evaluation is bag-semantics over a frozen graph: VALUES tables, then
UNIONs, then triple patterns are joined left-deep, then OPTIONAL left-joins,
then MINUS, then FILTERs. A UNION evaluates each branch as its own group
and concatenates the rows; joining them before any triple pattern lets
branches anchored on a constant bound the rows the patterns start from.
``p+`` matches the transitive closure of ``p``, walked over
:meth:`Graph.match` from a bound end, or from each subject of ``p`` when
neither end is bound (:func:`_walk`). Type-mismatched FILTER comparisons
evaluate to false rather than erroring. Result rows come back sorted by
their serialized form, then stably by each ORDER BY key (last key first,
``DESC`` keys reversed), so output is deterministic and rows equal on
every key keep their serialized order. Each distinct term object is
serialized once per query, looked up by its ``id`` rather than hashed, and
every sort key reuses that text.

- Join order is cost-based. The next pattern is the one with the fewest
  estimated candidates, ties by textual order. A pattern's estimate is the
  sum, over the current rows, of the smallest index bucket among its bound
  positions (:meth:`Graph.bucket_size`), so it reflects the values
  actually bound, VALUES included. For ``p+`` it is the first hop's
  bucket: an estimate, not an upper bound. It is computed per step: the
  constant positions' bucket once, then per row only the sizes of the
  values the row binds.
- A step extends all rows at once (:func:`_extend`): one
  :meth:`Graph.match` call per row, one copy of the row per triple, and
  only the variables the row leaves unbound are set. Where each of the
  pattern's variables is bound in every row or in none (always, in a
  group without UNION), those variables are found once per step, not per
  row. ``p+`` takes the same path, with :func:`_hops` in place of
  ``match``, and a pattern that repeats a variable keeps only the triples
  whose repeated positions agree.
- Outer and inner rows meet in one hash join, :func:`_join`, in the modes
  of SPARQL's algebra (SPARQL 1.1 Query, §18.5): VALUES tables (one row
  per term) and UNION rows join ``"inner"``, OPTIONAL groups that do not
  extend the outer rows (below) ``"optional"`` and MINUS groups
  ``"minus"``. The key is the variables bound in every outer row and in
  every inner row; only rows with equal keys are paired, and each pair is
  then checked on the variables outside the key. An empty key puts all
  inner rows in one bucket. An outer row extends with every compatible
  inner row; with none, an inner join drops it and OPTIONAL keeps it
  alone. An OPTIONAL group's own FILTERs are the left join's condition
  (§18.2.2.6): they test each merged row, so they see the outer row's
  bindings, and an outer row none of whose merged rows passes is kept
  alone. MINUS removes an outer row when some compatible inner row shares
  at least one variable with it; a MINUS group's FILTERs test the group's
  own rows.
- A group runs from start rows (:func:`_eval_group`): the rows it starts
  from, given with the variables they all bind and those only some bind.
  The WHERE group and a UNION branch start from one empty row. An OPTIONAL
  group that is one triple pattern, not ``p+``, sharing a variable that
  every outer row binds, plus nested OPTIONALs of the same kind
  (:func:`_extends`), starts from the outer rows and extends them in place
  of a join: one :meth:`Graph.match` call per outer row, a row with no
  match kept as it is, and the nested groups run on the rows that matched.
  This needs the group to be well-designed (Pérez, Arenas & Gutierrez, ACM
  TODS 34(3), 2009): every variable of a nested OPTIONAL that the rows it
  extends may bind occurs in the enclosing pattern. Otherwise an outer
  binding would reach a nested group that SPARQL evaluates without it.
  "May bind" is read from the query: the group's VALUES, UNION, pattern
  and earlier OPTIONAL variables, so a plan and its replay take the same
  path. Any other group (a MINUS group; an OPTIONAL group with several
  patterns, FILTER, VALUES, UNION or ``p+``, or not well-designed) is
  joined, and starts from one empty row or, without VALUES or UNION, from
  its seed (sideways information passing, as in RDF-3X): the distinct
  tuples of the variables that every outer row binds and the group's own
  triple patterns bind, when the seed is no larger than its smallest
  first-step estimate. The join then keeps only the rows whose
  seed variables some outer row has. Those variables are part of the
  outer join's key, so the dropped rows would pair with no outer row; the
  seed holds no variable the group would not bind itself, so a MINUS
  group's FILTERs see what they saw unseeded, and its distinct tuples keep
  every row's multiplicity. A ``p+`` group is joined because, extended, it
  walks from each outer row in turn, where a joined group with a constant
  end walks once from it. On a 1,500-step ``dul:precedes`` chain, ``?s
  rdfs:label ?l . OPTIONAL { ?s dul:precedes+ <last> }`` took about 1.8 s
  extended and 0.03 s joined.
- :func:`explain` returns the steps the evaluator took, recorded during
  the run: join order, estimates, join keys and row counts.

A :class:`PreparedQuery` is a template text where ``$name`` stands for a
whole IRI term. Binding writes each value in as its N-Triples term
(:func:`nt_term`) and parses the text with :func:`parse_query`, which
rejects any ``$`` left over, so there is one query grammar. The prepared
query also keeps, per parameter values, the bound query and the planner's
choices for one frozen graph at a time: whether a seeded group starts
from its seed, and the pattern picked at each step with more than one
left. Both are functions of the bound query and the frozen graph alone,
so a later evaluation with the same values on the same graph reuses the
query, replays the choices and skips every estimate, with the same plan.
A replay that does not use up exactly its record raises. The memo holds
the graph weakly, never replays on another graph, and reaches the
evaluator as an argument, never through shared state, as frozen graphs
have concurrent readers. :func:`explain` and :func:`run_query` always
estimate.
"""

from __future__ import annotations

import json
import re
import weakref
from functools import partial
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Callable, Optional

from .lexing import PN_PREFIX, TRIPLES_RULES, Lexer
from .rdf import XSD_NS, XSD_STRING, RDF_TYPE, Graph, IRI, Literal, Term, nt_term
from .record import FrozenRecord, Record, set_field
from .turtle import TriplesParser

_NUMERIC_DATATYPES = {
    XSD_NS + "integer", XSD_NS + "decimal", XSD_NS + "double",
    XSD_NS + "float", XSD_NS + "int", XSD_NS + "long",
    XSD_NS + "short", XSD_NS + "byte", XSD_NS + "nonNegativeInteger",
    XSD_NS + "positiveInteger",
}

_UNSUPPORTED_KEYWORDS = {
    "BIND", "GRAPH", "SERVICE", "ASK", "CONSTRUCT", "DESCRIBE",
    "INSERT", "DELETE", "LOAD", "FROM", "NAMED", "REDUCED", "GROUP",
    "HAVING", "LIMIT", "OFFSET", "EXISTS", "NOT", "AS", "WITH",
}

# The most groups open at once, the WHERE group included; the catalogue's
# templates nest at most 3 deep.
_MAX_GROUP_DEPTH = 128


class QueryError(ValueError):
    """Base class for query parsing and evaluation errors."""


class QueryParseError(QueryError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST


class Var(FrozenRecord):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)

    def __repr__(self):
        return f"?{self.name}"


TermOrVar = Term | Var


class TriplePattern(Record):
    __slots__ = _fields = ("s", "p", "o", "plus")

    def __init__(self, s: TermOrVar, p: TermOrVar, o: TermOrVar, plus: bool = False):
        self.s = s
        self.p = p
        self.o = o
        self.plus = plus  # one-or-more-hops closure on an IRI predicate


class Comparison(Record):
    __slots__ = _fields = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: TermOrVar, rhs: TermOrVar):
        self.op = op  # = != < >
        self.lhs = lhs
        self.rhs = rhs


class BoundTest(Record):
    __slots__ = _fields = ("var", "negated")

    def __init__(self, var: Var, negated: bool = False):
        self.var = var
        self.negated = negated


class RegexTest(Record):
    __slots__ = _fields = ("var", "pattern", "negated")

    def __init__(self, var: Var, pattern: str, negated: bool = False):
        self.var = var
        self.pattern = pattern
        self.negated = negated


FilterExpr = Comparison | BoundTest | RegexTest


class Filter(Record):
    __slots__ = _fields = ("expr",)

    def __init__(self, expr: FilterExpr):
        self.expr = expr


class Values(Record):
    __slots__ = _fields = ("var", "terms")

    def __init__(self, var: Var, terms: list):
        self.var = var
        self.terms = terms


class Group(Record):
    __slots__ = _fields = ("elements",)

    def __init__(self, elements: Optional[list] = None):
        self.elements = [] if elements is None else elements


class Minus(Record):
    __slots__ = _fields = ("group",)

    def __init__(self, group: Group):
        self.group = group


class OptionalGroup(Record):
    __slots__ = _fields = ("group",)

    def __init__(self, group: Group):
        self.group = group


class Union(Record):
    __slots__ = _fields = ("branches",)

    def __init__(self, branches: list[Group]):
        self.branches = branches


class OrderKey(FrozenRecord):
    """An ORDER BY key; an ascending one prints as its bare variable."""

    __slots__ = _fields = ("var", "descending")

    def __init__(self, var: Var, descending: bool = False):
        set_field(self, "var", var)
        set_field(self, "descending", descending)

    def __repr__(self):
        return f"DESC({self.var!r})" if self.descending else repr(self.var)


class SelectQuery(Record):
    __slots__ = _fields = ("prefixes", "variables", "distinct", "where", "order_by")

    def __init__(self, prefixes: dict, variables: Optional[list[Var]], distinct: bool,
                 where: Group, order_by: Optional[list[OrderKey]] = None):
        self.prefixes = prefixes
        self.variables = variables  # None means '*'
        self.distinct = distinct
        self.where = where
        self.order_by = [] if order_by is None else order_by


# ---------------------------------------------------------------------------
# Lexer

_PARAM_RE = re.compile(r"[$]([A-Za-z_][A-Za-z0-9_]*)")


class _Lexer(Lexer):
    """Token kinds: the shared ones (:data:`TRIPLES_RULES`), VAR, NEQ,
    BANG, the punctuation below, NUMBER, WORD (a keyword or 'a') and EOF."""

    error_class = QueryParseError
    rules = (
        *TRIPLES_RULES,
        (r"[?]([A-Za-z_][A-Za-z0-9_]*)", "VAR"),
        (r"\?", None, "malformed variable name"),
        (r"\$", None, "unsubstituted query parameter (did you supply all "
                      "required parameters?)"),
        ("!=", "NEQ"),
        ("!", "BANG"),
        # '<' reaches here only when it opens no IRI reference.
        (r"\{", "LBRACE"), (r"\}", "RBRACE"), (r"\(", "LPAREN"), (r"\)", "RPAREN"),
        (r"\*", "STAR"), (r"\+", "PLUS"), ("=", "EQ"), ("<", "LT"), (">", "GT"),
        (r"-?[0-9]+(?:\.[0-9]+)?", "NUMBER"),
        (PN_PREFIX, "WORD"),
    )


# ---------------------------------------------------------------------------
# Parser


class _Parser(TriplesParser):
    """SPARQL's own grammar over the shared triples grammar: variables, the
    ``+`` modifier, blank-node rejection, numbers, FILTER, VALUES, OPTIONAL,
    MINUS, UNION, SELECT and ORDER BY."""

    lexer_class = _Lexer

    def _is_word(self, *words: str) -> bool:
        return self.tok.kind == "WORD" and self.tok.value.upper() in words

    def _expect_word(self, word: str):
        if not self._is_word(word):
            self._error(f"expected {word}")
        self._next()

    def _check_unsupported(self):
        if self.tok.kind == "WORD" and self.tok.value.upper() in _UNSUPPORTED_KEYWORDS:
            self._error(f"unsupported SPARQL construct: {self.tok.value.upper()}")

    def parse(self) -> SelectQuery:
        while self._is_word("PREFIX"):
            self._next()
            self._prefix_declaration()
        self._check_unsupported()
        self._expect_word("SELECT")
        distinct = False
        if self._is_word("DISTINCT"):
            distinct = True
            self._next()
        variables: Optional[list[Var]] = None
        if self.tok.kind == "STAR":
            self._next()
        else:
            variables = []
            while self.tok.kind == "VAR":
                variables.append(Var(self._next().value))
            if not variables:
                self._error("expected projection variables or '*'")
        if self._is_word("WHERE"):
            self._next()
        where = self._parse_group()
        order_by: list[OrderKey] = []
        if self._is_word("ORDER"):
            self._next()
            self._expect_word("BY")
            while self.tok.kind == "VAR" or self._is_word("ASC", "DESC"):
                order_by.append(self._parse_order_key())
            if not order_by:
                self._error("expected variables after ORDER BY")
        self._check_unsupported()
        if self.tok.kind != "EOF":
            self._error(f"unexpected trailing token {self.tok.value!r}")

        query = SelectQuery(self.prefixes, variables, distinct, where, order_by)
        in_scope = _bindable(where.elements)
        for v in (variables or []):
            if v.name not in in_scope:
                raise QueryError(f"projected variable ?{v.name} does not occur "
                                 "in the pattern outside MINUS")
        projected = in_scope if variables is None else [v.name for v in variables]
        for key in order_by:
            if key.var.name not in in_scope:
                raise QueryError(f"ORDER BY variable ?{key.var.name} does not "
                                 "occur in the pattern outside MINUS")
            if key.var.name not in projected:
                raise QueryError(f"ORDER BY variable ?{key.var.name} is not "
                                 "projected")
        return query

    def _parse_order_key(self) -> OrderKey:
        if self.tok.kind == "VAR":
            return OrderKey(Var(self._next().value))
        descending = self._next().value.upper() == "DESC"
        return OrderKey(self._parse_call_var(), descending)

    def _parse_group(self, depth: int = 1) -> Group:
        brace = self._expect("LBRACE", "expected '{'")
        if depth > _MAX_GROUP_DEPTH:
            self._error(f"group nested deeper than {_MAX_GROUP_DEPTH} levels",
                        brace)
        group = Group()
        while self.tok.kind != "RBRACE":
            if self.tok.kind == "EOF":
                self._error("unterminated group (missing '}')")
            self._check_unsupported()
            if self._is_word("FILTER"):
                self._next()
                group.elements.append(Filter(self._parse_filter_expr()))
            elif self._is_word("VALUES"):
                self._next()
                group.elements.append(self._parse_values())
            elif self._is_word("MINUS"):
                self._next()
                group.elements.append(Minus(self._parse_group(depth + 1)))
            elif self._is_word("OPTIONAL"):
                self._next()
                group.elements.append(OptionalGroup(self._parse_group(depth + 1)))
            elif self.tok.kind == "LBRACE":
                brace = self.tok
                branches = [self._parse_group(depth + 1)]
                while self._is_word("UNION"):
                    self._next()
                    branches.append(self._parse_group(depth + 1))
                if len(branches) == 1:
                    self._error("nested groups are only supported after "
                                "OPTIONAL or MINUS", brace)
                group.elements.append(Union(branches))
            elif self._is_word("UNION"):
                self._error("UNION must follow a bare '{ ... }' group")
            else:
                self._parse_triple_block(group)
        self._next()
        return group

    def _term(self, position: str) -> TermOrVar:
        tok = self.tok
        if tok.kind == "VAR":
            self._next()
            return Var(tok.value)
        if tok.kind in ("IRIREF", "PNAME"):
            self._next()
            return self._iri(tok)
        if tok.kind == "WORD" and tok.value == "a" and position == "predicate":
            self._next()
            return RDF_TYPE
        if tok.kind == "BLANK":
            self._error("blank nodes are not allowed in query patterns")
        if tok.kind in ("STRING", "NUMBER") and position != "object":
            self._error(f"literal not allowed as {position}")
        if tok.kind == "STRING":
            return self._literal()
        if tok.kind == "NUMBER":
            self._next()
            dt = "decimal" if "." in tok.value else "integer"
            return Literal(tok.value, XSD_NS + dt)
        self._check_unsupported()
        self._error(f"expected {position} term, found {tok.kind}")

    def _verb(self) -> tuple[TermOrVar, bool]:
        """The predicate, and whether the closure modifier '+' follows it."""
        predicate = self._term("predicate")
        if self.tok.kind != "PLUS":
            return predicate, False
        if not isinstance(predicate, IRI):
            self._error("closure modifier '+' requires an IRI predicate")
        self._next()
        return predicate, True

    def _parse_triple_block(self, group: Group):
        def add(s: TermOrVar, verb: tuple[TermOrVar, bool], o: TermOrVar):
            group.elements.append(TriplePattern(s, verb[0], o, verb[1]))

        self._predicate_object_list(self._term("subject"), add)
        if self.tok.kind == "DOT":
            self._next()

    def _parse_filter_expr(self) -> FilterExpr:
        self._expect("LPAREN", "expected '(' after FILTER")
        expr = self._parse_bool_expr()
        self._expect("RPAREN", "expected ')' to close FILTER")
        return expr

    def _parse_bool_expr(self) -> FilterExpr:
        negated = self.tok.kind == "BANG"
        if negated:
            self._next()
        if self._is_word("BOUND"):
            self._next()
            return BoundTest(self._parse_call_var(), negated)
        if self._is_word("REGEX"):
            self._next()
            self._expect("LPAREN", "expected '(' after REGEX")
            var = Var(self._expect(
                "VAR", "REGEX expects a variable as first argument").value)
            self._expect("COMMA", "expected ',' in REGEX")
            if self.tok.kind != "STRING":
                self._error("REGEX expects a string pattern")
            pattern = self.tok.value
            try:
                re.compile(pattern)
            except (re.error, OverflowError, RecursionError) as exc:
                self._error(f"bad REGEX pattern: {exc}")
            self._next()
            self._expect("RPAREN", "expected ')' to close REGEX")
            return RegexTest(var, pattern, negated)
        if negated:
            self._error("'!' only applies to BOUND or REGEX")
        lhs = self._term("object")
        if self.tok.kind not in ("EQ", "NEQ", "LT", "GT"):
            self._error("expected comparison operator (=, !=, <, >)")
        op = self._next().value
        return Comparison(op, lhs, self._term("object"))

    def _parse_call_var(self) -> Var:
        self._expect("LPAREN", "expected '('")
        var = Var(self._expect("VAR", "expected a variable").value)
        self._expect("RPAREN", "expected ')'")
        return var

    def _parse_values(self) -> Values:
        var = Var(self._expect("VAR", "VALUES expects a single variable").value)
        self._expect("LBRACE", "expected '{' after VALUES variable")
        terms = []
        while self.tok.kind != "RBRACE":
            if self.tok.kind == "EOF":
                self._error("unterminated VALUES block")
            if self.tok.kind == "VAR":
                self._error("VALUES terms must be constants")
            terms.append(self._term("object"))
        self._next()
        return Values(var, terms)


def parse_query(text: str) -> SelectQuery:
    """Parse a query in the subset grammar into an AST."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation

Solution = dict[str, Term]

_TRIPLE_POSITIONS = (attrgetter("s"), attrgetter("p"), attrgetter("o"))
# A p+ hop is a plain tuple: building a Triple per hop cost CQ2.1 about 8%.
_HOP_POSITIONS = (itemgetter(0), itemgetter(1), itemgetter(2))


class ResultTable:
    """Bag of variable bindings with a fixed header and deterministic order."""

    def __init__(self, variables: list[str], rows: list[tuple]):
        self.variables = list(variables)
        self.rows = [tuple(r) for r in rows]

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, ResultTable):
            return NotImplemented
        return self.variables == other.variables and self.rows == other.rows

    def column(self, name: str) -> list:
        idx = self.variables.index(name)
        return [row[idx] for row in self.rows]

    def to_tsv(self) -> str:
        lines = ["\t".join(f"?{v}" for v in self.variables)]
        for row in self.rows:
            lines.append("\t".join("" if t is None else nt_term(t) for t in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "vars": self.variables,
            "rows": [[None if t is None else nt_term(t) for t in row]
                     for row in self.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _substitute(part: TermOrVar, sol: Solution):
    if isinstance(part, Var):
        return sol.get(part.name)
    return part


def _walk(g: Graph, p: IRI, start: Term, forward: bool,
          stop: Optional[Term] = None) -> list[Term]:
    """The terms one or more ``p`` hops from ``start``, forward or backward,
    in first-reached order; with ``stop``, ``[stop]`` once reached, else ``[]``."""
    reached: dict[Term, None] = {}
    todo = [start]
    while todo:
        node = todo.pop()
        for t in g.match(node, p, None) if forward else g.match(None, p, node):
            nxt = t.o if forward else t.s
            if nxt == stop:
                return [stop]
            if nxt not in reached:
                reached[nxt] = None
                todo.append(nxt)
    return list(reached) if stop is None else []


def _hops(g: Graph, s: Optional[Term], p: IRI, o: Optional[Term]) -> list[tuple]:
    """The matches of ``s p+ o`` as ``(s, p, o)`` tuples: :func:`_walk` from
    the bound end, or from each subject of ``p`` when neither is bound."""
    if s is not None:
        return [(s, p, t) for t in _walk(g, p, s, True, o)]
    if o is not None:
        return [(src, p, o) for src in _walk(g, p, o, False)]
    return [(src, p, t)
            for src in dict.fromkeys(t.s for t in g.match(None, p, None))
            for t in _walk(g, p, src, True)]


def _extend(g: Graph, pat: TriplePattern, sols: list[Solution],
            fixed: bool = False,
            misses: Optional[list[Solution]] = None) -> list[Solution]:
    """Every row extended by every match of ``pat``, in row order and then
    the order of :meth:`Graph.match` (of :func:`_hops` for ``p+``); a row
    with no match goes to ``misses`` when given. The pattern's positions
    are resolved once; per row there is one ``match`` call and, per triple,
    one copy of the row with only the variables the row leaves unbound set.
    A pattern that repeats a variable keeps only the triples whose repeated
    positions agree. With ``fixed``, each of the pattern's variables is
    bound in every row or in none, so those variables are found once, from
    the first row."""
    parts = (pat.s, pat.p, pat.o)
    names = [part.name if isinstance(part, Var) else None for part in parts]
    # A constant reads as sol.get(None, constant): no row binds the name None.
    (sn, s0), (pn, p0), (on, o0) = [(name, None if name else part)
                                    for name, part in zip(names, parts)]
    match, positions = ((partial(_hops, g), _HOP_POSITIONS) if pat.plus
                        else (g.match, _TRIPLE_POSITIONS))
    slots = [(name, positions[i]) for i, name in enumerate(names) if name]
    first = dict(reversed(slots))  # each variable's first position
    if len(first) < len(slots):
        repeats = [(first[name], get) for name, get in slots if first[name] is not get]
        unfiltered = match

        def match(s, p, o):
            return [t for t in unfiltered(s, p, o)
                    if all(a(t) == b(t) for a, b in repeats)]

    free = ([slot for slot in slots if slot[0] not in sols[0]]
            if fixed and sols else None)
    out: list[Solution] = []
    append = out.append
    for sol in sols:
        found = match(sol.get(sn, s0), sol.get(pn, p0), sol.get(on, o0))
        if found:
            unbound = free if fixed else [slot for slot in slots if slot[0] not in sol]
            for t in found:
                ext = sol.copy()
                for name, get in unbound:
                    ext[name] = get(t)
                append(ext)
        elif misses is not None:
            misses.append(sol)
    return out


def _estimate(g: Graph, pat: TriplePattern, sols: list[Solution],
              bound: set[str]) -> int:
    """Candidates summed over the current rows: per row, the smallest index
    bucket among the pattern's positions the row binds or that are
    constant (:meth:`Graph.bucket_size`); for ``p+``, only those of the
    walk's first hop. The constant positions' bucket is read once per call.
    Rows that bind none of the pattern's variables all see that bucket; once
    one is bound in every row, each row's own bindings count, including a
    variable that only some UNION rows bind."""
    parts = (pat.s, pat.p, pat.o)
    names = [part.name if isinstance(part, Var) else None for part in parts]
    cap = g.bucket_size(*(None if name else part for name, part in zip(names, parts)))
    if bound.isdisjoint(names):
        return len(sols) * cap
    sn, pn, on = names
    size = g.bucket_size
    return sum(min(cap, size(sol.get(sn), sol.get(pn), sol.get(on))) for sol in sols)


def _no_key(row: Solution) -> tuple:
    return ()


def _join(mode: str, left: list[Solution], right: list[Solution],
          condition: tuple[FilterExpr, ...] = ()) -> tuple[list[Solution], str]:
    """``left`` joined with ``right`` as SPARQL's Join (``"inner"``),
    LeftJoin (``"optional"``) or Minus (``"minus"``), hashing ``right`` on
    the key of the module docstring; and the plan text ``key=(...) pairs=N
    rows=R``. A merged row is kept only when it passes every ``condition``
    expression (a LeftJoin's filter). Rows come out in left order, then
    right order."""
    key: set[str] = set(left[0]) if left and right else set()
    for row in chain(left, right):
        if not key:
            break
        key.intersection_update(row)
    names = sorted(key)
    # One name gives a bare term, more a tuple: the same on both sides.
    row_key = itemgetter(*names) if names else _no_key
    # A bucket holds the rows equal on the key. A paired row can disagree
    # only on a binding outside the key that some left row also makes.
    shared = set(chain.from_iterable(left)) - key
    buckets: dict[object, list[tuple[Solution, list]]] = {}
    for row in right:
        rest = [(k, v) for k, v in row.items() if k in shared]
        buckets.setdefault(row_key(row), []).append((row, rest))
    out: list[Solution] = []
    pairs = 0
    for sol in left:
        bucket = buckets.get(row_key(sol), ())
        pairs += len(bucket)
        agree = [r for r, rest in bucket
                 if not rest or all(sol.get(k, v) == v for k, v in rest)]
        if mode == "minus":
            if not any(sol.keys() & r.keys() for r in agree):
                out.append(sol)
        else:
            merged = [{**sol, **r} for r in agree]
            if condition:
                merged = [row for row in merged
                          if all(_eval_filter(expr, row) for expr in condition)]
            out.extend(merged or ([sol] if mode == "optional" else []))
    shown = " ".join(f"?{k}" for k in names)
    return out, f"key=({shown}) pairs={pairs} rows={len(out)}"


def _numeric_value(term: Term) -> Optional[float]:
    if isinstance(term, Literal) and term.lang is None:
        if term.datatype in _NUMERIC_DATATYPES:
            try:
                return float(term.lexical)
            except ValueError:
                return None
    return None


def _eval_filter(expr: FilterExpr, sol: Solution) -> bool:
    if isinstance(expr, BoundTest):
        result = expr.var.name in sol
        return not result if expr.negated else result
    if isinstance(expr, RegexTest):
        term = sol.get(expr.var.name)
        if not isinstance(term, Literal):
            return False  # unbound / non-literal: an error value, filter false
        matched = re.search(expr.pattern, term.lexical) is not None
        return not matched if expr.negated else matched
    lhs = _substitute(expr.lhs, sol)
    rhs = _substitute(expr.rhs, sol)
    if lhs is None or rhs is None:
        return False
    if expr.op == "=":
        return lhs == rhs
    if expr.op == "!=":
        return lhs != rhs
    ln, rn = _numeric_value(lhs), _numeric_value(rhs)
    if ln is not None and rn is not None:
        return ln < rn if expr.op == "<" else ln > rn
    if (isinstance(lhs, Literal) and isinstance(rhs, Literal)
            and lhs.datatype == XSD_STRING and rhs.datatype == XSD_STRING):
        return lhs.lexical < rhs.lexical if expr.op == "<" else lhs.lexical > rhs.lexical
    return False  # type mismatch


def _show(part: TermOrVar) -> str:
    return f"?{part.name}" if isinstance(part, Var) else nt_term(part)


def _pattern_line(pat: TriplePattern, estimate: int, rows: int) -> str:
    plus = "+" if pat.plus else ""
    return (f"pattern {_show(pat.s)} {_show(pat.p)}{plus} {_show(pat.o)} "
            f"estimate={estimate} rows={rows}")


def _pattern_vars(pat: TriplePattern) -> set[str]:
    return {part.name for part in (pat.s, pat.p, pat.o) if isinstance(part, Var)}


def _bindable(elements: list) -> list[str]:
    """The variables that rows of these group elements may bind, in
    first-use order: those of their triple patterns, VALUES, UNION branches
    and OPTIONAL groups, nested ones included. A MINUS group binds none
    (SPARQL 1.1 Query, §18.2.1), so none of its variables is in scope."""
    names: dict[str, None] = {}

    def visit(elements: list):
        for el in elements:
            if isinstance(el, TriplePattern):
                for part in (el.s, el.p, el.o):
                    if isinstance(part, Var):
                        names.setdefault(part.name)
            elif isinstance(el, Values):
                names.setdefault(el.var.name)
            elif isinstance(el, OptionalGroup):
                visit(el.group.elements)
            elif isinstance(el, Union):
                for branch in el.branches:
                    visit(branch.elements)

    visit(elements)
    return list(names)


def _extends(group: Group, bound: set[str], outer: set[str]) -> bool:
    """Whether an OPTIONAL ``group`` extends rows that all bind ``bound`` and
    may bind ``outer``, in place of being joined with them. It does when it
    is one triple pattern that is not ``p+`` and shares a variable with
    ``bound``, plus nested OPTIONALs that extend the rows it makes, and it
    is well-designed: a nested group's variables that ``outer`` holds are
    all the pattern's. Then a nested group sees the same bindings in an
    outer row as in the pattern's own row, so extending each outer row gives
    SPARQL's left join of the outer rows with the group evaluated alone
    (Pérez, Arenas & Gutierrez, ACM TODS 34(3), 2009). The answer depends on
    the query and ``bound`` alone (the caller reads ``outer`` from the
    query), so a replayed plan takes the same path as the one it records."""
    patterns = [el for el in group.elements if isinstance(el, TriplePattern)]
    nested = [el.group for el in group.elements if isinstance(el, OptionalGroup)]
    # p+ stays joined: a walk per outer row is quadratic on a long chain,
    # where a joined group with a constant end walks once (module docstring).
    if (len(patterns) != 1 or len(group.elements) != 1 + len(nested)
            or patterns[0].plus):
        return False
    own = _pattern_vars(patterns[0])
    if bound.isdisjoint(own):
        return False
    inner_outer = outer | own
    for inner in nested:
        names = _bindable(inner.elements)
        if not (outer.intersection(names) <= own
                and _extends(inner, bound | own, inner_outer)):
            return False
        inner_outer = inner_outer.union(names)
    return True


def _seed(outer: list[Solution], group: Group) -> Optional[list[Solution]]:
    """The rows an OPTIONAL or MINUS ``group`` may start from: the distinct
    tuples, in first-seen order, of the variables that every ``outer`` row
    binds and that the group's own triple patterns bind. None when there
    are no such variables, or when the group has VALUES or UNION, whose
    rows the seed rows would cross."""
    names: set[str] = set()
    for el in group.elements:
        if isinstance(el, (Values, Union)):
            return None
        if isinstance(el, TriplePattern):
            names |= _pattern_vars(el)
    names.intersection_update(*outer)
    if not names:
        return None
    names = sorted(names)
    keys = dict.fromkeys(tuple(sol[k] for k in names) for sol in outer)
    return [dict(zip(names, key)) for key in keys]


class _Choices:
    """The planner's choices in one evaluation, in the order it makes them:
    whether a seeded group starts from its seed, and the pattern picked at
    each step with more than one left. A fresh instance records them, and
    hands the record to ``keep`` once the evaluation finishes; one made from
    a record replays it without estimating, and must use up exactly that
    record."""

    __slots__ = ("made", "_replay", "_keep")

    def __init__(self, record: Optional[tuple[int, ...]] = None,
                 keep: Optional[Callable[[tuple[int, ...]], None]] = None):
        self.made: list[int] = []
        self._replay = None if record is None else iter(record)
        self._keep = keep

    def choose(self, options: int, estimate: Callable[[], int]) -> int:
        """One of ``range(options)``: ``estimate()``'s, or the recorded one."""
        if self._replay is None:
            choice = estimate()
            self.made.append(choice)
            return choice
        choice = next(self._replay, None)
        if choice is None or not 0 <= choice < options:
            raise RuntimeError("replayed plan does not fit its query and graph")
        return choice

    def finish(self) -> None:
        if self._replay is not None:
            if next(self._replay, None) is not None:
                raise RuntimeError("replayed plan has choices left over")
        elif self._keep is not None:
            self._keep(tuple(self.made))


# The kinds of a group's elements, in the order _eval_group unpacks them.
_ELEMENT_KINDS = (TriplePattern, Values, Union, OptionalGroup, Minus, Filter)


def _eval_group(group: Group, g: Graph, choices: _Choices,
                plan: Optional[list[str]], depth: int, sols: list[Solution],
                bound: set[str], partial: set[str] = frozenset(),
                misses: Optional[list[Solution]] = None) -> list[Solution]:
    """The rows of ``group`` evaluated from the rows ``sols``, which all
    bind ``bound`` and some also ``partial``. An extending OPTIONAL
    (:func:`_extends`) starts from the outer rows and puts those its
    pattern does not match in ``misses``; any other group starts from one
    empty row or from its seed."""
    kinds: dict[type, list] = {kind: [] for kind in _ELEMENT_KINDS}
    for el in group.elements:
        kinds[type(el)].append(el)
    patterns, values, unions, optionals, minuses, filters = kinds.values()
    indent = "  " * depth
    bound, partial = set(bound), set(partial)

    for el in values + unions:
        if isinstance(el, Values):
            right = [{el.var.name: term} for term in el.terms]
        elif not sols:
            break
        else:
            right = [row for branch in el.branches
                     for row in _eval_group(branch, g, choices, plan, depth + 1,
                                            [{}], set())]
        sols, stats = _join("inner", sols, right)
        if right:
            bound.update(set(right[0]).intersection(*right))
        if plan is not None:
            plan.append(indent + (
                f"values ?{el.var.name} terms={len(el.terms)} rows={len(sols)}"
                if isinstance(el, Values) else
                f"union branches={len(el.branches)} {stats}"))
    partial |= set(_bindable(unions)) - bound

    remaining = list(patterns)
    while sols and remaining:
        # With one pattern left the estimates choose nothing; only the plan
        # shows them. Over seeded rows they cost a bucket lookup per row.
        estimates = ([_estimate(g, pat, sols, bound) for pat in remaining]
                     if plan is not None else None)

        def cheapest() -> int:
            costs = estimates or [_estimate(g, pat, sols, bound) for pat in remaining]
            return min(range(len(costs)), key=costs.__getitem__)

        best = choices.choose(len(remaining), cheapest) if len(remaining) > 1 else 0
        pat = remaining.pop(best)
        own = _pattern_vars(pat)
        sols = _extend(g, pat, sols, partial.isdisjoint(own), misses)
        bound |= own
        partial -= own
        if plan is not None:
            plan.append(indent + _pattern_line(pat, estimates[best], len(sols)))

    for nested in optionals + minuses:
        if not sols:
            break
        mode = "minus" if isinstance(nested, Minus) else "optional"
        inner_group, condition = nested.group, ()
        if mode == "optional" and _extends(inner_group, bound, bound | partial):
            unmatched: list[Solution] = []
            sols = _eval_group(inner_group, g, choices, plan, depth + 1,
                               sols, bound, partial, unmatched) + unmatched
            stats = f"extend rows={len(sols)}"
        else:
            if mode == "optional":
                # LeftJoin(G, P, F) (SPARQL 1.1 Query, §18.2.2.6): the
                # group's own FILTERs test each merged row.
                condition = tuple(el.expr for el in inner_group.elements
                                  if isinstance(el, Filter))
                inner_group = Group([el for el in inner_group.elements
                                     if not isinstance(el, Filter)])
            # Every seed variable is in the outer join's key, so the rows a
            # seeded start leaves out would have paired with no outer row.
            start = _seed(sols, inner_group)
            if not (start and choices.choose(2, lambda: int(len(start) <= min(
                    _estimate(g, el, [{}], set()) for el in inner_group.elements
                    if isinstance(el, TriplePattern))))):
                start = [{}]
            elif plan is not None:
                plan.append(f"{indent}  seed start rows={len(start)}")
            inner = _eval_group(inner_group, g, choices, plan, depth + 1,
                                start, set(start[0]))
            del start  # free the seed rows before the join (peak memory)
            sols, stats = _join(mode, sols, inner, condition)
        if mode == "optional":
            partial |= set(_bindable(nested.group.elements)) - bound
        if plan is not None:
            plan.append(f"{indent}{mode} {stats}")

    for f in filters:
        sols = [sol for sol in sols if _eval_filter(f.expr, sol)]
        if plan is not None:
            plan.append(f"{indent}filter rows={len(sols)}")

    return sols


def evaluate(query: SelectQuery, g: Graph, plan: Optional[list[str]] = None,
             choices: Optional[_Choices] = None) -> ResultTable:
    """Evaluate a parsed query over a frozen graph.

    When ``plan`` is a list, the evaluator appends its EXPLAIN lines to it
    as it runs (see :func:`explain`). ``choices`` records the planner's
    choices, or replays a record of them (:class:`PreparedQuery`).
    """
    if not g.frozen:
        raise QueryError("graph must be frozen before evaluation")
    if choices is None:
        choices = _Choices()
    sols = _eval_group(query.where, g, choices, plan, 0, [{}], set())
    choices.finish()
    if query.variables is None:
        header = _bindable(query.where.elements)
    else:
        header = [v.name for v in query.variables]
    rows = [tuple(map(sol.get, header)) for sol in sols]
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    # Each distinct term object is serialized once, keyed by its id (the
    # rows keep every term alive), and every sort key reuses the text.
    cells = list(chain.from_iterable(rows))
    terms = dict(zip(map(id, cells), cells))
    text = {key: "" if term is None else nt_term(term)
            for key, term in terms.items()}
    keys = [tuple(map(text.__getitem__, map(id, row))) for row in rows]
    order = sorted(range(len(rows)), key=keys.__getitem__)
    for key in reversed(query.order_by):
        i = header.index(key.var.name)
        order.sort(key=lambda n: keys[n][i], reverse=key.descending)
    rows = [rows[n] for n in order]
    return ResultTable(header, rows)


def explain(query: SelectQuery, g: Graph) -> list[str]:
    """The plan the evaluator follows for ``query`` over ``g``, one line per
    step, recorded while it evaluates the query.

    - ``values ?v terms=N rows=R``: a VALUES table joined in;
    - ``pattern S P O estimate=E rows=R``: the next triple pattern, with the
      candidate count that chose it and the rows after joining it;
    - ``union branches=N key=(?k ...) pairs=C rows=R``: the branches' rows,
      concatenated and hash-joined in before the triple patterns; each
      branch's own steps come just before it, indented one level deeper;
    - ``optional`` / ``minus key=(?k ...) pairs=C rows=R``: a hash join on
      ``key``, where ``pairs`` counts the outer/inner row pairs sharing a
      key (the pairs checked); the inner group's own steps come just before
      it, indented one level deeper;
    - ``optional extend rows=R``: a one-pattern OPTIONAL that extended the
      outer rows, R rows after it. Just before it, one level deeper, comes
      its ``pattern`` line, whose estimate is over the outer rows and whose
      rows are the extended ones, then its nested OPTIONALs' lines;
    - ``seed start rows=N``: an OPTIONAL or MINUS group starts from the N
      distinct seed rows of the outer rows;
    - ``filter rows=R``: the rows a FILTER keeps.
    """
    plan: list[str] = []
    evaluate(query, g, plan)
    return plan


def run_query(text: str, g: Graph) -> ResultTable:
    return evaluate(parse_query(text), g)


class PreparedQuery:
    """A query template, bound per call (see the module docstring).

    ``params`` names the template's parameters in first-use order.
    :meth:`bind` gives :func:`parse_query` of the text with each ``$name``
    written in as its value's N-Triples term. :meth:`bind_for` also gives
    the choices to evaluate it with, from the memo of the graph it last ran
    on.
    """

    def __init__(self, text: str):
        self.text = text
        self.params = tuple(dict.fromkeys(_PARAM_RE.findall(text)))
        self._memo: tuple[Optional[weakref.ref], dict] = (None, {})

    def bind(self, values: dict[str, Term]) -> SelectQuery:
        """The query with ``values[name]`` in place of each ``$name``."""
        missing = [name for name in self.params if name not in values]
        if missing:
            raise QueryError(f"missing query parameter ${missing[0]}")
        return parse_query(_PARAM_RE.sub(
            lambda m: nt_term(values[m.group(1)]), self.text))

    def bind_for(self, g: Graph,
                 values: dict[str, Term]) -> tuple[SelectQuery, _Choices]:
        """The bound query, and the choices to :func:`evaluate` it over
        ``g`` with: a replay of the memo's record, or a fresh record that
        the memo keeps once the evaluation finishes."""
        key = tuple(values.get(name) for name in self.params)
        ref, memo = self._memo
        if ref is None or ref() is not g:
            memo = {}
            self._memo = (weakref.ref(g), memo)
        known = memo.get(key)
        if known is not None:
            query, record = known
            return query, _Choices(record)
        query = self.bind(values)

        def keep(record: tuple[int, ...]) -> None:
            memo[key] = (query, record)

        return query, _Choices(keep=keep)
