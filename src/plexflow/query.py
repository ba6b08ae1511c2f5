"""SPARQL-subset parser and evaluator.

The grammar is frozen to what the competency-question catalogue needs:

- ``SELECT [DISTINCT] ?vars|* WHERE { ... } [ORDER BY ?v ...]``
- basic graph patterns with ``;`` / ``,`` sugar and the ``a`` keyword;
- a one-or-more-hops closure modifier ``+`` on IRI predicates;
- ``FILTER`` with ``= != < >`` comparisons, ``BOUND`` / ``!BOUND`` and
  ``REGEX(?var, "pattern")``;
- ``VALUES ?var { term ... }`` inline bindings;
- ``MINUS { ... }`` and ``OPTIONAL { ... }`` nested groups.

Anything else a full SPARQL 1.1 processor would accept (UNION, BIND,
aggregates, subqueries, property-path alternation, updates, ...) is
rejected by name at parse time.

IRIs, strings, language tags and blank node labels are cut and decoded by
the term lexer shared with the N-Triples and Turtle readers
(:mod:`plexflow.lexing`). A malformed escape, an ill-formed literal and a
REGEX pattern that does not compile are all :class:`QueryParseError` with
their position, never an error during evaluation.

Evaluation is bag-semantics over a frozen graph: VALUES tables and triple
patterns are joined left-deep, then OPTIONAL left-joins, then MINUS, then
FILTERs. ``p+`` matches the transitive closure of ``p``. Type-mismatched
FILTER comparisons evaluate to false rather than erroring. Result rows come
back in ORDER BY order when given, otherwise sorted by their serialized
form, so output is deterministic.

- Join order is cost-based. The next pattern is the one with the fewest
  estimated candidates, ties by textual order. A pattern's estimate is the
  sum, over the current rows, of the smallest index bucket among its bound
  positions (:meth:`Graph.bucket_size`; for ``p+`` the closure maps
  :meth:`Graph.closure_pairs` and :meth:`Graph.closure_sources`), so it
  reflects the values actually bound, VALUES included.
- OPTIONAL and MINUS evaluate their inner group on its own and hash-join it
  to the outer rows. The key is the variables bound in every outer row and
  in every inner row; only rows with equal keys are paired, and each pair
  is then checked as before on the variables outside the key. An empty key
  puts all inner rows in one bucket. An OPTIONAL row extends the outer row
  with every compatible inner row, or keeps it alone when there is none.
  MINUS removes an outer row when some inner row shares at least one
  variable with it and agrees on all shared ones.
- :func:`explain` returns the steps the evaluator took, recorded during
  the run: join order, estimates, join keys and row counts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .lexing import (
    BLANK_RE, IRIREF_RE, LANGTAG_RE, PN_LOCAL, PN_PREFIX, PN_PREFIX_RE,
    STRING_RE, Lexer, Token,
)
from .rdf import (
    XSD_NS, XSD_STRING, RDF_LANG_STRING, RDF_TYPE, Graph, IRI, Literal, RdfError,
    Term, nt_term,
)

_NUMERIC_DATATYPES = {
    XSD_NS + "integer", XSD_NS + "decimal", XSD_NS + "double",
    XSD_NS + "float", XSD_NS + "int", XSD_NS + "long",
    XSD_NS + "short", XSD_NS + "byte", XSD_NS + "nonNegativeInteger",
    XSD_NS + "positiveInteger",
}

_UNSUPPORTED_KEYWORDS = {
    "UNION", "BIND", "GRAPH", "SERVICE", "ASK", "CONSTRUCT", "DESCRIBE",
    "INSERT", "DELETE", "LOAD", "FROM", "NAMED", "REDUCED", "GROUP",
    "HAVING", "LIMIT", "OFFSET", "EXISTS", "NOT", "AS", "WITH",
}


class QueryError(ValueError):
    """Base class for query parsing and evaluation errors."""


class QueryParseError(QueryError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"?{self.name}"


TermOrVar = Union[Term, Var]


@dataclass
class TriplePattern:
    s: TermOrVar
    p: TermOrVar
    o: TermOrVar
    plus: bool = False  # one-or-more-hops closure on an IRI predicate


@dataclass
class Comparison:
    op: str  # = != < >
    lhs: TermOrVar
    rhs: TermOrVar


@dataclass
class BoundTest:
    var: Var
    negated: bool = False


@dataclass
class RegexTest:
    var: Var
    pattern: str
    negated: bool = False


FilterExpr = Union[Comparison, BoundTest, RegexTest]


@dataclass
class Filter:
    expr: FilterExpr


@dataclass
class Values:
    var: Var
    terms: list


@dataclass
class Group:
    elements: list = field(default_factory=list)


@dataclass
class Minus:
    group: Group


@dataclass
class OptionalGroup:
    group: Group


@dataclass
class SelectQuery:
    prefixes: dict
    variables: Optional[list[Var]]  # None means '*'
    distinct: bool
    where: Group
    order_by: list[Var] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Lexer

_PNAME_RE = re.compile(rf"({PN_PREFIX})?:({PN_LOCAL})?")
_VAR_RE = re.compile(r"[?]([A-Za-z_][A-Za-z0-9_]*)")
_NUMBER_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")


class _Lexer(Lexer):
    error_class = QueryParseError

    def tokens(self) -> list[Token]:
        out = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind == "EOF":
                return out

    def _next_token(self) -> Token:
        self._skip_ws()
        line, col = self.line, self.col
        if self.pos >= len(self.text):
            return Token("EOF", None, line, col)
        text, pos = self.text, self.pos
        ch = text[pos]

        if ch == "<":
            m = IRIREF_RE.match(text, pos)
            if m:
                value = self._decoded(m.group(1))
                self._advance(m.end() - pos)
                return Token("IRIREF", value, line, col)
            self._advance(1)
            return Token("LT", "<", line, col)
        if ch == ">":
            self._advance(1)
            return Token("GT", ">", line, col)
        if ch == '"':
            m = STRING_RE.match(text, pos)
            if not m:
                self._error("unterminated string literal")
            value = self._decoded(m.group(1))
            self._advance(m.end() - pos)
            return Token("STRING", value, line, col)
        if ch == "@":
            m = LANGTAG_RE.match(text, pos)
            if not m:
                self._error("malformed language tag")
            self._advance(m.end() - pos)
            return Token("LANGTAG", m.group(1), line, col)
        if text.startswith("^^", pos):
            self._advance(2)
            return Token("HATHAT", "^^", line, col)
        if ch == "?":
            m = _VAR_RE.match(text, pos)
            if not m:
                self._error("malformed variable name")
            self._advance(m.end() - pos)
            return Token("VAR", m.group(1), line, col)
        if ch == "$":
            self._error("unsubstituted query parameter (did you supply all "
                        "required parameters?)")
        if text.startswith("!=", pos):
            self._advance(2)
            return Token("NEQ", "!=", line, col)
        if ch == "!":
            self._advance(1)
            return Token("BANG", "!", line, col)
        if ch == "=":
            self._advance(1)
            return Token("EQ", "=", line, col)
        if ch in "{}().,;*+":
            self._advance(1)
            kinds = {"{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
                     ".": "DOT", ",": "COMMA", ";": "SEMI", "*": "STAR", "+": "PLUS"}
            return Token(kinds[ch], ch, line, col)
        if ch == "_" and text.startswith("_:", pos):
            m = BLANK_RE.match(text, pos)
            if not m:
                self._error("malformed blank node label")
            self._advance(m.end() - pos)
            return Token("BLANK", m.group(1), line, col)
        m = _NUMBER_RE.match(text, pos)
        if m and (ch.isdigit() or ch in "+-"):
            self._advance(m.end() - pos)
            return Token("NUMBER", m.group(0), line, col)
        m = _PNAME_RE.match(text, pos)
        if m and ":" in text[pos:m.end()]:
            local = m.group(2) or ""
            while local.endswith("."):
                local = local[:-1]  # statement dot, not part of the name
            self._advance(m.end() - pos - (len(m.group(2) or "") - len(local)))
            return Token("PNAME", (m.group(1) or "", local), line, col)
        m = PN_PREFIX_RE.match(text, pos)
        if m:
            word = m.group(0)
            # A bare word followed by ':' is a PNAME prefix; handled above.
            self._advance(len(word))
            return Token("WORD", word, line, col)
        self._error(f"unexpected character {ch!r}")


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.toks = _Lexer(text).tokens()
        self.i = 0
        self.prefixes: dict[str, str] = {}

    @property
    def tok(self) -> Token:
        return self.toks[self.i]

    def _next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def _error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.tok
        raise QueryParseError(message, tok.line, tok.col)

    def _is_word(self, *words: str) -> bool:
        return self.tok.kind == "WORD" and self.tok.value.upper() in words

    def _expect_word(self, word: str):
        if not self._is_word(word):
            self._error(f"expected {word}")
        self._next()

    def _check_unsupported(self):
        if self.tok.kind == "WORD" and self.tok.value.upper() in _UNSUPPORTED_KEYWORDS:
            self._error(f"unsupported SPARQL construct: {self.tok.value.upper()}")

    def _iri(self, tok: Token) -> IRI:
        """The IRI an IRIREF or PNAME token names."""
        value = tok.value
        if tok.kind == "PNAME":
            prefix, local = tok.value
            if prefix not in self.prefixes:
                self._error(f"unknown prefix: {prefix!r}", tok)
            value = self.prefixes[prefix] + local
        try:
            return IRI(value)
        except RdfError as exc:
            self._error(str(exc), tok)

    def parse(self) -> SelectQuery:
        while self._is_word("PREFIX"):
            self._next()
            name = self._next()
            if name.kind != "PNAME" or name.value[1]:
                self._error("expected 'prefix:' in PREFIX declaration", name)
            iriref = self._next()
            if iriref.kind != "IRIREF":
                self._error("expected IRI in PREFIX declaration", iriref)
            self.prefixes[name.value[0]] = iriref.value
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
        order_by: list[Var] = []
        if self._is_word("ORDER"):
            self._next()
            self._expect_word("BY")
            while self.tok.kind == "VAR":
                order_by.append(Var(self._next().value))
            if not order_by:
                self._error("expected variables after ORDER BY")
        self._check_unsupported()
        if self.tok.kind != "EOF":
            self._error(f"unexpected trailing token {self.tok.value!r}")

        query = SelectQuery(self.prefixes, variables, distinct, where, order_by)
        in_scope = _group_vars(where)
        for v in (variables or []):
            if v.name not in in_scope:
                raise QueryError(
                    f"projected variable ?{v.name} does not appear in the pattern")
        for v in order_by:
            if v.name not in in_scope:
                raise QueryError(
                    f"ORDER BY variable ?{v.name} does not appear in the pattern")
        return query

    def _parse_group(self) -> Group:
        if self.tok.kind != "LBRACE":
            self._error("expected '{'")
        self._next()
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
                group.elements.append(Minus(self._parse_group()))
            elif self._is_word("OPTIONAL"):
                self._next()
                group.elements.append(OptionalGroup(self._parse_group()))
            elif self.tok.kind == "LBRACE":
                # A bare nested group only appears in UNION syntax here.
                if any(t.kind == "WORD" and t.value.upper() == "UNION"
                       for t in self.toks[self.i:]):
                    self._error("unsupported SPARQL construct: UNION")
                self._error("nested groups are only supported after "
                            "OPTIONAL or MINUS")
            else:
                self._parse_triple_block(group)
        self._next()
        return group

    def _parse_term_or_var(self, position: str) -> TermOrVar:
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
            self._error("blank nodes are not allowed in query patterns", tok)
        if tok.kind == "STRING":
            if position == "predicate":
                self._error("literal not allowed as predicate", tok)
            return self._parse_literal()
        if tok.kind == "NUMBER":
            if position == "predicate":
                self._error("literal not allowed as predicate", tok)
            self._next()
            dt = "decimal" if "." in tok.value else "integer"
            return Literal(tok.value, XSD_NS + dt)
        self._check_unsupported()
        self._error(f"expected {position} term, found {tok.kind}")

    def _parse_literal(self) -> Literal:
        tok = self._next()
        datatype, lang = XSD_STRING, None
        if self.tok.kind == "LANGTAG":
            datatype, lang = RDF_LANG_STRING, self._next().value
        elif self.tok.kind == "HATHAT":
            self._next()
            if self.tok.kind not in ("IRIREF", "PNAME"):
                self._error("expected datatype IRI after '^^'")
            datatype = self._iri(self._next()).value
        try:
            return Literal(tok.value, datatype, lang)
        except RdfError as exc:
            self._error(str(exc), tok)

    def _parse_triple_block(self, group: Group):
        subject = self._parse_term_or_var("subject")
        while True:
            predicate = self._parse_term_or_var("predicate")
            plus = False
            if self.tok.kind == "PLUS":
                if not isinstance(predicate, IRI):
                    self._error("closure modifier '+' requires an IRI predicate")
                plus = True
                self._next()
            while True:
                obj = self._parse_term_or_var("object")
                group.elements.append(TriplePattern(subject, predicate, obj, plus))
                if self.tok.kind == "COMMA":
                    self._next()
                    continue
                break
            if self.tok.kind == "SEMI":
                while self.tok.kind == "SEMI":
                    self._next()
                if self.tok.kind in ("DOT", "RBRACE"):
                    break
                continue
            break
        if self.tok.kind == "DOT":
            self._next()

    def _parse_filter_expr(self) -> FilterExpr:
        if self.tok.kind != "LPAREN":
            self._error("expected '(' after FILTER")
        self._next()
        expr = self._parse_bool_expr()
        if self.tok.kind != "RPAREN":
            self._error("expected ')' to close FILTER")
        self._next()
        return expr

    def _parse_bool_expr(self) -> FilterExpr:
        negated = False
        if self.tok.kind == "BANG":
            negated = True
            self._next()
        if self._is_word("BOUND"):
            self._next()
            var = self._parse_call_var()
            return BoundTest(var, negated)
        if self._is_word("REGEX"):
            self._next()
            if self.tok.kind != "LPAREN":
                self._error("expected '(' after REGEX")
            self._next()
            if self.tok.kind != "VAR":
                self._error("REGEX expects a variable as first argument")
            var = Var(self._next().value)
            if self.tok.kind != "COMMA":
                self._error("expected ',' in REGEX")
            self._next()
            if self.tok.kind != "STRING":
                self._error("REGEX expects a string pattern")
            pattern = self.tok.value
            try:
                re.compile(pattern)
            except (re.error, OverflowError, RecursionError) as exc:
                self._error(f"bad REGEX pattern: {exc}")
            self._next()
            if self.tok.kind != "RPAREN":
                self._error("expected ')' to close REGEX")
            self._next()
            return RegexTest(var, pattern, negated)
        if negated:
            self._error("'!' only applies to BOUND or REGEX")
        lhs = self._parse_operand()
        op_tok = self.tok
        if op_tok.kind == "EQ":
            op = "="
        elif op_tok.kind == "NEQ":
            op = "!="
        elif op_tok.kind == "LT":
            op = "<"
        elif op_tok.kind == "GT":
            op = ">"
        else:
            self._error("expected comparison operator (=, !=, <, >)")
        self._next()
        rhs = self._parse_operand()
        return Comparison(op, lhs, rhs)

    def _parse_call_var(self) -> Var:
        if self.tok.kind != "LPAREN":
            self._error("expected '('")
        self._next()
        if self.tok.kind != "VAR":
            self._error("expected a variable")
        var = Var(self._next().value)
        if self.tok.kind != "RPAREN":
            self._error("expected ')'")
        self._next()
        return var

    def _parse_operand(self) -> TermOrVar:
        return self._parse_term_or_var("object")

    def _parse_values(self) -> Values:
        if self.tok.kind != "VAR":
            self._error("VALUES expects a single variable")
        var = Var(self._next().value)
        if self.tok.kind != "LBRACE":
            self._error("expected '{' after VALUES variable")
        self._next()
        terms = []
        while self.tok.kind != "RBRACE":
            if self.tok.kind == "EOF":
                self._error("unterminated VALUES block")
            terms.append(self._parse_term_or_var("object"))
        self._next()
        for t in terms:
            if isinstance(t, Var):
                raise QueryError("VALUES terms must be constants")
        return Values(var, terms)


def _group_vars(group: Group) -> set[str]:
    names: set[str] = set()
    for el in group.elements:
        if isinstance(el, TriplePattern):
            for part in (el.s, el.p, el.o):
                if isinstance(part, Var):
                    names.add(part.name)
        elif isinstance(el, Values):
            names.add(el.var.name)
        elif isinstance(el, (Minus, OptionalGroup)):
            names |= _group_vars(el.group)
    return names


def _group_vars_ordered(group: Group) -> list[str]:
    names: list[str] = []

    def visit(g: Group):
        for el in g.elements:
            if isinstance(el, TriplePattern):
                for part in (el.s, el.p, el.o):
                    if isinstance(part, Var) and part.name not in names:
                        names.append(part.name)
            elif isinstance(el, Values):
                if el.var.name not in names:
                    names.append(el.var.name)
            elif isinstance(el, (Minus, OptionalGroup)):
                visit(el.group)

    visit(group)
    return names


def parse_query(text: str) -> SelectQuery:
    """Parse a query in the subset grammar into an AST."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation

Solution = dict[str, Term]


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

    def distinct_values(self, name: str) -> set:
        return {v for v in self.column(name) if v is not None}

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


def _row_sort_key(row: tuple) -> tuple:
    return tuple("" if t is None else nt_term(t) for t in row)


def _substitute(part: TermOrVar, sol: Solution):
    if isinstance(part, Var):
        return sol.get(part.name)
    return part


def _match_pattern(g: Graph, pat: TriplePattern, sol: Solution) -> list[Solution]:
    s = _substitute(pat.s, sol)
    o = _substitute(pat.o, sol)
    if pat.plus:  # the parser guarantees an IRI predicate
        parts = (pat.s, pat.o)
        if s is not None:
            found = [(s, t) for t in g.closure_pairs(pat.p).get(s, ())
                     if o is None or t == o]
        elif o is not None:
            found = [(src, o) for src in g.closure_sources(pat.p).get(o, ())]
        else:
            found = [(src, t) for src, targets in g.closure_pairs(pat.p).items()
                     for t in targets]
    else:
        parts = (pat.s, pat.p, pat.o)
        found = g.match(s, _substitute(pat.p, sol), o)
    out: list[Solution] = []
    for values in found:
        ext = dict(sol)
        ok = True
        for part, val in zip(parts, values):
            if isinstance(part, Var):
                if part.name in ext and ext[part.name] != val:
                    ok = False
                    break
                ext[part.name] = val
        if ok:
            out.append(ext)
    return out


def _candidate_count(g: Graph, pat: TriplePattern, sol: Solution) -> int:
    """The smallest index bucket among the pattern's positions bound in
    ``sol``: the candidates :func:`_match_pattern` would look at."""
    s = _substitute(pat.s, sol)
    o = _substitute(pat.o, sol)
    if not pat.plus:
        return g.bucket_size(s, _substitute(pat.p, sol), o)
    if s is None and o is None:
        return sum(map(len, g.closure_pairs(pat.p).values()))
    sizes = []
    if s is not None:
        sizes.append(len(g.closure_pairs(pat.p).get(s, ())))
    if o is not None:
        sizes.append(len(g.closure_sources(pat.p).get(o, ())))
    return min(sizes)


def _estimate(g: Graph, pat: TriplePattern, sols: list[Solution],
              bound: set[str]) -> int:
    """Candidates summed over the current rows; rows that bind none of the
    pattern's variables all see the same buckets."""
    if not any(isinstance(part, Var) and part.name in bound
               for part in (pat.s, pat.p, pat.o)):
        return len(sols) * _candidate_count(g, pat, {})
    return sum(_candidate_count(g, pat, sol) for sol in sols)


def _hash_join(left: list[Solution],
               right: list[Solution]) -> tuple[list[str], list[tuple]]:
    """The join key, and each left row with the right rows that agree with it
    on the key.

    The key holds the variables bound in every row on both sides, so rows
    outside a bucket can never be compatible; variables only some rows bind
    are left to the caller's row check. An empty key puts every right row
    in one bucket.
    """
    key: set[str] = set(left[0]) if left and right else set()
    for row in left + right:
        if not key:
            break
        key.intersection_update(row)
    names = sorted(key)
    buckets: dict[tuple, list[Solution]] = {}
    for row in right:
        buckets.setdefault(tuple(row[k] for k in names), []).append(row)
    return names, [(sol, buckets.get(tuple(sol[k] for k in names), ()))
                   for sol in left]


def _compatible(a: Solution, b: Solution) -> bool:
    for k, v in b.items():
        if k in a and a[k] != v:
            return False
    return True


def _shared_agree(a: Solution, b: Solution) -> bool:
    shared = a.keys() & b.keys()
    if not shared:
        return False
    return all(a[k] == b[k] for k in shared)


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


def _eval_group(group: Group, g: Graph, plan: Optional[list[str]] = None,
                depth: int = 0) -> list[Solution]:
    patterns = [el for el in group.elements if isinstance(el, TriplePattern)]
    values = [el for el in group.elements if isinstance(el, Values)]
    optionals = [el for el in group.elements if isinstance(el, OptionalGroup)]
    minuses = [el for el in group.elements if isinstance(el, Minus)]
    filters = [el for el in group.elements if isinstance(el, Filter)]
    indent = "  " * depth

    sols: list[Solution] = [{}]
    bound: set[str] = set()
    for v in values:
        joined: list[Solution] = []
        for sol in sols:
            for term in v.terms:
                if v.var.name in sol and sol[v.var.name] != term:
                    continue
                ext = dict(sol)
                ext[v.var.name] = term
                joined.append(ext)
        sols = joined
        bound.add(v.var.name)
        if plan is not None:
            plan.append(f"{indent}values ?{v.var.name} terms={len(v.terms)} "
                        f"rows={len(sols)}")

    remaining = list(patterns)
    while remaining and sols:
        estimates = [_estimate(g, pat, sols, bound) for pat in remaining]
        best = min(range(len(remaining)), key=estimates.__getitem__)
        pat = remaining.pop(best)
        sols = [ext for sol in sols for ext in _match_pattern(g, pat, sol)]
        for part in (pat.s, pat.p, pat.o):
            if isinstance(part, Var):
                bound.add(part.name)
        if plan is not None:
            plus = "+" if pat.plus else ""
            plan.append(f"{indent}pattern {_show(pat.s)} {_show(pat.p)}{plus} "
                        f"{_show(pat.o)} estimate={estimates[best]} "
                        f"rows={len(sols)}")

    for nested in optionals + minuses:
        if not sols:
            break
        right = _eval_group(nested.group, g, plan, depth + 1)
        key, candidates = _hash_join(sols, right)
        if isinstance(nested, Minus):
            kind = "minus"
            sols = [sol for sol, rows in candidates
                    if not any(_shared_agree(sol, r) for r in rows)]
        else:
            kind = "optional"
            sols = []
            for sol, rows in candidates:
                sols.extend([{**sol, **r} for r in rows if _compatible(sol, r)]
                            or [sol])
        if plan is not None:
            pairs = sum(len(rows) for _, rows in candidates)
            names = " ".join(f"?{k}" for k in key)
            plan.append(f"{indent}{kind} key=({names}) pairs={pairs} "
                        f"rows={len(sols)}")

    for f in filters:
        sols = [sol for sol in sols if _eval_filter(f.expr, sol)]
        if plan is not None:
            plan.append(f"{indent}filter rows={len(sols)}")

    return sols


def evaluate(query: SelectQuery, g: Graph,
             plan: Optional[list[str]] = None) -> ResultTable:
    """Evaluate a parsed query over a frozen graph.

    When ``plan`` is a list, the evaluator appends its EXPLAIN lines to it
    as it runs (see :func:`explain`).
    """
    if not g.frozen:
        raise QueryError("graph must be frozen before evaluation")
    sols = _eval_group(query.where, g, plan)
    if query.variables is None:
        header = _group_vars_ordered(query.where)
    else:
        header = [v.name for v in query.variables]
    rows = [tuple(sol.get(name) for name in header) for sol in sols]
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    if query.order_by:
        positions = [header.index(v.name) for v in query.order_by]
        rows.sort(key=lambda row: (
            tuple("" if row[i] is None else nt_term(row[i]) for i in positions),
            _row_sort_key(row)))
    else:
        rows.sort(key=_row_sort_key)
    return ResultTable(header, rows)


def explain(query: SelectQuery, g: Graph) -> list[str]:
    """The plan the evaluator follows for ``query`` over ``g``, one line per
    step, recorded while it evaluates the query.

    - ``values ?v terms=N rows=R``: a VALUES table joined in;
    - ``pattern S P O estimate=E rows=R``: the next triple pattern, with the
      candidate count that chose it and the rows after joining it;
    - ``optional`` / ``minus key=(?k ...) pairs=C rows=R``: a hash join on
      ``key``, where ``pairs`` counts the outer/inner row pairs sharing a
      key (the pairs checked); the inner group's own steps come just before
      it, indented one level deeper;
    - ``filter rows=R``: the rows a FILTER keeps.
    """
    plan: list[str] = []
    evaluate(query, g, plan)
    return plan


def run_query(text: str, g: Graph) -> ResultTable:
    return evaluate(parse_query(text), g)
