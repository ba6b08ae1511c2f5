"""Turtle-subset reader, and the triples grammar SPARQL shares with it.

Covers exactly the authoring sugar the workflow listings use: ``@prefix``
and SPARQL-style ``PREFIX`` directives, CURIEs (including the empty
prefix), the ``a`` keyword, ``;`` and ``,`` continuations, plain, typed and
language-tagged string literals, and ``_:label`` blank nodes. Everything
else in full Turtle (collections, ``[]`` anonymous nodes, ``@base``,
numeric and boolean shorthand, multi-line strings) is rejected by name so a
document never parses to something other than what it says.

A SPARQL 1.1 ``TriplesBlock`` is Turtle's ``predicateObjectList``, so
Turtle's grammar is the base of SPARQL's. :class:`TriplesParser` holds the
one copy of what both parsers use: the token cursor with positioned errors,
the prefix table and its declarations, ``IRIREF | PNAME`` to an IRI,
``STRING [LANGTAG | ^^ iri]`` to a literal, and the predicate-object list
with its ``;`` / ``,`` sugar. The SPARQL parser (:mod:`plexflow.query`)
subclasses it.

Tokens are cut and decoded by the lexer shared with the N-Triples and
SPARQL readers (:mod:`plexflow.lexing`): IRIs may carry ``\\u``/``\\U``
escapes, so any canonical N-Triples document is also valid input. Both
parsers pull one token at a time, so an error is reported where the parser
meets it, and every error is a :class:`TurtleParseError` with its position:
a malformed escape, and an ill-formed literal such as
``"x"^^rdf:langString``, at the term.

Each parser builds a distinct term once and shares it, as
:func:`plexflow.rdf.parse_ntriples` does: its term table is keyed on the
resolved IRI, on ``(lexical, datatype, lang)`` and on the 1-tuple of the
blank node label, and a term enters it only after its checks pass.
"""

from __future__ import annotations

from typing import Callable, NoReturn, Optional

from .lexing import PN_PREFIX_RE, Lexer, Token
from .rdf import (
    RDF_LANG_STRING, RDF_TYPE, XSD_STRING, BlankNode, Graph, IRI, Literal,
    RdfError, Term, Triple,
)


class TurtleParseError(RdfError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _Lexer(Lexer):
    """Token kinds: the shared ones (:meth:`Lexer._shared_token`),
    PREFIX_DIRECTIVE, A and EOF."""

    error_class = TurtleParseError

    def _cut(self) -> Token:
        text, pos = self.text, self.pos
        ch = text[pos]
        # Each of these also starts a shared token, so it goes first.
        if ch in '@"':
            if text.startswith("@prefix", pos):
                return self._take("PREFIX_DIRECTIVE", pos + 7, "@prefix")
            if text.startswith("@base", pos):
                self._error("unsupported construct: @base directive")
            if text.startswith('"""', pos):
                self._error("unsupported construct: multi-line string literal")
        tok = self._shared_token()
        if tok:
            return tok

        if ch == "<":
            self._error("malformed IRI reference")
        if ch == "[":
            self._error("unsupported construct: anonymous blank node '[]'")
        if ch == "(":
            self._error("unsupported construct: RDF collection '(...)'")
        if ch.isdigit() or (ch in "+-" and text[pos + 1:pos + 2].isdigit()):
            self._error("unsupported construct: numeric literal shorthand")

        # A bare word (a prefixed name was cut above): the 'a' keyword or a
        # SPARQL-style PREFIX directive.
        m = PN_PREFIX_RE.match(text, pos)
        if not m:
            self._error(f"unexpected character {ch!r}")
        word = m.group(0)
        if word == "a":
            return self._take("A", m.end(), word)
        if word.upper() == "PREFIX":
            return self._take("PREFIX_DIRECTIVE", m.end(), "PREFIX")
        if word.upper() == "BASE":
            self._error("unsupported construct: BASE directive")
        if word in ("true", "false"):
            self._error("unsupported construct: boolean literal shorthand")
        self._error(f"unexpected token {word!r}")


class TriplesParser:
    """The triples grammar Turtle and SPARQL share, over a streamed lexer.

    Subclasses set ``lexer_class`` and ``error_class`` (called as
    ``error_class(message, line, col)``) and implement ``_term(position)``
    for the subject, predicate and object terms they allow. A subclass may
    override :meth:`_verb`, whose result is passed on to ``emit`` as the
    predicate.
    """

    lexer_class: type[Lexer]
    error_class: type[Exception]

    def __init__(self, text: str):
        self.lexer = self.lexer_class(text)
        self.tok = self.lexer.next_token()
        self.prefixes: dict[str, str] = {}
        # Key -> its one term. The key kinds cannot meet, whatever the text:
        # an IRI is keyed on its string, a literal on (lexical, datatype,
        # lang) and a blank node on the 1-tuple (label,). 'a' reads as
        # RDF_TYPE, so a spelled-out rdf:type shares it too.
        self.terms: dict[object, Term] = {RDF_TYPE.value: RDF_TYPE}

    def _error(self, message: str, tok: Optional[Token] = None) -> NoReturn:
        tok = tok or self.tok
        raise self.error_class(message, tok.line, tok.col)

    def _next(self) -> Token:
        tok = self.tok
        self.tok = self.lexer.next_token()
        return tok

    def _expect(self, kind: str, message: Optional[str] = None) -> Token:
        if self.tok.kind != kind:
            self._error(message or f"expected {kind}, found {self.tok.kind}")
        return self._next()

    def _prefix_declaration(self):
        """``prefix: <iri>``, after the ``@prefix`` / ``PREFIX`` keyword."""
        name = self._expect("PNAME")
        if name.value[1]:
            self._error("prefix declaration must end with ':'", name)
        self.prefixes[name.value[0]] = self._expect("IRIREF").value

    def _iri(self, tok: Token) -> IRI:
        """The IRI an IRIREF or PNAME token names."""
        value = tok.value
        if tok.kind == "PNAME":
            prefix, local = value
            if prefix not in self.prefixes:
                self._error(f"unknown prefix: {prefix!r}", tok)
            value = self.prefixes[prefix] + local
        return self._shared(tok, value, IRI, value)

    def _literal(self) -> Literal:
        """``STRING [LANGTAG | ^^ iri]``, from the current STRING token; an
        ill-formed literal is an error at its string."""
        tok = self._next()
        datatype, lang = XSD_STRING, None
        if self.tok.kind == "LANGTAG":
            datatype, lang = RDF_LANG_STRING, self._next().value
        elif self.tok.kind == "HATHAT":
            self._next()
            if self.tok.kind not in ("IRIREF", "PNAME"):
                self._error("expected datatype IRI after '^^'")
            datatype = self._iri(self._next()).value
        key = (tok.value, datatype, lang)
        return self._shared(tok, key, Literal, *key)

    def _shared(self, tok: Token, key: object, make: type, *args) -> Term:
        """The document's one ``make(*args)``, kept under ``key``: built and
        checked on first use, where an ill-formed term is an error at
        ``tok``."""
        term = self.terms.get(key)
        if term is None:
            try:
                term = self.terms[key] = make(*args)
            except RdfError as exc:
                self._error(str(exc), tok)
        return term

    def _verb(self):
        return self._term("predicate")

    def _predicate_object_list(self, subject, emit: Callable):
        """``verb object (, object)* (; verb object (, object)*)*``, calling
        ``emit(subject, verb, object)`` once per triple. A run of ``;`` may
        also end the list before a ``.`` or ``}``, which is left unread."""
        while True:
            verb = self._verb()
            while True:
                emit(subject, verb, self._term("object"))
                if self.tok.kind != "COMMA":
                    break
                self._next()
            if self.tok.kind != "SEMI":
                return
            while self.tok.kind == "SEMI":
                self._next()
            if self.tok.kind in ("DOT", "RBRACE"):
                return


class _Parser(TriplesParser):
    lexer_class = _Lexer
    error_class = TurtleParseError

    def __init__(self, text: str):
        super().__init__(text)
        self.graph = Graph()

    def _term(self, position: str) -> Term:
        tok = self.tok
        if tok.kind in ("IRIREF", "PNAME"):
            self._next()
            return self._iri(tok)
        if tok.kind == "BLANK":
            if position == "predicate":
                self._error("blank node not allowed as predicate")
            self._next()
            return self._shared(tok, (tok.value,), BlankNode, tok.value)
        if tok.kind == "A" and position == "predicate":
            self._next()
            return RDF_TYPE
        if tok.kind == "STRING":
            if position != "object":
                self._error("literal only allowed in object position")
            return self._literal()
        self._error(f"expected {position} term, found {tok.kind}")

    def _add(self, s: Term, p: Term, o: Term):
        self.graph.add(Triple(s, p, o))

    def parse(self) -> Graph:
        while self.tok.kind != "EOF":
            if self.tok.kind == "PREFIX_DIRECTIVE":
                self._next()
                self._prefix_declaration()
                if self.tok.kind == "DOT":
                    self._next()
                continue
            self._predicate_object_list(self._term("subject"), self._add)
            self._expect("DOT")
        return self.graph


def parse_turtle(text: str) -> Graph:
    """Parse a Turtle-subset document into a graph."""
    return _Parser(text).parse()
