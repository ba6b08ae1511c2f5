"""Turtle-subset reader.

Covers exactly the authoring sugar the workflow listings use: ``@prefix``
and SPARQL-style ``PREFIX`` directives, CURIEs (including the empty
prefix), the ``a`` keyword, ``;`` and ``,`` continuations, plain, typed and
language-tagged string literals, and ``_:label`` blank nodes. Everything
else in full Turtle (collections, ``[]`` anonymous nodes, ``@base``,
numeric and boolean shorthand, multi-line strings) is rejected by name so a
document never parses to something other than what it says.

Terms are cut and decoded by the lexer shared with the N-Triples and
SPARQL readers (:mod:`plexflow.lexing`): IRIs may carry ``\\u``/``\\U``
escapes, so any canonical N-Triples document is also valid input, and a
malformed escape is a :class:`TurtleParseError` with its position.
"""

from __future__ import annotations

from typing import Optional

from .lexing import (
    BLANK_RE, IRIREF_RE, LANGTAG_RE, PN_LOCAL_RE, PN_PREFIX_RE, STRING_RE,
    Lexer, Token,
)
from .rdf import (
    RDF_LANG_STRING, RDF_TYPE, BlankNode, Graph, IRI, Literal, RdfError, Triple,
)


class TurtleParseError(RdfError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _Lexer(Lexer):
    """Token kinds: PREFIX_DIRECTIVE IRIREF PNAME BLANK STRING LANGTAG HATHAT
    A DOT SEMI COMMA EOF."""

    error_class = TurtleParseError

    def next_token(self) -> Token:
        self._skip_ws()
        line, col = self.line, self.col
        if self.pos >= len(self.text):
            return Token("EOF", None, line, col)
        text, pos = self.text, self.pos
        ch = text[pos]

        if ch == "@":
            if text.startswith("@prefix", pos):
                self._advance(7)
                return Token("PREFIX_DIRECTIVE", "@prefix", line, col)
            if text.startswith("@base", pos):
                self._error("unsupported construct: @base directive")
            m = LANGTAG_RE.match(text, pos)
            if not m:
                self._error("malformed language tag")
            self._advance(m.end() - pos)
            return Token("LANGTAG", m.group(1), line, col)

        if ch == "<":
            m = IRIREF_RE.match(text, pos)
            if not m:
                self._error("malformed IRI reference")
            value = self._decoded(m.group(1))
            self._advance(m.end() - pos)
            return Token("IRIREF", value, line, col)

        if ch == '"':
            if text.startswith('"""', pos):
                self._error("unsupported construct: multi-line string literal")
            m = STRING_RE.match(text, pos)
            if not m:
                self._error("unterminated string literal")
            value = self._decoded(m.group(1))
            self._advance(m.end() - pos)
            return Token("STRING", value, line, col)

        if text.startswith("^^", pos):
            self._advance(2)
            return Token("HATHAT", "^^", line, col)

        if text.startswith("_:", pos):
            m = BLANK_RE.match(text, pos)
            if not m:
                self._error("malformed blank node label")
            self._advance(m.end() - pos)
            return Token("BLANK", m.group(1), line, col)

        if ch in ".;,":
            self._advance(1)
            return Token({"." : "DOT", ";": "SEMI", ",": "COMMA"}[ch], ch, line, col)

        if ch == "[":
            self._error("unsupported construct: anonymous blank node '[]'")
        if ch == "(":
            self._error("unsupported construct: RDF collection '(...)'")
        if ch.isdigit() or (ch in "+-" and pos + 1 < len(text) and text[pos + 1].isdigit()):
            self._error("unsupported construct: numeric literal shorthand")

        # Bare word: either a PNAME (with ':'), the 'a' keyword, or a
        # SPARQL-style PREFIX directive.
        if ch == ":" or PN_PREFIX_RE.match(text, pos):
            m = PN_PREFIX_RE.match(text, pos)
            word = m.group(0) if m else ""
            after = pos + len(word)
            if after < len(text) and text[after] == ":":
                m2 = PN_LOCAL_RE.match(text, after + 1)
                local = m2.group(0) if m2 else ""
                while local.endswith("."):
                    local = local[:-1]
                self._advance(len(word) + 1 + len(local))
                return Token("PNAME", (word, local), line, col)
            if word == "a":
                self._advance(1)
                return Token("A", "a", line, col)
            if word.upper() == "PREFIX":
                self._advance(len(word))
                return Token("PREFIX_DIRECTIVE", "PREFIX", line, col)
            if word.upper() == "BASE":
                self._error("unsupported construct: BASE directive")
            if word in ("true", "false"):
                self._error("unsupported construct: boolean literal shorthand")
            self._error(f"unexpected token {word!r}")
        self._error(f"unexpected character {ch!r}")


class _Parser:
    def __init__(self, text: str):
        self.lexer = _Lexer(text)
        self.token = self.lexer.next_token()
        self.prefixes: dict[str, str] = {}
        self.graph = Graph()

    def _error(self, message: str, token: Optional[Token] = None):
        tok = token or self.token
        raise TurtleParseError(message, tok.line, tok.col)

    def _next(self) -> Token:
        tok = self.token
        self.token = self.lexer.next_token()
        return tok

    def _expect(self, kind: str) -> Token:
        if self.token.kind != kind:
            self._error(f"expected {kind}, found {self.token.kind}")
        return self._next()

    def _make_iri(self, value: str, token: Token) -> IRI:
        try:
            return IRI(value)
        except RdfError as exc:
            self._error(str(exc), token)

    def _resolve_pname(self, token: Token) -> IRI:
        prefix, local = token.value
        if prefix not in self.prefixes:
            self._error(f"unknown prefix: {prefix!r}", token)
        return self._make_iri(self.prefixes[prefix] + local, token)

    def _parse_directive(self):
        self._next()
        name_tok = self._expect("PNAME")
        prefix, local = name_tok.value
        if local:
            self._error("prefix declaration must end with ':'", name_tok)
        iri_tok = self._expect("IRIREF")
        self.prefixes[prefix] = iri_tok.value
        if self.token.kind == "DOT":
            self._next()

    def _parse_term(self, position: str):
        tok = self.token
        if tok.kind == "IRIREF":
            self._next()
            return self._make_iri(tok.value, tok)
        if tok.kind == "PNAME":
            self._next()
            return self._resolve_pname(tok)
        if tok.kind == "BLANK":
            if position == "predicate":
                self._error("blank node not allowed as predicate", tok)
            self._next()
            return BlankNode(tok.value)
        if tok.kind == "A" and position == "predicate":
            self._next()
            return RDF_TYPE
        if tok.kind == "STRING":
            if position != "object":
                self._error("literal only allowed in object position", tok)
            self._next()
            if self.token.kind == "LANGTAG":
                lang = self._next().value
                return Literal(tok.value, RDF_LANG_STRING, lang)
            if self.token.kind == "HATHAT":
                self._next()
                dt_tok = self.token
                if dt_tok.kind == "IRIREF":
                    self._next()
                    dt = self._make_iri(dt_tok.value, dt_tok)
                elif dt_tok.kind == "PNAME":
                    self._next()
                    dt = self._resolve_pname(dt_tok)
                else:
                    self._error("expected datatype IRI after '^^'")
                return Literal(tok.value, dt.value)
            return Literal(tok.value)
        self._error(f"expected {position} term, found {tok.kind}")

    def _parse_triples(self):
        subject = self._parse_term("subject")
        while True:
            if self.token.kind == "DOT":
                # Trailing ';' before the final '.' leaves us here.
                break
            predicate = self._parse_term("predicate")
            while True:
                obj = self._parse_term("object")
                self.graph.add(Triple(subject, predicate, obj))
                if self.token.kind == "COMMA":
                    self._next()
                    continue
                break
            if self.token.kind == "SEMI":
                while self.token.kind == "SEMI":
                    self._next()
                continue
            break
        self._expect("DOT")

    def parse(self) -> Graph:
        while self.token.kind != "EOF":
            if self.token.kind == "PREFIX_DIRECTIVE":
                self._parse_directive()
            else:
                self._parse_triples()
        return self.graph


def parse_turtle(text: str) -> Graph:
    """Parse a Turtle-subset document into a graph."""
    return _Parser(text).parse()
