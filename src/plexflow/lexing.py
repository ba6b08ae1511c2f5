"""Term lexing shared by the N-Triples, Turtle and SPARQL-subset readers.

This module holds the single copy of the terminal patterns the three
syntaxes have in common, the single escape decoder and the
position-tracking base of the Turtle and SPARQL tokenizers. Each syntax
keeps its own typed error class; nothing here knows about graphs or
queries.

- ``IRIREF`` is the N-Triples production: ``\\u``/``\\U`` escapes are
  allowed inside ``<...>``, as in the W3C Turtle and SPARQL grammars, so
  every reader accepts the escaped IRIs that the serializer writes.
- :func:`unescape` applies the strict N-Triples rules everywhere: hex
  digits are checked, escapes above U+10FFFF or into the surrogate range
  are rejected, and a dangling or unknown escape is an error. Escape-free
  text, by far the common case, is returned unchanged without a scan.
- :meth:`Lexer._shared_token` cuts the tokens of the triples grammar that
  Turtle and SPARQL share (IRIREF, STRING, LANGTAG, HATHAT, BLANK, PNAME
  and the ``. ; ,`` separators); each tokenizer adds only its own kinds
  around it. The parser base over these tokens is
  :class:`plexflow.turtle.TriplesParser`.
"""

from __future__ import annotations

import re
from typing import NamedTuple, NoReturn, Optional

IRIREF_RE = re.compile(r'<([^\x00-\x20<>"{}|^`]*)>')
STRING_RE = re.compile(r'"((?:[^"\\\n\r]|\\.)*)"')
LANGTAG_RE = re.compile(r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)")
BLANK_RE = re.compile(r"_:([A-Za-z0-9_]+)")
PN_PREFIX = r"[A-Za-z][A-Za-z0-9_\-]*"
# A local name may hold dots but not end with one: the dot after
# ``ex:a.`` ends the statement.
PN_LOCAL = r"[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"
PN_PREFIX_RE = re.compile(PN_PREFIX)
PNAME_RE = re.compile(rf"({PN_PREFIX})?:({PN_LOCAL})?")

_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
          '"': '"', "'": "'", "\\": "\\"}

_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.)|$)", re.S)
# Blanks, line ends and '#' comments between Turtle / SPARQL tokens.
_GAP_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_SEPARATORS = {".": "DOT", ";": "SEMI", ",": "COMMA"}


class EscapeError(ValueError):
    """A malformed escape; each reader re-raises it as its own typed error."""


def _decode_escape(m: re.Match) -> str:
    hex4, hex8, other = m.groups()
    if hex4 or hex8:
        code = int(hex4 or hex8, 16)
        # A lone surrogate decodes, but could never be written out as UTF-8.
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise EscapeError(f"escape is not a Unicode scalar value: {m.group(0)!r}")
        return chr(code)
    if other is None:
        raise EscapeError("dangling escape")
    if other in _ECHAR:
        return _ECHAR[other]
    if other in "uU":
        width = 6 if other == "u" else 10
        raw = m.string[m.start():m.start() + width]
        raise EscapeError(f"bad \\{other} escape: {raw!r}")
    raise EscapeError(f"bad escape: \\{other}")


def unescape(raw: str) -> str:
    """Decode ECHAR and UCHAR escapes; raises :class:`EscapeError`."""
    if "\\" not in raw:
        return raw
    return _ESCAPE_RE.sub(_decode_escape, raw)


class Token(NamedTuple):
    kind: str
    value: object
    line: int
    col: int


class Lexer:
    """Line and column tracking over one Turtle or SPARQL document.

    Subclasses set ``error_class``, called as ``error_class(message, line,
    col)``, and implement :meth:`_cut`, which cuts the token at the current
    position around :meth:`_shared_token`.
    """

    error_class: type[Exception]

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def next_token(self) -> Token:
        """The next token; ``EOF`` at the end, and again on every later call."""
        self._skip_ws()
        if self.pos >= len(self.text):
            return Token("EOF", None, self.line, self.col)
        return self._cut()

    def _take(self, kind: str, end: int, value: object) -> Token:
        """A token from the current position up to ``end``; moves past it.
        No token spans a line end, so only the column moves."""
        tok = Token(kind, value, self.line, self.col)
        self.col += end - self.pos
        self.pos = end
        return tok

    def _error(self, message: str) -> NoReturn:
        raise self.error_class(message, self.line, self.col)

    def _skip_ws(self):
        text, start = self.text, self.pos
        end = _GAP_RE.match(text, start).end()
        newlines = text.count("\n", start, end)
        if newlines:
            self.line += newlines
            self.col = end - text.rfind("\n", start, end)
        else:
            self.col += end - start
        self.pos = end

    def _decoded(self, raw: str) -> str:
        """``unescape(raw)``, with a malformed escape reported at the token."""
        try:
            return unescape(raw)
        except EscapeError as exc:
            self._error(str(exc))

    def _shared_token(self) -> Optional[Token]:
        """The token of the shared triples grammar at the current position:
        IRIREF, STRING, LANGTAG, HATHAT, BLANK, PNAME (value ``(prefix,
        local)``), DOT, SEMI or COMMA. ``None`` when the text there starts
        none of them, including a ``<`` that opens no IRI reference; a
        malformed string, language tag, blank node label or escape is an
        error at the token.
        """
        text, pos = self.text, self.pos
        ch = text[pos]
        if ch == "<":
            m = IRIREF_RE.match(text, pos)
            if not m:
                return None
            return self._take("IRIREF", m.end(), self._decoded(m.group(1)))
        if ch == '"':
            m = STRING_RE.match(text, pos)
            if not m:
                self._error("unterminated string literal")
            return self._take("STRING", m.end(), self._decoded(m.group(1)))
        if ch == "@":
            m = LANGTAG_RE.match(text, pos)
            if not m:
                self._error("malformed language tag")
            return self._take("LANGTAG", m.end(), m.group(1))
        if ch in _SEPARATORS:
            return self._take(_SEPARATORS[ch], pos + 1, ch)
        if text.startswith("^^", pos):
            return self._take("HATHAT", pos + 2, "^^")
        if text.startswith("_:", pos):
            m = BLANK_RE.match(text, pos)
            if not m:
                self._error("malformed blank node label")
            return self._take("BLANK", m.end(), m.group(1))
        m = PNAME_RE.match(text, pos)
        if not m:
            return None
        return self._take("PNAME", m.end(), (m.group(1) or "", m.group(2) or ""))
