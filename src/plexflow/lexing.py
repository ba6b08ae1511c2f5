"""Term lexing shared by the N-Triples, Turtle and SPARQL-subset readers.

This module holds the single copy of the terminal patterns the three
syntaxes have in common, the single escape decoder and the
position-tracking base of the Turtle and SPARQL tokenizers. Each syntax
keeps its own grammar and its own typed error class; nothing here knows
about graphs or queries.

- ``IRIREF`` is the N-Triples production: ``\\u``/``\\U`` escapes are
  allowed inside ``<...>``, as in the W3C Turtle and SPARQL grammars, so
  every reader accepts the escaped IRIs that the serializer writes.
- :func:`unescape` applies the strict N-Triples rules everywhere: hex
  digits are checked, escapes above U+10FFFF or into the surrogate range
  are rejected, and a dangling or unknown escape is an error. Escape-free
  text, by far the common case, is returned unchanged without a scan.
"""

from __future__ import annotations

import re
from typing import NamedTuple, NoReturn

IRIREF_RE = re.compile(r'<([^\x00-\x20<>"{}|^`]*)>')
STRING_RE = re.compile(r'"((?:[^"\\\n\r]|\\.)*)"')
LANGTAG_RE = re.compile(r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)")
BLANK_RE = re.compile(r"_:([A-Za-z0-9_]+)")
PN_PREFIX = r"[A-Za-z][A-Za-z0-9_\-]*"
PN_LOCAL = r"[A-Za-z0-9_][A-Za-z0-9_.\-]*"
PN_PREFIX_RE = re.compile(PN_PREFIX)
PN_LOCAL_RE = re.compile(PN_LOCAL)

_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
          '"': '"', "'": "'", "\\": "\\"}

_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.)|$)", re.S)
# Blanks, line ends and '#' comments between Turtle / SPARQL tokens.
_GAP_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")


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
    col)``, and cut their own tokens with the shared patterns.
    """

    error_class: type[Exception]

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, n: int):
        chunk = self.text[self.pos:self.pos + n]
        newlines = chunk.count("\n")
        if newlines:
            self.line += newlines
            self.col = n - chunk.rfind("\n")
        else:
            self.col += n
        self.pos += n

    def _error(self, message: str) -> NoReturn:
        raise self.error_class(message, self.line, self.col)

    def _skip_ws(self):
        end = _GAP_RE.match(self.text, self.pos).end()
        if end != self.pos:
            self._advance(end - self.pos)

    def _decoded(self, raw: str) -> str:
        """``unescape(raw)``, with a malformed escape reported at the token."""
        try:
            return unescape(raw)
        except EscapeError as exc:
            self._error(str(exc))
