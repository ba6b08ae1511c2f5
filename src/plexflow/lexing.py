"""Term lexing shared by the N-Triples, Turtle and SPARQL-subset readers.

This module holds the single copy of the terminal patterns the three
syntaxes have in common, the single escape decoder and the rule-driven
tokenizer of Turtle and SPARQL. Each syntax keeps its own typed error
class; nothing here knows about graphs or queries.

- ``IRIREF`` is the N-Triples production: ``\\u``/``\\U`` escapes are
  allowed inside ``<...>``, as in the W3C Turtle and SPARQL grammars, so
  every reader accepts the escaped IRIs that the serializer writes.
- :func:`unescape` applies the strict N-Triples rules everywhere: hex
  digits are checked, escapes above U+10FFFF or into the surrogate range
  are rejected, and a dangling or unknown escape is an error. Escape-free
  text, by far the common case, is returned unchanged without a scan.
- A :class:`Lexer` subclass is one grammar's ordered rule list. A rule is
  a pattern with either a token kind or an error message, and the first
  rule that matches at the current offset wins, as in the tokenizer recipe
  of the Python ``re`` documentation. Turtle and SPARQL both splice in
  :data:`TRIPLES_RULES`, the tokens of the triples grammar they share
  (IRIREF, STRING, LANGTAG, HATHAT, BLANK, PNAME and the ``. ; ,``
  separators). A token keeps its offset; a line and a column are worked
  out only for an error (:meth:`Lexer.error`). The parser base over these
  tokens is :class:`plexflow.turtle.TriplesParser`.
"""

from __future__ import annotations

import re
from typing import NamedTuple, NoReturn

IRIREF_RE = re.compile(r'<([^\x00-\x20<>"{}|^`]*)>')
STRING_RE = re.compile(r'"((?:[^"\\\n\r]|\\.)*)"')
LANGTAG_RE = re.compile(r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)")
BLANK_RE = re.compile(r"_:([A-Za-z0-9_]+)")
PN_PREFIX = r"[A-Za-z][A-Za-z0-9_\-]*"
# A local name may hold dots but not end with one: the dot after
# ``ex:a.`` ends the statement.
PN_LOCAL = r"[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"

_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
          '"': '"', "'": "'", "\\": "\\"}

_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.)|$)", re.S)
# Blanks, line ends and '#' comments between Turtle / SPARQL tokens.
_GAP = r"(?:[ \t\r\n]+|#[^\n]*)*"


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


# The tokens of the triples grammar, as rules: (pattern, kind) cuts a
# token, (pattern, None, message) is an error at the offset. A token's
# value is the text its pattern's groups take, or all it matched when the
# pattern has no group; IRIREF and STRING values are unescaped.
TRIPLES_RULES = (
    (IRIREF_RE.pattern, "IRIREF"),
    (STRING_RE.pattern, "STRING"),
    ('"', None, "unterminated string literal"),
    (LANGTAG_RE.pattern, "LANGTAG"),
    ("@", None, "malformed language tag"),
    (r"\^\^", "HATHAT"),
    (BLANK_RE.pattern, "BLANK"),
    ("_:", None, "malformed blank node label"),
    # The value is (prefix, local), either of them possibly empty.
    (rf"((?:{PN_PREFIX})?):((?:{PN_LOCAL})?)", "PNAME"),
    (r"\.", "DOT"),
    (";", "SEMI"),
    (",", "COMMA"),
)
# What every rule list ends with. No rule meets a line end: the gap before
# each token takes it.
_LAST_RULES = (
    (r"\Z", "EOF"),
    (".", None, "unexpected character {!r}"),
)
_DECODED = ("IRIREF", "STRING")


class Token(NamedTuple):
    kind: str
    value: object
    pos: int


class Lexer:
    """One Turtle or SPARQL document, cut by one grammar's rule list.

    Subclasses set ``rules`` (see :data:`TRIPLES_RULES`; ``EOF`` and the
    unexpected character come last by themselves) and ``error_class``,
    called as ``error_class(message, line, col)``. A message is formatted
    with the text its rule matched. The rule list is compiled into one
    pattern on the grammar's first document.
    """

    rules: tuple[tuple, ...]
    error_class: type[Exception]
    _scan = None
    # Per group of the compiled pattern that opens a rule: (kind, message,
    # the groups that make the value).
    _actions: list

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        if self._scan is None:
            self._compile()

    @classmethod
    def _compile(cls):
        rules = cls.rules + _LAST_RULES
        pattern = re.compile(_GAP + "(?:" + "|".join(
            f"(?P<r{i}>{rule[0]})" for i, rule in enumerate(rules)) + ")")
        firsts = [pattern.groupindex[f"r{i}"] for i in range(len(rules))]
        cls._actions = actions = [None] * (pattern.groups + 1)
        for (_, kind, *message), first, end in zip(
                rules, firsts, firsts[1:] + [pattern.groups + 1]):
            actions[first] = (kind, message[0] if message else None,
                              tuple(range(first + 1, end)) or (first,))
        cls._scan = pattern.match

    def next_token(self) -> Token:
        """The next token; ``EOF`` at the end, and again on every later call."""
        m = self._scan(self.text, self.pos)
        # The rule's own group: it closes after every group inside it.
        rule = m.lastindex
        kind, message, groups = self._actions[rule]
        start = m.start(rule)
        if message:
            self.error(message.format(m[rule]), start)
        self.pos = m.end()
        value = m.group(*groups)
        if kind in _DECODED:
            try:
                value = unescape(value)
            except EscapeError as exc:
                self.error(str(exc), start)
        return Token(kind, value, start)

    def error(self, message: str, offset: int) -> NoReturn:
        """Raise ``error_class`` at the line and column of ``offset``."""
        text = self.text
        line_start = text.rfind("\n", 0, offset) + 1
        raise self.error_class(message, text.count("\n", 0, offset) + 1,
                               offset - line_start + 1)
