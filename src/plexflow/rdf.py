"""In-memory RDF graph: terms, triples, indexes, N-Triples, isomorphism.

Design notes:

- Terms are immutable slotted classes (:class:`IRI`, :class:`BlankNode`,
  :class:`Literal`) on :class:`plexflow.record.FrozenRecord`. Literal
  identity is (lexical form, datatype, language tag); there is no
  value-space canonicalization, so ``"01"^^xsd:int`` and ``"1"^^xsd:int``
  are different terms. The readers build each distinct term once per
  parsed document and share it between statements (the term dictionary
  of RDF-3X, Neumann & Weikum, VLDB 2008), so a parsed graph holds one
  object per distinct term. Equality compares the fields, and the hash is
  the field tuple's, so a term built by hand equals the parsed one and
  has the same hash.
- IRI validation is purely syntactic (a scheme followed by ``:``); nothing
  is ever resolved over the network.
- :class:`Graph` keeps a triple set plus two-level indexes in the manner
  of Hexastore (Weiss, Karras & Bernstein, VLDB 2008): subject → predicate
  → bucket, object → predicate → bucket, and predicate → bucket. A pattern
  with ``(s, p)``, ``(p, o)`` or only ``p`` bound is one bucket, read
  without a scan or a term comparison; with all three bound it is the
  ``(s, p)`` bucket's one triple whose object equals ``o``, if any; with
  the predicate unbound it filters the bound subject's buckets, else the
  bound object's, else every triple. On a frozen graph each bucket is
  sorted into canonical order once, on its first read.
  :meth:`Graph.bucket_size` reports the smallest one-position bucket's
  size for the query planner, summing a subject's or an object's
  predicate buckets when it is read. There is no closure index: the
  query engine answers ``p+`` by walking these buckets one hop at a time.
  Insertion is idempotent (set semantics).
- Serialization is canonical: statements sorted by their serialized
  (subject, predicate, object) forms, one per line, ``\\n`` endings. Byte
  identity of output is therefore a pure function of the triple set.
- Graphs are mutable while being built and immutable after :meth:`freeze`;
  frozen graphs are safe to share across concurrent readers.
- ``isomorphic`` runs a backtracking blank-node bijection search and
  refuses graphs above a small blank-node budget rather than risk a wrong
  answer on adversarial input.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Iterator, Optional, Union

from .lexing import (
    BLANK_RE, IRIREF_RE, LANGTAG_RE, STRING_RE, EscapeError, unescape,
)
from .record import FrozenRecord, set_field

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
RDF_LANG_STRING = RDF_NS + "langString"
XSD_STRING = XSD_NS + "string"

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_]+$")
_LANG_TAG_RE = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")


class RdfError(ValueError):
    """Base class for RDF model and syntax errors."""


class NTriplesParseError(RdfError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FrozenGraphError(RdfError):
    """Mutation attempted on a frozen graph."""


class BlankBudgetError(RdfError):
    """Isomorphism check refused: too many blank nodes for exact search."""


class IRI(FrozenRecord):
    __slots__ = _fields = ("value",)

    def __init__(self, value: str):
        if not _SCHEME_RE.match(value):
            raise RdfError(f"not an absolute IRI: {value!r}")
        set_field(self, "value", value)

    # Written out rather than inherited: the store hashes and compares IRIs
    # more than anything else, and these skip the generic key lookup.
    def __hash__(self):
        return hash((self.value,))

    def __eq__(self, other):
        if other.__class__ is IRI:
            return self.value == other.value
        return NotImplemented

    def __repr__(self):
        return f"<{self.value}>"


class BlankNode(FrozenRecord):
    __slots__ = _fields = ("label",)

    def __init__(self, label: str):
        if not _BLANK_LABEL_RE.match(label):
            raise RdfError(f"invalid blank node label: {label!r}")
        set_field(self, "label", label)

    def __repr__(self):
        return f"_:{self.label}"


class Literal(FrozenRecord):
    __slots__ = _fields = ("lexical", "datatype", "lang")

    def __init__(self, lexical: str, datatype: str = XSD_STRING,
                 lang: Optional[str] = None):
        if lang is not None:
            if not _LANG_TAG_RE.match(lang):
                raise RdfError(f"invalid language tag: {lang!r}")
            if datatype not in (XSD_STRING, RDF_LANG_STRING):
                raise RdfError("language-tagged literal must use rdf:langString")
            datatype = RDF_LANG_STRING
        elif datatype == RDF_LANG_STRING:
            raise RdfError("rdf:langString literal requires a language tag")
        set_field(self, "lexical", lexical)
        set_field(self, "datatype", datatype)
        set_field(self, "lang", lang)

    def __repr__(self):
        return nt_term(self)


Term = Union[IRI, BlankNode, Literal]


class Triple(FrozenRecord):
    __slots__ = _fields = ("s", "p", "o")

    def __init__(self, s: Term, p: Term, o: Term):
        if isinstance(s, Literal):
            raise RdfError("literal subject not allowed")
        if not isinstance(p, IRI):
            raise RdfError("predicate must be an IRI")
        set_field(self, "s", s)
        set_field(self, "p", p)
        set_field(self, "o", o)

    def __iter__(self):
        return iter((self.s, self.p, self.o))


@functools.lru_cache(maxsize=4096)
def iri(value: str) -> IRI:
    """The IRI for ``value``, shared by every caller that names it: built
    and checked on first use. A string that is no IRI raises every time."""
    return IRI(value)


def plain_iri(value: str) -> IRI:
    """The IRI that ``<value>`` names in N-Triples or query text, for a
    ``value`` given from outside: it must be absolute and hold nothing an
    IRI reference cannot hold unescaped, or :class:`RdfError` is raised."""
    if _IRI_SPECIAL_RE.search(value) is not None:
        raise RdfError(f"not a plain IRI: {value!r}")
    return iri(value)


def bnode(label: str) -> BlankNode:
    return BlankNode(label)


def lit(lexical: str, datatype: Optional[str] = None, lang: Optional[str] = None) -> Literal:
    """The literal, shared as :func:`iri` shares IRIs."""
    if lang is not None:
        return _literal(lexical, RDF_LANG_STRING, lang)
    return _literal(lexical, datatype or XSD_STRING, None)


_literal = functools.lru_cache(maxsize=4096)(Literal)


RDF_TYPE = IRI(RDF_NS + "type")


# ---------------------------------------------------------------------------
# Canonical N-Triples formatting


_LITERAL_SPECIAL_RE = re.compile(r'[\x00-\x1f"\\]')
_IRI_SPECIAL_RE = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
                    "\t": "\\t"}


def _uchar(match: re.Match) -> str:
    return f"\\u{ord(match.group()):04X}"


def _literal_char(match: re.Match) -> str:
    return _LITERAL_ESCAPES.get(match.group()) or _uchar(match)


def _escape_literal(text: str) -> str:
    # Most lexical forms need no escape; one search settles that.
    if _LITERAL_SPECIAL_RE.search(text) is None:
        return text
    return _LITERAL_SPECIAL_RE.sub(_literal_char, text)


def _escape_iri(value: str) -> str:
    if _IRI_SPECIAL_RE.search(value) is None:
        return value
    return _IRI_SPECIAL_RE.sub(_uchar, value)


def nt_term(term: Term) -> str:
    """Serialize one term in N-Triples syntax."""
    if isinstance(term, IRI):
        return f"<{_escape_iri(term.value)}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{_escape_literal(term.lexical)}"'
        if term.lang is not None:
            return f"{body}@{term.lang}"
        if term.datatype != XSD_STRING:
            return f"{body}^^<{_escape_iri(term.datatype)}>"
        return body
    raise RdfError(f"not a term: {term!r}")


def nt_triple(t: Triple) -> str:
    return f"{nt_term(t.s)} {nt_term(t.p)} {nt_term(t.o)} ."


def _triple_key(t: Triple) -> tuple[str, str, str]:
    return (nt_term(t.s), nt_term(t.p), nt_term(t.o))


# ---------------------------------------------------------------------------
# Graph

# A list while the graph is built; a canonically sorted tuple once a frozen
# graph has read it.
Bucket = Union[list[Triple], tuple[Triple, ...]]


def _append(by_p: "dict[Term, Bucket]", p: Term, t: Triple) -> None:
    bucket = by_p.get(p)
    if bucket is None:
        by_p[p] = [t]
    else:
        bucket.append(t)


class Graph:
    """Indexed set of triples with deterministic iteration order."""

    # __weakref__: a prepared query keeps its memo for one graph, weakly.
    __slots__ = ("_triples", "_by_s", "_by_p", "_by_o", "_frozen",
                 "__weakref__")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: set[Triple] = set()
        self._by_s: dict[Term, dict[Term, Bucket]] = {}
        self._by_p: dict[Term, Bucket] = {}
        self._by_o: dict[Term, dict[Term, Bucket]] = {}
        self._frozen = False
        for t in triples:
            self.add(t)

    # -- mutation

    def add(self, t: Triple) -> bool:
        """Insert a triple; returns False when it was already present."""
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        triples = self._triples
        size = len(triples)
        triples.add(t)
        if len(triples) == size:
            return False
        s, p, o = t
        for index, term in ((self._by_s, s), (self._by_o, o)):
            by_p = index.get(term)
            if by_p is None:
                index[term] = {p: [t]}
            else:
                _append(by_p, p, t)
        _append(self._by_p, p, t)
        return True

    def add_all(self, triples: Iterable[Triple]) -> None:
        for t in triples:
            self.add(t)

    def freeze(self) -> "Graph":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def copy(self) -> "Graph":
        """An unfrozen copy with the same triples."""
        return Graph(self._triples)

    # -- access

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples, key=_triple_key))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self):
        raise TypeError("Graph is not hashable")

    def match(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> list[Triple]:
        """All triples matching the pattern; None is a wildcard.

        Results come back in canonical (sorted serialization) order, as a
        new list the caller may change.
        """
        if p is not None:
            if s is not None:
                by_p = self._by_s.get(s)
            elif o is not None:
                by_p = self._by_o.get(o)
            else:
                by_p = self._by_p
            bucket = by_p.get(p) if by_p else None
            if bucket is None:
                return []
            if s is not None and o is not None:
                # All three bound: the (s, p) bucket holds the triple or not.
                for t in bucket:
                    if t.o is o or t.o == o:
                        return [t]
                return []
            # (s, p), (p, o) or p alone: exactly one bucket.
            if type(bucket) is not tuple:
                bucket = self._canonical(by_p, p)
            return list(bucket)
        # p unbound: the bound subject's buckets, else the bound object's.
        if s is not None:
            buckets = self._by_s.get(s, {}).values()
        elif o is not None:
            buckets = self._by_o.get(o, {}).values()
        else:
            buckets = (self._triples,)
        out = [t for bucket in buckets for t in bucket
               if o is None or t.o == o]
        if len(out) > 1:
            out.sort(key=_triple_key)
        return out

    def _canonical(self, by_p: "dict[Term, Bucket]", p: Term) -> Bucket:
        """The list ``by_p[p]`` in canonical order. A frozen graph keeps the
        sorted tuple in place of the list; the list itself is never sorted
        in place, so concurrent readers of it stay safe."""
        ordered = tuple(sorted(by_p[p], key=_triple_key))
        if self._frozen:
            by_p[p] = ordered
        return ordered

    def objects(self, s: Term, p: Term) -> list[Term]:
        return [t.o for t in self.match(s, p, None)]

    def subjects(self, p: Term, o: Term) -> list[Term]:
        return [t.s for t in self.match(None, p, o)]

    def value(self, s: Term, p: Term) -> Optional[Term]:
        found = self.objects(s, p)
        return found[0] if found else None

    # -- readers keyed by a predicate IRI string, as the vocabulary gives it

    def iri_objects(self, s: Term, p: str) -> list[str]:
        """The IRI objects of ``(s, p)`` as strings; other objects are skipped."""
        return [t.value for t in self.objects(s, iri(p)) if isinstance(t, IRI)]

    def str_value(self, s: Term, p: str) -> str:
        """The first object of ``(s, p)`` as a lexical form, or ``""``."""
        term = self.value(s, iri(p))
        return term.lexical if isinstance(term, Literal) else ""

    def types(self, s: Term) -> set[str]:
        """The IRI ``rdf:type`` values of ``s``."""
        return {t.value for t in self.objects(s, RDF_TYPE) if isinstance(t, IRI)}

    def predicates(self) -> list[Term]:
        """The distinct predicates, in canonical (serialized) order."""
        return sorted(self._by_p, key=nt_term)

    def bucket_size(self, s: Optional[Term] = None, p: Optional[Term] = None,
                    o: Optional[Term] = None) -> int:
        """The size of the smallest one-position index bucket among the
        bound positions: an upper bound on ``len(self.match(s, p, o))`` that
        costs no scan. A subject's or an object's size is the sum of its
        predicates' buckets, taken on each read. The whole graph when
        nothing is bound, 0 when a bound term is absent.
        """
        size = len(self._triples)
        if p is not None:
            size = min(size, len(self._by_p.get(p, ())))
        for term, index in ((s, self._by_s), (o, self._by_o)):
            if term is not None:
                size = min(size, sum(map(len, index.get(term, {}).values())))
        return size


# ---------------------------------------------------------------------------
# N-Triples parsing

_SPACE_RE = re.compile(r"[ \t]*")
# One term and the blanks after it. Group 1 is the term's raw text, with
# the extent _read_nt_term gives it: a string followed by '@' or '^^' must
# carry a well-formed tag or datatype.
_NT_TERM_RE = re.compile(
    rf"({IRIREF_RE.pattern}|{BLANK_RE.pattern}|{STRING_RE.pattern}"
    rf"(?:{LANGTAG_RE.pattern}|\^\^{IRIREF_RE.pattern}|(?!@|\^\^)))[ \t]*")


def _parse_iri(raw: str, line: int) -> IRI:
    value = unescape(raw)
    if not _SCHEME_RE.match(value):
        raise NTriplesParseError(f"non-absolute IRI: {value!r}", line)
    return IRI(value)


def _parse_nt_term(text: str, pos: int, line: int,
                   terms: "dict[str, Term]") -> tuple[Term, int]:
    """The term at ``pos`` and the position after it and the blanks that
    follow. ``terms`` maps the raw text of every term the document has
    shown so far to its term, so a term is decoded and checked only where
    it first occurs, and each distinct term is one shared object."""
    m = _NT_TERM_RE.match(text, pos)
    if m is not None:
        term = terms.get(m.group(1))
        if term is not None:
            return term, m.end()
    term, end = _read_nt_term(text, pos, line)
    terms[text[pos:end]] = term
    return term, _SPACE_RE.match(text, end).end()


def _read_nt_term(text: str, pos: int, line: int) -> tuple[Term, int]:
    if pos >= len(text):
        raise NTriplesParseError("unexpected end of statement", line)
    ch = text[pos]
    if ch == "<":
        m = IRIREF_RE.match(text, pos)
        if not m:
            raise NTriplesParseError("malformed IRI", line)
        return _parse_iri(m.group(1), line), m.end()
    if ch == "_":
        m = BLANK_RE.match(text, pos)
        if not m:
            raise NTriplesParseError("malformed blank node label", line)
        return BlankNode(m.group(1)), m.end()
    if ch == '"':
        m = STRING_RE.match(text, pos)
        if not m:
            raise NTriplesParseError("malformed string literal", line)
        lexical = unescape(m.group(1))
        end = m.end()
        if end < len(text) and text[end] == "@":
            lm = LANGTAG_RE.match(text, end)
            if not lm:
                raise NTriplesParseError("malformed language tag", line)
            return Literal(lexical, RDF_LANG_STRING, lm.group(1)), lm.end()
        if text.startswith("^^", end):
            m2 = IRIREF_RE.match(text, end + 2)
            if not m2:
                raise NTriplesParseError("malformed datatype IRI", line)
            dt = _parse_iri(m2.group(1), line)
            return Literal(lexical, dt.value), m2.end()
        return Literal(lexical), end
    raise NTriplesParseError(f"unexpected character {ch!r}", line)


def _parse_statement(line: str, lineno: int, terms: "dict[str, Term]") -> Triple:
    space = _SPACE_RE.match
    pos = space(line).end()
    s, pos = _parse_nt_term(line, pos, lineno, terms)
    p, pos = _parse_nt_term(line, pos, lineno, terms)
    if not isinstance(p, IRI):
        raise NTriplesParseError("predicate must be an IRI", lineno)
    o, pos = _parse_nt_term(line, pos, lineno, terms)
    if pos >= len(line) or line[pos] != ".":
        raise NTriplesParseError("expected '.' at end of statement", lineno)
    pos = space(line, pos + 1).end()
    if pos < len(line) and line[pos] != "#":
        raise NTriplesParseError("trailing content after '.'", lineno)
    try:
        return Triple(s, p, o)
    except RdfError as exc:
        raise NTriplesParseError(str(exc), lineno) from exc


def parse_ntriples(text: str) -> Graph:
    """Parse a W3C N-Triples document (one statement per line).

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``. Blank node labels are
    preserved per document scope. ``#`` comment lines and trailing comments
    after the statement dot are allowed.
    """
    g = Graph()
    # rdf:type is the module's RDF_TYPE, as 'a' in a query is, so lookups
    # of that predicate meet the same object.
    terms: dict[str, Term] = {f"<{RDF_TYPE.value}>": RDF_TYPE}
    # Only these end a line: str.splitlines would also break inside a
    # literal at \x0b, \x0c, \x1c-\x1e, \x85, U+2028 and U+2029.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            g.add(_parse_statement(raw_line, lineno, terms))
        except EscapeError as exc:
            raise NTriplesParseError(str(exc), lineno) from None
    return g


def serialize_ntriples(g: Graph) -> str:
    """Canonical N-Triples: sorted statements, one per line, ``\\n`` ends."""
    lines = sorted(nt_triple(t) for t in g._triples)
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Isomorphism


def _is_ground(t: Triple) -> bool:
    return not (isinstance(t.s, BlankNode) or isinstance(t.o, BlankNode))


def _blank_nodes(g: Graph) -> set[BlankNode]:
    found: set[BlankNode] = set()
    for t in g._triples:
        if isinstance(t.s, BlankNode):
            found.add(t.s)
        if isinstance(t.o, BlankNode):
            found.add(t.o)
    return found


def _signature(b: BlankNode, g: Graph) -> tuple:
    """Mapping-invariant profile of one blank node's incident triples."""
    parts = []
    for t in g.match(s=b):
        other = "?" if isinstance(t.o, BlankNode) else nt_term(t.o)
        parts.append(("s", nt_term(t.p), other, t.o == b))
    for t in g.match(o=b):
        if t.s == b:
            continue
        other = "?" if isinstance(t.s, BlankNode) else nt_term(t.s)
        parts.append(("o", nt_term(t.p), other, False))
    return tuple(sorted(parts))


def isomorphic(g1: Graph, g2: Graph, blank_budget: int = 20) -> bool:
    """True iff a blank-node bijection maps g1 exactly onto g2.

    Raises :class:`BlankBudgetError` when the combined blank-node count
    exceeds ``blank_budget`` (the search is exact backtracking, so the
    budget keeps it desk-scale instead of silently wrong).
    """
    b1 = sorted(_blank_nodes(g1), key=lambda b: b.label)
    b2 = sorted(_blank_nodes(g2), key=lambda b: b.label)
    if len(b1) + len(b2) > blank_budget:
        raise BlankBudgetError(
            f"{len(b1) + len(b2)} blank nodes exceed the budget of {blank_budget}")
    if len(g1) != len(g2) or len(b1) != len(b2):
        return False
    ground1 = {t for t in g1._triples if _is_ground(t)}
    ground2 = {t for t in g2._triples if _is_ground(t)}
    if ground1 != ground2:
        return False
    if not b1:
        return True

    blank1 = [t for t in g1._triples if not _is_ground(t)]
    blank2 = {t for t in g2._triples if not _is_ground(t)}
    sig2: dict[tuple, list[BlankNode]] = {}
    for b in b2:
        sig2.setdefault(_signature(b, g2), []).append(b)
    candidates: dict[BlankNode, list[BlankNode]] = {}
    for b in b1:
        candidates[b] = sig2.get(_signature(b, g1), [])
        if not candidates[b]:
            return False

    order = sorted(b1, key=lambda b: (len(candidates[b]), b.label))

    def apply(term: Term, mapping: dict) -> Term:
        return mapping.get(term, term) if isinstance(term, BlankNode) else term

    def consistent(mapping: dict) -> bool:
        # Triples whose blank endpoints are all mapped must land in g2.
        for t in blank1:
            if isinstance(t.s, BlankNode) and t.s not in mapping:
                continue
            if isinstance(t.o, BlankNode) and t.o not in mapping:
                continue
            if Triple(apply(t.s, mapping), t.p, apply(t.o, mapping)) not in blank2:
                return False
        return True

    used: set[BlankNode] = set()

    def backtrack(i: int, mapping: dict) -> bool:
        if i == len(order):
            image = {Triple(apply(t.s, mapping), t.p, apply(t.o, mapping))
                     for t in blank1}
            return image == blank2
        b = order[i]
        for cand in candidates[b]:
            if cand in used:
                continue
            mapping[b] = cand
            used.add(cand)
            if consistent(mapping) and backtrack(i + 1, mapping):
                return True
            used.discard(cand)
            del mapping[b]
        return False

    return backtrack(0, {})
