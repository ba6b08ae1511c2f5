"""Canned competency-question catalogue.

Twelve questions over a workflow provenance graph, each answered by one
query template shipped as an inspectable ``.rq`` asset under ``queries/``.
Templates take workflow IRIs through ``$workflow`` / ``$from`` / ``$to``
parameters. Each template is read once per process into a
:class:`plexflow.query.PreparedQuery`, which writes the IRIs into its text
as N-Triples terms and parses it, so the IRI is a constant everywhere
(MINUS blocks included); repeated calls with the same IRIs over one frozen
graph reuse the parsed query and the planner's choices. The
templates are read as plain files beside this module, so the package must
be installed unzipped.

A step attached directly or through one sub-plan is a UNION inside a
template. The version-delta questions (CQ3.2, CQ3.4) are a three-branch
UNION whose branches tag their rows ``"removed"``, ``"changed"`` or
``"added"`` with VALUES, ordered ``DESC(?change)``, so running the template
alone gives the whole answer. Only the main-chain question (CQ2.1) is
reordered after the query, by closure predecessor counts read from its
direct edges. Anything beyond that (counting rows, grouping) is left to
the caller.
"""

from __future__ import annotations

import functools
import os

from .query import PreparedQuery, ResultTable, TriplePattern, evaluate
from .rdf import Graph, IRI, RdfError, Term, nt_term, plain_iri
from .record import FrozenRecord, set_field


class CqError(ValueError):
    """Unknown question id or missing/invalid parameter."""


class CqEntry(FrozenRecord):
    __slots__ = _fields = ("id", "title", "params", "file", "chain")

    def __init__(self, id: str, title: str, params: tuple[str, ...], file: str,
                 chain: bool = False):
        set_field(self, "id", id)
        set_field(self, "title", title)
        set_field(self, "params", params)  # the template's, in first-use order
        set_field(self, "file", file)
        set_field(self, "chain", chain)  # rows reordered by _chain_order


CATALOGUE: dict[str, CqEntry] = {e.id: e for e in (
    CqEntry("CQ1.1", "manual vs computational step inventory for one version",
            ("workflow",), "cq1_1.rq"),
    CqEntry("CQ1.2", "agents and roles behind one version's manual steps",
            ("workflow",), "cq1_2.rq"),
    CqEntry("CQ1.3", "dataset distributions one version handles, with formats",
            ("workflow",), "cq1_3.rq"),
    CqEntry("CQ1.4", "operation classes and variables of manual steps",
            ("workflow",), "cq1_4.rq"),
    CqEntry("CQ2.1", "main step chain of a workflow, in execution order",
            ("workflow",), "cq2_1.rq", chain=True),
    CqEntry("CQ2.2", "all steps belonging to one version and their instructions",
            ("workflow",), "cq2_2.rq"),
    CqEntry("CQ2.3", "which higher-level instruction describes which implementation",
            (), "cq2_3.rq"),
    CqEntry("CQ3.1", "workflow versions, their provenance and revision links",
            (), "cq3_1.rq"),
    CqEntry("CQ3.2", "instructions removed / changed / added between versions",
            ("from", "to"), "cq3_2.rq"),
    CqEntry("CQ3.3", "steps automatized (manual to computational) between versions",
            ("from", "to"), "cq3_3.rq"),
    CqEntry("CQ3.4", "datasets removed / changed / added between versions",
            ("from", "to"), "cq3_4.rq"),
    CqEntry("CQ3.5", "executions per workflow version and what they generated",
            (), "cq3_5.rq"),
)}

_QUERIES = os.path.join(os.path.dirname(__file__), "queries")


def query_text(filename: str) -> str:
    with open(os.path.join(_QUERIES, filename), encoding="utf-8") as handle:
        return handle.read()


@functools.cache
def _prepared(filename: str) -> PreparedQuery:
    return PreparedQuery(query_text(filename))


def _chain_order(table: ResultTable, g: Graph, precedes: IRI) -> ResultTable:
    """CQ2.1's answer: the first steps, then the members by closure
    predecessor count, the (first, before) pairs with ``first precedes+
    before precedes+ member``. Paths between members hold only members, so
    member bitsets (ints) of each first step's reach and each member's
    ancestors carry the counts along direct edges in depth-first reverse
    postorder: one pass on a DAG, more to a fixpoint on a cycle."""
    bit: dict[Term, int] = {}
    reach: dict[Term, int] = {}
    for first, member in table.rows:
        reach[first] = reach.get(first, 0) | bit.setdefault(member, 1 << len(bit))
    firsts = sorted(reach, key=nt_term)
    successors: dict[Term, list[Term]] = {}
    postorder: list[Term] = []
    todo = [(first, False) for first in reversed(firsts)]
    while todo:
        node, finished = todo.pop()
        if finished:
            postorder.append(node)
        elif node not in successors:
            successors[node] = [t.o for t in g.match(node, precedes, None) if t.o in bit]
            todo += [(node, True)] + [(nxt, False) for nxt in successors[node]]
    ancestors = dict.fromkeys(postorder, 0)
    changed = True
    while changed:
        changed = False
        for node in reversed(postorder):
            carried = ancestors[node] | bit.get(node, 0)
            for nxt in successors[node]:
                if carried & ~ancestors[nxt]:
                    ancestors[nxt] |= carried
                    changed = True
    count = {m: sum((r & ancestors[m]).bit_count() for r in reach.values() if r & b)
             for m, b in bit.items()}
    ordered = firsts + sorted(bit, key=lambda m: (count[m], nt_term(m)))
    return ResultTable(["step"], [(m,) for m in ordered])


def run_cq(cq_id: str, g: Graph, params: dict[str, str] | None = None) -> ResultTable:
    """Answer one catalogue question over a frozen graph."""
    entry = CATALOGUE.get(cq_id)
    if entry is None:
        raise CqError(f"unknown competency question id: {cq_id}")
    params = params or {}
    for name in entry.params:
        if name not in params:
            raise CqError(f"{cq_id} requires parameter --{name}")
    values: dict[str, Term] = {}
    for name in entry.params:
        value = params[name]
        try:
            values[name] = plain_iri(value)
        except RdfError as exc:
            raise CqError(f"parameter --{name} must be an absolute IRI: "
                          f"{value!r}") from exc
    query, choices = _prepared(entry.file).bind_for(g, values)
    table = evaluate(query, g, choices=choices)
    if not entry.chain:
        return table
    (path,) = [el for el in query.where.elements
               if isinstance(el, TriplePattern) and el.plus]
    return _chain_order(table, g, path.p)


def delta_counts(table: ResultTable) -> dict[str, int]:
    """removed / changed / added row counts of a delta-style table."""
    idx = table.variables.index("change")
    counts = {"removed": 0, "changed": 0, "added": 0}
    for row in table.rows:
        counts[row[idx].lexical] += 1
    return counts
