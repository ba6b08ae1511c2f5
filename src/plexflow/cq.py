"""Canned competency-question catalogue.

Twelve questions over a workflow provenance graph, each answered by one or
more query templates shipped as inspectable ``.rq`` assets under
``queries/``. Templates take workflow IRIs through ``$workflow`` / ``$from``
/ ``$to`` placeholders, substituted textually before parsing so the IRI is
a constant everywhere (MINUS blocks included).

Each template answers one part of its question; a step attached directly
or through one sub-plan is a UNION inside that template. The version-delta
questions run one removed, one changed and one added query and tag their
rows; the main-chain question orders its rows by closure predecessor
counts. Anything beyond that (counting rows, grouping) is left to the
caller.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from .query import ResultTable, evaluate, parse_query
from .rdf import Graph, IRI, lit, nt_term


class CqError(ValueError):
    """Unknown question id or missing/invalid parameter."""


@dataclass(frozen=True)
class CqEntry:
    id: str
    title: str
    params: tuple[str, ...]
    files: tuple[str, ...]
    combine: str  # single | chain | delta


CATALOGUE: dict[str, CqEntry] = {e.id: e for e in (
    CqEntry("CQ1.1", "manual vs computational step inventory for one version",
            ("workflow",), ("cq1_1.rq",), "single"),
    CqEntry("CQ1.2", "agents and roles behind one version's manual steps",
            ("workflow",), ("cq1_2.rq",), "single"),
    CqEntry("CQ1.3", "dataset distributions one version handles, with formats",
            ("workflow",), ("cq1_3.rq",), "single"),
    CqEntry("CQ1.4", "operation classes and variables of manual steps",
            ("workflow",), ("cq1_4.rq",), "single"),
    CqEntry("CQ2.1", "main step chain of a workflow, in execution order",
            ("workflow",), ("cq2_1.rq",), "chain"),
    CqEntry("CQ2.2", "all steps belonging to one version and their instructions",
            ("workflow",), ("cq2_2.rq",), "single"),
    CqEntry("CQ2.3", "which higher-level instruction describes which implementation",
            (), ("cq2_3.rq",), "single"),
    CqEntry("CQ3.1", "workflow versions, their provenance and revision links",
            (), ("cq3_1.rq",), "single"),
    CqEntry("CQ3.2", "instructions removed / changed / added between versions",
            ("from", "to"),
            ("cq3_2_removed.rq", "cq3_2_changed.rq", "cq3_2_added.rq"), "delta"),
    CqEntry("CQ3.3", "steps automatized (manual to computational) between versions",
            ("from", "to"), ("cq3_3.rq",), "single"),
    CqEntry("CQ3.4", "datasets removed / changed / added between versions",
            ("from", "to"),
            ("cq3_4_removed.rq", "cq3_4_changed.rq", "cq3_4_added.rq"), "delta"),
    CqEntry("CQ3.5", "executions per workflow version and what they generated",
            (), ("cq3_5.rq",), "single"),
)}

_PARAM_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")


def query_text(filename: str) -> str:
    return (resources.files(__package__) / "queries" / filename).read_text("utf-8")


def _substitute(template: str, params: dict[str, str], cq_id: str) -> str:
    def replace(match: re.Match) -> str:
        name = match.group(1)
        if name not in params:
            raise CqError(f"{cq_id} requires parameter --{name}")
        value = params[name]
        try:
            IRI(value)
        except ValueError as exc:
            raise CqError(f"parameter --{name} must be an absolute IRI: "
                          f"{value!r}") from exc
        return f"<{value}>"

    return _PARAM_RE.sub(replace, template)


def _run_file(filename: str, g: Graph, params: dict[str, str],
              cq_id: str) -> ResultTable:
    text = _substitute(query_text(filename), params, cq_id)
    return evaluate(parse_query(text), g)


def _chain_order(table: ResultTable) -> ResultTable:
    firsts = table.distinct_values("first")
    members = table.distinct_values("member")
    member_idx = table.variables.index("member")
    before_idx = table.variables.index("before")
    pred_count = {m: 0 for m in members}
    for row in table.rows:
        if row[before_idx] is not None:
            pred_count[row[member_idx]] += 1
    ordered = sorted(firsts, key=nt_term)
    ordered += sorted(members, key=lambda m: (pred_count[m], nt_term(m)))
    return ResultTable(["step"], [(m,) for m in ordered])


def _delta(tables: list[ResultTable]) -> ResultTable:
    # Tables arrive as (removed, changed, added); the removed and added ones
    # project a single variable.
    removed_table, changed_table, added_table = tables
    removed = removed_table.distinct_values(removed_table.variables[0])
    changed = {(row[0], row[1]) for row in changed_table.rows}
    added = added_table.distinct_values(added_table.variables[0])
    rows: list[tuple] = []
    for term in sorted(removed, key=nt_term):
        rows.append((lit("removed"), term, None))
    for old, new in sorted(changed, key=lambda p: (nt_term(p[0]), nt_term(p[1]))):
        rows.append((lit("changed"), old, new))
    for term in sorted(added, key=nt_term):
        rows.append((lit("added"), None, term))
    return ResultTable(["change", "old", "new"], rows)


def run_cq(cq_id: str, g: Graph, params: dict[str, str] | None = None) -> ResultTable:
    """Answer one catalogue question over a frozen graph."""
    entry = CATALOGUE.get(cq_id)
    if entry is None:
        raise CqError(f"unknown competency question id: {cq_id}")
    params = params or {}
    for name in entry.params:
        if name not in params:
            raise CqError(f"{cq_id} requires parameter --{name}")
    tables = [_run_file(f, g, params, cq_id) for f in entry.files]
    if entry.combine == "single":
        return tables[0]
    if entry.combine == "chain":
        return _chain_order(tables[0])
    return _delta(tables)


def delta_counts(table: ResultTable) -> dict[str, int]:
    """removed / changed / added row counts of a delta-style table."""
    idx = table.variables.index("change")
    counts = {"removed": 0, "changed": 0, "added": 0}
    for row in table.rows:
        counts[row[idx].lexical] += 1
    return counts
