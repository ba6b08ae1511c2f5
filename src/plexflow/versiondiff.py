"""Instruction / dataset diff between two workflow versions.

An instruction counts as *used* by a workflow when some step of the
workflow (or of one of its sub-plans, one level down) points at it with
``dul:isDescribedBy``. Identity across versions is the IRI; a change is
representable only through an explicit ``prov:wasRevisionOf`` link from the
new instruction to the old one. The removed / changed / added partition is
then:

- changed: revision-linked pairs whose old side is used in A and new side
  is used in B;
- removed: used in A, not in B, and not the old side of a changed pair;
- added: used in B, not in A, and not the new side of a changed pair.

A step was *automatized* when a changed pair goes from a manual step in A
to a computational step in B. Dataset diffs apply the same partition to the
distributions reachable through instruction usage bindings.
"""

from __future__ import annotations

import json
from typing import Collection

from .rdf import Graph, IRI
from .record import FrozenRecord, set_field
from .vocab import BPMN, DCAT, DUL, PPLAN, PROV
from .workflow import MANUAL, SCRIPT, WorkflowError, is_workflow


class DiffReport(FrozenRecord):
    __slots__ = _fields = (
        "from_workflow", "to_workflow", "removed_instructions",
        "changed_instructions", "added_instructions", "automatized_steps",
        "removed_datasets", "changed_datasets", "added_datasets")

    def __init__(self, from_workflow: str, to_workflow: str,
                 removed_instructions: frozenset[str],
                 changed_instructions: frozenset[tuple[str, str]],
                 added_instructions: frozenset[str],
                 automatized_steps: frozenset[tuple[str, str]],
                 removed_datasets: frozenset[str],
                 changed_datasets: frozenset[tuple[str, str]],
                 added_datasets: frozenset[str]):
        set_field(self, "from_workflow", from_workflow)
        set_field(self, "to_workflow", to_workflow)
        set_field(self, "removed_instructions", removed_instructions)
        set_field(self, "changed_instructions", changed_instructions)
        set_field(self, "added_instructions", added_instructions)
        set_field(self, "automatized_steps", automatized_steps)
        set_field(self, "removed_datasets", removed_datasets)
        set_field(self, "changed_datasets", changed_datasets)
        set_field(self, "added_datasets", added_datasets)

    def to_json(self) -> str:
        payload = {
            "from": self.from_workflow,
            "to": self.to_workflow,
            "removed_instructions": sorted(self.removed_instructions),
            "changed_instructions": [list(p) for p in sorted(self.changed_instructions)],
            "added_instructions": sorted(self.added_instructions),
            "automatized_steps": [list(p) for p in sorted(self.automatized_steps)],
            "removed_datasets": sorted(self.removed_datasets),
            "changed_datasets": [list(p) for p in sorted(self.changed_datasets)],
            "added_datasets": sorted(self.added_datasets),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _require_workflow(g: Graph, wf: str):
    if not is_workflow(g, wf):
        raise WorkflowError(f"workflow not found: {wf}")


UsageMap = dict[str, set[tuple[str, str]]]


def used_instructions(g: Graph, wf: str) -> UsageMap:
    """Instructions used by a workflow, with their (step, kind) contexts.

    Covers the workflow's own steps and one level of sub-plan steps.
    """
    _require_workflow(g, wf)
    usage: UsageMap = {}
    step_of = IRI(PPLAN.isStepOfPlan)

    def visit(plan: str, depth: int):
        for subject in g.subjects(step_of, IRI(plan)):
            if not isinstance(subject, IRI):
                continue
            kind = MANUAL if BPMN.ManualTask in g.types(subject) else SCRIPT
            for instr in g.iri_objects(subject, DUL.isDescribedBy):
                usage.setdefault(instr, set()).add((subject.value, kind))
                if depth == 0:
                    visit(instr, depth + 1)

    visit(wf, 0)
    return usage


def _revision_pairs(g: Graph) -> set[tuple[str, str]]:
    pairs = set()
    for t in g.match(None, IRI(PROV.wasRevisionOf), None):
        if isinstance(t.s, IRI) and isinstance(t.o, IRI):
            pairs.add((t.o.value, t.s.value))  # (old, new)
    return pairs


def _partition(revisions: set[tuple[str, str]], a: Collection[str],
               b: Collection[str]):
    """(removed, changed, added) between the used sets ``a`` and ``b``."""
    changed = {(old, new) for old, new in revisions if old in a and new in b}
    olds = {old for old, _ in changed}
    news = {new for _, new in changed}
    removed = (set(a) - set(b)) - olds
    added = (set(b) - set(a)) - news
    return frozenset(removed), frozenset(changed), frozenset(added)


def _automatized(changed: frozenset[tuple[str, str]], used_a: UsageMap,
                 used_b: UsageMap) -> frozenset[tuple[str, str]]:
    """(old step, new step) pairs that went manual -> computational."""
    return frozenset((step_a, step_b)
                     for old, new in changed
                     for step_a, kind_a in used_a[old] if kind_a == MANUAL
                     for step_b, kind_b in used_b[new] if kind_b == SCRIPT)


def _distributions(g: Graph, used: UsageMap) -> set[str]:
    """Distributions reachable through the usage bindings of ``used``."""
    dists: set[str] = set()
    for instr in used:
        for usage in g.iri_objects(IRI(instr), PROV.qualifiedUsage):
            for entity in g.iri_objects(IRI(usage), PROV.entity):
                if DCAT.Distribution in g.types(IRI(entity)):
                    dists.add(entity)
    return dists


def diff(g: Graph, wf_a: str, wf_b: str) -> DiffReport:
    """Full diff report: instructions, automatized steps and datasets.

    Walks each version once and reads the revision links once.
    """
    used_a = used_instructions(g, wf_a)
    used_b = used_instructions(g, wf_b)
    revisions = _revision_pairs(g)
    removed, changed, added = _partition(revisions, used_a, used_b)
    removed_ds, changed_ds, added_ds = _partition(
        revisions, _distributions(g, used_a), _distributions(g, used_b))
    return DiffReport(
        from_workflow=wf_a,
        to_workflow=wf_b,
        removed_instructions=removed,
        changed_instructions=changed,
        added_instructions=added,
        automatized_steps=_automatized(changed, used_a, used_b),
        removed_datasets=removed_ds,
        changed_datasets=changed_ds,
        added_datasets=added_ds,
    )
