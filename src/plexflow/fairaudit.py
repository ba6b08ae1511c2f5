"""Rule-based FAIR audit over a workflow provenance graph.

Each rule encodes one machine-checkable reading of a FAIR criterion against
the profile's graph shapes (datasets, distributions, workflows, usages).
F2, F3, R1.1 and R1.2 ask only that each IRI target has an object of some
kind on some predicates, so each is one ``_RULES`` row of targets and
(predicate, kind) pairs over one routine; the other rules stay functions.
Two criteria - metadata registry publication (A2) and the no-authentication
claim (A1.2) - are process-level statements about how a deployment is run,
not graph shapes, so the report carries them as ``not-machine-checkable``
instead of pretending to verify them.

Findings are data, never exceptions: checks return sets of offenders,
which the report sorts, and it serializes to byte-identical JSON across runs.
Each check reads its target subject lists through ``read``, which lists
each target once per :func:`audit` call however many rules use it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional

from . import vocab
from .rdf import RDF_TYPE, Graph, IRI, Literal, Term, iri
from .vocab import DC, DCAT, DUL, EDAM, PROV, RDFS
from .workflow import workflow_iris

ERROR = "error"
WARNING = "warning"

PASS = "pass"
FAIL = "fail"
NOT_MACHINE_CHECKABLE = "not-machine-checkable"

_ALLOWED_URL_SCHEMES = ("http://", "https://", "ftp://")


class AuditError(ValueError):
    pass


@dataclass(frozen=True)
class AuditRule:
    id: str
    description: str
    scope: str
    severity: str


@dataclass(frozen=True)
class RuleResult:
    rule: AuditRule
    status: str
    offenders: tuple[str, ...] = ()
    note: str = ""


@dataclass
class AuditReport:
    results: list[RuleResult]

    def result(self, rule_id: str) -> RuleResult:
        for r in self.results:
            if r.rule.id == rule_id:
                return r
        raise KeyError(rule_id)

    @property
    def error_failures(self) -> list[RuleResult]:
        return [r for r in self.results
                if r.status == FAIL and r.rule.severity == ERROR]

    @property
    def warning_failures(self) -> list[RuleResult]:
        return [r for r in self.results
                if r.status == FAIL and r.rule.severity == WARNING]

    def to_json(self) -> str:
        payload = {
            "summary": {
                "pass": sum(1 for r in self.results if r.status == PASS),
                "fail": sum(1 for r in self.results if r.status == FAIL),
                "not_machine_checkable": sum(
                    1 for r in self.results if r.status == NOT_MACHINE_CHECKABLE),
                "error_failures": len(self.error_failures),
                "warning_failures": len(self.warning_failures),
            },
            "results": [
                {
                    "id": r.rule.id,
                    "description": r.rule.description,
                    "scope": r.rule.scope,
                    "severity": r.rule.severity,
                    "status": r.status,
                    "offenders": list(r.offenders),
                    "note": r.note,
                }
                for r in self.results
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _datasets(g: Graph) -> list[Term]:
    return g.subjects(RDF_TYPE, IRI(DCAT.Dataset))


def _distributions(g: Graph) -> list[Term]:
    return g.subjects(RDF_TYPE, IRI(DCAT.Distribution))


def _workflows(g: Graph) -> list[Term]:
    """The workflow heads: typed both dul:Workflow and p-plan:Plan."""
    return [IRI(w) for w in workflow_iris(g)]


def _name(term: Term) -> str:
    return vocab.compress(term.value) if isinstance(term, IRI) else str(term)


def _lacking(shapes: dict, g: Graph, read: Callable) -> set[str]:
    """The IRI subjects that lack, on some required predicate, an object of
    the required kind: SHACL Core's qualified min-count 1 (W3C SHACL, 2017,
    §4.7.3). ``shapes`` maps targets, each listing subjects, to their
    requirements, each mapping a predicate to a kind: ``Literal``, ``IRI``
    or ``Term`` (any object)."""
    return {_name(s) for targets, required in shapes.items()
            for target in targets for s in read(target)
            if isinstance(s, IRI) and not all(
                any(isinstance(o, kind) for o in g.objects(s, iri(p)))
                for p, kind in required.items())}


def _check_f1(g: Graph, read: Callable) -> set[str]:
    return {f"_:{s.label}" for c in (DCAT.Dataset, DCAT.Distribution, DUL.Workflow)
            for s in g.subjects(RDF_TYPE, IRI(c)) if not isinstance(s, IRI)}


def _check_a1_1(g: Graph, read: Callable) -> set[str]:
    return {_name(t.s) for t in g.match(None, IRI(DCAT.downloadURL), None)
            if isinstance(t.o, Literal)
            and not t.o.lexical.startswith(_ALLOWED_URL_SCHEMES)}


def _check_i1(g: Graph, read: Callable) -> set[str]:
    return {vocab.compress(p.value) for p in g.predicates()
            if not vocab.in_catalog_namespace(p.value)}


def _check_i2(g: Graph, read: Callable) -> set[str]:
    offenders = set()
    for dist in read(_distributions):
        media = g.objects(dist, IRI(DCAT.mediaType))
        edam = bool(media) and all(isinstance(m, IRI) and m.value in EDAM for m in media)
        if isinstance(dist, IRI) and not edam:
            offenders.add(_name(dist))
    return offenders


def _check_i3(g: Graph, read: Callable) -> set[str]:
    used = set()
    for usage in g.subjects(RDF_TYPE, IRI(PROV.Usage)):
        used.update(g.iri_objects(usage, PROV.entity))
    return {_name(d) for d in read(_distributions)
            if isinstance(d, IRI) and d.value not in used}


_RULES: list[tuple[AuditRule, Optional[Callable[[Graph, Callable], set[str]]], str]] = [
    (AuditRule("F1", "datasets, distributions and workflows are identified by "
               "IRIs, not blank nodes", "dcat:Dataset dcat:Distribution dul:Workflow",
               ERROR), _check_f1, ""),
    (AuditRule("F2", "datasets and workflows carry rdfs:label and dc:description "
               "metadata", "dcat:Dataset dul:Workflow", ERROR),
     partial(_lacking, {(_datasets, _workflows): {RDFS.label: Literal,
                                                  DC.description: Literal}}), ""),
    (AuditRule("F3", "every dataset links at least one distribution and every "
               "distribution has a dcat:downloadURL", "dcat:Dataset dcat:Distribution",
               ERROR),
     partial(_lacking, {(_datasets,): {DCAT.distribution: IRI},
                        (_distributions,): {DCAT.downloadURL: Literal}}), ""),
    (AuditRule("A1.1", "download URLs use an open, standardized protocol "
               "(http, https or ftp)", "dcat:downloadURL", ERROR), _check_a1_1, ""),
    (AuditRule("A1.2", "data access requires no authentication or authorization",
               "deployment", ERROR), None,
     "a policy of the hosting endpoint, not a property of the graph"),
    (AuditRule("A2", "metadata stays available from a registry even if the data "
               "disappears", "deployment", ERROR), None,
     "depends on an external registry; cannot be read off the graph"),
    (AuditRule("I1", "every predicate comes from a registered vocabulary "
               "namespace", "predicates", WARNING), _check_i1, ""),
    (AuditRule("I2", "distributions declare a dcat:mediaType from the EDAM "
               "format vocabulary", "dcat:Distribution", WARNING), _check_i2, ""),
    (AuditRule("I3", "every distribution is referenced by at least one "
               "prov:Usage binding", "dcat:Distribution prov:Usage", ERROR),
     _check_i3, ""),
    (AuditRule("R1.1", "workflows and datasets declare a license", "dcat:Dataset "
               "dul:Workflow", ERROR),
     partial(_lacking, {(_datasets, _workflows): {DC.license: Term}}), ""),
    (AuditRule("R1.2", "workflows carry dc:creator and dc:created provenance",
               "dul:Workflow", ERROR),
     partial(_lacking, {(_workflows,): {DC.creator: Term, DC.created: Term}}), ""),
]

RULES: tuple[AuditRule, ...] = tuple(rule for rule, _, _ in _RULES)


def audit(g: Graph) -> AuditReport:
    """Evaluate every FAIR rule against a frozen graph."""
    if not g.frozen:
        raise AuditError("graph must be frozen before auditing")
    read = cache(lambda target: target(g))
    results = []
    for rule, check, note in _RULES:
        offenders = () if check is None else tuple(sorted(check(g, read)))
        status = (NOT_MACHINE_CHECKABLE if check is None
                  else FAIL if offenders else PASS)
        results.append(RuleResult(rule, status, offenders, note))
    return AuditReport(results)
