"""Rule-based FAIR audit over a workflow provenance graph.

Each rule encodes one machine-checkable reading of a FAIR criterion against
the profile's graph shapes (datasets, distributions, workflows, usages).
Two criteria - metadata registry publication (A2) and the no-authentication
claim (A1.2) - are process-level statements about how a deployment is run,
not graph shapes, so the report carries them as ``not-machine-checkable``
instead of pretending to verify them.

Findings are data, never exceptions: the report is a pure function of the
graph and serializes to byte-identical JSON across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

from . import vocab
from .rdf import RDF_TYPE, Graph, IRI, Literal, Term
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


def _typed(g: Graph, class_iri: str) -> list[Term]:
    return [s for s in g.subjects(RDF_TYPE, IRI(class_iri))]


def _name(term: Term) -> str:
    return vocab.compress(term.value) if isinstance(term, IRI) else str(term)


def _check_f1(g: Graph) -> tuple[str, ...]:
    offenders = []
    for class_iri in (DCAT.Dataset, DCAT.Distribution, DUL.Workflow):
        for s in _typed(g, class_iri):
            if not isinstance(s, IRI):
                offenders.append(f"_:{s.label}")
    return tuple(sorted(set(offenders)))


def _check_f2(g: Graph) -> tuple[str, ...]:
    offenders = []
    for s in _typed(g, DCAT.Dataset) + [IRI(w) for w in workflow_iris(g)]:
        if not isinstance(s, IRI):
            continue
        has_label = any(isinstance(t.o, Literal) for t in g.match(s, IRI(RDFS.label)))
        has_desc = any(isinstance(t.o, Literal)
                       for t in g.match(s, IRI(DC.description)))
        if not (has_label and has_desc):
            offenders.append(_name(s))
    return tuple(sorted(set(offenders)))


def _check_f3(g: Graph) -> tuple[str, ...]:
    offenders = []
    for ds in _typed(g, DCAT.Dataset):
        if not isinstance(ds, IRI):
            continue
        if not g.iri_objects(ds, DCAT.distribution):
            offenders.append(_name(ds))
    for dist in _typed(g, DCAT.Distribution):
        if not isinstance(dist, IRI):
            continue
        urls = [t for t in g.objects(dist, IRI(DCAT.downloadURL))
                if isinstance(t, Literal)]
        if not urls:
            offenders.append(_name(dist))
    return tuple(sorted(set(offenders)))


def _check_a1_1(g: Graph) -> tuple[str, ...]:
    offenders = []
    for t in g.match(None, IRI(DCAT.downloadURL), None):
        if isinstance(t.o, Literal):
            url = t.o.lexical
            if not url.startswith(_ALLOWED_URL_SCHEMES):
                offenders.append(_name(t.s))
    return tuple(sorted(set(offenders)))


def _check_i1(g: Graph) -> tuple[str, ...]:
    return tuple(sorted(vocab.compress(p.value) for p in g.predicates()
                        if not vocab.in_catalog_namespace(p.value)))


def _check_i2(g: Graph) -> tuple[str, ...]:
    offenders = []
    for dist in _typed(g, DCAT.Distribution):
        if not isinstance(dist, IRI):
            continue
        media = [t for t in g.objects(dist, IRI(DCAT.mediaType))]
        if not media or not all(isinstance(m, IRI) and m.value in EDAM
                                for m in media):
            offenders.append(_name(dist))
    return tuple(sorted(set(offenders)))


def _check_i3(g: Graph) -> tuple[str, ...]:
    used = set()
    for usage in _typed(g, PROV.Usage):
        used.update(g.iri_objects(usage, PROV.entity))
    offenders = [_name(d) for d in _typed(g, DCAT.Distribution)
                 if isinstance(d, IRI) and d.value not in used]
    return tuple(sorted(set(offenders)))


def _has_license(g: Graph, s: IRI) -> bool:
    return bool(g.objects(s, IRI(DC.license)))


def _check_r1_1(g: Graph) -> tuple[str, ...]:
    offenders = []
    for s in _typed(g, DCAT.Dataset) + [IRI(w) for w in workflow_iris(g)]:
        if isinstance(s, IRI) and not _has_license(g, s):
            offenders.append(_name(s))
    return tuple(sorted(set(offenders)))


def _check_r1_2(g: Graph) -> tuple[str, ...]:
    offenders = []
    for s in map(IRI, workflow_iris(g)):
        if not g.objects(s, IRI(DC.creator)) or not g.objects(s, IRI(DC.created)):
            offenders.append(_name(s))
    return tuple(sorted(set(offenders)))


_RULES: list[tuple[AuditRule, Optional[Callable[[Graph], tuple[str, ...]]], str]] = [
    (AuditRule("F1", "datasets, distributions and workflows are identified by "
               "IRIs, not blank nodes", "dcat:Dataset dcat:Distribution dul:Workflow",
               ERROR), _check_f1, ""),
    (AuditRule("F2", "datasets and workflows carry rdfs:label and dc:description "
               "metadata", "dcat:Dataset dul:Workflow", ERROR), _check_f2, ""),
    (AuditRule("F3", "every dataset links at least one distribution and every "
               "distribution has a dcat:downloadURL", "dcat:Dataset dcat:Distribution",
               ERROR), _check_f3, ""),
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
               "dul:Workflow", ERROR), _check_r1_1, ""),
    (AuditRule("R1.2", "workflows carry dc:creator and dc:created provenance",
               "dul:Workflow", ERROR), _check_r1_2, ""),
]

RULES: tuple[AuditRule, ...] = tuple(rule for rule, _, _ in _RULES)


def audit(g: Graph) -> AuditReport:
    """Evaluate every FAIR rule against a frozen graph."""
    if not g.frozen:
        raise AuditError("graph must be frozen before auditing")
    results = []
    for rule, check, note in _RULES:
        if check is None:
            results.append(RuleResult(rule, NOT_MACHINE_CHECKABLE, (), note))
            continue
        offenders = check(g)
        results.append(RuleResult(rule, FAIL if offenders else PASS, offenders))
    return AuditReport(results)
