"""Retrospective provenance: record and reload step executions.

An execution of a step is a ``p-plan:Activity`` linked to its step with
``p-plan:correspondsToStep``. Each activity may generate workflow execution
artifacts (``opmw:WorkflowExecutionArtifact``); a model evaluation is such
an artifact additionally typed ``mls:ModelEvaluation``, pointing at its
measure via ``mls:specifiedBy`` and carrying its value as a plain string in
``dc:description``. Every artifact has a ``prov:qualifiedGeneration`` whose
``prov:Generation`` node records ``prov:atTime``; artifacts produced at the
same instant by the same activity share one generation node.

Activity IRIs follow the ``<step-local>_Execution_<epoch-seconds>`` naming
scheme; a counter suffix disambiguates same-second collisions.

The records, ``ActivityRecord`` and ``ArtifactRecord``, live on the
workflow profile's field table (``plexflow.workflow._FIELDS``), so
``Tracer.emit`` writes and ``load_activity`` reads them through the same
rows; each ``(agent, role)`` pair is a ``prov:Association`` written and read
as a workflow ``AgentAssociation``. Hand-written are only the minted IRIs
and the association numbering, the shared generation node and its time,
the artifact kind (read from ``rdf:type``), the step checks and the
``prov:generated`` and ``prov:qualifiedAssociation`` links.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Optional

from . import vocab
from .rdf import RDF_TYPE, Graph, IRI, iri, lit
from .vocab import MLS, OPMW, PPLAN, PROV, RDF, XSD
from .workflow import (
    ActivityRecord, AgentAssociation, ArtifactRecord, _add, _read, _write,
)

# Every minted activity, generation, artifact and association IRI starts here.
_BASE = vocab.OPREDICT.base

GENERIC_ARTIFACT = "generic-artifact"
MODEL_EVALUATION = "model-evaluation"


class TraceError(ValueError):
    """Invalid retrospective-provenance operation or graph."""


class UnknownStepError(TraceError):
    """Activity refers to a step the workflow graph does not contain."""


def _utc(at: "datetime | float | int | str") -> datetime:
    """``at`` as an aware UTC datetime: a number is epoch seconds, a string
    is ISO-8601, and a naive time is taken to be UTC."""
    if isinstance(at, (int, float)):
        return datetime.fromtimestamp(at, tz=timezone.utc)
    if isinstance(at, str):
        try:  # Python 3.10's parser takes no "Z" suffix
            at = datetime.fromisoformat(at[:-1] + "+00:00" if at.endswith("Z") else at)
        except ValueError:
            raise TraceError(f"not an ISO-8601 time: {at!r}") from None
    if at.tzinfo is None:
        return at.replace(tzinfo=timezone.utc)
    return at.astimezone(timezone.utc)


def iso_millis(at: "datetime | float | int | str") -> str:
    """Normalize a timestamp to naive UTC ISO-8601 with millisecond precision."""
    return _utc(at).replace(tzinfo=None).isoformat(timespec="milliseconds")


def _epoch_seconds(at: "datetime | float | int | str") -> int:
    return int(_utc(at).timestamp())


def _local_name(iri_: str) -> str:
    compressed = vocab.compress(iri_)
    if ":" in compressed and not compressed.startswith("http"):
        return compressed.split(":", 1)[1]
    return iri_.rstrip("/#").rsplit("/", 1)[-1]


class Tracer:
    """Single-writer recorder for the executions of one workflow graph."""

    def __init__(self, workflow_graph: Graph):
        self._graph = workflow_graph
        self._activities: dict[str, ActivityRecord] = {}
        self._artifacts: dict[str, list[ArtifactRecord]] = {}
        self._generations: dict[tuple[str, str], str] = {}
        self._used_iris: set[str] = set()

    @property
    def activities(self) -> list[ActivityRecord]:
        return [self._activities[a] for a in sorted(self._activities)]

    def _mint(self, stem: str) -> str:
        """``stem``, or ``stem_<n>`` for the least n >= 2 not yet used."""
        candidate, n = stem, 1
        while candidate in self._used_iris:
            n += 1
            candidate = f"{stem}_{n}"
        return candidate

    def begin_activity(self, step: str, agent: str, role: str, at,
                       iri: Optional[str] = None) -> ActivityRecord:
        """Open a new execution of an existing step.

        The same step may be executed any number of times; every call makes
        a distinct activity.
        """
        if not self._graph.match(IRI(step), RDF_TYPE, IRI(PPLAN.Step)):
            raise UnknownStepError(f"not a p-plan:Step in the graph: {step}")
        step_local = _local_name(step).removeprefix("Step_")
        activity_iri = iri or self._mint(
            f"{_BASE}Activity_{step_local}_Execution_{_epoch_seconds(at)}")
        if activity_iri in self._used_iris:
            raise TraceError(f"activity IRI already used: {activity_iri}")
        self._used_iris.add(activity_iri)
        record = ActivityRecord(
            iri=activity_iri,
            step=step,
            started=iso_millis(at),
            associations=frozenset({(agent, role)}),
        )
        self._activities[activity_iri] = record
        self._artifacts[activity_iri] = []
        return record

    def associate(self, activity: ActivityRecord, agent: str, role: str) -> None:
        activity.associations |= {(agent, role)}

    def end_activity(self, activity: ActivityRecord, at) -> None:
        ended = iso_millis(at)
        if activity.started and ended < activity.started:
            raise TraceError("activity cannot end before it started")
        activity.ended = ended

    def _attach(self, activity: ActivityRecord, at,
                record: ArtifactRecord) -> ArtifactRecord:
        """File ``record`` under ``activity`` with the generation of instant
        ``at``, which the activity's artifacts of that instant share."""
        stamp = iso_millis(at)
        key = (activity.iri, stamp)
        if key not in self._generations:
            suffix = activity.iri.rsplit("Activity_", 1)[-1]
            tail = suffix.rsplit("_Execution_", 1)[-1]
            generation = self._mint(f"{_BASE}Generation_Execution_{tail}")
            self._used_iris.add(generation)
            self._generations[key] = generation
        record.generation_iri, record.generated_at = self._generations[key], stamp
        self._artifacts[activity.iri].append(record)
        return record

    def record_evaluation(self, activity: ActivityRecord, measure: str,
                          value: str, at,
                          artifact_iri: Optional[str] = None) -> ArtifactRecord:
        """Attach one model-evaluation artifact to an activity."""
        if not measure:
            raise TraceError("model evaluation requires an mls:EvaluationMeasure")
        if artifact_iri is None:
            tail = activity.iri.rsplit("_Execution_", 1)[-1]
            measure_local = _local_name(measure).removeprefix("EvaluationMeasure_")
            artifact_iri = (f"{_BASE}ModelEvaluation_{measure_local}"
                            f"_Execution_{tail}")
        return self._attach(activity, at, ArtifactRecord(
            artifact_iri, activity.iri, MODEL_EVALUATION, value, measure))

    def record_artifact(self, activity: ActivityRecord, value: str, at,
                        artifact_iri: Optional[str] = None) -> ArtifactRecord:
        """Attach one generic execution artifact to an activity."""
        if artifact_iri is None:
            tail = activity.iri.rsplit("_Execution_", 1)[-1]
            n = len(self._artifacts[activity.iri]) + 1
            artifact_iri = f"{_BASE}Artifact_{n:02d}_Execution_{tail}"
        return self._attach(activity, at, ArtifactRecord(
            artifact_iri, activity.iri, GENERIC_ARTIFACT, value))

    def emit(self, g: Optional[Graph] = None) -> Graph:
        """Write all recorded activities and artifacts as triples."""
        g = g if g is not None else Graph()
        for activity in self.activities:
            _write(g, activity, PPLAN.Activity)
            for n, (agent, role) in enumerate(sorted(activity.associations), start=1):
                assoc = AgentAssociation(
                    f"{_BASE}Association_{_local_name(activity.iri)}_{n}",
                    agent, role)
                _add(g, activity.iri, PROV.qualifiedAssociation, iri(assoc.iri))
                _write(g, assoc, PROV.Association)
            for artifact in self._artifacts[activity.iri]:
                _add(g, activity.iri, PROV.generated, iri(artifact.iri))
                evaluation = artifact.kind == MODEL_EVALUATION
                _write(g, artifact, OPMW.WorkflowExecutionArtifact,
                       *([MLS.ModelEvaluation] if evaluation else []))
                _add(g, artifact.generation_iri, RDF.type, iri(PROV.Generation))
                _add(g, artifact.generation_iri, PROV.atTime,
                     lit(artifact.generated_at, XSD.dateTime))
        return g


def load_activity(g: Graph, activity_iri: str,
                  check_steps: bool = True) -> tuple[ActivityRecord, list[ArtifactRecord]]:
    """Reload one activity and its artifacts from a graph."""
    node = IRI(activity_iri)
    if not g.match(node, RDF_TYPE, IRI(PPLAN.Activity)):
        raise TraceError(f"not a p-plan:Activity: {activity_iri}")
    steps = g.objects(node, IRI(PPLAN.correspondsToStep))
    if len(steps) != 1 or not isinstance(steps[0], IRI):
        raise TraceError(f"activity {activity_iri} must correspond to exactly "
                         f"one step IRI, found {len(steps)} objects")
    if check_steps and not g.match(steps[0], RDF_TYPE, IRI(PPLAN.Step)):
        raise UnknownStepError(f"dangling step reference: {steps[0].value}")
    associations = [_read(g, AgentAssociation, assoc, [])
                    for assoc in g.iri_objects(node, PROV.qualifiedAssociation)]
    record = _read(g, ActivityRecord, activity_iri, [], associations=frozenset(
        (a.agent, a.role) for a in associations if a.agent and a.role))
    artifacts = []
    for target in g.iri_objects(node, PROV.generated):
        kind = (MODEL_EVALUATION if MLS.ModelEvaluation in g.types(IRI(target))
                else GENERIC_ARTIFACT)
        artifact = _read(g, ArtifactRecord, target, [], activity=activity_iri, kind=kind)
        if artifact.generation_iri:
            artifact.generated_at = g.str_value(IRI(artifact.generation_iri),
                                                PROV.atTime)
        artifacts.append(artifact)
    artifacts.sort(key=lambda a: a.iri)
    return record, artifacts


def load_trace(g: Graph, check_steps: bool = True) -> list[tuple[ActivityRecord, list[ArtifactRecord]]]:
    """All activities in a graph as typed records, sorted by IRI."""
    out = []
    for subject in g.subjects(RDF_TYPE, IRI(PPLAN.Activity)):
        if isinstance(subject, IRI):
            out.append(load_activity(g, subject.value, check_steps=check_steps))
    out.sort(key=lambda pair: pair[0].iri)
    return out
