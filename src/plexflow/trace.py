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
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

from . import vocab
from .rdf import RDF_TYPE, Graph, IRI, Triple, lit
from .vocab import DC, MLS, OPMW, PPLAN, PROV, RDF, XSD

GENERIC_ARTIFACT = "generic-artifact"
MODEL_EVALUATION = "model-evaluation"


class TraceError(ValueError):
    """Invalid retrospective-provenance operation or graph."""


class UnknownStepError(TraceError):
    """Activity refers to a step the workflow graph does not contain."""


@dataclass
class ActivityRecord:
    iri: str
    step: str
    started: str = ""
    ended: str = ""
    associations: frozenset[tuple[str, str]] = frozenset()  # (agent, role)


@dataclass
class ArtifactRecord:
    iri: str
    activity: str
    kind: str  # GENERIC_ARTIFACT or MODEL_EVALUATION
    value: str = ""
    measure: Optional[str] = None
    generation_iri: str = ""
    generated_at: str = ""


def iso_millis(at: "datetime | float | int | str") -> str:
    """Normalize a timestamp to ISO-8601 with millisecond precision."""
    if isinstance(at, str):
        return at
    if isinstance(at, (int, float)):
        at = datetime.fromtimestamp(at, tz=timezone.utc)
    if at.tzinfo is not None:
        at = at.astimezone(timezone.utc).replace(tzinfo=None)
    return at.isoformat(timespec="milliseconds")


def _epoch_seconds(at: "datetime | float | int | str") -> int:
    if isinstance(at, (int, float)):
        return int(at)
    if isinstance(at, str):
        moment = datetime.fromisoformat(at)
    else:
        moment = at
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp())


def _local_name(iri_: str) -> str:
    compressed = vocab.compress(iri_)
    if ":" in compressed and not compressed.startswith("http"):
        return compressed.split(":", 1)[1]
    return iri_.rstrip("/#").rsplit("/", 1)[-1]


class Tracer:
    """Single-writer recorder for the executions of one workflow graph."""

    def __init__(self, workflow_graph: Graph, base: str = vocab.OPREDICT.base):
        self._graph = workflow_graph
        self._base = base
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
            f"{self._base}Activity_{step_local}_Execution_{_epoch_seconds(at)}")
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

    def _generation_for(self, activity: ActivityRecord, at) -> tuple[str, str]:
        stamp = iso_millis(at)
        key = (activity.iri, stamp)
        found = self._generations.get(key)
        if found is None:
            suffix = activity.iri.rsplit("Activity_", 1)[-1]
            tail = suffix.rsplit("_Execution_", 1)[-1]
            found = self._mint(f"{self._base}Generation_Execution_{tail}")
            self._used_iris.add(found)
            self._generations[key] = found
        return found, stamp

    def record_evaluation(self, activity: ActivityRecord, measure: str,
                          value: str, at,
                          artifact_iri: Optional[str] = None) -> ArtifactRecord:
        """Attach one model-evaluation artifact to an activity."""
        if not measure:
            raise TraceError("model evaluation requires an mls:EvaluationMeasure")
        generation, stamp = self._generation_for(activity, at)
        if artifact_iri is None:
            tail = activity.iri.rsplit("_Execution_", 1)[-1]
            measure_local = _local_name(measure).removeprefix("EvaluationMeasure_")
            artifact_iri = (f"{self._base}ModelEvaluation_{measure_local}"
                            f"_Execution_{tail}")
        record = ArtifactRecord(
            iri=artifact_iri, activity=activity.iri, kind=MODEL_EVALUATION,
            value=value, measure=measure, generation_iri=generation,
            generated_at=stamp)
        self._artifacts[activity.iri].append(record)
        return record

    def record_artifact(self, activity: ActivityRecord, value: str, at,
                        artifact_iri: Optional[str] = None) -> ArtifactRecord:
        """Attach one generic execution artifact to an activity."""
        generation, stamp = self._generation_for(activity, at)
        if artifact_iri is None:
            tail = activity.iri.rsplit("_Execution_", 1)[-1]
            n = len(self._artifacts[activity.iri]) + 1
            artifact_iri = f"{self._base}Artifact_{n:02d}_Execution_{tail}"
        record = ArtifactRecord(
            iri=artifact_iri, activity=activity.iri, kind=GENERIC_ARTIFACT,
            value=value, measure=None, generation_iri=generation,
            generated_at=stamp)
        self._artifacts[activity.iri].append(record)
        return record

    def emit(self, g: Optional[Graph] = None) -> Graph:
        """Write all recorded activities and artifacts as triples."""
        g = g if g is not None else Graph()

        def add(s, p, o):
            g.add(Triple(IRI(s), IRI(p), o))

        for activity in self.activities:
            add(activity.iri, RDF.type, IRI(PPLAN.Activity))
            add(activity.iri, PPLAN.correspondsToStep, IRI(activity.step))
            if activity.started:
                add(activity.iri, PROV.startedAtTime,
                    lit(activity.started, XSD.dateTime))
            if activity.ended:
                add(activity.iri, PROV.endedAtTime, lit(activity.ended, XSD.dateTime))
            for n, (agent, role) in enumerate(sorted(activity.associations), start=1):
                assoc = f"{self._base}Association_{_local_name(activity.iri)}_{n}"
                add(activity.iri, PROV.qualifiedAssociation, IRI(assoc))
                add(assoc, RDF.type, IRI(PROV.Association))
                add(assoc, PROV.agent, IRI(agent))
                add(assoc, PROV.hadRole, IRI(role))
            for artifact in self._artifacts[activity.iri]:
                add(activity.iri, PROV.generated, IRI(artifact.iri))
                add(artifact.iri, RDF.type, IRI(OPMW.WorkflowExecutionArtifact))
                if artifact.kind == MODEL_EVALUATION:
                    add(artifact.iri, RDF.type, IRI(MLS.ModelEvaluation))
                    add(artifact.iri, MLS.specifiedBy, IRI(artifact.measure))
                if artifact.value:
                    add(artifact.iri, DC.description, lit(artifact.value))
                add(artifact.iri, PROV.qualifiedGeneration,
                    IRI(artifact.generation_iri))
                add(artifact.generation_iri, RDF.type, IRI(PROV.Generation))
                add(artifact.generation_iri, PROV.atTime,
                    lit(artifact.generated_at, XSD.dateTime))
        return g


def load_activity(g: Graph, activity_iri: str,
                  check_steps: bool = True) -> tuple[ActivityRecord, list[ArtifactRecord]]:
    """Reload one activity and its artifacts from a graph."""
    node = IRI(activity_iri)
    if not g.match(node, RDF_TYPE, IRI(PPLAN.Activity)):
        raise TraceError(f"not a p-plan:Activity: {activity_iri}")
    steps = g.iri_objects(node, PPLAN.correspondsToStep)
    if len(steps) != 1:
        raise TraceError(f"activity {activity_iri} must correspond to exactly "
                         f"one step, found {len(steps)}")
    if check_steps and not g.match(IRI(steps[0]), RDF_TYPE, IRI(PPLAN.Step)):
        raise UnknownStepError(f"dangling step reference: {steps[0]}")
    associations = set()
    for assoc in g.iri_objects(node, PROV.qualifiedAssociation):
        agent = g.iri_value(IRI(assoc), PROV.agent)
        role = g.iri_value(IRI(assoc), PROV.hadRole)
        if agent and role:
            associations.add((agent, role))
    record = ActivityRecord(
        iri=activity_iri,
        step=steps[0],
        started=g.str_value(node, PROV.startedAtTime),
        ended=g.str_value(node, PROV.endedAtTime),
        associations=frozenset(associations),
    )
    artifacts = []
    for target in g.objects(node, IRI(PROV.generated)):
        if not isinstance(target, IRI):
            continue
        kinds = g.types(target)
        generation = g.iri_value(target, PROV.qualifiedGeneration)
        artifacts.append(ArtifactRecord(
            iri=target.value,
            activity=activity_iri,
            kind=MODEL_EVALUATION if MLS.ModelEvaluation in kinds else GENERIC_ARTIFACT,
            value=g.str_value(target, DC.description),
            measure=g.iri_value(target, MLS.specifiedBy) or None,
            generation_iri=generation,
            generated_at=g.str_value(IRI(generation), PROV.atTime) if generation else "",
        ))
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
