"""Typed view of planned (prospective) workflow provenance.

A workflow graph follows a small profile: a workflow head is a node typed
both ``dul:Workflow`` and ``p-plan:Plan``; steps point at it with
``p-plan:isStepOfPlan`` and are each a ``bpmn:ManualTask`` xor
``bpmn:ScriptTask``; every step points at exactly one instruction
(``dul:isDescribedBy``); ordering uses ``pwo:hasFirstStep`` plus
``dul:precedes``; instructions bind variables to concrete resources
through ``prov:qualifiedUsage`` / ``prov:Usage`` / ``prov:entity`` chains;
datasets hang off usages as ``dcat:Distribution`` records.

``load_workflow`` turns one workflow head (plus one level of sub-plans)
into records, ``validate`` reports profile violations as data,
``step_order`` topologically sorts one plan's steps, and ``emit_triples``
writes a view back out so that load(emit(view)) round-trips.

Which predicate holds which field is written once, in ``_FIELDS``: a
(field, predicate, encoding) row per mapped field of each record class,
which loading reads through ``_read`` and emission writes through
``_write``. A row may end in the profile's count rules for its field,
which ``_read`` checks as it reads the field. The table also holds the
retrospective records that ``plexflow.trace`` loads and emits,
``ActivityRecord`` and ``ArtifactRecord``; a trace's associations are
``AgentAssociation`` records. Only what is not one predicate's objects is
hand-written: a step's kind and operation class, an instruction's extra
types and an agent's software flag come from ``rdf:type``; a step's plan
is set by the walk; a shape's query text sits on its constraint node, and
only a ``sh:NodeShape`` whose first ``sh:targetClass`` is a loaded usage
is kept. The trace's hand-written parts are listed in ``plexflow.trace``.

Instructions deliberately carry no manual/computational flag of their own:
a step's kind comes from its type, ``bpmn:ManualTask`` or
``bpmn:ScriptTask``, whatever its instruction's language, so a Python
instruction may well sit behind a manual step (run by hand, cell by cell).
"""

from __future__ import annotations

import bisect
import math
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import vocab
from .rdf import RDF_TYPE, Graph, IRI, Literal, Term, Triple, iri, lit
from .record import FrozenRecord, Record, set_field
from .vocab import BPMN, DC, DCAT, DUL, MLS, PPLAN, PROV, PWO, RDF, RDFS, SH, XSD

MANUAL = "manual"
SCRIPT = "script"


class WorkflowError(ValueError):
    """Structural failure that prevents loading a workflow at all."""


class Violation(FrozenRecord):
    __slots__ = _fields = ("code", "subject", "detail")

    def __init__(self, code: str, subject: str, detail: str = ""):
        set_field(self, "code", code)
        set_field(self, "subject", subject)
        set_field(self, "detail", detail)

    def __str__(self):
        msg = f"{self.code} {vocab.compress(self.subject)}"
        return f"{msg}: {self.detail}" if self.detail else msg


class WorkflowDef(Record):
    __slots__ = _fields = (
        "iri", "version", "created", "modified", "creator", "attributed_to",
        "first_step", "label", "description", "language", "license", "revision_of")

    def __init__(self, iri: str, version: str = "", created: str = "",
                 modified: str = "", creator: str = "", attributed_to: str = "",
                 first_step: str = "", label: str = "", description: str = "",
                 language: str = "", license: str = "",
                 revision_of: Optional[str] = None):
        self.iri = iri
        self.version = version
        self.created = created
        self.modified = modified
        self.creator = creator
        self.attributed_to = attributed_to
        self.first_step = first_step
        self.label = label
        self.description = description
        self.language = language
        self.license = license
        self.revision_of = revision_of


class Instruction(Record):
    __slots__ = _fields = (
        "iri", "language", "description", "label", "version", "described_by",
        "revision_of", "qualified_usages", "first_step", "extra_types")

    def __init__(self, iri: str, language: tuple[str, ...] = (),
                 description: str = "", label: str = "", version: str = "",
                 described_by: Optional[str] = None,
                 revision_of: Optional[str] = None,
                 qualified_usages: frozenset[str] = frozenset(),
                 first_step: str = "", extra_types: frozenset[str] = frozenset()):
        self.iri = iri
        self.language = language  # loaded values; exactly one is valid
        self.description = description
        self.label = label
        self.version = version
        self.described_by = described_by
        self.revision_of = revision_of
        self.qualified_usages = qualified_usages
        self.first_step = first_step  # set when the instruction is itself a plan with steps
        self.extra_types = extra_types


class StepDef(Record):
    __slots__ = _fields = (
        "iri", "plan", "kind", "instruction", "precedes", "input_vars",
        "output_vars", "operation_class", "label")

    def __init__(self, iri: str, plan: str, kind: str, instruction: str,
                 precedes: frozenset[str] = frozenset(),
                 input_vars: frozenset[str] = frozenset(),
                 output_vars: frozenset[str] = frozenset(),
                 operation_class: Optional[str] = None, label: str = ""):
        self.iri = iri
        self.plan = plan  # the p-plan:isStepOfPlan target (workflow head or sub-plan)
        self.kind = kind  # MANUAL or SCRIPT
        self.instruction = instruction
        self.precedes = precedes
        self.input_vars = input_vars
        self.output_vars = output_vars
        self.operation_class = operation_class
        self.label = label


class VariableDef(Record):
    __slots__ = _fields = ("iri", "label")

    def __init__(self, iri: str, label: str = ""):
        self.iri = iri
        self.label = label


class UsageBinding(Record):
    __slots__ = _fields = ("iri", "entities", "label")

    def __init__(self, iri: str, entities: frozenset[str] = frozenset(),
                 label: str = ""):
        self.iri = iri
        self.entities = entities
        self.label = label


class DistributionDef(Record):
    __slots__ = _fields = ("iri", "download_url", "media_type", "label")

    def __init__(self, iri: str, download_url: str = "", media_type: str = "",
                 label: str = ""):
        self.iri = iri
        self.download_url = download_url
        self.media_type = media_type
        self.label = label


class DatasetRecord(Record):
    __slots__ = _fields = ("iri", "distributions", "label", "description", "license")

    def __init__(self, iri: str, distributions: frozenset[str] = frozenset(),
                 label: str = "", description: str = "", license: str = ""):
        self.iri = iri
        self.distributions = distributions
        self.label = label
        self.description = description
        self.license = license


class AgentDef(Record):
    __slots__ = _fields = ("iri", "label", "software", "version")

    def __init__(self, iri: str, label: str = "", software: bool = False,
                 version: str = ""):
        self.iri = iri
        self.label = label
        self.software = software
        self.version = version


class AgentAssociation(Record):
    __slots__ = _fields = ("iri", "agent", "role", "plans", "label")

    def __init__(self, iri: str, agent: str = "", role: str = "",
                 plans: frozenset[str] = frozenset(), label: str = ""):
        self.iri = iri
        self.agent = agent
        self.role = role
        self.plans = plans
        self.label = label


class QueryShape(Record):
    __slots__ = _fields = ("iri", "constraint_iri", "sparql_text", "target_usage")

    def __init__(self, iri: str, constraint_iri: str = "", sparql_text: str = "",
                 target_usage: str = ""):
        self.iri = iri
        self.constraint_iri = constraint_iri
        self.sparql_text = sparql_text
        self.target_usage = target_usage


class WorkflowView(Record):
    """One workflow head plus the step/instruction closure around it. Two
    views are equal when their records are; the load-time ``anomalies``
    and ``revision_target_present`` take no part."""

    __slots__ = _fields = (
        "workflow", "steps", "instructions", "variables", "usages",
        "distributions", "datasets", "agents", "associations", "shapes",
        "anomalies", "revision_target_present")
    _key = attrgetter(*_fields[:-2])

    def __init__(self, workflow: WorkflowDef,
                 steps: Optional[dict[str, StepDef]] = None,
                 instructions: Optional[dict[str, Instruction]] = None,
                 variables: Optional[dict[str, VariableDef]] = None,
                 usages: Optional[dict[str, UsageBinding]] = None,
                 distributions: Optional[dict[str, DistributionDef]] = None,
                 datasets: Optional[dict[str, DatasetRecord]] = None,
                 agents: Optional[dict[str, AgentDef]] = None,
                 associations: Optional[dict[str, AgentAssociation]] = None,
                 shapes: Optional[dict[str, QueryShape]] = None,
                 anomalies: Optional[list[Violation]] = None,
                 revision_target_present: Optional[bool] = None):
        self.workflow = workflow
        self.steps = {} if steps is None else steps
        self.instructions = {} if instructions is None else instructions
        self.variables = {} if variables is None else variables
        self.usages = {} if usages is None else usages
        self.distributions = {} if distributions is None else distributions
        self.datasets = {} if datasets is None else datasets
        self.agents = {} if agents is None else agents
        self.associations = {} if associations is None else associations
        self.shapes = {} if shapes is None else shapes
        self.anomalies = [] if anomalies is None else anomalies
        self.revision_target_present = revision_target_present

    def main_step_ids(self) -> list[str]:
        wf = self.workflow.iri
        return sorted(s for s, step in self.steps.items() if step.plan == wf)


# The retrospective records, loaded and emitted by ``plexflow.trace``.


class ActivityRecord(Record):
    __slots__ = _fields = ("iri", "step", "started", "ended", "associations")

    def __init__(self, iri: str, step: str, started: str = "", ended: str = "",
                 associations: frozenset[tuple[str, str]] = frozenset()):
        self.iri = iri
        self.step = step
        self.started = started
        self.ended = ended
        self.associations = associations  # (agent, role)


class ArtifactRecord(Record):
    __slots__ = _fields = ("iri", "activity", "kind", "value", "measure",
                           "generation_iri", "generated_at")

    def __init__(self, iri: str, activity: str, kind: str, value: str = "",
                 measure: Optional[str] = None, generation_iri: str = "",
                 generated_at: str = ""):
        self.iri = iri
        self.activity = activity
        self.kind = kind  # trace.GENERIC_ARTIFACT or trace.MODEL_EVALUATION
        self.value = value
        self.measure = measure
        self.generation_iri = generation_iri
        self.generated_at = generated_at


# -- the profile table ----------------------------------------------------------


class _Encoding(NamedTuple):
    """How a field reads its predicate's objects, in canonical order: the
    values it keeps (what its count rules count), the field's value made of
    them, and the object terms a non-empty value is written as."""

    keep: Callable[[list[Term]], list[str]]
    value: Callable[[list[str]], object]
    terms: Callable[[object], Iterable[Term]]


_STR = _Encoding(lambda objects: [t.lexical for t in objects if isinstance(t, Literal)],
                 lambda kept: kept[0] if kept else "", lambda v: (lit(v),))
# A version is its first literal, and an empty one is no version.
_VERSION = _STR._replace(keep=lambda objects: [v for v in _STR.keep(objects)[:1] if v])
# An empty URL is no URL.
_URL = _STR._replace(keep=lambda objects: [v for v in _STR.keep(objects) if v])
_DATE = _STR._replace(terms=lambda v: (lit(v, XSD.date),))
_DATETIME = _STR._replace(terms=lambda v: (lit(v, XSD.dateTime),))
_IRI = _Encoding(lambda objects: [t.value for t in objects if isinstance(t, IRI)],
                 _STR.value, lambda v: (iri(v),))
_IRI_OR_NONE = _IRI._replace(value=lambda kept: kept[0] if kept else None)
_LEAST_IRI = _IRI._replace(value=lambda kept: min(kept, default=""))
_IRI_SET = _IRI._replace(value=frozenset, terms=lambda v: map(iri, v))
_IRI_TUPLE = _IRI_SET._replace(value=lambda kept: tuple(sorted(kept)))

_ASSOCIATED = (1, math.inf, "E_ASSOC_INCOMPLETE",
               "association needs agent, role and plans")

# (field, predicate, encoding, *count rules) per record class. A count
# rule (least, most, code, detail) is broken when the field keeps fewer
# than least or more than most values (SHACL sh:minCount/sh:maxCount);
# {n} in its detail is the count.
_FIELDS: dict[type, tuple[tuple, ...]] = {
    WorkflowDef: (
        ("version", DC.hasVersion, _VERSION,
         (1, math.inf, "E_VERSION_EMPTY", "dc:hasVersion missing")),
        ("created", DC.created, _DATE),
        ("modified", DC.modified, _DATE),
        ("creator", DC.creator, _IRI),
        ("attributed_to", PROV.wasAttributedTo, _IRI),
        ("first_step", PWO.hasFirstStep, _IRI,
         (1, math.inf, "E_NO_FIRST_STEP", "pwo:hasFirstStep missing")),
        ("label", RDFS.label, _STR),
        ("description", DC.description, _STR),
        ("language", DC.language, _IRI),
        ("license", DC.license, _IRI),
        ("revision_of", PROV.wasRevisionOf, _IRI_OR_NONE),
    ),
    StepDef: (
        ("instruction", DUL.isDescribedBy, _LEAST_IRI,
         (1, math.inf, "E_STEP_NO_INSTR", "step has no dul:isDescribedBy instruction"),
         (0, 1, "E_STEP_MULTI_INSTR", "step has {n} instructions")),
        ("precedes", DUL.precedes, _IRI_SET),
        ("input_vars", PPLAN.hasInputVar, _IRI_SET),
        ("output_vars", PPLAN.hasOutputVar, _IRI_SET),
        ("label", RDFS.label, _STR),
    ),
    Instruction: (
        ("language", DC.language, _IRI_TUPLE,
         (1, 1, "E_INSTR_LANG", "instruction has {n} languages")),
        ("description", DC.description, _STR),
        ("label", RDFS.label, _STR),
        ("version", DC.hasVersion, _VERSION),
        ("described_by", DUL.isDescribedBy, _IRI_OR_NONE),
        ("revision_of", PROV.wasRevisionOf, _IRI_OR_NONE),
        ("qualified_usages", PROV.qualifiedUsage, _IRI_SET),
        ("first_step", PWO.hasFirstStep, _IRI),
    ),
    VariableDef: (
        ("label", RDFS.label, _STR),
    ),
    UsageBinding: (
        ("entities", PROV.entity, _IRI_SET,
         (2, math.inf, "E_USAGE_TOO_FEW", "usage binding needs at least two entities")),
        ("label", RDFS.label, _STR),
    ),
    DistributionDef: (
        ("download_url", DCAT.downloadURL, _URL,
         (1, 1, "E_DIST_URL", "distribution has {n} dcat:downloadURL values")),
        ("media_type", DCAT.mediaType, _IRI),
        ("label", RDFS.label, _STR),
    ),
    DatasetRecord: (
        ("distributions", DCAT.distribution, _IRI_SET),
        ("label", RDFS.label, _STR),
        ("description", DC.description, _STR),
        ("license", DC.license, _IRI),
    ),
    AgentDef: (
        ("label", RDFS.label, _STR),
        ("version", DC.hasVersion, _VERSION),
    ),
    AgentAssociation: (
        ("agent", PROV.agent, _IRI, _ASSOCIATED),
        ("role", PROV.hadRole, _IRI, _ASSOCIATED),
        ("plans", PROV.hadPlan, _IRI_SET, _ASSOCIATED),
        ("label", RDFS.label, _STR),
    ),
    QueryShape: (
        ("constraint_iri", SH.sparql, _IRI),
        ("target_usage", SH.targetClass, _IRI),  # only the first one counts
    ),
    ActivityRecord: (
        ("step", PPLAN.correspondsToStep, _IRI),
        ("started", PROV.startedAtTime, _DATETIME),
        ("ended", PROV.endedAtTime, _DATETIME),
    ),
    ArtifactRecord: (
        ("value", DC.description, _STR),
        ("measure", MLS.specifiedBy, _IRI_OR_NONE),
        ("generation_iri", PROV.qualifiedGeneration, _IRI),
    ),
}
# One shape per row, (field, predicate, encoding, rules), so _read unpacks it fast.
_FIELDS = {cls: tuple((*row[:3], row[3:]) for row in rows)
           for cls, rows in _FIELDS.items()}


def _read(g: Graph, cls: type, iri_: str, anomalies: list[Violation], **fixed):
    """A ``cls`` record for ``iri_``: its mapped fields read from ``g``, its
    hand-written ones given as ``fixed``. Each count rule it breaks goes to
    ``anomalies`` once (an association lacking agent and role is one)."""
    node = IRI(iri_)
    values, broken = {}, {}
    for name, predicate, encoding, rules in _FIELDS[cls]:
        kept = encoding.keep(g.objects(node, iri(predicate)))
        values[name] = encoding.value(kept)
        for least, most, code, detail in rules:
            if not least <= len(kept) <= most:
                broken[Violation(code, iri_, detail.format(n=len(kept)))] = None
    anomalies.extend(broken)
    return cls(iri=iri_, **fixed, **values)


def _write(g: Graph, record, *types: str):
    """Emit ``record``'s ``rdf:type`` values and every non-empty mapped field."""
    for t in types:
        _add(g, record.iri, RDF.type, iri(t))
    for name, predicate, encoding, _ in _FIELDS[type(record)]:
        value = getattr(record, name)
        if value:
            for term in encoding.terms(value):
                _add(g, record.iri, predicate, term)


def _add(g: Graph, s: str, p: str, o: Term):
    g.add(Triple(iri(s), iri(p), o))


# -- instruction languages --------------------------------------------------

LANGUAGE_ENGLISH = vocab.OPREDICT.LinguisticSystem_English
LANGUAGE_PYTHON_3_5 = vocab.OPREDICT.LinguisticSystem_Python_3_5


# -- workflow heads ---------------------------------------------------------


def is_workflow(g: Graph, iri_: str) -> bool:
    """Workflow heads carry both dul:Workflow and p-plan:Plan types."""
    types = g.types(IRI(iri_))
    return DUL.Workflow in types and PPLAN.Plan in types


def workflow_iris(g: Graph) -> list[str]:
    heads = [s.value for s in g.subjects(RDF_TYPE, IRI(DUL.Workflow))
             if isinstance(s, IRI) and is_workflow(g, s.value)]
    return sorted(set(heads))


# -- loading -----------------------------------------------------------------

_STEP_TYPE_SKIP = {PPLAN.Step, BPMN.ManualTask, BPMN.ScriptTask}


def _load_step(g: Graph, step_iri: str, plan_iri: str,
               anomalies: list[Violation]) -> StepDef:
    types = g.types(IRI(step_iri))
    manual = BPMN.ManualTask in types
    script = BPMN.ScriptTask in types
    if manual and script:
        anomalies.append(Violation("E_STEP_KIND_BOTH", step_iri,
                                   "typed both bpmn:ManualTask and bpmn:ScriptTask"))
    if not manual and not script:
        anomalies.append(Violation("E_STEP_KIND_NONE", step_iri,
                                   "typed neither bpmn:ManualTask nor bpmn:ScriptTask"))
    op_classes = sorted(t for t in types if t not in _STEP_TYPE_SKIP)
    return _read(g, StepDef, step_iri, anomalies, plan=plan_iri,
                 kind=MANUAL if manual else SCRIPT,
                 operation_class=op_classes[0] if op_classes else None)


def _load_instruction(g: Graph, instr_iri: str,
                      anomalies: list[Violation]) -> Instruction:
    extra = frozenset(g.types(IRI(instr_iri)) - {PPLAN.Plan})
    return _read(g, Instruction, instr_iri, anomalies, extra_types=extra)


def _linking(g: Graph, cls: type, name: str, targets) -> list[str]:
    """The IRIs whose ``name`` field of ``cls`` links to any of ``targets``,
    sorted."""
    predicate = IRI(next(p for f, p, _, _ in _FIELDS[cls] if f == name))
    return sorted({s.value for target in targets
                   for s in g.subjects(predicate, IRI(target))
                   if isinstance(s, IRI)})


def load_workflow(g: Graph, wf_iri: str) -> WorkflowView:
    """Build the typed view for one workflow head.

    Loads the workflow's own steps plus one level of sub-plan steps (steps
    attached to instructions that are themselves plans). Structural
    irregularities are collected as anomalies for ``validate`` rather than
    raised, so a broken graph can still be inspected.
    """
    head = IRI(wf_iri)
    if not is_workflow(g, wf_iri):
        raise WorkflowError(
            f"{wf_iri} is not a workflow (needs both dul:Workflow and p-plan:Plan)")
    anomalies: list[Violation] = []
    wf = _read(g, WorkflowDef, wf_iri, anomalies)
    view = WorkflowView(workflow=wf, anomalies=anomalies)
    view.revision_target_present = (
        None if wf.revision_of is None else is_workflow(g, wf.revision_of))

    step_of = IRI(PPLAN.isStepOfPlan)
    main_steps = sorted(s.value for s in g.subjects(step_of, head)
                        if isinstance(s, IRI))
    for step_iri in main_steps:
        view.steps[step_iri] = _load_step(g, step_iri, wf_iri, anomalies)

    # One level of sub-plans: instructions of main steps that have steps.
    instr_iris = {s.instruction for s in view.steps.values() if s.instruction}
    for instr_iri in sorted(instr_iris):
        for sub in sorted(s.value for s in g.subjects(step_of, IRI(instr_iri))
                          if isinstance(s, IRI)):
            if sub not in view.steps:
                view.steps[sub] = _load_step(g, sub, instr_iri, anomalies)

    all_instr = {s.instruction for s in view.steps.values() if s.instruction}
    for instr_iri in sorted(all_instr):
        view.instructions[instr_iri] = _load_instruction(g, instr_iri, anomalies)
    spec_level = {i.described_by for i in view.instructions.values()} - {None}
    for extra in sorted(spec_level - set(view.instructions)):
        if PPLAN.Plan in g.types(IRI(extra)):
            view.instructions[extra] = _load_instruction(g, extra, anomalies)

    var_iris: set[str] = set()
    for step in view.steps.values():
        var_iris |= step.input_vars | step.output_vars
    usage_iris: set[str] = set()
    for instr in view.instructions.values():
        usage_iris |= instr.qualified_usages
    for usage_iri in sorted(usage_iris):
        usage = view.usages[usage_iri] = _read(g, UsageBinding, usage_iri, anomalies)
        for ent in sorted(usage.entities):
            types = g.types(IRI(ent))
            if PPLAN.Variable in types:
                var_iris.add(ent)
            # A distribution shared by two usages is read, and checked, once.
            if DCAT.Distribution in types and ent not in view.distributions:
                view.distributions[ent] = _read(g, DistributionDef, ent, anomalies)
    for var_iri in sorted(var_iris):
        # Untyped references surface as dangling in validate.
        if PPLAN.Variable in g.types(IRI(var_iri)):
            view.variables[var_iri] = _read(g, VariableDef, var_iri, anomalies)

    # Datasets, associations and shapes are reached from what was loaded,
    # by inverse lookups, so the cost follows the workflow, not the graph.
    for ds in _linking(g, DatasetRecord, "distributions", view.distributions):
        if DCAT.Dataset in g.types(IRI(ds)):
            view.datasets[ds] = _read(g, DatasetRecord, ds, anomalies)

    plan_pool = set(view.instructions) | {wf_iri}
    for assoc in _linking(g, AgentAssociation, "plans", plan_pool):
        if PROV.Association in g.types(IRI(assoc)):
            view.associations[assoc] = _read(g, AgentAssociation, assoc, anomalies)

    agent_iris = {a.agent for a in view.associations.values() if a.agent}
    agent_iris |= {wf.creator, wf.attributed_to} - {""}
    for agent_iri in sorted(agent_iris):
        software = PROV.SoftwareAgent in g.types(IRI(agent_iri))
        view.agents[agent_iri] = _read(g, AgentDef, agent_iri, anomalies,
                                       software=software)

    for shape_iri in _linking(g, QueryShape, "target_usage", view.usages):
        if SH.NodeShape not in g.types(IRI(shape_iri)):
            continue
        shape = _read(g, QueryShape, shape_iri, anomalies)
        if shape.target_usage not in view.usages:
            continue
        if shape.constraint_iri:
            shape.sparql_text = g.str_value(IRI(shape.constraint_iri), SH.select)
        view.shapes[shape_iri] = shape

    return view


# -- validation ---------------------------------------------------------------


def _precedes_cycle(steps: dict[str, StepDef], plan: str) -> Optional[str]:
    """The first step a depth-first walk (starts and successors in sorted
    order) reaches again on its current ``dul:precedes`` path, or None. The
    walk keeps its own stack, so a chain of any length fits."""
    scope = {s for s, st in steps.items() if st.plan == plan}
    color: dict[str, int] = {}  # 1: on the current path, 2: done
    stack: list[tuple[str, Iterator[str]]] = []

    def enter(node: str):
        color[node] = 1
        stack.append((node, iter(sorted(steps[node].precedes & scope))))

    for start in sorted(scope):
        if start not in color:
            enter(start)
        while stack:
            node, successors = stack[-1]
            for nxt in successors:
                if color.get(nxt) == 1:
                    return nxt
                if nxt not in color:
                    enter(nxt)
                    break
            else:
                color[node] = 2
                stack.pop()
    return None


def validate(view: WorkflowView) -> list[Violation]:
    """All profile violations in the view; empty means the view is valid.

    The step-kind checks and the ``_FIELDS`` count rules run in
    ``load_workflow`` and come first, as the view's anomalies; a view built
    by hand has none. The checks below run on any view. Two fire only on a
    view built by hand, as loading reads every step's instruction and only
    referenced variables: ``E_VARIABLE_ORPHAN`` and the "instruction … not
    loaded" ``E_DANGLING_REF``. They stay because ``validate`` is public API.
    """
    out = list(view.anomalies)
    wf = view.workflow
    if wf.first_step and wf.first_step not in view.steps:
        out.append(Violation("E_DANGLING_REF", wf.iri,
                             f"first step {wf.first_step} is not a loaded step"))
    if wf.revision_of is not None and view.revision_target_present is False:
        out.append(Violation("E_REVISION_MISSING", wf.iri,
                             f"prov:wasRevisionOf target {wf.revision_of} not found"))

    for step_iri in sorted(view.steps):
        step = view.steps[step_iri]
        if step.instruction and step.instruction not in view.instructions:
            out.append(Violation("E_DANGLING_REF", step_iri,
                                 f"instruction {step.instruction} not loaded"))
        for target in sorted(step.precedes):
            if target not in view.steps:
                out.append(Violation("E_DANGLING_REF", step_iri,
                                     f"precedes target {target} not a step"))
            elif view.steps[target].plan != step.plan:
                out.append(Violation("E_PRECEDES_CROSS_PLAN", step_iri,
                                     f"precedes {target} in another plan"))
        for var in sorted(step.input_vars | step.output_vars):
            if var not in view.variables:
                out.append(Violation("E_DANGLING_REF", step_iri,
                                     f"variable {var} not loaded"))

    plans = sorted({s.plan for s in view.steps.values()})
    for plan in plans:
        node = _precedes_cycle(view.steps, plan)
        if node:
            out.append(Violation("E_PRECEDES_CYCLE", plan,
                                 f"dul:precedes cycle through {node}"))

    for instr_iri in sorted(view.instructions):
        instr = view.instructions[instr_iri]
        if instr.described_by == instr_iri:
            out.append(Violation("E_DESCRIBEDBY_SELF", instr_iri,
                                 "dul:isDescribedBy is self-referential"))
            continue
        seen = {instr_iri}
        cursor = instr.described_by
        while cursor and cursor in view.instructions:
            if cursor in seen:
                out.append(Violation("E_DESCRIBEDBY_CYCLE", instr_iri,
                                     "dul:isDescribedBy chain has a cycle"))
                break
            seen.add(cursor)
            cursor = view.instructions[cursor].described_by

    referenced: set[str] = set()
    for step in view.steps.values():
        referenced |= step.input_vars | step.output_vars
    for usage in view.usages.values():
        referenced |= usage.entities
    for var_iri in sorted(view.variables):
        if var_iri not in referenced:
            out.append(Violation("E_VARIABLE_ORPHAN", var_iri,
                                 "variable referenced by no step or usage"))

    for shape_iri in sorted(view.shapes):
        shape = view.shapes[shape_iri]
        from .query import QueryError, parse_query
        try:
            parse_query(shape.sparql_text)
        except QueryError as exc:
            out.append(Violation("E_SHAPE_SPARQL", shape_iri, str(exc)))

    return out


def step_order(view: WorkflowView, plan: Optional[str] = None) -> list[str]:
    """Deterministic topological order of one plan's steps.

    The plan's first step comes first when it has no predecessors; after
    that, ready steps are taken in IRI lexicographic order. A cycle raises
    :class:`WorkflowError`.
    """
    plan = plan or view.workflow.iri
    scope = {s for s, st in view.steps.items() if st.plan == plan}
    first = view.workflow.first_step if plan == view.workflow.iri else (
        view.instructions[plan].first_step if plan in view.instructions else "")
    indegree = {s: 0 for s in scope}
    for s in scope:
        for target in view.steps[s].precedes:
            if target in scope:
                indegree[target] += 1
    ready = sorted(s for s in scope if indegree[s] == 0)
    order: list[str] = []
    while ready:
        if first in ready:
            node = first
            ready.remove(first)
            first = ""
        else:
            node = ready.pop(0)
        order.append(node)
        for target in sorted(view.steps[node].precedes):
            if target in scope:
                indegree[target] -= 1
                if indegree[target] == 0:
                    bisect.insort(ready, target)
    if len(order) != len(scope):
        raise WorkflowError(f"dul:precedes cycle in plan {plan}")
    return order


# -- emission ------------------------------------------------------------------


def emit_triples(view: WorkflowView) -> Graph:
    """Write the typed view back out as triples (inverse of load)."""
    g = Graph()
    _write(g, view.workflow, PPLAN.Plan, DUL.Workflow)
    for step in view.steps.values():
        kind_type = BPMN.ManualTask if step.kind == MANUAL else BPMN.ScriptTask
        _write(g, step, kind_type, PPLAN.Step,
               *([step.operation_class] if step.operation_class else []))
        _add(g, step.iri, PPLAN.isStepOfPlan, iri(step.plan))
    for instr in view.instructions.values():
        _write(g, instr, PPLAN.Plan, *instr.extra_types)
    for var in view.variables.values():
        _write(g, var, PPLAN.Variable)
    for usage in view.usages.values():
        _write(g, usage, PROV.Usage)
    for dist in view.distributions.values():
        _write(g, dist, DCAT.Distribution)
    for ds in view.datasets.values():
        _write(g, ds, DCAT.Dataset)
    for agent in view.agents.values():
        _write(g, agent, PROV.SoftwareAgent if agent.software else PROV.Agent)
    for assoc in view.associations.values():
        _write(g, assoc, PROV.Association)
    for shape in view.shapes.values():
        _write(g, shape, SH.NodeShape)
        if shape.constraint_iri:
            _add(g, shape.constraint_iri, RDF.type, iri(SH.SPARQLConstraint))
            if shape.sparql_text:
                _add(g, shape.constraint_iri, SH.select, lit(shape.sparql_text))
    return g
