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
into dataclasses, ``validate`` reports profile violations as data,
``step_order`` topologically sorts one plan's steps, and ``emit_triples``
writes a view back out so that load(emit(view)) round-trips.

Instructions deliberately carry no manual/computational flag of their own;
that classification is derived from the instruction language, so a Python
instruction may well sit behind a manual step (run by hand, cell by cell).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

from . import vocab
from .rdf import RDF_TYPE, Graph, IRI, Literal, Term, Triple, lit
from .vocab import BPMN, DC, DCAT, DUL, PPLAN, PROV, PWO, RDF, RDFS, SH, XSD

MANUAL = "manual"
SCRIPT = "script"

NATURAL_LANGUAGE = "natural-language"
COMPUTER_LANGUAGE = "computer-language"


class WorkflowError(ValueError):
    """Structural failure that prevents loading a workflow at all."""


class UnknownLanguageError(WorkflowError):
    """Instruction language IRI is not registered."""


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    detail: str = ""

    def __str__(self):
        msg = f"{self.code} {vocab.compress(self.subject)}"
        return f"{msg}: {self.detail}" if self.detail else msg


@dataclass
class WorkflowDef:
    iri: str
    version: str = ""
    created: str = ""
    modified: str = ""
    creator: str = ""
    attributed_to: str = ""
    first_step: str = ""
    label: str = ""
    description: str = ""
    language: str = ""
    license: str = ""
    revision_of: Optional[str] = None


@dataclass
class Instruction:
    iri: str
    language: tuple[str, ...] = ()  # loaded values; exactly one is valid
    description: str = ""
    label: str = ""
    version: str = ""
    described_by: Optional[str] = None
    revision_of: Optional[str] = None
    qualified_usages: frozenset[str] = frozenset()
    first_step: str = ""  # set when the instruction is itself a plan with steps
    extra_types: frozenset[str] = frozenset()


@dataclass
class StepDef:
    iri: str
    plan: str  # the p-plan:isStepOfPlan target (workflow head or sub-plan)
    kind: str  # MANUAL or SCRIPT
    instruction: str
    precedes: frozenset[str] = frozenset()
    input_vars: frozenset[str] = frozenset()
    output_vars: frozenset[str] = frozenset()
    operation_class: Optional[str] = None
    label: str = ""


@dataclass
class VariableDef:
    iri: str
    label: str = ""


@dataclass
class UsageBinding:
    iri: str
    entities: frozenset[str] = frozenset()
    label: str = ""


@dataclass
class DistributionDef:
    iri: str
    download_url: str = ""
    media_type: str = ""
    label: str = ""


@dataclass
class DatasetRecord:
    iri: str
    distributions: frozenset[str] = frozenset()
    label: str = ""
    description: str = ""
    license: str = ""


@dataclass
class AgentDef:
    iri: str
    label: str = ""
    software: bool = False
    version: str = ""


@dataclass
class AgentAssociation:
    iri: str
    agent: str = ""
    role: str = ""
    plans: frozenset[str] = frozenset()
    label: str = ""


@dataclass
class QueryShape:
    iri: str
    constraint_iri: str = ""
    sparql_text: str = ""
    target_usage: str = ""


@dataclass
class WorkflowView:
    """One workflow head plus the step/instruction closure around it."""

    workflow: WorkflowDef
    steps: dict[str, StepDef] = field(default_factory=dict)
    instructions: dict[str, Instruction] = field(default_factory=dict)
    variables: dict[str, VariableDef] = field(default_factory=dict)
    usages: dict[str, UsageBinding] = field(default_factory=dict)
    distributions: dict[str, DistributionDef] = field(default_factory=dict)
    datasets: dict[str, DatasetRecord] = field(default_factory=dict)
    agents: dict[str, AgentDef] = field(default_factory=dict)
    associations: dict[str, AgentAssociation] = field(default_factory=dict)
    shapes: dict[str, QueryShape] = field(default_factory=dict)
    anomalies: list[Violation] = field(default_factory=list)
    revision_target_present: Optional[bool] = None

    def main_step_ids(self) -> list[str]:
        wf = self.workflow.iri
        return sorted(s for s, step in self.steps.items() if step.plan == wf)

    def __eq__(self, other):
        if not isinstance(other, WorkflowView):
            return NotImplemented
        mine = (self.workflow, self.steps, self.instructions, self.variables,
                self.usages, self.distributions, self.datasets, self.agents,
                self.associations, self.shapes)
        theirs = (other.workflow, other.steps, other.instructions, other.variables,
                  other.usages, other.distributions, other.datasets, other.agents,
                  other.associations, other.shapes)
        return mine == theirs


# -- language registry ------------------------------------------------------

LANGUAGE_ENGLISH = vocab.OPREDICT.LinguisticSystem_English
LANGUAGE_PYTHON_3_5 = vocab.OPREDICT.LinguisticSystem_Python_3_5

_language_kinds: dict[str, str] = {
    LANGUAGE_ENGLISH: NATURAL_LANGUAGE,
    LANGUAGE_PYTHON_3_5: COMPUTER_LANGUAGE,
}


def instruction_kind(instruction: Instruction) -> str:
    """Classify an instruction by its language IRI.

    Returns ``natural-language`` or ``computer-language``; unregistered
    languages are an error rather than a silent guess.
    """
    if len(instruction.language) != 1:
        raise UnknownLanguageError(
            f"instruction {instruction.iri} must have exactly one language")
    language = instruction.language[0]
    try:
        return _language_kinds[language]
    except KeyError:
        raise UnknownLanguageError(f"unregistered language IRI: {language}") from None


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
    node = IRI(step_iri)
    types = g.types(node)
    manual = BPMN.ManualTask in types
    script = BPMN.ScriptTask in types
    if manual and script:
        anomalies.append(Violation("E_STEP_KIND_BOTH", step_iri,
                                   "typed both bpmn:ManualTask and bpmn:ScriptTask"))
    if not manual and not script:
        anomalies.append(Violation("E_STEP_KIND_NONE", step_iri,
                                   "typed neither bpmn:ManualTask nor bpmn:ScriptTask"))
    instructions = sorted(g.iri_objects(node, DUL.isDescribedBy))
    if not instructions:
        anomalies.append(Violation("E_STEP_NO_INSTR", step_iri,
                                   "step has no dul:isDescribedBy instruction"))
    elif len(instructions) > 1:
        anomalies.append(Violation("E_STEP_MULTI_INSTR", step_iri,
                                   f"step has {len(instructions)} instructions"))
    op_classes = sorted(t for t in types if t not in _STEP_TYPE_SKIP)
    return StepDef(
        iri=step_iri,
        plan=plan_iri,
        kind=MANUAL if manual else SCRIPT,
        instruction=instructions[0] if instructions else "",
        precedes=frozenset(g.iri_objects(node, DUL.precedes)),
        input_vars=frozenset(g.iri_objects(node, PPLAN.hasInputVar)),
        output_vars=frozenset(g.iri_objects(node, PPLAN.hasOutputVar)),
        operation_class=op_classes[0] if op_classes else None,
        label=g.str_value(node, RDFS.label),
    )


def _load_instruction(g: Graph, instr_iri: str) -> Instruction:
    node = IRI(instr_iri)
    types = g.types(node)
    extra = frozenset(t for t in types if t != PPLAN.Plan)
    return Instruction(
        iri=instr_iri,
        language=tuple(sorted(g.iri_objects(node, DC.language))),
        description=g.str_value(node, DC.description),
        label=g.str_value(node, RDFS.label),
        version=g.str_value(node, DC.hasVersion),
        described_by=g.iri_value(node, DUL.isDescribedBy) or None,
        revision_of=g.iri_value(node, PROV.wasRevisionOf) or None,
        qualified_usages=frozenset(g.iri_objects(node, PROV.qualifiedUsage)),
        first_step=g.iri_value(node, PWO.hasFirstStep),
        extra_types=extra,
    )


def _linking(g: Graph, predicate: str, targets) -> list[str]:
    """The IRIs with a ``predicate`` link to any of ``targets``, sorted."""
    return sorted({s.value for target in targets
                   for s in g.subjects(IRI(predicate), IRI(target))
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
    revision_of = g.iri_value(head, PROV.wasRevisionOf) or None
    wf = WorkflowDef(
        iri=wf_iri,
        version=g.str_value(head, DC.hasVersion),
        created=g.str_value(head, DC.created),
        modified=g.str_value(head, DC.modified),
        creator=g.iri_value(head, DC.creator),
        attributed_to=g.iri_value(head, PROV.wasAttributedTo),
        first_step=g.iri_value(head, PWO.hasFirstStep),
        label=g.str_value(head, RDFS.label),
        description=g.str_value(head, DC.description),
        language=g.iri_value(head, DC.language),
        license=g.iri_value(head, DC.license),
        revision_of=revision_of,
    )
    view = WorkflowView(workflow=wf, anomalies=anomalies)
    view.revision_target_present = (
        None if revision_of is None else is_workflow(g, revision_of))

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
    spec_level: set[str] = set()
    for instr_iri in sorted(all_instr):
        instr = _load_instruction(g, instr_iri)
        view.instructions[instr_iri] = instr
        if instr.described_by:
            spec_level.add(instr.described_by)
    for extra in sorted(spec_level - set(view.instructions)):
        if PPLAN.Plan in g.types(IRI(extra)):
            view.instructions[extra] = _load_instruction(g, extra)

    var_iris: set[str] = set()
    for step in view.steps.values():
        var_iris |= step.input_vars | step.output_vars
    usage_iris: set[str] = set()
    for instr in view.instructions.values():
        usage_iris |= instr.qualified_usages
    for usage_iri in sorted(usage_iris):
        node = IRI(usage_iri)
        entities = frozenset(g.iri_objects(node, PROV.entity))
        view.usages[usage_iri] = UsageBinding(
            iri=usage_iri, entities=entities, label=g.str_value(node, RDFS.label))
        for ent in entities:
            if PPLAN.Variable in g.types(IRI(ent)):
                var_iris.add(ent)
            if DCAT.Distribution in g.types(IRI(ent)):
                urls = [t.lexical for t in g.objects(IRI(ent), IRI(DCAT.downloadURL))
                        if isinstance(t, Literal)]
                if len(urls) != 1:
                    anomalies.append(Violation(
                        "E_DIST_URL", ent,
                        f"distribution has {len(urls)} dcat:downloadURL values"))
                view.distributions[ent] = DistributionDef(
                    iri=ent,
                    download_url=urls[0] if urls else "",
                    media_type=g.iri_value(IRI(ent), DCAT.mediaType),
                    label=g.str_value(IRI(ent), RDFS.label),
                )
    for var_iri in sorted(var_iris):
        if PPLAN.Variable not in g.types(IRI(var_iri)):
            continue  # untyped references surface as dangling in validate
        view.variables[var_iri] = VariableDef(
            iri=var_iri, label=g.str_value(IRI(var_iri), RDFS.label))

    # Datasets, associations and shapes are reached from what was loaded,
    # by inverse lookups, so the cost follows the workflow, not the graph.
    for ds in _linking(g, DCAT.distribution, view.distributions):
        if DCAT.Dataset not in g.types(IRI(ds)):
            continue
        view.datasets[ds] = DatasetRecord(
            iri=ds,
            distributions=frozenset(g.iri_objects(IRI(ds), DCAT.distribution)),
            label=g.str_value(IRI(ds), RDFS.label),
            description=g.str_value(IRI(ds), DC.description),
            license=g.iri_value(IRI(ds), DC.license),
        )

    plan_pool = set(view.instructions) | {wf_iri}
    for assoc in _linking(g, PROV.hadPlan, plan_pool):
        node = IRI(assoc)
        if PROV.Association not in g.types(node):
            continue
        record = AgentAssociation(
            iri=assoc,
            agent=g.iri_value(node, PROV.agent),
            role=g.iri_value(node, PROV.hadRole),
            plans=frozenset(g.iri_objects(node, PROV.hadPlan)),
            label=g.str_value(node, RDFS.label),
        )
        view.associations[assoc] = record
        if not (record.agent and record.role and record.plans):
            anomalies.append(Violation("E_ASSOC_INCOMPLETE", assoc,
                                       "association needs agent, role and plans"))

    agent_iris = {a.agent for a in view.associations.values() if a.agent}
    agent_iris |= {wf.creator, wf.attributed_to} - {""}
    for agent_iri in sorted(agent_iris):
        types = g.types(IRI(agent_iri))
        view.agents[agent_iri] = AgentDef(
            iri=agent_iri,
            label=g.str_value(IRI(agent_iri), RDFS.label),
            software=PROV.SoftwareAgent in types,
            version=g.str_value(IRI(agent_iri), DC.hasVersion),
        )

    for shape in _linking(g, SH.targetClass, view.usages):
        node = IRI(shape)
        # Only a shape's first sh:targetClass counts.
        target = g.iri_value(node, SH.targetClass)
        if SH.NodeShape not in g.types(node) or target not in view.usages:
            continue
        constraint = g.iri_value(node, SH.sparql)
        text = g.str_value(IRI(constraint), SH.select) if constraint else ""
        view.shapes[shape] = QueryShape(
            iri=shape, constraint_iri=constraint, sparql_text=text,
            target_usage=target)

    return view


# -- validation ---------------------------------------------------------------


def _precedes_cycle(steps: dict[str, StepDef], plan: str) -> Optional[str]:
    scope = {s for s, st in steps.items() if st.plan == plan}
    color: dict[str, int] = {}

    def dfs(node: str) -> Optional[str]:
        color[node] = 1
        for nxt in sorted(steps[node].precedes):
            if nxt not in scope:
                continue
            if color.get(nxt) == 1:
                return nxt
            if nxt not in color:
                found = dfs(nxt)
                if found:
                    return found
        color[node] = 2
        return None

    for start in sorted(scope):
        if start not in color:
            found = dfs(start)
            if found:
                return found
    return None


def validate(view: WorkflowView) -> list[Violation]:
    """All profile violations in the view; empty means the view is valid."""
    out = list(view.anomalies)
    wf = view.workflow
    if not wf.version:
        out.append(Violation("E_VERSION_EMPTY", wf.iri, "dc:hasVersion missing"))
    if not wf.first_step:
        out.append(Violation("E_NO_FIRST_STEP", wf.iri, "pwo:hasFirstStep missing"))
    elif wf.first_step not in view.steps:
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
        if len(instr.language) != 1:
            out.append(Violation("E_INSTR_LANG", instr_iri,
                                 f"instruction has {len(instr.language)} languages"))
        if instr.described_by == instr_iri:
            out.append(Violation("E_DESCRIBEDBY_SELF", instr_iri,
                                 "dul:isDescribedBy is self-referential"))
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

    for usage_iri in sorted(view.usages):
        if len(view.usages[usage_iri].entities) < 2:
            out.append(Violation("E_USAGE_TOO_FEW", usage_iri,
                                 "usage binding needs at least two entities"))

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


def _add(g: Graph, s: str, p: str, o: Term):
    g.add(Triple(IRI(s), IRI(p), o))


def _add_iri(g: Graph, s: str, p: str, o: str):
    _add(g, s, p, IRI(o))


def _add_str(g: Graph, s: str, p: str, o: str):
    _add(g, s, p, lit(o))


def emit_triples(view: WorkflowView) -> Graph:
    """Write the typed view back out as triples (inverse of load)."""
    g = Graph()
    wf = view.workflow
    _add_iri(g, wf.iri, RDF.type, PPLAN.Plan)
    _add_iri(g, wf.iri, RDF.type, DUL.Workflow)
    if wf.version:
        _add_str(g, wf.iri, DC.hasVersion, wf.version)
    if wf.created:
        _add(g, wf.iri, DC.created, lit(wf.created, XSD.date))
    if wf.modified:
        _add(g, wf.iri, DC.modified, lit(wf.modified, XSD.date))
    if wf.creator:
        _add_iri(g, wf.iri, DC.creator, wf.creator)
    if wf.attributed_to:
        _add_iri(g, wf.iri, PROV.wasAttributedTo, wf.attributed_to)
    if wf.first_step:
        _add_iri(g, wf.iri, PWO.hasFirstStep, wf.first_step)
    if wf.label:
        _add_str(g, wf.iri, RDFS.label, wf.label)
    if wf.description:
        _add_str(g, wf.iri, DC.description, wf.description)
    if wf.language:
        _add_iri(g, wf.iri, DC.language, wf.language)
    if wf.license:
        _add_iri(g, wf.iri, DC.license, wf.license)
    if wf.revision_of:
        _add_iri(g, wf.iri, PROV.wasRevisionOf, wf.revision_of)

    for step in view.steps.values():
        kind_type = BPMN.ManualTask if step.kind == MANUAL else BPMN.ScriptTask
        _add_iri(g, step.iri, RDF.type, kind_type)
        _add_iri(g, step.iri, RDF.type, PPLAN.Step)
        if step.operation_class:
            _add_iri(g, step.iri, RDF.type, step.operation_class)
        _add_iri(g, step.iri, PPLAN.isStepOfPlan, step.plan)
        if step.instruction:
            _add_iri(g, step.iri, DUL.isDescribedBy, step.instruction)
        for target in step.precedes:
            _add_iri(g, step.iri, DUL.precedes, target)
        for var in step.input_vars:
            _add_iri(g, step.iri, PPLAN.hasInputVar, var)
        for var in step.output_vars:
            _add_iri(g, step.iri, PPLAN.hasOutputVar, var)
        if step.label:
            _add_str(g, step.iri, RDFS.label, step.label)

    for instr in view.instructions.values():
        _add_iri(g, instr.iri, RDF.type, PPLAN.Plan)
        for extra in instr.extra_types:
            _add_iri(g, instr.iri, RDF.type, extra)
        for language in instr.language:
            _add_iri(g, instr.iri, DC.language, language)
        if instr.description:
            _add_str(g, instr.iri, DC.description, instr.description)
        if instr.label:
            _add_str(g, instr.iri, RDFS.label, instr.label)
        if instr.version:
            _add_str(g, instr.iri, DC.hasVersion, instr.version)
        if instr.described_by:
            _add_iri(g, instr.iri, DUL.isDescribedBy, instr.described_by)
        if instr.revision_of:
            _add_iri(g, instr.iri, PROV.wasRevisionOf, instr.revision_of)
        if instr.first_step:
            _add_iri(g, instr.iri, PWO.hasFirstStep, instr.first_step)
        for usage in instr.qualified_usages:
            _add_iri(g, instr.iri, PROV.qualifiedUsage, usage)

    for var in view.variables.values():
        _add_iri(g, var.iri, RDF.type, PPLAN.Variable)
        if var.label:
            _add_str(g, var.iri, RDFS.label, var.label)

    for usage in view.usages.values():
        _add_iri(g, usage.iri, RDF.type, PROV.Usage)
        if usage.label:
            _add_str(g, usage.iri, RDFS.label, usage.label)
        for ent in usage.entities:
            _add_iri(g, usage.iri, PROV.entity, ent)

    for dist in view.distributions.values():
        _add_iri(g, dist.iri, RDF.type, DCAT.Distribution)
        if dist.label:
            _add_str(g, dist.iri, RDFS.label, dist.label)
        if dist.download_url:
            _add_str(g, dist.iri, DCAT.downloadURL, dist.download_url)
        if dist.media_type:
            _add_iri(g, dist.iri, DCAT.mediaType, dist.media_type)

    for ds in view.datasets.values():
        _add_iri(g, ds.iri, RDF.type, DCAT.Dataset)
        if ds.label:
            _add_str(g, ds.iri, RDFS.label, ds.label)
        if ds.description:
            _add_str(g, ds.iri, DC.description, ds.description)
        if ds.license:
            _add_iri(g, ds.iri, DC.license, ds.license)
        for dist in ds.distributions:
            _add_iri(g, ds.iri, DCAT.distribution, dist)

    for agent in view.agents.values():
        _add_iri(g, agent.iri, RDF.type,
                 PROV.SoftwareAgent if agent.software else PROV.Agent)
        if agent.label:
            _add_str(g, agent.iri, RDFS.label, agent.label)
        if agent.version:
            _add_str(g, agent.iri, DC.hasVersion, agent.version)

    for assoc in view.associations.values():
        _add_iri(g, assoc.iri, RDF.type, PROV.Association)
        if assoc.agent:
            _add_iri(g, assoc.iri, PROV.agent, assoc.agent)
        if assoc.role:
            _add_iri(g, assoc.iri, PROV.hadRole, assoc.role)
        for plan in assoc.plans:
            _add_iri(g, assoc.iri, PROV.hadPlan, plan)
        if assoc.label:
            _add_str(g, assoc.iri, RDFS.label, assoc.label)

    for shape in view.shapes.values():
        _add_iri(g, shape.iri, RDF.type, SH.NodeShape)
        if shape.target_usage:
            _add_iri(g, shape.iri, SH.targetClass, shape.target_usage)
        if shape.constraint_iri:
            _add_iri(g, shape.iri, SH.sparql, shape.constraint_iri)
            _add_iri(g, shape.constraint_iri, RDF.type, SH.SPARQLConstraint)
            if shape.sparql_text:
                _add_str(g, shape.constraint_iri, SH.select, shape.sparql_text)

    return g
