import hashlib
import inspect
import random
import re

import pytest

from plexflow import workflow
from plexflow.fixture import V01, V02
from plexflow.rdf import Graph, IRI, Triple, isomorphic, lit
from plexflow.trace import Tracer, load_activity
from plexflow.turtle import parse_turtle
from plexflow.vocab import (
    EDAM, MEASURES, OPREDICT as OP, PPLAN, RDF, prefixes_turtle,
)
from plexflow.workflow import (
    _FIELDS, _IRI, _IRI_OR_NONE, ActivityRecord, AgentAssociation, AgentDef,
    ArtifactRecord, DatasetRecord,
    Instruction, LANGUAGE_ENGLISH, LANGUAGE_PYTHON_3_5, MANUAL,
    SCRIPT, QueryShape, StepDef, DistributionDef, UsageBinding,
    VariableDef, WorkflowDef, WorkflowError, WorkflowView,
    emit_triples, load_workflow, step_order, validate, workflow_iris,
)

from conftest import k_copy_graph, load_listing, mutated


def _mini_workflow_ttl(extra: str = "") -> str:
    return prefixes_turtle() + f"""
opredict:Plan_Tiny rdf:type p-plan:Plan , dul:Workflow ;
  dc:hasVersion "1.0" ;
  dc:created "2020-01-01" ;
  dc:creator opredict:Agent_A ;
  pwo:hasFirstStep opredict:Step_One ;
  dc:language opredict:LinguisticSystem_English ;
  rdfs:label "Tiny" ; dc:description "Tiny workflow" .

opredict:Step_One rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_Tiny ;
  dul:isDescribedBy opredict:Plan_Instruction_One ;
  rdfs:label "One" .

opredict:Plan_Instruction_One rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_English ;
  dc:description "Do the one thing" .
{extra}
"""


def test_load_single_step_workflow():
    g = parse_turtle(_mini_workflow_ttl()).freeze()
    view = load_workflow(g, OP.Plan_Tiny)
    assert view.workflow.version == "1.0"
    assert len(view.steps) == 1
    assert len(view.instructions) == 1
    step = view.steps[OP.Step_One]
    assert step.kind == MANUAL
    assert step.instruction == OP.Plan_Instruction_One
    assert validate(view) == []


def test_workflow_requires_both_types():
    g = parse_turtle(prefixes_turtle() + """
opredict:Plan_OnlyDul rdf:type dul:Workflow .
""").freeze()
    with pytest.raises(WorkflowError):
        load_workflow(g, OP.Plan_OnlyDul)


def test_fixture_views_load_and_validate(fixture_graph):
    for wf, main_expected, manual_expected in ((V01, 42, 28), (V02, 18, 9)):
        view = load_workflow(fixture_graph, wf)
        main = view.main_step_ids()
        assert len(main) == main_expected
        manual = [s for s in main if view.steps[s].kind == MANUAL]
        assert len(manual) == manual_expected
        assert validate(view) == []


def test_load_cost_follows_the_workflow_not_the_graph(monkeypatch):
    one, four = k_copy_graph(1), k_copy_graph(4)
    calls = []
    match = Graph.match

    def counted(self, *args, **kwargs):
        calls.append(1)
        return match(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "match", counted)
    counts, views = [], []
    for g in (one, four):
        calls.clear()
        views.append(load_workflow(g, V01))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert views[0] == views[1]
    assert views[0].datasets and views[0].associations and views[0].shapes


def test_step_with_two_instructions_flagged():
    extra = """
opredict:Step_One dul:isDescribedBy opredict:Plan_Other .
opredict:Plan_Other rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_English .
"""
    g = parse_turtle(_mini_workflow_ttl(extra)).freeze()
    view = load_workflow(g, OP.Plan_Tiny)
    codes = {v.code for v in validate(view)}
    assert "E_STEP_MULTI_INSTR" in codes


def test_step_with_both_kinds_flagged():
    extra = "opredict:Step_One rdf:type bpmn:ScriptTask .\n"
    g = parse_turtle(_mini_workflow_ttl(extra)).freeze()
    view = load_workflow(g, OP.Plan_Tiny)
    codes = {v.code for v in validate(view)}
    assert "E_STEP_KIND_BOTH" in codes


def test_step_missing_instruction_and_kind_flagged():
    text = prefixes_turtle() + """
opredict:Plan_Tiny rdf:type p-plan:Plan , dul:Workflow ;
  dc:hasVersion "1.0" ; pwo:hasFirstStep opredict:Step_Bare .
opredict:Step_Bare rdf:type p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_Tiny .
"""
    g = parse_turtle(text).freeze()
    view = load_workflow(g, OP.Plan_Tiny)
    codes = {v.code for v in validate(view)}
    assert "E_STEP_NO_INSTR" in codes
    assert "E_STEP_KIND_NONE" in codes


def test_precedes_cycle_flagged():
    extra = """
opredict:Step_Two rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_Tiny ;
  dul:isDescribedBy opredict:Plan_Instruction_One ;
  dul:precedes opredict:Step_One .
opredict:Step_One dul:precedes opredict:Step_Two .
"""
    g = parse_turtle(_mini_workflow_ttl(extra)).freeze()
    view = load_workflow(g, OP.Plan_Tiny)
    cycles = [v for v in validate(view) if v.code == "E_PRECEDES_CYCLE"]
    assert [(v.subject, v.detail) for v in cycles] == [
        (OP.Plan_Tiny, f"dul:precedes cycle through {OP.Step_One}")]
    with pytest.raises(WorkflowError):
        step_order(view)


def test_long_precedes_chain_is_no_cycle():
    # Deeper than Python's recursion limit: the cycle check walks with its
    # own stack.
    steps = [f"opredict:Step_Chain{n:04d}" for n in range(1500)]
    extra = "".join(
        f"{step} rdf:type bpmn:ManualTask , p-plan:Step ;\n"
        "  p-plan:isStepOfPlan opredict:Plan_Tiny ;\n"
        "  dul:isDescribedBy opredict:Plan_Instruction_One ;\n"
        f"  dul:precedes {nxt} .\n"
        for step, nxt in zip(steps, steps[1:] + ["opredict:Step_One"]))
    g = parse_turtle(_mini_workflow_ttl(extra)).freeze()
    view = load_workflow(g, OP.Plan_Tiny)
    assert "E_PRECEDES_CYCLE" not in {v.code for v in validate(view)}
    assert len(step_order(view)) == 1501


def test_missing_first_step_flagged():
    text = prefixes_turtle() + """
opredict:Plan_NoFirst rdf:type p-plan:Plan , dul:Workflow ;
  dc:hasVersion "1.0" .
"""
    g = parse_turtle(text).freeze()
    view = load_workflow(g, OP.Plan_NoFirst)
    codes = {v.code for v in validate(view)}
    assert "E_NO_FIRST_STEP" in codes


def test_dangling_references_flagged():
    extra = """
opredict:Step_One dul:precedes opredict:Step_Ghost ;
  p-plan:hasInputVar opredict:Variable_Ghost .
"""
    g = parse_turtle(_mini_workflow_ttl(extra)).freeze()
    view = load_workflow(g, OP.Plan_Tiny)
    codes = [v.code for v in validate(view)]
    assert codes.count("E_DANGLING_REF") >= 2


def test_distribution_url_anomalies_come_in_iri_order():
    # Set iteration order follows string hashes, which change from process
    # to process; validate's output order must not.
    dists = [OP[f"Dist_{n}"] for n in "ACBFDE"]
    extra = f"""
opredict:Plan_Instruction_One prov:qualifiedUsage opredict:Usage_D .
opredict:Usage_D rdf:type prov:Usage ;
  prov:entity {" , ".join(f"<{d}>" for d in dists)} .
""" + "".join(f"<{d}> rdf:type dcat:Distribution .\n" for d in dists)
    view = load_workflow(parse_turtle(_mini_workflow_ttl(extra)).freeze(),
                         OP.Plan_Tiny)
    flagged = [v.subject for v in view.anomalies if v.code == "E_DIST_URL"]
    assert flagged == sorted(dists)


def test_manual_step_with_computer_language_instruction_is_valid():
    # A Python instruction run by hand stays a valid combination.
    text = _mini_workflow_ttl().replace(
        "opredict:Plan_Instruction_One rdf:type p-plan:Plan ;\n"
        "  dc:language opredict:LinguisticSystem_English ;",
        "opredict:Plan_Instruction_One rdf:type p-plan:Plan ;\n"
        "  dc:language opredict:LinguisticSystem_Python_3_5 ;")
    g = parse_turtle(text).freeze()
    view = load_workflow(g, OP.Plan_Tiny)
    assert validate(view) == []
    step = view.steps[OP.Step_One]
    instr = view.instructions[step.instruction]
    assert step.kind == MANUAL
    assert instr.language == (LANGUAGE_PYTHON_3_5,)


def test_shape_with_invalid_query_text_flagged():
    extra = """
opredict:Plan_Instruction_One prov:qualifiedUsage opredict:Usage_Q .
opredict:Usage_Q rdf:type prov:Usage ;
  prov:entity opredict:Variable_V , opredict:Dist_V .
opredict:Variable_V rdf:type p-plan:Variable .
opredict:Step_One p-plan:hasOutputVar opredict:Variable_V .
opredict:Shape_Q rdf:type sh:NodeShape ;
  sh:targetClass opredict:Usage_Q ;
  sh:sparql opredict:Constraint_Q .
opredict:Constraint_Q rdf:type sh:SPARQLConstraint ;
  sh:select "SELECT ?x WHERE { ?x UNION }" .
"""
    g = parse_turtle(_mini_workflow_ttl(extra)).freeze()
    view = load_workflow(g, OP.Plan_Tiny)
    assert OP.Shape_Q in view.shapes
    codes = {v.code for v in validate(view)}
    assert "E_SHAPE_SPARQL" in codes


def test_shape_with_too_deeply_nested_query_flagged():
    select = "SELECT ?x WHERE { ?x ?p ?o " + "OPTIONAL { ?x ?p ?o " * 199 + "}" * 200
    extra = f"""
opredict:Plan_Instruction_One prov:qualifiedUsage opredict:Usage_Q .
opredict:Usage_Q rdf:type prov:Usage ;
  prov:entity opredict:Variable_V , opredict:Dist_V .
opredict:Variable_V rdf:type p-plan:Variable .
opredict:Step_One p-plan:hasOutputVar opredict:Variable_V .
opredict:Shape_Q rdf:type sh:NodeShape ;
  sh:targetClass opredict:Usage_Q ;
  sh:sparql opredict:Constraint_Q .
opredict:Constraint_Q rdf:type sh:SPARQLConstraint ;
  sh:select "{select}" .
"""
    g = parse_turtle(_mini_workflow_ttl(extra)).freeze()
    view = load_workflow(g, OP.Plan_Tiny)
    (violation,) = [v for v in validate(view) if v.code == "E_SHAPE_SPARQL"]
    assert "nested deeper than" in violation.detail


# -- one case per violation --------------------------------------------------
# Each case changes the valid tiny workflow in one way: Turtle appended to
# it, an (old, new) edit of its text, or an edit of the loaded view for
# what load_workflow never builds. It lists every violation the change
# causes, as (code, subject, detail).

_USAGE = """
opredict:Plan_Instruction_One prov:qualifiedUsage opredict:Usage_U .
opredict:Usage_U rdf:type prov:Usage ;
  prov:entity opredict:Variable_V{more} .
opredict:Variable_V rdf:type p-plan:Variable .
"""
_SHAPE = _USAGE.format(more=" , opredict:Dist_V") + """
opredict:Dist_V rdf:type dcat:Distribution ;
  dcat:downloadURL "https://example.org/v.csv" .
opredict:Shape_Q rdf:type sh:NodeShape ;
  sh:targetClass opredict:Usage_U ;
  sh:sparql opredict:Constraint_Q .
opredict:Constraint_Q rdf:type sh:SPARQLConstraint ;
  sh:select "SELECT ?x WHERE { ?x UNION }" .
"""
_INSTR = OP.Plan_Instruction_One

VALIDATE_CASES = {
    "version-empty": (
        ('dc:hasVersion "1.0" ;', ""),
        [("E_VERSION_EMPTY", OP.Plan_Tiny, "dc:hasVersion missing")]),
    # An empty first literal is no version, whatever follows it.
    "version-empty-string": (
        ('dc:hasVersion "1.0"', 'dc:hasVersion ""'),
        [("E_VERSION_EMPTY", OP.Plan_Tiny, "dc:hasVersion missing")]),
    "version-empty-string-first": (
        ('dc:hasVersion "1.0"', 'dc:hasVersion "" , "1.0"'),
        [("E_VERSION_EMPTY", OP.Plan_Tiny, "dc:hasVersion missing")]),
    "no-first-step": (
        ("pwo:hasFirstStep opredict:Step_One ;", ""),
        [("E_NO_FIRST_STEP", OP.Plan_Tiny, "pwo:hasFirstStep missing")]),
    "first-step-dangling": (
        ("pwo:hasFirstStep opredict:Step_One", "pwo:hasFirstStep opredict:Step_Ghost"),
        [("E_DANGLING_REF", OP.Plan_Tiny,
          f"first step {OP.Step_Ghost} is not a loaded step")]),
    "revision-missing": (
        "opredict:Plan_Tiny prov:wasRevisionOf opredict:Plan_Gone .\n",
        [("E_REVISION_MISSING", OP.Plan_Tiny,
          f"prov:wasRevisionOf target {OP.Plan_Gone} not found")]),
    "step-kind-both": (
        "opredict:Step_One rdf:type bpmn:ScriptTask .\n",
        [("E_STEP_KIND_BOTH", OP.Step_One,
          "typed both bpmn:ManualTask and bpmn:ScriptTask")]),
    "step-kind-none": (
        ("rdf:type bpmn:ManualTask , p-plan:Step", "rdf:type p-plan:Step"),
        [("E_STEP_KIND_NONE", OP.Step_One,
          "typed neither bpmn:ManualTask nor bpmn:ScriptTask")]),
    "step-no-instruction": (
        ("dul:isDescribedBy opredict:Plan_Instruction_One ;", ""),
        [("E_STEP_NO_INSTR", OP.Step_One,
          "step has no dul:isDescribedBy instruction")]),
    "step-two-instructions": (
        "opredict:Step_One dul:isDescribedBy opredict:Plan_Other .\n",
        [("E_STEP_MULTI_INSTR", OP.Step_One, "step has 2 instructions")]),
    # The step keeps the least IRI, the valid instruction; in canonical
    # (N-Triples) order "<…One-b>" would come first.
    "step-two-instructions-least-kept": (
        f"opredict:Step_One dul:isDescribedBy <{_INSTR}-b> .\n",
        [("E_STEP_MULTI_INSTR", OP.Step_One, "step has 2 instructions")]),
    "instruction-not-loaded": (
        lambda view: view.instructions.clear(),
        [("E_DANGLING_REF", OP.Step_One, f"instruction {_INSTR} not loaded")]),
    "precedes-dangling": (
        "opredict:Step_One dul:precedes opredict:Step_Ghost .\n",
        [("E_DANGLING_REF", OP.Step_One,
          f"precedes target {OP.Step_Ghost} not a step")]),
    "precedes-cross-plan": (
        """
opredict:Step_Two rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_Instruction_One ;
  dul:isDescribedBy opredict:Plan_Instruction_One .
opredict:Step_One dul:precedes opredict:Step_Two .
""",
        [("E_PRECEDES_CROSS_PLAN", OP.Step_One,
          f"precedes {OP.Step_Two} in another plan")]),
    "variable-dangling": (
        "opredict:Step_One p-plan:hasInputVar opredict:Variable_Ghost .\n",
        [("E_DANGLING_REF", OP.Step_One,
          f"variable {OP.Variable_Ghost} not loaded")]),
    "precedes-cycle": (
        """
opredict:Step_Two rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_Tiny ;
  dul:isDescribedBy opredict:Plan_Instruction_One ;
  dul:precedes opredict:Step_One .
opredict:Step_One dul:precedes opredict:Step_Two .
""",
        [("E_PRECEDES_CYCLE", OP.Plan_Tiny,
          f"dul:precedes cycle through {OP.Step_One}")]),
    "instruction-two-languages": (
        f"<{_INSTR}> dc:language opredict:LinguisticSystem_Python_3_5 .\n",
        [("E_INSTR_LANG", _INSTR, "instruction has 2 languages")]),
    # A self-reference is reported once, not also as a cycle.
    "described-by-self": (
        f"<{_INSTR}> dul:isDescribedBy <{_INSTR}> .\n",
        [("E_DESCRIBEDBY_SELF", _INSTR, "dul:isDescribedBy is self-referential")]),
    "described-by-cycle": (
        f"""<{_INSTR}> dul:isDescribedBy opredict:Plan_Spec .
opredict:Plan_Spec rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_English ;
  dul:isDescribedBy <{_INSTR}> .
""",
        [("E_DESCRIBEDBY_CYCLE", _INSTR, "dul:isDescribedBy chain has a cycle"),
         ("E_DESCRIBEDBY_CYCLE", OP.Plan_Spec,
          "dul:isDescribedBy chain has a cycle")]),
    # load_workflow reads only referenced variables.
    "variable-orphan": (
        lambda view: view.variables.update(
            {OP.Variable_Orphan: VariableDef(OP.Variable_Orphan)}),
        [("E_VARIABLE_ORPHAN", OP.Variable_Orphan,
          "variable referenced by no step or usage")]),
    "usage-one-entity": (
        _USAGE.format(more=""),
        [("E_USAGE_TOO_FEW", OP.Usage_U,
          "usage binding needs at least two entities")]),
    "distribution-no-url": (
        _USAGE.format(more=" , opredict:Dist_V")
        + "opredict:Dist_V rdf:type dcat:Distribution .\n",
        [("E_DIST_URL", OP.Dist_V, "distribution has 0 dcat:downloadURL values")]),
    # Two usages list the distribution; it is read, and reported, once.
    "distribution-no-url-two-usages": (
        _USAGE.format(more=" , opredict:Dist_V")
        + "opredict:Plan_Instruction_One prov:qualifiedUsage opredict:Usage_W .\n"
        "opredict:Usage_W rdf:type prov:Usage ;\n"
        "  prov:entity opredict:Variable_V , opredict:Dist_V .\n"
        "opredict:Dist_V rdf:type dcat:Distribution .\n",
        [("E_DIST_URL", OP.Dist_V, "distribution has 0 dcat:downloadURL values")]),
    # An empty URL is no URL: emit_triples writes no empty value.
    "distribution-empty-url": (
        _USAGE.format(more=" , opredict:Dist_V")
        + 'opredict:Dist_V rdf:type dcat:Distribution ; dcat:downloadURL "" .\n',
        [("E_DIST_URL", OP.Dist_V, "distribution has 0 dcat:downloadURL values")]),
    "distribution-two-literal-urls": (
        _USAGE.format(more=" , opredict:Dist_V")
        + "opredict:Dist_V rdf:type dcat:Distribution ;\n"
        '  dcat:downloadURL "https://example.org/a.csv" ,\n'
        '    "https://example.org/b.csv" , <https://example.org/c.csv> .\n',
        [("E_DIST_URL", OP.Dist_V, "distribution has 2 dcat:downloadURL values")]),
    "association-incomplete": (
        "opredict:Assoc_A rdf:type prov:Association ;\n"
        "  prov:hadPlan opredict:Plan_Tiny .\n",
        [("E_ASSOC_INCOMPLETE", OP.Assoc_A,
          "association needs agent, role and plans")]),
    "shape-sparql": (
        _SHAPE,
        [("E_SHAPE_SPARQL", OP.Shape_Q,
          "line 1, column 22: expected predicate term, found WORD")]),
}


def _violations(mutation) -> list[tuple[str, str, str]]:
    text = _mini_workflow_ttl()
    if isinstance(mutation, str):
        text += mutation
    elif isinstance(mutation, tuple):
        old, new = mutation
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    view = load_workflow(parse_turtle(text).freeze(), OP.Plan_Tiny)
    if callable(mutation):
        mutation(view)
    return [(v.code, v.subject, v.detail) for v in validate(view)]


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_one_change_gives_exactly_its_violations(case):
    mutation, expected = VALIDATE_CASES[case]
    assert _violations(mutation) == expected


def test_an_empty_download_url_reports_alike_after_a_round_trip():
    text = _mini_workflow_ttl(VALIDATE_CASES["distribution-empty-url"][0])
    view = load_workflow(parse_turtle(text).freeze(), OP.Plan_Tiny)
    again = load_workflow(emit_triples(view).freeze(), OP.Plan_Tiny)
    assert again == view
    assert validate(again) == validate(view) != []


def test_every_violation_code_in_the_workflow_module_has_a_case():
    # A new profile check must come with a case in VALIDATE_CASES: those
    # written as Violation(...) and the count rules on the _FIELDS rows.
    codes = set(re.findall(r'Violation\(\s*"(E_\w+)"',
                           inspect.getsource(workflow)))
    codes |= {code for rows in _FIELDS.values() for _, _, _, rules in rows
              for _, _, code, _ in rules}
    produced = {code for mutation, _ in VALIDATE_CASES.values()
                for code, _, _ in _violations(mutation)}
    assert {"E_DIST_URL", "E_SHAPE_SPARQL"} <= codes  # a rule code and a written one
    assert codes - produced == set()


# The sorted validate output of every workflow head in 100 mutated
# fixtures; the mutations are seeded, so this is one fixed digest.
MUTATION_DIGEST = "75a8ce88dd76485869545c775b123ca7e6740936a21715180d43dde7ced12d16"
COUNT_CODES = {"E_VERSION_EMPTY", "E_NO_FIRST_STEP", "E_STEP_NO_INSTR",
               "E_STEP_MULTI_INSTR", "E_INSTR_LANG", "E_USAGE_TOO_FEW",
               "E_DIST_URL", "E_ASSOC_INCOMPLETE"}


def test_validate_output_under_fixture_mutations_is_pinned(fixture_graph):
    triples = fixture_graph.match(None, None, None)
    digest, codes = hashlib.sha256(), set()
    # Seeds 30-129: a window in which 14 codes, all eight count codes among
    # them, show up.
    for seed in range(30, 130):
        g = mutated(triples, random.Random(seed)).freeze()
        for wf in workflow_iris(g):
            found = validate(load_workflow(g, wf))
            codes |= {v.code for v in found}
            digest.update("\n".join([wf, *sorted(map(str, found)), "\n"]).encode())
    assert COUNT_CODES < codes and len(codes) == 14
    assert digest.hexdigest() == MUTATION_DIGEST


# -- step ordering -----------------------------------------------------------

def test_step_order_on_fixture_spine(fixture_graph):
    view = load_workflow(fixture_graph, V01)
    order = step_order(view)
    assert len(order) == 42
    assert order[0] == OP.Step_Prepare_Input_Data_Files
    position = {step: n for n, step in enumerate(order)}
    for step_id in order:
        for target in view.steps[step_id].precedes:
            assert position[step_id] < position[target]


def test_step_order_ties_break_lexicographically():
    text = prefixes_turtle() + """
opredict:Plan_Par rdf:type p-plan:Plan , dul:Workflow ;
  dc:hasVersion "1.0" ; pwo:hasFirstStep opredict:Step_Root .
opredict:Step_Root rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_Par ;
  dul:isDescribedBy opredict:Plan_I ;
  dul:precedes opredict:Step_Zeta , opredict:Step_Alpha .
opredict:Step_Zeta rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_Par ;
  dul:isDescribedBy opredict:Plan_I .
opredict:Step_Alpha rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_Par ;
  dul:isDescribedBy opredict:Plan_I .
opredict:Plan_I rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_English .
"""
    g = parse_turtle(text).freeze()
    view = load_workflow(g, OP.Plan_Par)
    order = step_order(view)
    assert order == [OP.Step_Root, OP.Step_Alpha, OP.Step_Zeta]


def test_step_order_respects_random_dags():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(2, 12)
        steps = {}
        edges = set()
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.3:
                    edges.add((a, b))
        for k in range(n):
            precedes = frozenset(OP[f"Step_R{b:02d}"] for (a, b) in edges if a == k)
            steps[OP[f"Step_R{k:02d}"]] = StepDef(
                iri=OP[f"Step_R{k:02d}"], plan=OP.Plan_Rand, kind=MANUAL,
                instruction=OP.Plan_I, precedes=precedes)
        view = WorkflowView(
            workflow=WorkflowDef(iri=OP.Plan_Rand, version="1",
                                 first_step=OP.Step_R00),
            steps=steps,
            instructions={OP.Plan_I: Instruction(OP.Plan_I,
                                                 (LANGUAGE_ENGLISH,))})
        order = step_order(view)
        position = {s: i for i, s in enumerate(order)}
        for a, b in edges:
            assert position[OP[f"Step_R{a:02d}"]] < position[OP[f"Step_R{b:02d}"]]


# -- emission ----------------------------------------------------------------

def _drugbank_fragment_view() -> WorkflowView:
    language = OP.LinguisticSystem_xsd_language_English
    usage = OP.Usage_Fetch_download_Drugbank_dataset_to_variable
    view = WorkflowView(
        workflow=WorkflowDef(iri=OP.Plan_Fragment_Holder, version="0.1"),
        steps={OP.Step_Download_Drugbank_dataset: StepDef(
            iri=OP.Step_Download_Drugbank_dataset,
            plan=OP.Plan_Main_Protocol_v01,
            kind=MANUAL,
            instruction=OP.Plan_Download_Drugbank_dataset,
            precedes=frozenset({OP.Step_Save_Drugbank_dataset}),
            output_vars=frozenset({OP.Variable_Drugbank_dataset_online}),
            operation_class=EDAM.operation_2409,
            label="Download Drugbank dataset")},
        instructions={OP.Plan_Download_Drugbank_dataset: Instruction(
            iri=OP.Plan_Download_Drugbank_dataset,
            language=(language,),
            description="Download Drugbank dataset",
            label="Download Drugbank dataset",
            qualified_usages=frozenset({usage}))},
        variables={OP.Variable_Drugbank_dataset_online: VariableDef(
            iri=OP.Variable_Drugbank_dataset_online,
            label="Drugbank dataset online")},
        usages={usage: UsageBinding(
            iri=usage,
            entities=frozenset({
                OP["Distribution_release-4-drugbank-drugbank.nq.gz"],
                OP.Variable_Drugbank_dataset_online}),
            label="Link variable to download Drugbank dataset")},
        distributions={OP["Distribution_release-4-drugbank-drugbank.nq.gz"]:
                       DistributionDef(
            iri=OP["Distribution_release-4-drugbank-drugbank.nq.gz"],
            download_url="http://download.bio2rdf.org/files/release/4/"
                         "drugbank/drugbank.nq.gz",
            media_type=OP.DataFormat_nq_compressed_gz,
            label="release/4/drugbank/drugbank.nq.gz")},
    )
    return view


def _subgraph_by_subjects(g: Graph, subjects: set[str]) -> Graph:
    out = Graph()
    for t in g.match():
        if isinstance(t.s, IRI) and t.s.value in subjects:
            out.add(t)
    return out


def test_emitted_drugbank_fragment_matches_listing():
    listing = parse_turtle(load_listing("prospective.ttl"))
    emitted = emit_triples(_drugbank_fragment_view())
    fragment_subjects = {
        OP.Step_Download_Drugbank_dataset,
        OP.Plan_Download_Drugbank_dataset,
        OP.Usage_Fetch_download_Drugbank_dataset_to_variable,
        OP["Distribution_release-4-drugbank-drugbank.nq.gz"],
        OP.Variable_Drugbank_dataset_online,
    }
    assert isomorphic(_subgraph_by_subjects(emitted, fragment_subjects), listing)


def test_load_emit_roundtrip_on_fixture(fixture_graph):
    views = {wf: load_workflow(fixture_graph, wf) for wf in (V01, V02)}
    combined = emit_triples(views[V01])
    combined.add_all(emit_triples(views[V02]))
    combined.freeze()
    for wf in (V01, V02):
        again = load_workflow(combined, wf)
        assert again == views[wf]
        assert validate(again) == []


def test_emitted_graph_is_subset_of_fixture(fixture_graph):
    view = load_workflow(fixture_graph, V01)
    for t in emit_triples(view):
        assert t in fixture_graph


def _every_field_view() -> WorkflowView:
    """A view in which every field of every record class is set somewhere."""
    wf, step_a, step_b, cell = (OP.Plan_Full, OP.Step_Full_A, OP.Step_Full_B,
                                OP.Step_Full_Cell)
    instr_a, instr_b, instr_cell, spec = (OP.Plan_Full_A, OP.Plan_Full_B,
                                          OP.Plan_Full_Cell, OP.Plan_Full_Spec)
    var, usage, dist, ds = (OP.Variable_Full, OP.Usage_Full, OP.Distribution_Full,
                            OP.Dataset_Full)
    person, tool, assoc, shape = (OP.Agent_Full, OP.Agent_Full_Tool,
                                  OP.Association_Full, OP.Shape_Full)
    return WorkflowView(
        workflow=WorkflowDef(
            iri=wf, version="1.0", created="2020-01-01", modified="2020-02-01",
            creator=person, attributed_to=tool, first_step=step_a, label="Full",
            description="Every field set", language=LANGUAGE_ENGLISH,
            license=OP.License_Full, revision_of=OP.Plan_Full_Old),
        steps={
            step_a: StepDef(
                iri=step_a, plan=wf, kind=MANUAL, instruction=instr_a,
                precedes=frozenset({step_b}), input_vars=frozenset({var}),
                output_vars=frozenset({OP.Variable_Full_Out}),
                operation_class=EDAM.operation_2409, label="Step A"),
            step_b: StepDef(iri=step_b, plan=wf, kind=SCRIPT, instruction=instr_b),
            cell: StepDef(iri=cell, plan=instr_b, kind=SCRIPT,
                          instruction=instr_cell),
        },
        instructions={
            instr_a: Instruction(instr_a, (LANGUAGE_ENGLISH,)),
            instr_b: Instruction(
                iri=instr_b, language=tuple(sorted((LANGUAGE_PYTHON_3_5,
                                                    LANGUAGE_ENGLISH))),
                description="Instruction B", label="B", version="2",
                described_by=spec, revision_of=OP.Plan_Full_B_Old,
                qualified_usages=frozenset({usage}), first_step=cell,
                extra_types=frozenset({OP.Notebook})),
            instr_cell: Instruction(instr_cell, (LANGUAGE_PYTHON_3_5,)),
            spec: Instruction(spec, (LANGUAGE_ENGLISH,), description="Spec"),
        },
        variables={var: VariableDef(var, "Input"),
                   OP.Variable_Full_Out: VariableDef(OP.Variable_Full_Out)},
        usages={usage: UsageBinding(usage, frozenset({var, dist}), "Bind")},
        distributions={dist: DistributionDef(
            dist, "https://example.org/data.csv", OP.Format_csv, "data.csv")},
        datasets={ds: DatasetRecord(ds, frozenset({dist}), "Data", "A dataset",
                                    OP.License_Full)},
        agents={person: AgentDef(person, "Person"),
                tool: AgentDef(tool, "Tool", software=True, version="5.7")},
        associations={assoc: AgentAssociation(
            assoc, tool, OP.Role_Full, frozenset({wf, instr_b}), "Runs")},
        shapes={shape: QueryShape(shape, OP.Constraint_Full,
                                  "SELECT ?s WHERE { ?s ?p ?o }", usage)},
    )


def _every_field_trace() -> tuple[Graph, ActivityRecord, list[ArtifactRecord]]:
    """One traced activity in which every field of both trace records is
    set: two associations, and an evaluation and a generic artifact that
    share one generation. The graph holds the step."""
    g = Graph()
    g.add(Triple(IRI(OP.Step_Full_A), IRI(RDF.type), IRI(PPLAN.Step)))
    tracer = Tracer(g)
    activity = tracer.begin_activity(OP.Step_Full_A, OP.Agent_Full, OP.Role_Full,
                                     1546302862)
    tracer.associate(activity, OP.Agent_Full_Tool, OP.Role_Full_Tool)
    tracer.end_activity(activity, 1546302900)
    artifacts = [tracer.record_evaluation(activity, MEASURES["f1"], "0.9",
                                          1546302899),
                 tracer.record_artifact(activity, "model.bin", 1546302899)]
    tracer.emit(g)
    return g, activity, sorted(artifacts, key=lambda a: a.iri)


def _set_fields(*records) -> dict[type, set[str]]:
    """The names of the fields each record class has set in ``records``."""
    out: dict[type, set[str]] = {}
    for record in records:
        out.setdefault(type(record), set()).update(
            name for name in record._fields if getattr(record, name))
    return out


def test_load_emit_roundtrip_with_every_field_set():
    view = _every_field_view()
    _, activity, artifacts = _every_field_trace()
    set_fields = _set_fields(
        view.workflow, *view.steps.values(), *view.instructions.values(),
        *view.variables.values(), *view.usages.values(),
        *view.distributions.values(), *view.datasets.values(),
        *view.agents.values(), *view.associations.values(),
        *view.shapes.values(), activity, *artifacts)
    assert set(set_fields) == set(_FIELDS)
    for cls, names in set_fields.items():
        assert names == set(cls._fields), cls
    assert load_workflow(emit_triples(view).freeze(), OP.Plan_Full) == view
    # A literal sorts before an IRI: an IRI field still reads the IRI beside it.
    iri_rows = {predicate for rows in _FIELDS.values()
                for _, predicate, encoding, _ in rows
                if encoding in (_IRI, _IRI_OR_NONE)}
    noisy = emit_triples(view)
    for t in noisy.match(None, None, None):
        if t.p.value in iri_rows and isinstance(t.o, IRI):
            noisy.add(Triple(t.s, t.p, lit("Alice")))
    assert load_workflow(noisy.freeze(), OP.Plan_Full) == view


def test_trace_load_emit_roundtrip_with_every_field_set():
    g, activity, artifacts = _every_field_trace()
    assert len(activity.associations) == 2
    assert artifacts[0].generation_iri == artifacts[1].generation_iri
    assert load_activity(g.freeze(), activity.iri) == (activity, artifacts)


# Fields that are not one predicate's objects: derived from rdf:type, set
# by the walk, read from the shape's constraint node or the artifact's
# generation node, read through association records, or the activity an
# artifact hangs off.
HAND_WRITTEN = {
    StepDef: {"plan", "kind", "operation_class"},
    Instruction: {"extra_types"},
    AgentDef: {"software"},
    QueryShape: {"sparql_text"},
    ActivityRecord: {"associations"},
    ArtifactRecord: {"activity", "kind", "generated_at"},
}


def test_every_record_field_is_a_table_row_or_hand_written():
    assert set(_FIELDS) == {
        WorkflowDef, StepDef, Instruction, VariableDef, UsageBinding,
        DistributionDef, DatasetRecord, AgentDef, AgentAssociation, QueryShape,
        ActivityRecord, ArtifactRecord}
    for cls, rows in _FIELDS.items():
        mapped = [name for name, _, _, _ in rows]
        hand_written = HAND_WRITTEN.get(cls, set())
        assert len(mapped) == len(set(mapped)) and not hand_written & set(mapped)
        assert set(mapped) | hand_written | {"iri"} == set(cls._fields)
