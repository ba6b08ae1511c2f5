import json

import pytest

from plexflow.fixture import V01, V02
from plexflow.turtle import parse_turtle
from plexflow.versiondiff import diff, used_instructions
from plexflow.vocab import OPREDICT as OP, prefixes_turtle
from plexflow.workflow import WorkflowError


def _toy(extra: str = "") -> str:
    return prefixes_turtle() + """
opredict:Plan_A rdf:type p-plan:Plan , dul:Workflow ;
  dc:hasVersion "1" ; pwo:hasFirstStep opredict:Step_A1 .
opredict:Plan_B rdf:type p-plan:Plan , dul:Workflow ;
  dc:hasVersion "2" ; pwo:hasFirstStep opredict:Step_B1 ;
  prov:wasRevisionOf opredict:Plan_A .

opredict:Step_A1 rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_A ;
  dul:isDescribedBy opredict:Plan_I_kept .
opredict:Step_A2 rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_A ;
  dul:isDescribedBy opredict:Plan_I_gone .
opredict:Step_A3 rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_A ;
  dul:isDescribedBy opredict:Plan_I_old .

opredict:Step_B1 rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_B ;
  dul:isDescribedBy opredict:Plan_I_kept .
opredict:Step_B2 rdf:type bpmn:ScriptTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_B ;
  dul:isDescribedBy opredict:Plan_I_new .
opredict:Step_B3 rdf:type bpmn:ScriptTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_B ;
  dul:isDescribedBy opredict:Plan_I_fresh .

opredict:Plan_I_kept rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_English .
opredict:Plan_I_gone rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_English .
opredict:Plan_I_old rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_English .
opredict:Plan_I_new rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_Python_3_5 ;
  prov:wasRevisionOf opredict:Plan_I_old .
opredict:Plan_I_fresh rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_Python_3_5 .
""" + extra


def test_toy_one_of_each():
    g = parse_turtle(_toy()).freeze()
    report = diff(g, OP.Plan_A, OP.Plan_B)
    assert report.removed_instructions == {OP.Plan_I_gone}
    assert report.changed_instructions == {(OP.Plan_I_old, OP.Plan_I_new)}
    assert report.added_instructions == {OP.Plan_I_fresh}


def test_toy_automatized_pair():
    g = parse_turtle(_toy()).freeze()
    pairs = diff(g, OP.Plan_A, OP.Plan_B).automatized_steps
    assert pairs == {(OP.Step_A3, OP.Step_B2)}


def test_manual_to_manual_revision_not_automatized():
    extra = """
opredict:Step_B4 rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_B ;
  dul:isDescribedBy opredict:Plan_I_manual2 .
opredict:Plan_I_manual2 rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_English ;
  prov:wasRevisionOf opredict:Plan_I_gone .
"""
    report = diff(parse_turtle(_toy(extra)).freeze(), OP.Plan_A, OP.Plan_B)
    assert report.automatized_steps == {(OP.Step_A3, OP.Step_B2)}
    # ... but the revision does count as changed, not removed.
    assert (OP.Plan_I_gone, OP.Plan_I_manual2) in report.changed_instructions
    assert OP.Plan_I_gone not in report.removed_instructions


def test_identity_diff_is_empty(fixture_graph):
    for wf in (V01, V02):
        report = diff(fixture_graph, wf, wf)
        assert not report.removed_instructions
        assert not report.added_instructions
        assert not report.removed_datasets
        assert not report.added_datasets
        # Self-revision pairs cannot exist: changed requires old in A and
        # new in B, linked by prov:wasRevisionOf between distinct IRIs.
        assert all(old != new for old, new in report.changed_instructions)


def test_unknown_workflow_rejected(fixture_graph):
    with pytest.raises(WorkflowError):
        diff(fixture_graph, OP.Plan_Nope, V02)


def test_fixture_counts(fixture_graph):
    report = diff(fixture_graph, V01, V02)
    assert len(report.removed_instructions) == 47
    assert len(report.changed_instructions) == 3
    assert len(report.added_instructions) == 7
    assert len(report.automatized_steps) == 3
    assert len(report.removed_datasets) == 0
    assert len(report.changed_datasets) == 0
    assert len(report.added_datasets) == 2
    assert report.added_datasets == {
        OP["Distribution_gold_standard_drug_indications_msb201126-s4.xls"],
        OP["Distribution_mesh_annotation_mim2mesh.tsv"],
    }


def test_used_partition_identity(fixture_graph):
    used_a = set(used_instructions(fixture_graph, V01))
    used_b = set(used_instructions(fixture_graph, V02))
    report = diff(fixture_graph, V01, V02)
    olds = {old for old, _ in report.changed_instructions}
    news = {new for _, new in report.changed_instructions}
    reused = used_a & used_b
    assert len(used_a) == (len(report.removed_instructions)
                           + len(olds) + len(reused))
    assert len(used_b) == (len(report.added_instructions)
                           + len(news) + len(reused))
    assert len(reused) == 8


def test_automatized_is_projection_of_changed(fixture_graph):
    report = diff(fixture_graph, V01, V02)
    changed_olds = {old for old, _ in report.changed_instructions}
    g = fixture_graph
    used_a = used_instructions(g, V01)
    for old_step, new_step in report.automatized_steps:
        instr = [i for i, ctx in used_a.items()
                 if any(s == old_step for s, _ in ctx)]
        assert set(instr) & changed_olds


def test_dataset_reachability(fixture_graph):
    # A workflow without steps reaches nothing, so every distribution a
    # version reaches is removed going to it and added coming from it.
    g = fixture_graph.copy()
    g.add_all(parse_turtle(prefixes_turtle() + """
opredict:Plan_Empty rdf:type p-plan:Plan , dul:Workflow .
"""))
    assert len(diff(g, V01, OP.Plan_Empty).removed_datasets) == 5
    assert len(diff(g, OP.Plan_Empty, V02).added_datasets) == 7


def test_changed_dataset_via_revision_link():
    extra = """
opredict:Plan_I_gone prov:qualifiedUsage opredict:Usage_A .
opredict:Usage_A rdf:type prov:Usage ;
  prov:entity opredict:Dist_old ; prov:entity opredict:Variable_X .
opredict:Plan_I_fresh prov:qualifiedUsage opredict:Usage_B .
opredict:Usage_B rdf:type prov:Usage ;
  prov:entity opredict:Dist_new ; prov:entity opredict:Variable_X .
opredict:Dist_old rdf:type dcat:Distribution ;
  dcat:downloadURL "http://example.org/old.csv" .
opredict:Dist_new rdf:type dcat:Distribution ;
  dcat:downloadURL "http://example.org/new.csv" ;
  prov:wasRevisionOf opredict:Dist_old .
opredict:Variable_X rdf:type p-plan:Variable .
"""
    g = parse_turtle(_toy(extra)).freeze()
    report = diff(g, OP.Plan_A, OP.Plan_B)
    assert report.changed_datasets == {(OP.Dist_old, OP.Dist_new)}
    assert not report.removed_datasets
    assert not report.added_datasets


def test_report_json_is_deterministic(fixture_graph):
    a = diff(fixture_graph, V01, V02).to_json()
    b = diff(fixture_graph, V01, V02).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["removed_instructions"] == sorted(payload["removed_instructions"])
    assert len(payload["added_datasets"]) == 2
