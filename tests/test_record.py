"""Value semantics of the slotted record classes (``plexflow.record``)."""

import pytest

from plexflow.fairaudit import AuditRule, RuleResult
from plexflow.query import (
    Group, Minus, OptionalGroup, OrderKey, SelectQuery, TriplePattern, Var,
)
from plexflow.rdf import IRI, Literal, Triple, iri
from plexflow.workflow import StepDef, Violation, WorkflowDef, WorkflowView


def test_equality_is_per_class():
    group = Group([TriplePattern(Var("s"), iri("urn:p"), Var("o"))])
    assert Minus(group) == Minus(group)
    assert Minus(group) != OptionalGroup(group)
    assert OptionalGroup(group) != Minus(group)
    assert Var("x") != "x" and IRI("urn:x") != Var("x")


def test_frozen_records_refuse_assignment():
    for record, name in ((Violation("E_X", "urn:s"), "detail"),
                         (Var("x"), "name"), (OrderKey(Var("x")), "descending"),
                         (IRI("urn:x"), "value"), (Literal("x"), "lang"),
                         (Triple(iri("urn:s"), iri("urn:p"), iri("urn:o")), "o"),
                         (AuditRule("F1", "d", "s", "error"), "severity")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_mutable_records_are_unhashable():
    for record in (Group(), StepDef("urn:s", "urn:w", "manual", "urn:i"),
                   WorkflowView(WorkflowDef("urn:w")),
                   SelectQuery({}, None, False, Group())):
        with pytest.raises(TypeError):
            hash(record)


def test_frozen_records_hash_as_their_field_tuple():
    violation = Violation("E_DIST_URL", "urn:d", "distribution has 0 values")
    assert hash(violation) == hash(("E_DIST_URL", "urn:d", "distribution has 0 values"))
    assert {violation: None} == {Violation("E_DIST_URL", "urn:d",
                                           "distribution has 0 values"): None}
    rule = AuditRule("F1", "d", "s", "error")
    assert hash(RuleResult(rule, "pass")) == hash((rule, "pass", (), ""))


def test_workflow_view_equality_ignores_load_time_state():
    one = WorkflowView(WorkflowDef("urn:w"), anomalies=[Violation("E_X", "urn:w")],
                       revision_target_present=False)
    other = WorkflowView(WorkflowDef("urn:w"), revision_target_present=True)
    assert one == other
    other.steps["urn:s"] = StepDef("urn:s", "urn:w", "manual", "urn:i")
    assert one != other


def test_default_containers_are_fresh_per_instance():
    first, second = Group(), Group()
    first.elements.append(TriplePattern(Var("s"), iri("urn:p"), Var("o")))
    assert second.elements == []
    first = SelectQuery({}, None, False, Group())
    first.order_by.append(OrderKey(Var("s")))
    assert SelectQuery({}, None, False, Group()).order_by == []
    first, second = WorkflowView(WorkflowDef("urn:w")), WorkflowView(WorkflowDef("urn:w"))
    first.steps["urn:s"] = StepDef("urn:s", "urn:w", "manual", "urn:i")
    first.anomalies.append(Violation("E_X", "urn:w"))
    assert second.steps == {} and second.anomalies == []


def test_repr_names_the_class_and_every_field():
    assert repr(Group()) == "Group(elements=[])"
    assert repr(Violation("E_X", "urn:s")) == "Violation(code='E_X', subject='urn:s', detail='')"
    assert repr(WorkflowView(WorkflowDef("urn:w"))).endswith(
        "shapes={}, anomalies=[], revision_target_present=None)")
