import pytest

from plexflow.fixture import (
    MEASURES, MODEL_TRAINING_STEP_V01, REFERENCE_ACTIVITY, REFERENCE_ACCURACY,
)
from plexflow.rdf import Graph, IRI, Triple, lit
from plexflow.trace import (
    GENERIC_ARTIFACT, MODEL_EVALUATION, TraceError, Tracer, UnknownStepError,
    iso_millis, load_activity, load_trace,
)
from plexflow.turtle import parse_turtle
from plexflow.vocab import OPREDICT as OP, PPLAN, PROV, RDF

from conftest import load_listing

AGENT = OP.Agent_Tester
ROLE = OP.Role_Executor


def _step_graph() -> Graph:
    g = Graph()
    g.add(Triple(IRI(OP.Step_Train), IRI(RDF.type), IRI(PPLAN.Step)))
    return g


def test_begin_activity_requires_known_step():
    tracer = Tracer(_step_graph())
    record = tracer.begin_activity(OP.Step_Train, AGENT, ROLE, 1546302862)
    assert record.step == OP.Step_Train
    assert record.iri.endswith("_Execution_1546302862")
    with pytest.raises(UnknownStepError):
        tracer.begin_activity(OP.Step_Ghost, AGENT, ROLE, 1546302862)


def test_same_step_twice_gets_distinct_activities():
    tracer = Tracer(_step_graph())
    a1 = tracer.begin_activity(OP.Step_Train, AGENT, ROLE, 1546302862)
    a2 = tracer.begin_activity(OP.Step_Train, AGENT, ROLE, 1546302862)
    a3 = tracer.begin_activity(OP.Step_Train, AGENT, ROLE, 1546309999)
    assert len({a1.iri, a2.iri, a3.iri}) == 3
    assert a2.iri.endswith("_2")  # same-second collision counter


def test_minted_iris_take_the_least_free_counter():
    tracer = Tracer(_step_graph())
    at = 1546302862
    a1, a2, a3 = (tracer.begin_activity(OP.Step_Train, AGENT, ROLE, at)
                  for _ in range(3))
    stem = f"{OP.base}Activity_Train_Execution_{at}"
    assert [a1.iri, a2.iri, a3.iri] == [stem, f"{stem}_2", f"{stem}_3"]
    with pytest.raises(TraceError, match="already used"):
        tracer.begin_activity(OP.Step_Train, AGENT, ROLE, at, iri=a2.iri)
    # a2's own generation takes the bare "<at>_2" stem, so a second
    # instant of a1 has to step over it to "_3".
    first = tracer.record_artifact(a1, "x", at)
    second = tracer.record_artifact(a2, "y", at)
    later = tracer.record_artifact(a1, "z", at + 1)
    again = tracer.record_artifact(a1, "w", at)
    generation = f"{OP.base}Generation_Execution_{at}"
    assert [first.generation_iri, second.generation_iri,
            later.generation_iri] == [generation, f"{generation}_2",
                                      f"{generation}_3"]
    assert again.generation_iri == first.generation_iri


def test_record_evaluation_requires_measure():
    tracer = Tracer(_step_graph())
    activity = tracer.begin_activity(OP.Step_Train, AGENT, ROLE, 1546302862)
    with pytest.raises(TraceError):
        tracer.record_evaluation(activity, "", "0.9", 1546302900)
    artifact = tracer.record_evaluation(
        activity, MEASURES["f1"], "1.0", 1546302900)
    assert artifact.kind == MODEL_EVALUATION
    assert artifact.measure == MEASURES["f1"]


def test_end_before_start_rejected():
    tracer = Tracer(_step_graph())
    activity = tracer.begin_activity(OP.Step_Train, AGENT, ROLE, 1546302862)
    with pytest.raises(TraceError):
        tracer.end_activity(activity, 1546302000)
    # Strings are compared as times, not as text: "22Z" is before "22.500".
    half = tracer.begin_activity(OP.Step_Train, AGENT, ROLE,
                                 "2019-01-01T00:34:22.500")
    with pytest.raises(TraceError):
        tracer.end_activity(half, "2019-01-01T00:34:22Z")
    tracer.end_activity(activity, 1546303000)
    assert activity.ended > activity.started


def test_six_measures_give_six_generated_edges():
    tracer = Tracer(_step_graph())
    activity = tracer.begin_activity(OP.Step_Train, AGENT, ROLE, 1546302862)
    for key, measure in sorted(MEASURES.items()):
        tracer.record_evaluation(activity, measure, "0.5", 1546302863)
    g = tracer.emit()
    generated = g.match(IRI(activity.iri), IRI(PROV.generated), None)
    assert len(generated) == 6
    # Artifacts minted at the same instant share one generation node.
    gens = {t.o for t in g.match(None, IRI(PROV.qualifiedGeneration), None)}
    assert len(gens) == 1


def test_emit_load_roundtrip():
    tracer = Tracer(_step_graph())
    activity = tracer.begin_activity(OP.Step_Train, AGENT, ROLE, 1546302862)
    tracer.associate(activity, OP.Agent_Jupyter_Notebook, OP.Role_Execution_environment)
    tracer.record_evaluation(activity, MEASURES["accuracy"], "0.91", 1546302900)
    tracer.record_artifact(activity, "model.bin", 1546302901)
    g = _step_graph()
    tracer.emit(g)
    g.freeze()
    record, artifacts = load_activity(g, activity.iri)
    assert record.step == OP.Step_Train
    assert record.associations == activity.associations
    assert len(artifacts) == 2
    kinds = sorted(a.kind for a in artifacts)
    assert kinds == [GENERIC_ARTIFACT, MODEL_EVALUATION]


def test_empty_trace_emits_empty_graph():
    tracer = Tracer(_step_graph())
    assert len(tracer.emit()) == 0


def test_load_trace_flags_dangling_step():
    tracer = Tracer(_step_graph())
    activity = tracer.begin_activity(OP.Step_Train, AGENT, ROLE, 1546302862)
    g = tracer.emit()  # workflow triples not included: step is dangling
    g.freeze()
    with pytest.raises(UnknownStepError):
        load_activity(g, activity.iri)
    record, _ = load_activity(g, activity.iri, check_steps=False)
    assert record.step == OP.Step_Train
    # A literal beside the step IRI is a second p-plan:correspondsToStep.
    g = tracer.emit()
    g.add(Triple(IRI(activity.iri), IRI(PPLAN.correspondsToStep), lit("Train")))
    with pytest.raises(TraceError, match="exactly one step IRI"):
        load_activity(g, activity.iri, check_steps=False)


def test_fixture_trace_reloads_14_activities(fixture_graph):
    activities = load_trace(fixture_graph)
    assert len(activities) == 14
    evaluations = [a for _, artifacts in activities for a in artifacts
                   if a.kind == MODEL_EVALUATION]
    for artifact in evaluations:
        assert artifact.measure
        assert artifact.generated_at
    reference = dict((rec.iri, arts) for rec, arts in activities)
    ref_values = {a.value for a in reference[REFERENCE_ACTIVITY]}
    assert REFERENCE_ACCURACY in ref_values


def test_reference_activity_contains_bundled_listing(fixture_graph):
    # The bundled graph names the training step with its published long
    # name; after aligning that one IRI, every statement of the listing
    # must be present verbatim.
    listing = parse_turtle(load_listing("retrospective.ttl"))
    short = IRI(OP.Step_Model_preparation_train_and_evaluation)
    long = IRI(MODEL_TRAINING_STEP_V01)
    for t in listing.match():
        adjusted = Triple(t.s, t.p, long if t.o == short else t.o)
        assert adjusted in fixture_graph, adjusted


def test_iso_millis_formats():
    assert iso_millis(1546302862) == "2019-01-01T00:34:22.000"
    assert iso_millis("2019-01-01T00:02:31.011") == "2019-01-01T00:02:31.011"
    assert iso_millis("2019-01-01T05:34:22+05:00") == "2019-01-01T00:34:22.000"
    tracer = Tracer(_step_graph())
    activity = tracer.begin_activity(OP.Step_Train, AGENT, ROLE, 1546302862)
    with pytest.raises(TraceError, match="not an ISO-8601 time"):
        tracer.record_artifact(activity, "x", "not a time")
