import hashlib
import random
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import plexflow
from plexflow.cq import CATALOGUE, CqError, delta_counts, query_text, run_cq
from plexflow.fixture import REFERENCE_ACCURACY, V01, V02, generate_fixture
from plexflow.query import ResultTable, evaluate, explain, parse_query, run_query
from plexflow.rdf import Graph, Triple, iri, nt_term
from plexflow.vocab import BPMN, DUL, OPREDICT as OP, PWO

from conftest import k_copy_graph


def _kind_counts(table):
    return Counter(term.value for term in table.column("stepType"))


def test_catalogue_lists_twelve_questions():
    assert len(CATALOGUE) == 12
    assert sorted(CATALOGUE) == [
        "CQ1.1", "CQ1.2", "CQ1.3", "CQ1.4", "CQ2.1", "CQ2.2", "CQ2.3",
        "CQ3.1", "CQ3.2", "CQ3.3", "CQ3.4", "CQ3.5"]


def test_every_template_parses_with_dummy_parameters():
    for entry in CATALOGUE.values():
        text = query_text(entry.file)
        for name in entry.params:
            text = text.replace(f"${name}", "<urn:x>")
        parse_query(text)


def test_unknown_id_and_missing_parameter():
    import plexflow.fixture as fx
    g = fx.generate_fixture()
    with pytest.raises(CqError):
        run_cq("CQ9.9", g)
    with pytest.raises(CqError):
        run_cq("CQ1.1", g, {})
    with pytest.raises(CqError):
        run_cq("CQ3.2", g, {"from": V01})
    with pytest.raises(CqError):
        run_cq("CQ1.1", g, {"workflow": "not an iri"})


def test_cq1_1_step_inventory(fixture_graph):
    v01 = run_cq("CQ1.1", fixture_graph, {"workflow": V01})
    assert len(v01) == 42
    counts = _kind_counts(v01)
    assert counts[BPMN.ManualTask] == 28
    assert counts[BPMN.ScriptTask] == 14
    v02 = run_cq("CQ1.1", fixture_graph, {"workflow": V02})
    assert len(v02) == 18
    counts = _kind_counts(v02)
    assert counts[BPMN.ManualTask] == 9
    assert counts[BPMN.ScriptTask] == 9


def test_cq1_2_reports_agents_per_manual_step(fixture_graph):
    table = run_cq("CQ1.2", fixture_graph, {"workflow": V01})
    steps = set(table.column("step")) - {None}
    assert len(steps) == 28
    agents = {a.value for a in set(table.column("agent")) - {None}}
    assert OP.Agent_Remzi in agents


def test_cq1_3_distributions(fixture_graph):
    v02 = run_cq("CQ1.3", fixture_graph, {"workflow": V02})
    assert len(v02) == 7
    urls = sorted(term.lexical for term in v02.column("downloadURL"))
    assert urls == [
        "http://compbio.charite.de/jenkins/job/hpo.annotations/1266/artifact/"
        "misc/phenotype_annotation_hpoteam.tab",
        "http://download.bio2rdf.org/files/release/4/kegg/kegg-drug.nq.gz",
        "http://download.bio2rdf.org/files/release/4/sider/sider-se.nq.gz",
        "http://www.paccanarolab.org/static_content/disease_similarity/"
        "mim2mesh.tsv",
        "https://media.nature.com/full/nature-assets/srep/2016/161017/"
        "srep35241/extref/srep35241-s3.txt",
        "https://raw.githubusercontent.com/dhimmel/drugbank/"
        "3e87872db5fca5ac427ce27464ab945c0ceb4ec6/data/mapping/pubchem.tsv",
        "https://www.ncbi.nlm.nih.gov/pmc/articles/PMC3159979/bin/"
        "msb201126-s4.xls",
    ]
    v01 = run_cq("CQ1.3", fixture_graph, {"workflow": V01})
    assert len(v01) == 5


def test_cq1_4_manual_steps_have_io(fixture_graph):
    table = run_cq("CQ1.4", fixture_graph, {"workflow": V01})
    assert len(table) > 0
    steps = {s.value for s in set(table.column("step")) - {None}}
    assert OP.Step_Save_files_in_triplestore in steps
    by_step = {}
    for row in table.rows:
        by_step.setdefault(row[0].value, []).append(row)
    endpoint_rows = by_step[OP.Step_Save_files_in_triplestore]
    outputs = {r[3].value for r in endpoint_rows if r[3] is not None}
    assert OP.Variable_Triplestore_endpoint_for_input_data in outputs


def test_cq2_1_main_chain_order(fixture_graph):
    table = run_cq("CQ2.1", fixture_graph, {"workflow": V01})
    assert [term.value for (term,) in table.rows] == [
        OP.Step_Prepare_Input_Data_Files,
        OP.Step_Feature_generation_Pipeline_OpenPREDICT_ipynb,
        OP["Step_Model_preparation_train_and_evaluation_Workflow_"
           "OpenPREDCIT_-_ML_ipynb"],
        OP.Step_Format_results_for_presentation,
    ]


def _chain_graph(n: int) -> tuple[Graph, list]:
    """A plan whose main chain is n steps, named in chain order."""
    steps = [iri(f"urn:step{i:04d}") for i in range(n)]
    g = Graph()
    g.add(Triple(iri("urn:plan"), iri(PWO.hasFirstStep), steps[0]))
    for step, nxt in zip(steps, steps[1:]):
        g.add(Triple(step, iri(DUL.precedes), nxt))
    return g.freeze(), steps


def test_cq2_1_on_a_long_chain_stays_small():
    # The template returns one row per chain step, and the ranking keeps
    # one ancestor bitset per step: about n^2/16 bytes, 140 KB here. Rows
    # for every (before, member) pair, about n^2/2 of them, would pass the
    # bound by 400 steps (42 MB).
    g, steps = _chain_graph(1500)
    tracemalloc.start()
    try:
        table = run_cq("CQ2.1", g, {"workflow": "urn:plan"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [step for (step,) in table.rows] == steps
    assert peak < 10_000_000, peak


def test_a_minus_on_a_long_chain_starts_from_its_seed():
    # The MINUS group starts from the outer (?s, ?t) edges, so each walk
    # stops at its first hop. Run alone, it would list every (step, later
    # step) pair: about n^2/2 rows, 595 MB in 9 s at this length.
    g, _ = _chain_graph(1500)
    query = parse_query(f"SELECT * WHERE {{ ?s <{DUL.precedes}> ?t . "
                        f"MINUS {{ ?s <{DUL.precedes}>+ ?t }} }}")
    tracemalloc.start()
    try:
        table = evaluate(query, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.rows == []
    assert "  seed start rows=1499" in explain(query, g)
    assert peak < 10_000_000, peak


def test_an_optional_closure_on_a_long_chain_stays_joined_and_walks_once():
    # The group is one p+ pattern sharing ?s with every outer row, but it
    # does not extend them: that would walk from each outer row in turn.
    # Run alone, it walks once back from the last step, then joins on ?s.
    g, steps = _chain_graph(1500)
    query = parse_query(f"SELECT * WHERE {{ ?s <{DUL.precedes}> ?t . "
                        f"OPTIONAL {{ ?s <{DUL.precedes}>+ <{steps[-1].value}> }} }}")
    tracemalloc.start()
    try:
        table = evaluate(query, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.rows) == 1499
    plan = explain(query, g)
    assert plan[-1] == "optional key=(?s) pairs=1499 rows=1499"
    assert not any(line.startswith("optional extend") for line in plan)
    assert peak < 10_000_000, peak


# CQ2.1 as it was answered before the ranking read the direct edges: the
# template listed every (first, before, member) path, and the ranking
# counted each member's rows with a bound ?before.
PAIR_LISTING_CQ2_1 = """\
PREFIX pwo: <http://purl.org/spar/pwo/>
PREFIX dul: <http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#>
SELECT ?first ?member ?before WHERE {
  <urn:plan> pwo:hasFirstStep ?first .
  ?first dul:precedes+ ?member .
  OPTIONAL {
    ?before dul:precedes+ ?member .
    ?first dul:precedes+ ?before .
  }
} ORDER BY ?member ?before
"""


def _pair_counting_order(table):
    firsts = set(table.column("first")) - {None}
    members = set(table.column("member")) - {None}
    member_idx = table.variables.index("member")
    before_idx = table.variables.index("before")
    pred_count = {m: 0 for m in members}
    for row in table.rows:
        if row[before_idx] is not None:
            pred_count[row[member_idx]] += 1
    ordered = sorted(firsts, key=nt_term)
    ordered += sorted(members, key=lambda m: (pred_count[m], nt_term(m)))
    return ResultTable(["step"], [(m,) for m in ordered])


def test_cq2_1_ranks_members_as_the_pair_count_did():
    rng = random.Random(2101)
    precedes = iri(DUL.precedes)
    for case in range(120):
        shape = ("dag", "branching", "cyclic")[case % 3]
        n = rng.randrange(2, 13)
        # Labels in no relation to the edges, so name order is no
        # topological order.
        labels = rng.sample(range(100), n)
        steps = [iri(f"urn:s{label:02d}") for label in labels]
        g = Graph()
        if shape == "branching":
            # Every step after the first hangs off an earlier one, and some
            # also join an earlier branch: fan-outs that merge again.
            for i in range(1, n):
                for j in {rng.randrange(i), rng.randrange(i)}:
                    g.add(Triple(steps[j], precedes, steps[i]))
        else:
            for _ in range(rng.randrange(1, 3 * n)):
                x, y = rng.randrange(n), rng.randrange(n)
                if shape == "cyclic" or x < y:
                    g.add(Triple(steps[x], precedes, steps[y]))
        for first in rng.sample(steps, 1 + case % 2):
            g.add(Triple(iri("urn:plan"), iri(PWO.hasFirstStep), first))
        g.freeze()
        expected = _pair_counting_order(run_query(PAIR_LISTING_CQ2_1, g))
        assert run_cq("CQ2.1", g, {"workflow": "urn:plan"}) == expected, case


def test_cq2_2_step_totals(fixture_graph):
    v01 = run_cq("CQ2.2", fixture_graph, {"workflow": V01})
    v02 = run_cq("CQ2.2", fixture_graph, {"workflow": V02})
    assert len(v01) == 60
    assert len(v02) == 18
    assert len(v01) + len(v02) == 78
    assert len(set(v01.column("step")) - {None}) == 60


def test_cq2_3_abstraction_links(fixture_graph):
    table = run_cq("CQ2.3", fixture_graph)
    assert len(table) == 10
    specs = set(table.column("specification")) - {None}
    assert len(specs) == 3


def test_cq3_1_versions_and_revision(fixture_graph):
    table = run_cq("CQ3.1", fixture_graph)
    assert len(table) == 2
    versions = [term.lexical for term in table.column("version")]
    assert versions == ["0.1", "0.2"]
    priors = table.column("priorVersion")
    assert priors[0] is None
    assert priors[1].value == V01


def test_cq3_2_delta(fixture_graph):
    table = run_cq("CQ3.2", fixture_graph, {"from": V01, "to": V02})
    assert delta_counts(table) == {"removed": 47, "changed": 3, "added": 7}
    assert len(table) == 57


def test_cq3_3_automatized(fixture_graph):
    table = run_cq("CQ3.3", fixture_graph, {"from": V01, "to": V02})
    assert len(table) == 3
    old_steps = {t.value for t in set(table.column("oldStep")) - {None}}
    assert OP.Step_Prepare_Input_Data_Files in old_steps


def test_cq3_4_delta(fixture_graph):
    table = run_cq("CQ3.4", fixture_graph, {"from": V01, "to": V02})
    assert delta_counts(table) == {"removed": 0, "changed": 0, "added": 2}


def test_cq3_5_executions(fixture_graph):
    table = run_cq("CQ3.5", fixture_graph)
    activities = set(table.column("activity")) - {None}
    assert len(activities) == 14
    v01_values = {row[3].lexical for row in table.rows
                  if row[1].value == V01 and row[3] is not None}
    assert REFERENCE_ACCURACY in v01_values


def test_cq_delta_agrees_with_diff_module(fixture_graph):
    # Two independent routes to the same partition: SPARQL queries here,
    # typed graph traversal in versiondiff.
    from plexflow.versiondiff import diff
    table = run_cq("CQ3.2", fixture_graph, {"from": V01, "to": V02})
    report = diff(fixture_graph, V01, V02)
    removed = {row[1].value for row in table.rows
               if row[0].lexical == "removed"}
    added = {row[2].value for row in table.rows if row[0].lexical == "added"}
    changed = {(row[1].value, row[2].value) for row in table.rows
               if row[0].lexical == "changed"}
    assert removed == report.removed_instructions
    assert added == report.added_instructions
    assert changed == report.changed_instructions


def test_every_template_file_belongs_to_the_catalogue():
    queries = Path(plexflow.__file__).parent / "queries"
    listed = [entry.file for entry in CATALOGUE.values()]
    assert sorted(listed) == sorted(p.name for p in queries.glob("*.rq"))


def test_every_answer_but_the_chain_is_its_template_run_alone():
    # Re-asking a question is running its .rq file: only CQ2.1 reorders
    # the query's rows afterwards.
    g = k_copy_graph(1)
    params = {"workflow": V01, "from": V01, "to": V02}
    for cq_id, entry in CATALOGUE.items():
        if cq_id == "CQ2.1":
            continue
        text = query_text(entry.file)
        for name in entry.params:
            text = text.replace(f"${name}", f"<{params[name]}>")
        assert run_cq(cq_id, g, params) == evaluate(parse_query(text), g), cq_id


# SHA-256 prefixes of (to_json(), to_tsv()) for every question on the fixture
# and on its 16-copy relabelling, with $workflow = V01 and $from/$to = V01/V02.
# Recorded before UNION entered the query engine, when CQ2.2, CQ3.2 and CQ3.4
# still ran a separate template for each sub-plan half and CQ2.2 concatenated
# its two tables.
PINNED_ANSWERS = {
    (1, "CQ1.1"): ("91c39698425c60d5", "d61b7f234ea8666e"),
    (1, "CQ1.2"): ("c87387fc274fd232", "3c4d0e1819866238"),
    (1, "CQ1.3"): ("88c814c522ceb484", "92a4edd021e2a3d4"),
    (1, "CQ1.4"): ("a82237a6544b6f43", "db23e41bd64f28d7"),
    (1, "CQ2.1"): ("952eee1ba644b37d", "7f9ca353c6912eb1"),
    (1, "CQ2.2"): ("00c1da5d757dcbb8", "7f905880bfc9ff2c"),
    (1, "CQ2.3"): ("ea124b13166c4558", "4e0dadaa179d012a"),
    (1, "CQ3.1"): ("0cabd73fb4a81bf9", "68f6aa08d0116e23"),
    (1, "CQ3.2"): ("da01bcc3058b81cb", "b3e6a72a4fd26f09"),
    (1, "CQ3.3"): ("fba93c7980f208d0", "aa1a1a6d3809e494"),
    (1, "CQ3.4"): ("c29d541d53e8cd87", "089e63b9a7eade39"),
    (1, "CQ3.5"): ("baf0a5d874bbc962", "4bb09c7808cfb31c"),
    (16, "CQ1.1"): ("91c39698425c60d5", "d61b7f234ea8666e"),
    (16, "CQ1.2"): ("c87387fc274fd232", "3c4d0e1819866238"),
    (16, "CQ1.3"): ("88c814c522ceb484", "92a4edd021e2a3d4"),
    (16, "CQ1.4"): ("a82237a6544b6f43", "db23e41bd64f28d7"),
    (16, "CQ2.1"): ("952eee1ba644b37d", "7f9ca353c6912eb1"),
    (16, "CQ2.2"): ("00c1da5d757dcbb8", "7f905880bfc9ff2c"),
    (16, "CQ2.3"): ("6c62e9d3c28e6b21", "ea6e3c110ef29310"),
    (16, "CQ3.1"): ("c122721a57bf7512", "27861e388e2172ce"),
    (16, "CQ3.2"): ("da01bcc3058b81cb", "b3e6a72a4fd26f09"),
    (16, "CQ3.3"): ("fba93c7980f208d0", "aa1a1a6d3809e494"),
    (16, "CQ3.4"): ("c29d541d53e8cd87", "089e63b9a7eade39"),
    (16, "CQ3.5"): ("2a3fe2e74084909b", "ccc5105ee3539409"),
}


def test_cq_answers_are_pinned(sixteen_copy_graph):
    params = {"workflow": V01, "from": V01, "to": V02}
    graphs = {1: k_copy_graph(1), 16: sixteen_copy_graph}
    answers = {}
    for (copies, cq_id) in PINNED_ANSWERS:
        table = run_cq(cq_id, graphs[copies],
                       {n: params[n] for n in CATALOGUE[cq_id].params})
        answers[copies, cq_id] = tuple(
            hashlib.sha256(text.encode()).hexdigest()[:16]
            for text in (table.to_json(), table.to_tsv()))
    assert answers == PINNED_ANSWERS


def test_concurrent_readers_of_a_freshly_frozen_graph_agree():
    # Four threads race on the first reads of a frozen graph, which replace
    # its buckets with sorted copies. They ask each question in lockstep, so
    # they read the same buckets at once; each must see what one thread
    # alone sees. A race shows only now and then, hence several fresh graphs.
    params = {"workflow": V01, "from": V01, "to": V02}
    ids = list(CATALOGUE)

    def answer(cq_id, g):
        wanted = {n: params[n] for n in CATALOGUE[cq_id].params}
        return run_cq(cq_id, g, wanted).to_json()

    reference = generate_fixture()
    want = {cq_id: answer(cq_id, reference) for cq_id in ids}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            shared = generate_fixture()
            barrier = threading.Barrier(4)
            got = {i: {} for i in range(4)}

            def reader(i):
                try:
                    for cq_id in ids:
                        barrier.wait(timeout=60)
                        got[i][cq_id] = answer(cq_id, shared)
                except Exception:
                    barrier.abort()   # release the others instead of a 60 s wait
                    raise

            threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert got == {i: want for i in range(4)}
    finally:
        sys.setswitchinterval(interval)
