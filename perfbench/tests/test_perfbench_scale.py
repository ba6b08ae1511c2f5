"""Self-test of the k-copy scale generator: triple count, answers that
scale with k, and parameterised answers equal to the relabelled 1x ones."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import scale  # noqa: E402
from perfbench.layers import CQ_IDS  # noqa: E402
from plexflow import (  # noqa: E402
    audit, diff, generate_fixture, parse_ntriples, run_cq, serialize_ntriples,
)
from plexflow.fixture import V01, V02  # noqa: E402

K = 3


@pytest.fixture(scope="module")
def graphs():
    ntriples = serialize_ntriples(generate_fixture())
    g1 = parse_ntriples(ntriples).freeze()
    gk = parse_ntriples(scale.k_copy_ntriples(ntriples, K)).freeze()
    return g1, gk


def test_relabel_moves_only_the_example_base():
    assert scale.relabel(V01, 0) == V01
    assert scale.relabel(V01, 2) == V01.replace(
        "/openpredict/", "/openpredict/c2/")
    assert scale.relabel("http://purl.org/net/p-plan#Step", 5) == \
        "http://purl.org/net/p-plan#Step"
    with pytest.raises(ValueError):
        scale.k_copy_ntriples("", 0)


def test_triple_count_is_k_times_fixture(graphs):
    g1, gk = graphs
    assert len(g1) == 1736
    assert len(gk) == K * 1736


def test_unparameterised_answers_scale_with_k(graphs):
    g1, gk = graphs
    for cq_id, rows in scale.UNPARAMETERISED_ROWS_1X.items():
        ref = run_cq(cq_id, g1).to_json()
        got = run_cq(cq_id, gk).to_json()
        assert len(run_cq(cq_id, gk)) == rows * K
        assert scale.check_unparameterised(cq_id, got, ref, K) == ""


@pytest.mark.parametrize("copy", [0, 2])
def test_parameterised_answers_match_relabelled_1x(graphs, copy):
    g1, gk = graphs
    for cq_id in CQ_IDS:
        if cq_id in scale.UNPARAMETERISED_ROWS_1X:
            continue
        ref = run_cq(cq_id, g1, scale.cq_params(cq_id, 0)).to_json()
        got = run_cq(cq_id, gk, scale.cq_params(cq_id, copy)).to_json()
        assert scale.check_parameterised(cq_id, got, ref, copy) == ""
    assert diff(gk, scale.relabel(V01, copy), scale.relabel(V02, copy)).to_json() \
        == scale.relabel(diff(g1, V01, V02).to_json(), copy)
    assert audit(gk).to_json() == audit(g1).to_json()


def test_checks_reject_wrong_answers(graphs):
    g1, _ = graphs
    ref = run_cq("CQ3.1", g1).to_json()
    assert scale.check_unparameterised("CQ3.1", ref, ref, K) != ""
    ref = run_cq("CQ1.1", g1, scale.cq_params("CQ1.1", 0)).to_json()
    assert scale.check_parameterised("CQ1.1", ref, ref, 1) != ""
