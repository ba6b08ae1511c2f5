"""The OpenPREDICT numeric kernels against their reference forms.

``build_features`` takes the maximum grouped by gold disease, ``_sigmoid``
uses one branch-free expression, ``train_logistic`` never evaluates the
loss, and the midranks and average precision find their tie blocks with
array operations; each must agree with the direct form below bit for bit,
so every feature, weight and metric of a run is unchanged.
"""

import hashlib
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plexflow.cli import EXIT_OK, main
from plexflow.openpredict import (
    N_FEATURES, GoldStandard, Hyper, SimilarityBundle, _ROW_BLOCK, _midranks,
    _sigmoid, average_precision, build_features, generate_bundle,
    train_logistic,
)

WEIGHTS = [(0.5, 0.5), (0.3, 0.7), (1.0, 0.0), (0.0, 1.0)]


def dense_build_features(bundle, gold, candidates, exclude_self=False,
                         weights=(0.5, 0.5)):
    """The (5, 2, n, G) tensor form: every candidate against every gold pair."""
    w1, w2 = weights
    pairs = tuple(candidates)
    gold_list = sorted(gold.pairs)
    gd = np.fromiter((d for d, _ in gold_list), dtype=np.int64)
    gs = np.fromiter((s for _, s in gold_list), dtype=np.int64)
    cd = np.fromiter((d for d, _ in pairs), dtype=np.int64, count=len(pairs))
    cs = np.fromiter((s for _, s in pairs), dtype=np.int64, count=len(pairs))

    drug_part = bundle.drug_sims[:, cd[:, None], gd[None, :]]       # (5, n, G)
    disease_part = bundle.disease_sims[:, cs[:, None], gs[None, :]]  # (2, n, G)
    combined = (drug_part[:, None, :, :] ** w1) * (disease_part[None, :, :, :] ** w2)
    if exclude_self:
        self_mask = (cd[:, None] == gd[None, :]) & (cs[:, None] == gs[None, :])
        combined = np.where(self_mask[None, None, :, :], 0.0, combined)
    feats = combined.max(axis=3)                 # (5, 2, n)
    return feats.reshape(N_FEATURES, len(pairs)).T.copy()


def two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_train(X, y, hyper):
    """Gradient descent with the two-branch sigmoid and ``np.mean``."""
    weights = np.zeros(X.shape[1])
    bias = 0.0
    n = X.shape[0]
    for _ in range(hyper.iterations):
        residual = two_branch_sigmoid(X @ weights + bias) - y
        grad_w = X.T @ residual / n + hyper.l2 * weights
        grad_b = float(np.mean(residual))
        weights -= hyper.learning_rate * grad_w
        bias -= hyper.learning_rate * grad_b
    return weights, bias


def _random_sims(rng, count, size, zero_share, levels):
    sims = rng.uniform(0.0, 1.0, (count, size, size))
    if levels:
        sims = np.round(sims * levels) / levels  # ties across gold pairs
    sims[rng.uniform(size=sims.shape) < zero_share] = 0.0
    return sims


@st.composite
def feature_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_drugs = draw(st.integers(1, 2 * _ROW_BLOCK + 3))
    n_diseases = draw(st.integers(1, 12))
    zero_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    levels = draw(st.sampled_from([0, 4]))
    bundle = SimilarityBundle(
        drug_ids=tuple(f"d{i}" for i in range(n_drugs)),
        disease_ids=tuple(f"s{i}" for i in range(n_diseases)),
        drug_sims=_random_sims(rng, 5, n_drugs, zero_share, levels),
        disease_sims=_random_sims(rng, 2, n_diseases, zero_share, levels))
    all_pairs = [(d, s) for d in range(n_drugs) for s in range(n_diseases)]
    n_gold = draw(st.integers(1, min(len(all_pairs), 40)))
    gold = [all_pairs[i] for i in rng.choice(len(all_pairs), n_gold, replace=False)]
    n_candidates = draw(st.one_of(
        st.integers(0, 3 * _ROW_BLOCK + 2),
        st.sampled_from([_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1])))
    # Gold pairs, duplicates and arbitrary pairs, in random order.
    pool = all_pairs + gold * 3
    candidates = [pool[i] for i in rng.integers(0, len(pool), n_candidates)]
    return (bundle, GoldStandard(frozenset(gold)), candidates,
            draw(st.booleans()), draw(st.sampled_from(WEIGHTS)))


def _one_pair_case():
    """Disease 1 has a single gold pair, so excluding it empties its group."""
    rng = np.random.default_rng(0)
    bundle = SimilarityBundle(("a", "b", "c"), ("x", "y"),
                              _random_sims(rng, 5, 3, 0.0, 0),
                              _random_sims(rng, 2, 2, 0.0, 0))
    gold = GoldStandard(frozenset({(0, 0), (2, 0), (1, 1)}))
    return bundle, gold, [(1, 1), (1, 1), (0, 0), (2, 1), (1, 0)], True, (0.5, 0.5)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(feature_cases())
@example(_one_pair_case())
def test_features_equal_dense_reference_bytes(case):
    bundle, gold, candidates, exclude_self, weights = case
    got = build_features(bundle, gold, candidates, exclude_self=exclude_self,
                         weights=weights)
    want = dense_build_features(bundle, gold, candidates,
                                exclude_self=exclude_self, weights=weights)
    assert got.X.dtype == want.dtype and got.X.shape == want.shape
    assert got.X.tobytes() == want.tobytes()


def test_sigmoid_equals_two_branch_form_bytes():
    special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               1e-300, -1e-300, 36.7, -36.7, 709.0, -709.0, 745.0, -745.0,
               800.0, -800.0]
    rng = np.random.default_rng(11)
    z = np.concatenate([special, rng.normal(0.0, 30.0, 200)])
    for n in range(len(z) + 1):
        sample = rng.permutation(z)[:n]
        for arr in (sample, np.repeat(sample, 2)[::2]):
            assert _sigmoid(arr).tobytes() == two_branch_sigmoid(arr).tobytes()


def test_training_equals_reference_loop_bytes():
    bundle, gold = generate_bundle(60, 40, seed=42)
    negatives = [(d, s) for d in range(60) for s in range(40)
                 if (d, s) not in gold.pairs][::13]
    fm = build_features(bundle, gold, sorted(gold.pairs) + negatives,
                        exclude_self=True)
    for hyper in (Hyper(), Hyper(learning_rate=5.0, iterations=300, l2=0.0)):
        model = train_logistic(fm, hyper)
        weights, bias = reference_train(fm.X, fm.y, hyper)
        assert model.weights.tobytes() == weights.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()


def loop_midranks(scores):
    """Midranks, one tie block at a time."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def loop_average_precision(scores, labels):
    """Average precision, adding one term per tie block with a positive."""
    npos = int(np.sum(labels == 1))
    order = np.argsort(-scores, kind="mergesort")
    ap = 0.0
    tp = 0
    seen = 0
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j + 1 < n and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        block = order[i:j + 1]
        block_tp = int(np.sum(labels[block] == 1))
        tp += block_tp
        seen += len(block)
        if block_tp:
            ap += (block_tp / npos) * (tp / seen)
        i = j + 1
    return ap


@st.composite
def ranked_cases(draw):
    """Scores drawn from up to 30 levels, so that ties are common and there
    can be more than the 8 tie blocks where a pairwise sum would depart
    from a running one, with at least one positive and one negative label."""
    n = draw(st.integers(2, 120))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    scores = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n,
                                    max_size=n)))
    pos, neg = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
    labels[pos], labels[neg] = 1.0, 0.0
    return scores, labels


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ranked_cases())
@example((np.full(6, 0.5), np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])))
@example((np.array([0.3, 0.3]), np.array([0.0, 1.0])))
@example((np.array([0.9, 0.1]), np.array([0.0, 1.0])))
def test_tie_blocks_equal_the_loops_bytes(case):
    scores, labels = case
    assert _midranks(scores).tobytes() == loop_midranks(scores).tobytes()
    assert (np.float64(average_precision(scores, labels)).tobytes()
            == np.float64(loop_average_precision(scores, labels)).tobytes())


def test_paper_scale_features_stay_in_bounded_memory():
    # 593 drugs x 313 diseases is the paper's data scale; 18,600 candidates
    # is a hide-drugs training fold. The dense tensor needs about 6.8 GB here.
    bundle, gold = generate_bundle(593, 313, seed=3)
    positives = sorted(gold.pairs)
    negatives = [(d, s) for d in range(593) for s in range(313)
                 if (d, s) not in gold.pairs][::9]
    candidates = (positives + negatives)[:18_600]
    assert len(candidates) == 18_600
    tracemalloc.start()
    try:
        fm = build_features(bundle, gold, candidates, exclude_self=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fm.X.shape == (18_600, N_FEATURES)
    assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MiB"


# SHA-256 of the metrics JSON as written by the dense feature tensor and the
# loss-evaluating training loop; a change that moves any metric breaks them.
PINNED_METRICS_SHA256 = {
    "drugs": "a4fe05e12fb9b849a0bbcc58e66a50491d97402ab9c11ad246ba20129d1c8ee6",
    "associations": "3f90b76d4470466abd0eb89ca09202f764d9332c156cc67d951304c0d41f2c11",
}


def test_metrics_json_is_pinned(tmp_path):
    for scheme, digest in PINNED_METRICS_SHA256.items():
        path = tmp_path / f"{scheme}.json"
        assert main(["run-openpredict", "--scheme", scheme, "--drugs", "60",
                     "--diseases", "40", "--folds", "4", "--seed", "42",
                     "--metrics", str(path)]) == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, scheme
