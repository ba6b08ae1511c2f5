"""The OpenPREDICT numeric kernels against their reference forms.

``build_features`` takes the maximum grouped by gold disease, ``_sigmoid``
uses one branch-free expression, and the midranks and average precision
find their tie blocks with array operations; each must agree with the
direct form below bit for bit. Cross-validation's one ``build_features``
call per fold must give each side the bytes of the call it replaces.
``train_logistic`` uses Newton's method, which gradient descent cannot
match bit for bit; it must reach a stationary point, agree with a long
gradient-descent run, and give the same bytes on every run and at any
BLAS thread count. Pinned digests of cross-validation output close the
file: any change to the draws, the folds or the metrics breaks them.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plexflow
from plexflow.cli import EXIT_OK, main
from plexflow.openpredict import (
    HIDE_ASSOCIATIONS, HIDE_DRUGS, N_FEATURES, FeatureMatrix, GoldStandard,
    Hyper, PipelineError, SimilarityBundle, _ROW_BLOCK, _fold_features, _folds,
    _midranks, _sigmoid, average_precision, build_features, cross_validate,
    generate_bundle, logistic_loss_and_grad, train_logistic,
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


def reference_train(X, y, l2, learning_rate, iterations):
    """Gradient descent with the two-branch sigmoid and ``np.mean``."""
    weights = np.zeros(X.shape[1])
    bias = 0.0
    n = X.shape[0]
    for _ in range(iterations):
        residual = two_branch_sigmoid(X @ weights + bias) - y
        grad_w = X.T @ residual / n + l2 * weights
        grad_b = float(np.mean(residual))
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
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


def _training_fold():
    """Every gold pair of a 60 x 40 bundle and every 13th unlabeled pair."""
    bundle, gold = generate_bundle(60, 40, seed=42)
    negatives = [(d, s) for d in range(60) for s in range(40)
                 if (d, s) not in gold.pairs][::13]
    return build_features(bundle, gold, sorted(gold.pairs) + negatives,
                          exclude_self=True)


def _noisy_fold():
    """Four uniform features with labels drawn from a logistic model: not
    separable, so the unpenalized loss has a unique minimum."""
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 1.0, (200, 4))
    p = two_branch_sigmoid(X @ np.array([2.0, -1.0, 0.5, 0.0]) - 0.5)
    y = (rng.uniform(size=200) < p).astype(float)
    return FeatureMatrix(tuple((i, 0) for i in range(200)), X, y)


def test_training_reaches_a_stationary_point():
    for fm, hyper in ((_training_fold(), Hyper()),
                      (_training_fold(), Hyper(l2=0.03)),
                      (_noisy_fold(), Hyper(l2=0.0))):
        model = train_logistic(fm, hyper)
        _, grad_w, grad_b = logistic_loss_and_grad(model.weights, model.bias,
                                                   fm.X, fm.y, hyper.l2)
        norm = max(float(np.max(np.abs(grad_w))), abs(grad_b))
        assert norm <= 1e-9, norm
        assert model.gradient_norm == norm
        assert 0 < model.iterations <= hyper.iterations


def test_training_agrees_with_long_gradient_descent():
    # Well-conditioned problems, where 5,000 steps of 1.0 bring gradient
    # descent to within about 1e-13 of the minimum.
    for fm, l2 in ((_training_fold(), 0.03), (_noisy_fold(), 0.0)):
        model = train_logistic(fm, Hyper(l2=l2))
        weights, bias = reference_train(fm.X, fm.y, l2, 1.0, 5000)
        assert np.max(np.abs(model.weights - weights)) <= 1e-6
        assert abs(model.bias - bias) <= 1e-6


def test_training_is_byte_identical_across_runs():
    fm = _training_fold()
    runs = [train_logistic(fm) for _ in range(3)]
    for model in runs[1:]:
        assert model.weights.tobytes() == runs[0].weights.tobytes()
        assert (np.float64(model.bias).tobytes()
                == np.float64(runs[0].bias).tobytes())
        assert model.iterations == runs[0].iterations
        assert model.gradient_norm == runs[0].gradient_norm


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


def _gold_labels(gold, n_drugs, n_diseases):
    labels = np.zeros(n_drugs * n_diseases)
    labels[[d * n_diseases + s for d, s in gold.pairs]] = 1.0
    return labels


def _pairs(flat, n_diseases):
    return np.stack(np.divmod(flat, n_diseases), axis=1)


def _gold_of(flat, n_diseases):
    return GoldStandard(frozenset(map(tuple, _pairs(flat, n_diseases).tolist())))


def _training_candidates(bundle, gold):
    """18,600 candidates: every gold pair, then every 9th unlabeled pair."""
    positives = sorted(gold.pairs)
    negatives = [(d, s) for d in range(bundle.n_drugs)
                 for s in range(bundle.n_diseases)
                 if (d, s) not in gold.pairs][::9]
    candidates = (positives + negatives)[:18_600]
    assert len(candidates) == 18_600
    return gold, candidates


def _shared_fold_candidates(bundle, gold):
    """The training rows and the test grid of the first hide-drugs fold."""
    labels = _gold_labels(gold, bundle.n_drugs, bundle.n_diseases)
    train_pos, train_neg, test = next(
        _folds(HIDE_DRUGS, labels, bundle.n_diseases, 10, 1, 3))
    assert 18_500 < len(test) < 19_000
    return _gold_of(train_pos, bundle.n_diseases), _pairs(np.concatenate([train_pos, train_neg, test]),
                              bundle.n_diseases)


def test_paper_scale_features_stay_in_bounded_memory():
    # 593 drugs x 313 diseases is the paper's data scale. The inputs are a
    # hide-drugs training fold (18,600 candidates) and the one call that a
    # hide-drugs fold makes for its training rows and its test grid (about
    # 22,000 candidates). The dense tensor needs about 6.8 GB for the first.
    bundle, full_gold = generate_bundle(593, 313, seed=3)
    for make_candidates in (_training_candidates, _shared_fold_candidates):
        gold, candidates = make_candidates(bundle, full_gold)
        tracemalloc.start()
        try:
            fm = build_features(bundle, gold, candidates, exclude_self=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fm.X.shape == (len(candidates), N_FEATURES)
        assert peak < 256 * 2**20, (make_candidates.__name__,
                                    f"peak {peak / 2**20:.0f} MiB")


@pytest.mark.parametrize("n_drugs, n_diseases", [(11, 7), (13, 8), (23, 13)])
def test_one_call_per_fold_equals_separate_calls_bytes(n_drugs, n_diseases):
    # Cross-validation makes one build_features call per fold, with
    # exclude_self, and splits its rows. Each side must equal the call it
    # replaces: the training rows with exclude_self, the test rows without.
    # Four folds over these sizes are uneven under both schemes.
    for seed, planted, weights in ((1, True, (0.5, 0.5)), (2, False, (0.3, 0.7))):
        bundle, gold = generate_bundle(n_drugs, n_diseases, seed, planted=planted)
        labels = _gold_labels(gold, n_drugs, n_diseases)
        for scheme in (HIDE_DRUGS, HIDE_ASSOCIATIONS):
            folds = _folds(scheme, labels, n_diseases, 4, 2, seed)
            for train_pos, train_neg, test in folds:
                assert not np.isin(test, train_pos).any()
                train_gold = _gold_of(train_pos, n_diseases)
                train_pairs = _pairs(np.concatenate([train_pos, train_neg]),
                                     n_diseases)
                want_train = build_features(bundle, train_gold, train_pairs,
                                            exclude_self=True, weights=weights)
                want_test = build_features(bundle, train_gold,
                                           _pairs(test, n_diseases),
                                           exclude_self=False, weights=weights)
                train, test_X = _fold_features(bundle, train_pos, train_neg,
                                               test, weights)
                assert train.pairs.tobytes() == want_train.pairs.tobytes()
                assert train.X.tobytes() == want_train.X.tobytes()
                assert train.y.tobytes() == want_train.y.tobytes()
                assert test_X.tobytes() == want_test.X.tobytes()


# SHA-256 of the metrics JSON of a 60 x 40, 4-fold run with Newton
# training; a change that moves any metric breaks them.
PINNED_METRICS_SHA256 = {
    "drugs": "78e232387c8723b5665ba10918940f610ffe661cbbf869558a0ba5f618c660e2",
    "associations": "4c984747a1116b222dc640efc402785911214dc6f7184d2774cca374205c62e5",
}
_PINNED_RUN = ["run-openpredict", "--drugs", "60", "--diseases", "40",
               "--folds", "4", "--seed", "42"]


# The same run with uneven folds, two repetitions and no planted signal.
PINNED_REPS_NULL_SHA256 = {
    "drugs": "3d39b605b7fa1fd6bffbaa09ba909daaf3a22e2c48cfbbfea7446216eff82a02",
    "associations": "a3885e6ed4f591aac1cd361a14408784e9b2b1c5c0fbb5cae55c49464a210f66",
}


def _metrics_digest(tmp_path, argv):
    path = tmp_path / "metrics.json"
    assert main(argv + ["--metrics", str(path)]) == EXIT_OK
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_metrics_json_is_pinned(tmp_path):
    for scheme, digest in PINNED_METRICS_SHA256.items():
        argv = _PINNED_RUN + ["--scheme", scheme]
        assert _metrics_digest(tmp_path, argv) == digest, scheme


def test_metrics_json_with_repetitions_is_pinned(tmp_path):
    for scheme, digest in PINNED_REPS_NULL_SHA256.items():
        argv = ["run-openpredict", "--drugs", "60", "--diseases", "40",
                "--folds", "7", "--reps", "2", "--null", "--seed", "42",
                "--scheme", scheme]
        assert _metrics_digest(tmp_path, argv) == digest, scheme


# SHA-256 over 1,440 small cross-validations: every bundle size from 1 x 1
# to 6 x 5, seeds 0-3, planted and null, both schemes, 2, 3 and 7 folds.
# Each case adds its payload JSON or its PipelineError message, so the
# draws, the fold sizes and each scheme's order of checks are all pinned.
PINNED_SMALL_GRID_SHA256 = (
    "25482cc1ef5b1edaa892d9eb02dda1bed90946a13d1a2e5e422997e79113aeaa")


def test_small_cross_validation_grid_is_pinned():
    digest = hashlib.sha256()
    for n_drugs in range(1, 7):
        for n_diseases in range(1, 6):
            for seed in range(4):
                for planted in (True, False):
                    bundle, gold = generate_bundle(n_drugs, n_diseases, seed,
                                                   planted=planted)
                    for scheme in (HIDE_DRUGS, HIDE_ASSOCIATIONS):
                        for folds in (2, 3, 7):
                            try:
                                out = json.dumps(cross_validate(
                                    bundle, gold, scheme, folds=folds,
                                    seed=seed).to_payload(), sort_keys=True)
                            except PipelineError as exc:
                                out = f"error: {exc}"
                            digest.update(f"{n_drugs} {n_diseases} {seed} "
                                          f"{planted} {scheme} {folds}\t"
                                          f"{out}\n".encode())
    assert digest.hexdigest() == PINNED_SMALL_GRID_SHA256


def test_metrics_json_is_identical_across_blas_threads(tmp_path):
    src = str(Path(plexflow.__file__).resolve().parents[1])
    for scheme, digest in PINNED_METRICS_SHA256.items():
        for threads in ("1", "2"):
            path = tmp_path / f"{scheme}-{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            result = subprocess.run(
                [sys.executable, "-m", "plexflow", *_PINNED_RUN,
                 "--scheme", scheme, "--metrics", str(path)],
                env=env, capture_output=True, text=True)
            assert result.returncode == EXIT_OK, result.stderr
            assert (hashlib.sha256(path.read_bytes()).hexdigest()
                    == digest), (scheme, threads)
