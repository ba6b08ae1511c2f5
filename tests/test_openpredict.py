import tracemalloc

import numpy as np
import pytest

from plexflow.fixture import MODEL_TRAINING_STEP_V01, generate_fixture
from plexflow.openpredict import (
    FeatureMatrix, GoldStandard, HIDE_ASSOCIATIONS, HIDE_DRUGS, Hyper,
    PipelineError, SimilarityBundle, _check_weights, build_features,
    cross_validate, generate_bundle, load_bundle_csv, load_gold_csv,
    load_similarity_csv, logistic_loss_and_grad, metrics, predict_proba,
    roc_auc, run_and_trace, train_logistic,
)
from plexflow.trace import load_trace
from plexflow.vocab import OPREDICT as OP


# -- weighted geometric mean: the scalar oracle of build_features -------------

def weighted_geometric_mean(x: float, y: float,
                            weights: tuple[float, float] = (0.5, 0.5)) -> float:
    """x**w1 * y**w2 with w1 + w2 = 1; zero inputs give zero (continuous limit)."""
    w1, w2 = _check_weights(weights)
    if x < 0 or y < 0:
        raise PipelineError("similarities must be nonnegative")
    if x == 0.0 or y == 0.0:
        return 0.0
    return float(x ** w1 * y ** w2)


def test_wgm_examples():
    assert weighted_geometric_mean(0.25, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert weighted_geometric_mean(0.16, 0.04) == pytest.approx(0.08, abs=1e-15)
    for x in (0.1, 0.5, 0.987):
        assert weighted_geometric_mean(x, x) == pytest.approx(x, abs=1e-12)
        assert weighted_geometric_mean(x, x, (0.3, 0.7)) == pytest.approx(
            x, abs=1e-12)


def test_wgm_zero_limit_and_bad_weights():
    assert weighted_geometric_mean(0.0, 0.9) == 0.0
    assert weighted_geometric_mean(0.9, 0.0) == 0.0
    with pytest.raises(PipelineError):
        weighted_geometric_mean(0.5, 0.5, (0.7, 0.7))
    with pytest.raises(PipelineError):
        weighted_geometric_mean(0.5, 0.5, (-0.5, 1.5))


# -- feature building ----------------------------------------------------------

def _toy_bundle(n_drugs=3, n_diseases=2, fill=0.5):
    drug = np.full((5, n_drugs, n_drugs), fill)
    disease = np.full((2, n_diseases, n_diseases), fill)
    for m in range(5):
        np.fill_diagonal(drug[m], 1.0)
    for m in range(2):
        np.fill_diagonal(disease[m], 1.0)
    return SimilarityBundle(
        drug_ids=tuple(f"D{i}" for i in range(n_drugs)),
        disease_ids=tuple(f"S{i}" for i in range(n_diseases)),
        drug_sims=drug, disease_sims=disease)


def test_single_association_excluding_itself_gives_zero_features():
    bundle = _toy_bundle()
    gold = GoldStandard(frozenset({(0, 0)}))
    fm = build_features(bundle, gold, [(0, 0)], exclude_self=True)
    assert np.all(fm.X == 0.0)
    assert fm.y.tolist() == [1.0]
    fm2 = build_features(bundle, gold, [(0, 0)], exclude_self=False)
    assert np.all(fm2.X == 1.0)  # its own association matches perfectly


def test_features_match_scalar_brute_force():
    rng = np.random.default_rng(5150)
    n_drugs, n_diseases = 4, 3
    drug = rng.uniform(0, 1, (5, n_drugs, n_drugs))
    drug = (drug + drug.transpose(0, 2, 1)) / 2
    disease = rng.uniform(0, 1, (2, n_diseases, n_diseases))
    disease = (disease + disease.transpose(0, 2, 1)) / 2
    for m in range(5):
        np.fill_diagonal(drug[m], 1.0)
    for m in range(2):
        np.fill_diagonal(disease[m], 1.0)
    bundle = SimilarityBundle(("a", "b", "c", "d"), ("x", "y", "z"),
                              drug, disease)
    gold = GoldStandard(frozenset({(0, 0), (1, 2), (3, 1)}))
    candidates = [(d, s) for d in range(n_drugs) for s in range(n_diseases)]
    fm = build_features(bundle, gold, candidates, exclude_self=True,
                        weights=(0.3, 0.7))
    for row, (d, s) in enumerate(fm.pairs.tolist()):
        for i in range(5):
            for j in range(2):
                best = 0.0
                for (gd, gs) in gold.pairs:
                    if (gd, gs) == (d, s):
                        continue
                    value = weighted_geometric_mean(
                        drug[i, d, gd], disease[j, s, gs], (0.3, 0.7))
                    best = max(best, value)
                assert fm.X[row, i * 2 + j] == pytest.approx(best, abs=1e-12)


def test_identical_drug_measures_collapse_columns():
    bundle = _toy_bundle()
    one = np.random.default_rng(3).uniform(0, 1, (bundle.n_drugs, bundle.n_drugs))
    one = (one + one.T) / 2
    np.fill_diagonal(one, 1.0)
    bundle.drug_sims = np.stack([one] * 5)
    gold = GoldStandard(frozenset({(0, 0), (2, 1)}))
    fm = build_features(bundle, gold, [(1, 0), (1, 1), (2, 0)])
    for j in range(2):
        column = fm.X[:, j::2]
        assert np.allclose(column, column[:, :1])


def test_feature_bounds_and_monotonicity():
    rng = np.random.default_rng(777)
    bundle, gold = generate_bundle(12, 9, seed=3)
    candidates = [(d, s) for d in range(12) for s in range(9)]
    fm = build_features(bundle, gold, candidates)
    assert np.min(fm.X) >= 0.0 and np.max(fm.X) <= 1.0
    # Raising one drug similarity never lowers any feature built from it.
    d, other = 2, 5
    bumped_sims = bundle.drug_sims.copy()
    bumped_sims[1, d, other] = bumped_sims[1, other, d] = 1.0
    bumped = SimilarityBundle(bundle.drug_ids, bundle.disease_ids,
                              bumped_sims, bundle.disease_sims)
    fm2 = build_features(bumped, gold, candidates)
    assert np.all(fm2.X[:, 2:4] >= fm.X[:, 2:4] - 1e-12)


def test_empty_gold_rejected():
    bundle = _toy_bundle()
    with pytest.raises(PipelineError):
        build_features(bundle, GoldStandard(frozenset()), [(0, 0)])


@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (4, 0), (0, 3)])
def test_out_of_range_candidate_rejected(pair):
    bundle = _toy_bundle(n_drugs=4, n_diseases=3)
    gold = GoldStandard(frozenset({(0, 0)}))
    with pytest.raises(PipelineError, match="out of range"):
        build_features(bundle, gold, [(1, 1), pair])


def test_candidates_as_tuples_or_array_agree():
    bundle, gold = generate_bundle(12, 9, seed=3)
    candidates = [(d, s) for d in range(12) for s in range(9)][::5]
    listed = build_features(bundle, gold, candidates, exclude_self=True)
    stacked = build_features(bundle, gold, np.array(candidates),
                             exclude_self=True)
    assert listed.pairs.dtype == stacked.pairs.dtype == np.int64
    assert listed.pairs.tolist() == stacked.pairs.tolist() == [
        list(p) for p in candidates]
    assert listed.X.tobytes() == stacked.X.tobytes()
    assert listed.y.tolist() == [float(p in gold.pairs) for p in candidates]


def test_bundle_validation():
    bundle = _toy_bundle()
    bundle.drug_sims[0, 0, 1] = 1.5
    with pytest.raises(PipelineError):
        bundle.validate()
    bundle = _toy_bundle()
    bundle.drug_sims[0, 0, 1] = 0.2  # breaks symmetry
    with pytest.raises(PipelineError):
        bundle.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25, 1.25])
@pytest.mark.parametrize("field", ["drug_sims", "disease_sims"])
def test_bundle_validation_rejects_non_finite_and_out_of_range(field, bad):
    bundle, _ = generate_bundle(20, 15, seed=1)
    bundle.validate()
    sims = getattr(bundle, field)
    sims[0, 1, 2] = sims[0, 2, 1] = bad  # symmetric, so only the range check fires
    with pytest.raises(PipelineError, match="finite and lie in"):
        bundle.validate()


# -- logistic classifier -------------------------------------------------------

def _separable_toy(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = np.zeros((n, 2))
    y = np.zeros(n)
    half = n // 2
    X[:half] = rng.uniform(0.0, 0.35, (half, 2))
    X[half:] = rng.uniform(0.65, 1.0, (n - half, 2))
    y[half:] = 1.0
    return FeatureMatrix(pairs=tuple((i, 0) for i in range(n)), X=X, y=y)


def test_separable_toy_reaches_training_accuracy_one():
    fm = _separable_toy()
    model = train_logistic(fm)
    scores = predict_proba(model, fm.X)
    assert metrics(scores, fm.y).accuracy == 1.0


def test_separable_toy_without_penalty_raises():
    # With l2=0 the loss has no minimum on separable data: the weights grow
    # without bound, so training must fail instead of returning them.
    with pytest.raises(PipelineError, match="did not converge in 50 Newton"):
        train_logistic(_separable_toy(), Hyper(l2=0.0))


def test_singular_hessian_raises():
    # A constant-zero feature without a penalty leaves the Hessian singular.
    fm = _separable_toy()
    fm.X[:, 1] = 0.0
    with pytest.raises(PipelineError, match="singular Hessian"):
        train_logistic(fm, Hyper(l2=0.0))


def test_non_finite_features_raise():
    fm = _separable_toy()
    fm.X[3, 0] = np.inf
    with pytest.raises(PipelineError, match="non-finite"), \
            np.errstate(invalid="ignore"):  # 0 * inf in the first logits
        train_logistic(fm)


def test_iteration_cap_is_enforced():
    fm = _separable_toy()
    assert train_logistic(fm).iterations > 2
    with pytest.raises(PipelineError, match="did not converge in 2 Newton"):
        train_logistic(fm, Hyper(iterations=2))


def test_single_class_rejected():
    fm = _separable_toy()
    fm.y[:] = 1.0
    with pytest.raises(PipelineError):
        train_logistic(fm)


def test_loss_never_increases_with_gradient_step_0_1():
    fm = _separable_toy(seed=9)
    l2 = Hyper().l2
    weights = np.zeros(fm.X.shape[1])
    bias = 0.0
    last = None
    for _ in range(200):
        loss, gw, gb = logistic_loss_and_grad(weights, bias, fm.X, fm.y, l2)
        if last is not None:
            assert loss <= last + 1e-12
        last = loss
        weights -= 0.1 * gw
        bias -= 0.1 * gb


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(12345)
    X = rng.uniform(0, 1, (40, 10))
    y = (rng.uniform(size=40) < 0.5).astype(float)
    eps = 1e-5
    for point in range(10):
        w = rng.normal(0, 1.0, 10)
        b = float(rng.normal())
        _, gw, gb = logistic_loss_and_grad(w, b, X, y, l2=1e-4)
        worst_abs = 0.0
        worst_rel = 0.0
        for k in range(10):
            probe = w.copy()
            probe[k] = w[k] + eps
            up, _, _ = logistic_loss_and_grad(probe, b, X, y, 1e-4)
            probe[k] = w[k] - eps
            down, _, _ = logistic_loss_and_grad(probe, b, X, y, 1e-4)
            fd = (up - down) / (2 * eps)
            worst_abs = max(worst_abs, abs(fd - gw[k]))
            worst_rel = max(worst_rel, abs(fd - gw[k]) / max(abs(fd), 1e-8))
        up, _, _ = logistic_loss_and_grad(w, b + eps, X, y, 1e-4)
        down, _, _ = logistic_loss_and_grad(w, b - eps, X, y, 1e-4)
        fd_b = (up - down) / (2 * eps)
        worst_abs = max(worst_abs, abs(fd_b - gb))
        worst_rel = max(worst_rel, abs(fd_b - gb) / max(abs(fd_b), 1e-8))
        assert worst_abs < 1e-6
        assert worst_rel < 1e-6


def test_uninformative_features_give_chance_auc():
    rng = np.random.default_rng(808)
    X = rng.uniform(0, 1, (500, 10))
    y = np.zeros(500)
    y[:250] = 1.0
    y = y[rng.permutation(500)]  # labels independent of features
    train = FeatureMatrix(tuple((i, 0) for i in range(400)), X[:400], y[:400])
    model = train_logistic(train)
    scores = predict_proba(model, X[400:])
    assert 0.40 <= roc_auc(scores, y[400:]) <= 0.60


def test_predict_proba_contract():
    model = train_logistic(_separable_toy())
    zero = predict_proba(
        type(model)(weights=np.zeros(2), bias=0.0, hyper=model.hyper),
        np.array([[0.3, 0.9]]))
    assert zero[0] == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(PipelineError):
        predict_proba(model, np.zeros((3, 7)))
    up = predict_proba(model, np.array([[0.2, 0.2], [0.9, 0.2]]))
    if model.weights[0] > 0:
        assert up[1] > up[0]


# -- cross-validation ----------------------------------------------------------

def test_fold_count_must_be_at_least_two():
    bundle, gold = generate_bundle(20, 15, seed=1)
    with pytest.raises(PipelineError):
        cross_validate(bundle, gold, HIDE_DRUGS, folds=1)


@pytest.mark.parametrize("scheme", [HIDE_DRUGS, HIDE_ASSOCIATIONS])
def test_folds_beyond_the_hidden_items_fail_in_bounded_memory(scheme):
    # One more fold than hidden drugs (or gold pairs) leaves the last fold
    # empty; far more folds must fail the same way, without building them.
    bundle, gold = generate_bundle(6, 5, seed=3)
    hidden = bundle.n_drugs if scheme == HIDE_DRUGS else len(gold.pairs)
    peaks, messages = [], []
    for folds in (hidden + 1, 10**5):
        tracemalloc.start()
        with pytest.raises(PipelineError) as exc:
            cross_validate(bundle, gold, scheme, folds=folds)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert peaks[1] < 2 * peaks[0]


def test_negative_seed_rejected():
    bundle, gold = generate_bundle(20, 15, seed=1)
    with pytest.raises(PipelineError, match="seed must not be negative"):
        cross_validate(bundle, gold, HIDE_DRUGS, seed=-1)
    with pytest.raises(PipelineError, match="seed must not be negative"):
        generate_bundle(20, 15, seed=-1)


@pytest.mark.parametrize("n_drugs, n_diseases", [(-1, 3), (3, -1)])
def test_negative_bundle_size_rejected(n_drugs, n_diseases):
    with pytest.raises(PipelineError, match="must not be negative"):
        generate_bundle(n_drugs, n_diseases, seed=1)


def test_unknown_scheme_rejected():
    bundle, gold = generate_bundle(20, 15, seed=1)
    with pytest.raises(PipelineError):
        cross_validate(bundle, gold, "bogus")


def test_cross_validation_is_deterministic():
    bundle, gold = generate_bundle(30, 24, seed=7)
    a = cross_validate(bundle, gold, HIDE_ASSOCIATIONS, folds=5, seed=11)
    b = cross_validate(bundle, gold, HIDE_ASSOCIATIONS, folds=5, seed=11)
    assert a.to_payload() == b.to_payload()
    c = cross_validate(bundle, gold, HIDE_ASSOCIATIONS, folds=5, seed=12)
    assert c.to_payload() != a.to_payload()


def test_planted_signal_is_learnable_small():
    bundle, gold = generate_bundle(40, 30, seed=21)
    record = cross_validate(bundle, gold, HIDE_ASSOCIATIONS, folds=5, seed=21)
    assert record.mean.roc_auc >= 0.75
    record = cross_validate(bundle, gold, HIDE_DRUGS, folds=5, seed=21)
    assert record.mean.roc_auc >= 0.75


def test_no_leakage_of_held_out_positives():
    # With the held-out positive removed from the gold standard, its own
    # similarity row cannot contribute; features must drop accordingly.
    bundle = _toy_bundle(n_drugs=4, n_diseases=3, fill=0.1)
    pair = (1, 1)
    with_self = GoldStandard(frozenset({pair, (3, 2)}))
    without_self = GoldStandard(frozenset({(3, 2)}))
    leaky = build_features(bundle, with_self, [pair], exclude_self=False)
    clean = build_features(bundle, without_self, [pair], exclude_self=False)
    assert np.all(leaky.X == 1.0)
    assert np.all(clean.X < 0.5)
    # exclude_self on the full gold standard gives the same clean features.
    guarded = build_features(bundle, with_self, [pair], exclude_self=True)
    assert np.allclose(guarded.X, clean.X)


def test_repetitions_multiply_folds():
    bundle, gold = generate_bundle(24, 18, seed=2)
    record = cross_validate(bundle, gold, HIDE_ASSOCIATIONS, folds=4,
                            repetitions=3, seed=5)
    assert len(record.per_fold) == 12


# -- CSV input -----------------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    bundle, gold = generate_bundle(6, 5, seed=13)
    drug_paths, disease_paths = [], []
    for m in range(5):
        path = tmp_path / f"drug{m}.csv"
        _write_matrix(path, bundle.drug_ids, bundle.drug_sims[m])
        drug_paths.append(path)
    for m in range(2):
        path = tmp_path / f"disease{m}.csv"
        _write_matrix(path, bundle.disease_ids, bundle.disease_sims[m])
        disease_paths.append(path)
    gold_path = tmp_path / "gold.csv"
    with open(gold_path, "w", encoding="utf-8") as handle:
        for d, s in sorted(gold.pairs):
            handle.write(f"{bundle.drug_ids[d]},{bundle.disease_ids[s]}\n")
    loaded = load_bundle_csv(drug_paths, disease_paths)
    assert loaded.drug_ids == bundle.drug_ids
    assert np.allclose(loaded.drug_sims, bundle.drug_sims)
    loaded_gold = load_gold_csv(gold_path, loaded)
    assert loaded_gold.pairs == gold.pairs


@pytest.mark.parametrize("kind", ["drug", "disease"])
def test_csv_identifiers_disagree_across_files(tmp_path, kind):
    bundle, _ = generate_bundle(6, 5, seed=13)
    paths = {"drug": [], "disease": []}
    for name, ids, sims in (("drug", bundle.drug_ids, bundle.drug_sims),
                            ("disease", bundle.disease_ids, bundle.disease_sims)):
        for m, matrix in enumerate(sims):
            path = tmp_path / f"{name}{m}.csv"
            _write_matrix(path, ids[::-1] if (name, m) == (kind, 1) else ids,
                          matrix)
            paths[name].append(path)
    bad = tmp_path / f"{kind}1.csv"
    with pytest.raises(PipelineError) as err:
        load_bundle_csv(paths["drug"], paths["disease"])
    assert str(err.value) == f"{bad}: {kind} identifiers disagree across files"


def _write_matrix(path, ids, matrix):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id," + ",".join(ids) + "\n")
        for i, row_id in enumerate(ids):
            handle.write(row_id + "," + ",".join(f"{v:.17g}" for v in matrix[i])
                         + "\n")


def test_csv_shape_errors(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,a,b\na,1.0,0.5\n")
    with pytest.raises(PipelineError):
        load_similarity_csv(path)


# -- provenance-recorded runs --------------------------------------------------

def test_run_and_trace_emits_six_evaluations():
    bundle, gold = generate_bundle(24, 18, seed=4)
    workflow_graph = generate_fixture()
    record, trace_graph = run_and_trace(
        bundle, gold, HIDE_ASSOCIATIONS, workflow_graph,
        MODEL_TRAINING_STEP_V01, OP.Agent_Joao, OP.Role_Executor,
        folds=4, seed=4)
    trace_graph.freeze()
    ((activity, artifacts),) = load_trace(trace_graph, check_steps=False)
    assert activity.step == MODEL_TRAINING_STEP_V01
    assert len(artifacts) == 6
    values = {a.measure: a.value for a in artifacts}
    mean = record.mean
    assert values[OP.EvaluationMeasure_PredictiveAccuracy] == f"{mean.accuracy:.6f}"
    assert values[OP.EvaluationMeasure_RocAuc] == f"{mean.roc_auc:.6f}"
    assert values[OP.EvaluationMeasure_AveragePrecision] == f"{mean.aupr:.6f}"
