"""Desk-scale drug-repositioning pipeline.

Feature generation follows the similarity-profile scheme: a candidate
(drug, disease) pair gets, for every (drug measure i, disease measure j)
combination, the maximum over known associations (d', s') of the weighted
geometric mean of drugSim_i(drug, d') and diseaseSim_j(disease, s').
With 5 drug measures and 2 disease measures that yields 10 features, each
in [0, 1]. An L2-penalized logistic classifier trained by Newton's method
scores candidates, and two 10-fold cross-validation schemes
evaluate it: hiding whole drugs (all their associations leave the training
side) or hiding individual associations.

Everything is seeded and deterministic: per-fold RNG streams derive from
(seed, repetition, fold), so fold order or parallel evaluation cannot
change results. Negative examples are unlabeled pairs sampled uniformly at
a 1:1 ratio to positives per fold.

Inside cross-validation a pair (d, s) is the flat index d * n_diseases + s.
Ascending indices are the pairs in (drug, disease) order, so an int64
array of indices holds a pair set in the order a sorted list of tuples
would. One generator, ``_folds``, yields each fold's training positives,
training negatives and test pairs for both schemes. A negative draw takes
``rng.choice(len(pool), count)`` positions in the fold's pool of unlabeled
pairs, which stays in ascending order, and sorts them; the draw depends
only on the pool's length, so the pairs drawn depend only on the seed and
the pool, not on how the pairs are stored.

A synthetic generator produces block-structured similarity bundles with a
planted cluster signal (or none), sized for tests rather than for real
corpora; real matrices can be loaded from CSV instead.

The feature kernel groups the maximum by gold disease. Each call raises
the similarity tensors to w1 and w2 and builds one table for every drug
of the bundle: per gold disease k, the largest powered drug similarity to
the gold drugs of k. A feature is max_k table[drug, k] * spow[disease, k].
This equals the pairwise maximum bit for bit: inside one group the disease
factor b >= 0 is fixed, and correctly rounded multiplication by b is
monotone, so max fl(a * b) == fl(max(a) * b), while max itself never
rounds. The table is built rank by rank: each group starts from its first
gold drug's row, and each further rank folds the next gold drug's row in
with ``np.maximum``, in the left-to-right order a reduction would take.
With ``exclude_self`` a candidate that is a gold pair gets its own group's
entry recomputed with its own drug's value replaced by 0.0, as the
pairwise form replaced its own product by 0.0.

Cross-validation makes one call per fold. The training pairs and the test
pairs go in together with ``exclude_self``, and the rows are split after:
no test pair is a training gold pair, so the test rows are those of a call
without it. Candidates go ``_ROW_BLOCK`` at a time through one product
buffer, so temporaries are bounded by the block size and the bundle, never
by the number of candidates. At 593 x 313 under ``tracemalloc``, an
18,600-candidate training call peaks at 32.5 MiB, and a hide-drugs fold's
call (3,198 training rows and an 18,780-row test grid) at 32.7 MiB; the
pairwise tensor for the first needs about 6.8 GB.

Training minimizes the mean cross-entropy plus 0.5 * l2 * ||w||^2 (the
bias is not penalized) by Newton's method from zero weights. Each step
solves one (k+1) x (k+1) system, 11 x 11 for the 10 features, with the
Hessian [X 1]^T diag(p(1-p)) [X 1] / n + diag(l2, ..., l2, 0), built from
one weighted copy of X and never an n x n matrix. It stops at the first
point whose step is at most ``_STEP_TOL`` times max(1, its largest
parameter), typically after 3 to 9 steps, where the gradient's max-norm is
below 1e-13. It never evaluates the loss; ``logistic_loss_and_grad`` adds
the loss to the same ``_gradient``. A problem without a finite minimum
(separable data with ``l2=0``) or with a singular Hessian raises
``PipelineError`` rather than returning unbounded or NaN weights.
"""

from __future__ import annotations

import csv
from typing import Optional, Sequence

import numpy as np

from .rdf import Graph
from .record import FrozenRecord, Record, set_field
from .vocab import MEASURES

HIDE_DRUGS = "drugs"
HIDE_ASSOCIATIONS = "associations"

N_DRUG_MEASURES = 5
N_DISEASE_MEASURES = 2
N_FEATURES = N_DRUG_MEASURES * N_DISEASE_MEASURES

# Candidate rows per step of build_features. Its product buffer holds this
# many rows, so its temporaries scale with this, not with the candidates.
# 32 was the fastest of 16 to 128 at 200 x 120 and at 593 x 313.
_ROW_BLOCK = 32

# How far a similarity tensor may stray from symmetry and a unit diagonal.
_SIM_TOL = 1e-12


class PipelineError(ValueError):
    pass


class SimilarityBundle(Record):
    __slots__ = _fields = ("drug_ids", "disease_ids", "drug_sims", "disease_sims")

    def __init__(self, drug_ids: tuple[str, ...], disease_ids: tuple[str, ...],
                 drug_sims: np.ndarray, disease_sims: np.ndarray):
        self.drug_ids = drug_ids
        self.disease_ids = disease_ids
        self.drug_sims = drug_sims        # (5, D, D)
        self.disease_sims = disease_sims  # (2, S, S)

    @property
    def n_drugs(self) -> int:
        return len(self.drug_ids)

    @property
    def n_diseases(self) -> int:
        return len(self.disease_ids)

    def validate(self) -> None:
        if not (self.n_drugs and self.n_diseases):
            raise PipelineError("the bundle needs at least one drug and one disease")
        if self.drug_sims.shape != (N_DRUG_MEASURES, self.n_drugs, self.n_drugs):
            raise PipelineError("drug similarity tensor has the wrong shape")
        if self.disease_sims.shape != (N_DISEASE_MEASURES, self.n_diseases,
                                       self.n_diseases):
            raise PipelineError("disease similarity tensor has the wrong shape")
        for name, sims in (("drug", self.drug_sims), ("disease", self.disease_sims)):
            # Written so that NaN, which fails every comparison, is rejected.
            if not np.all((sims >= 0) & (sims <= 1)):
                raise PipelineError(f"{name} similarities must be finite and "
                                    f"lie in [0, 1]")
            if np.max(np.abs(sims - sims.transpose(0, 2, 1))) > _SIM_TOL:
                raise PipelineError(f"{name} similarities must be symmetric")
            diag = sims[:, range(sims.shape[1]), range(sims.shape[1])]
            if np.max(np.abs(diag - 1.0)) > _SIM_TOL:
                raise PipelineError(f"{name} similarities need a unit diagonal")


class GoldStandard(FrozenRecord):
    __slots__ = _fields = ("pairs",)

    def __init__(self, pairs: frozenset[tuple[int, int]]):
        set_field(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def validate(self, n_drugs: int, n_diseases: int) -> None:
        for d, s in self.pairs:
            if not (0 <= d < n_drugs and 0 <= s < n_diseases):
                raise PipelineError(f"association ({d}, {s}) is out of range")


class FeatureMatrix(Record):
    __slots__ = _fields = ("pairs", "X", "y")

    def __init__(self, pairs: np.ndarray, X: np.ndarray, y: np.ndarray):
        self.pairs = pairs  # (n, 2) int64 rows of (drug, disease)
        self.X = X  # (n, 10), column order (drug measure i, disease measure j)
        self.y = y  # (n,) in {0, 1}


def _check_weights(weights) -> tuple[float, float]:
    if len(weights) != 2:
        raise PipelineError("exactly two combination weights are required")
    w1, w2 = float(weights[0]), float(weights[1])
    if w1 < 0 or w2 < 0 or abs((w1 + w2) - 1.0) > 1e-9:
        raise PipelineError("weights must be nonnegative and sum to 1")
    return w1, w2


def build_features(bundle: SimilarityBundle, gold: GoldStandard,
                   candidates: Sequence[tuple[int, int]] | np.ndarray,
                   exclude_self: bool = False,
                   weights: tuple[float, float] = (0.5, 0.5)) -> FeatureMatrix:
    """Similarity-profile features for candidate pairs against a gold standard.

    ``candidates`` holds (drug, disease) index pairs, as tuples or as the
    rows of an (n, 2) integer array; a pair outside the bundle raises
    ``PipelineError``. The result's ``pairs`` is a copy of them as an
    (n, 2) int64 array. ``exclude_self`` drops a candidate's own association
    from the maximum, so a known positive cannot score against itself. The
    maximum is grouped by gold disease; see the module docstring.
    """
    w1, w2 = _check_weights(weights)
    if not gold.pairs:
        raise PipelineError("gold standard is empty")
    pairs = np.array(candidates, dtype=np.int64).reshape(-1, 2)
    cd, cs = pairs[:, 0], pairs[:, 1]
    if not (np.all((0 <= cd) & (cd < bundle.n_drugs))
            and np.all((0 <= cs) & (cs < bundle.n_diseases))):
        raise PipelineError("a candidate pair is out of range")
    gold_pairs = np.array(list(gold.pairs), dtype=np.int64)
    gd, gs = gold_pairs[np.lexsort(gold_pairs.T)].T   # by disease, then drug
    is_gold = np.zeros((bundle.n_drugs, bundle.n_diseases), dtype=bool)
    is_gold[gd, gs] = True
    y = is_gold[cd, cs].astype(np.float64)

    # Gold pairs sorted by disease: gold disease k spans [start[k], end[k]).
    # Every gathered axis comes first, so each gather copies contiguous runs.
    group_disease, start = np.unique(gs, return_index=True)
    end = np.append(start[1:], len(gold_pairs))
    # dpow[d', d, i] = drug_sims[i, d, d'] ** w1 (d' on the gold side);
    # spow[s, j, k] = disease_sims[j, s, group_disease[k]] ** w2.
    dpow = np.ascontiguousarray((bundle.drug_sims ** w1).transpose(2, 1, 0))
    spow = np.ascontiguousarray(
        (bundle.disease_sims ** w2)[:, :, group_disease].transpose(1, 0, 2))
    # Row r of grouped is the largest dpow[d', :, :] over the gold drugs d'
    # of gold disease order[r], folded in rank by rank in ascending d'
    # order. Longest groups come first, so the groups that a rank still
    # extends are a prefix of the rows.
    length = end - start
    order = np.argsort(-length)
    first = start[order]
    grouped = dpow[gd[first]]                                        # (K, D, 5)
    for rank in range(1, int(length.max())):
        live = grouped[:np.count_nonzero(length > rank)]
        np.maximum(live, dpow[gd[first[:len(live)] + rank]], out=live)
    table = np.empty((bundle.n_drugs, N_DRUG_MEASURES, len(order)),
                     dtype=dpow.dtype)                               # (D, 5, K)
    table.transpose(2, 0, 1)[order] = grouped
    del grouped

    X = np.empty((len(pairs), N_FEATURES), dtype=np.result_type(dpow, spow))
    by_measure = X.reshape(-1, N_DRUG_MEASURES, N_DISEASE_MEASURES)
    product = np.empty((_ROW_BLOCK, N_DRUG_MEASURES, len(group_disease)),
                       dtype=X.dtype)
    for lo in range(0, len(pairs), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        drug_part = table[cd[rows]]                                  # (b, 5, K)
        if exclude_self:
            _drop_self_column(drug_part, dpow, gd, cd[rows], cs[rows],
                              np.flatnonzero(y[rows]), group_disease,
                              start, end)
        disease_part = spow[cs[rows]]                                # (b, 2, K)
        block = product[:len(drug_part)]
        for j in range(N_DISEASE_MEASURES):
            np.multiply(drug_part, disease_part[:, j, None], out=block)
            block.max(axis=2, out=by_measure[rows, :, j])
    return FeatureMatrix(pairs=pairs, X=X, y=y)


def _drop_self_column(drug_part, dpow, gd, cd, cs, hits, group_disease,
                      start, end) -> None:
    """Recompute, for the rows ``hits`` whose candidate is a gold pair, the
    table entry of the candidate's own disease with its own drug's column
    set to 0.0 (0.0 when the pair is alone in its group)."""
    if not len(hits):
        return
    k = np.searchsorted(group_disease, cs[hits])
    length = end[k] - start[k]
    offset = np.cumsum(length) - length
    column = np.repeat(start[k] - offset, length) + np.arange(length.sum())
    drug = np.repeat(cd[hits], length)
    values = dpow[gd[column], drug]                                  # (L, 5)
    values[gd[column] == drug] = 0.0
    drug_part[hits, :, k] = np.maximum.reduceat(values, offset, axis=0)


# ---------------------------------------------------------------------------
# Logistic classifier


# Newton's method stops once its step is this small relative to the
# parameters; the relative form can still be met when the weights are large.
_STEP_TOL = 1e-12


class Hyper(FrozenRecord):
    __slots__ = _fields = ("iterations", "l2")

    def __init__(self, iterations: int = 50, l2: float = 1e-4):
        set_field(self, "iterations", iterations)  # cap on Newton steps; 3 to 9 are typical
        set_field(self, "l2", l2)


class LogisticModel(Record):
    __slots__ = _fields = ("weights", "bias", "hyper", "iterations", "gradient_norm")

    def __init__(self, weights: np.ndarray, bias: float, hyper: Hyper,
                 iterations: int = 0, gradient_norm: float = 0.0):
        self.weights = weights
        self.bias = bias
        self.hyper = hyper
        self.iterations = iterations        # Newton steps taken
        self.gradient_norm = gradient_norm  # max |gradient| at the returned point


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # minimum(z, -z) is -|z| but returns a NaN z unchanged; -abs would set a
    # NaN's sign bit and the output would differ from the two-branch form.
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _gradient(weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray,
              l2: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Logits and the gradients of the penalized mean cross-entropy."""
    n = X.shape[0]
    z = X @ weights + bias
    residual = _sigmoid(z) - y
    grad_w = X.T @ residual / n + l2 * weights
    grad_b = float(residual.sum() / n)  # np.mean's sum and division
    return z, grad_w, grad_b


def logistic_loss_and_grad(weights: np.ndarray, bias: float, X: np.ndarray,
                           y: np.ndarray, l2: float) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy with an L2 penalty on the weights, plus gradients."""
    z, grad_w, grad_b = _gradient(weights, bias, X, y, l2)
    # log(p) / log(1-p) written via logaddexp for stability at extreme z.
    loss = float(np.mean((1.0 - y) * z + np.logaddexp(0.0, -z)))
    loss += 0.5 * l2 * float(weights @ weights)
    return loss, grad_w, grad_b


def _hessian(X: np.ndarray, z: np.ndarray, l2: float) -> np.ndarray:
    """The (k+1, k+1) Hessian over (weights, bias) of the penalized loss:
    [X 1]^T diag(p(1-p)) [X 1] / n + diag(l2, ..., l2, 0). The weighted
    copy of X is the only per-row temporary."""
    n, k = X.shape
    p = _sigmoid(z)
    s = p * (1.0 - p)
    weighted = X * s[:, None]
    H = np.empty((k + 1, k + 1))
    H[:k, :k] = X.T @ weighted / n
    H[:k, k] = H[k, :k] = weighted.sum(axis=0) / n
    H[k, k] = s.sum() / n
    H[range(k), range(k)] += l2
    return H


def train_logistic(features: FeatureMatrix, hyper: Optional[Hyper] = None) -> LogisticModel:
    """Newton's method on the penalized loss from zero weights; deterministic.

    Each step solves the Hessian system for the gradient and never
    evaluates the loss. Training returns the first point whose Newton step
    is at most ``_STEP_TOL`` times max(1, its largest parameter). A
    non-finite point, gradient or Hessian, a singular Hessian, or no such
    point within ``hyper.iterations`` steps raises ``PipelineError``.
    """
    hyper = hyper or Hyper()
    X, y = features.X, features.y
    # Plain np.unique(y) imports numpy.ma (numpy 2.4); with counts it does not.
    classes = np.unique(y, return_counts=True)[0]
    if len(classes) < 2:
        raise PipelineError("training data must contain both classes")
    theta = np.zeros(X.shape[1] + 1)  # the weights, then the bias
    steps = 0
    while True:
        z, grad_w, grad_b = _gradient(theta[:-1], float(theta[-1]), X, y,
                                      hyper.l2)
        gradient = np.append(grad_w, grad_b)
        hessian = _hessian(X, z, hyper.l2)
        if not all(np.all(np.isfinite(a)) for a in (theta, gradient, hessian)):
            raise PipelineError(f"training failed: non-finite values after "
                                f"{steps} Newton steps")
        try:
            step = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError as exc:
            raise PipelineError(f"training failed: singular Hessian after "
                                f"{steps} Newton steps") from exc
        if np.max(np.abs(step)) <= _STEP_TOL * max(1.0, np.max(np.abs(theta))):
            return LogisticModel(weights=theta[:-1], bias=float(theta[-1]),
                                 hyper=hyper, iterations=steps,
                                 gradient_norm=float(np.max(np.abs(gradient))))
        if steps >= hyper.iterations:
            raise PipelineError(f"training did not converge in "
                                f"{hyper.iterations} Newton steps")
        theta = theta - step
        steps += 1


def predict_proba(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise PipelineError("feature width does not match the model")
    return _sigmoid(X @ model.weights + model.bias)


# ---------------------------------------------------------------------------
# Metrics


class MetricsRecord(FrozenRecord):
    __slots__ = _fields = ("roc_auc", "aupr", "accuracy", "precision", "recall", "f1")

    def __init__(self, roc_auc: float, aupr: float, accuracy: float,
                 precision: float, recall: float, f1: float):
        set_field(self, "roc_auc", roc_auc)
        set_field(self, "aupr", aupr)
        set_field(self, "accuracy", accuracy)
        set_field(self, "precision", precision)
        set_field(self, "recall", recall)
        set_field(self, "f1", f1)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self._fields}


class CrossValRecord(Record):
    __slots__ = _fields = ("scheme", "folds", "repetitions", "seed", "per_fold",
                           "mean", "std")

    def __init__(self, scheme: str, folds: int, repetitions: int, seed: int,
                 per_fold: list[MetricsRecord], mean: MetricsRecord,
                 std: MetricsRecord):
        self.scheme = scheme
        self.folds = folds
        self.repetitions = repetitions
        self.seed = seed
        self.per_fold = per_fold
        self.mean = mean
        self.std = std

    def to_payload(self) -> dict:
        return {
            "scheme": self.scheme,
            "folds": self.folds,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "mean": self.mean.as_dict(),
            "std": self.std.as_dict(),
            "per_fold": [m.as_dict() for m in self.per_fold],
        }


def _tie_blocks(sorted_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and (exclusive) end of each run of equal scores in a sorted array."""
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    return starts, np.r_[starts[1:], len(sorted_scores)]


def _midranks(scores: np.ndarray) -> np.ndarray:
    order = np.argsort(scores, kind="mergesort")
    starts, ends = _tie_blocks(scores[order])
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Rank-statistic ROC AUC; tied scores contribute midranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    npos = int(np.sum(labels == 1))
    nneg = int(np.sum(labels == 0))
    if npos == 0 or nneg == 0:
        raise PipelineError("ROC AUC needs at least one positive and one negative")
    ranks = _midranks(scores)
    pos_rank_sum = float(np.sum(ranks[labels == 1]))
    return (pos_rank_sum - npos * (npos + 1) / 2.0) / (npos * nneg)


def average_precision(scores, labels) -> float:
    """Area under the precision-recall curve in average-precision form.

    Tied scores are handled as blocks: precision is taken after the whole
    block of equal scores has been admitted.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    npos = int(np.sum(labels == 1))
    if npos == 0 or int(np.sum(labels == 0)) == 0:
        raise PipelineError("AUPR needs at least one positive and one negative")
    order = np.argsort(-scores, kind="mergesort")
    starts, ends = _tie_blocks(scores[order])
    tp = np.cumsum(labels[order] == 1)[ends - 1]
    block_tp = np.diff(tp, prepend=0)
    # cumsum adds left to right, block by block, as a running total would;
    # blocks without a positive add an exact 0.0.
    return float(np.cumsum((block_tp / npos) * (tp / ends))[-1])


def metrics(scores, labels, threshold: float = 0.5) -> MetricsRecord:
    """The full metric suite at one decision threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    predicted = scores >= threshold
    actual = labels == 1
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    tn = int(np.sum(~predicted & ~actual))
    accuracy = (tp + tn) / len(labels)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsRecord(
        roc_auc=roc_auc(scores, labels),
        aupr=average_precision(scores, labels),
        accuracy=accuracy, precision=precision, recall=recall, f1=f1)


# ---------------------------------------------------------------------------
# Cross-validation


def _aggregate(scheme, folds, repetitions, seed, records) -> CrossValRecord:
    arrays = {name: np.array([getattr(r, name) for r in records])
              for name in MetricsRecord._fields}
    mean = MetricsRecord(**{k: float(np.mean(v)) for k, v in arrays.items()})
    std = MetricsRecord(**{k: float(np.std(v)) for k, v in arrays.items()})
    return CrossValRecord(scheme=scheme, folds=folds, repetitions=repetitions,
                          seed=seed, per_fold=records, mean=mean, std=std)


def cross_validate(bundle: SimilarityBundle, gold: GoldStandard, scheme: str,
                   folds: int = 10, repetitions: int = 1, seed: int = 0,
                   hyper: Optional[Hyper] = None,
                   weights: tuple[float, float] = (0.5, 0.5)) -> CrossValRecord:
    """k-fold evaluation under the hide-drugs or hide-associations scheme."""
    _check_seed(seed)
    if scheme not in (HIDE_DRUGS, HIDE_ASSOCIATIONS):
        raise PipelineError(f"unknown scheme: {scheme!r}")
    if folds < 2:
        raise PipelineError("at least 2 folds are required")
    if repetitions < 1:
        raise PipelineError("at least 1 repetition is required")
    bundle.validate()
    gold.validate(bundle.n_drugs, bundle.n_diseases)
    hyper = hyper or Hyper()

    labels = np.zeros(bundle.n_drugs * bundle.n_diseases)
    labels[[d * bundle.n_diseases + s for d, s in gold.pairs]] = 1.0
    records = [_fold_metrics(bundle, train_pos, train_neg, test, labels,
                             hyper, weights)
               for train_pos, train_neg, test in _folds(
                   scheme, labels, bundle.n_diseases, folds, repetitions, seed)]
    return _aggregate(scheme, folds, repetitions, seed, records)


def _check_seed(seed: int) -> None:
    # numpy seeds only with non-negative integers.
    if seed < 0:
        raise PipelineError(f"the seed must not be negative: {seed}")


def _folds(scheme, labels, n_diseases, folds, repetitions, seed):
    """(training positives, training negatives, test pairs) for every fold,
    as flat pair indices ``drug * n_diseases + disease``.

    ``labels`` marks the gold pairs. Hiding drugs tests every pair of the
    fold's drugs and draws training negatives among the other drugs' pairs.
    Hiding associations tests the fold's gold pairs plus as many drawn
    unlabeled pairs, and draws training negatives from the rest.
    """
    positives = np.flatnonzero(labels)
    unlabeled = np.flatnonzero(labels == 0)
    n_drugs = len(labels) // n_diseases

    def draw(size, count, rng):
        """Sorted positions of ``count`` distinct draws out of ``size``."""
        if count > size:
            raise PipelineError("not enough unlabeled pairs to sample negatives")
        return np.sort(rng.choice(size, size=count, replace=False))

    for rep in range(repetitions):
        rng = np.random.default_rng([seed, rep])
        if scheme == HIDE_DRUGS:
            hidden = rng.permutation(n_drugs)
        else:
            hidden = positives[rng.permutation(len(positives))]
        base, extra = divmod(len(hidden), folds)
        for fold in range(folds):  # np.array_split's chunks, one at a time
            start = fold * base + min(fold, extra)
            chunk = hidden[start:start + base + (fold < extra)]
            held = np.isin(positives // n_diseases if scheme == HIDE_DRUGS
                           else positives, chunk)
            train_pos = positives[~held]
            checks = [(len(train_pos), "leaves no training associations"),
                      (held.any(), "contains no positive association")]
            if scheme == HIDE_ASSOCIATIONS:
                checks.reverse()  # an empty fold is reported first here
            for passed, failure in checks:
                if not passed:
                    raise PipelineError(f"fold {fold} {failure}")
            rng_fold = np.random.default_rng([seed, rep, fold])
            if scheme == HIDE_DRUGS:
                pool = unlabeled[~np.isin(unlabeled // n_diseases, chunk)]
                test = (np.sort(chunk)[:, None] * n_diseases
                        + np.arange(n_diseases)).ravel()
            else:
                pick = draw(len(unlabeled), len(chunk), rng_fold)
                pool = np.delete(unlabeled, pick)
                test = np.concatenate([positives[held], unlabeled[pick]])
            yield train_pos, pool[draw(len(pool), len(train_pos), rng_fold)], test


def _fold_features(bundle, train_pos, train_neg, test,
                   weights) -> tuple[FeatureMatrix, np.ndarray]:
    """A fold's training features and its test pairs' feature rows, from
    one ``build_features`` call against its training gold pairs."""
    def pairs(flat):
        return np.stack(np.divmod(flat, bundle.n_diseases), axis=1)

    train_gold = GoldStandard(frozenset(map(tuple, pairs(train_pos).tolist())))
    features = build_features(
        bundle, train_gold, pairs(np.concatenate([train_pos, train_neg, test])),
        exclude_self=True, weights=weights)
    n_train = len(train_pos) + len(train_neg)
    train = FeatureMatrix(pairs=features.pairs[:n_train],
                          X=features.X[:n_train], y=features.y[:n_train])
    return train, features.X[n_train:]


def _fold_metrics(bundle, train_pos, train_neg, test, labels, hyper,
                  weights) -> MetricsRecord:
    """Train on the fold's gold pairs and sampled negatives, and score the
    test pairs against the full gold standard."""
    train, test_X = _fold_features(bundle, train_pos, train_neg, test, weights)
    model = train_logistic(train, hyper)
    return metrics(predict_proba(model, test_X), labels[test])


# ---------------------------------------------------------------------------
# Synthetic data

_CLUSTERS = 5        # matching drug and disease clusters
_PAIRS_PER_DRUG = 3  # gold associations drawn per drug, at most


def generate_bundle(n_drugs: int, n_diseases: int, seed: int,
                    planted: bool = True) -> tuple[SimilarityBundle, GoldStandard]:
    """Block-structured similarity bundle with (optionally) a planted signal.

    Drugs and diseases are assigned to matching clusters; similarities are
    high inside a cluster and low across clusters. With ``planted`` the
    gold associations align drug and disease clusters, so similarity to a
    known association predicts membership; without it they are uniform
    noise and nothing is learnable.
    """
    if n_drugs < 0 or n_diseases < 0:
        raise PipelineError("the numbers of drugs and diseases must not be "
                            "negative")
    _check_seed(seed)
    rng = np.random.default_rng([seed])
    drug_cluster = rng.integers(0, _CLUSTERS, size=n_drugs)
    disease_cluster = rng.integers(0, _CLUSTERS, size=n_diseases)

    def cluster_sims(cluster: np.ndarray, count: int) -> np.ndarray:
        size = len(cluster)
        same = cluster[:, None] == cluster[None, :]
        out = np.empty((count, size, size))
        for m in range(count):
            low = rng.uniform(0.02, 0.35, size=(size, size))
            high = rng.uniform(0.60, 0.95, size=(size, size))
            sims = np.where(same, high, low)
            sims = (sims + sims.T) / 2.0
            np.fill_diagonal(sims, 1.0)
            out[m] = sims
        return out

    drug_sims = cluster_sims(drug_cluster, N_DRUG_MEASURES)
    disease_sims = cluster_sims(disease_cluster, N_DISEASE_MEASURES)
    pairs: set[tuple[int, int]] = set()
    for d in range(n_drugs):
        if planted:
            pool = np.flatnonzero(disease_cluster == drug_cluster[d])
        else:
            pool = np.arange(n_diseases)
        if len(pool) == 0:
            continue
        count = min(_PAIRS_PER_DRUG, len(pool))
        chosen = rng.choice(pool, size=count, replace=False)
        pairs.update((d, int(s)) for s in chosen)
    bundle = SimilarityBundle(
        drug_ids=tuple(f"DRUG:{i:04d}" for i in range(n_drugs)),
        disease_ids=tuple(f"DISEASE:{i:04d}" for i in range(n_diseases)),
        drug_sims=drug_sims, disease_sims=disease_sims)
    return bundle, GoldStandard(frozenset(pairs))


# ---------------------------------------------------------------------------
# CSV input


def _csv_rows(path) -> list[tuple[int, list[str]]]:
    """The non-empty rows of a CSV file, each with its line number."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            return [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise PipelineError(f"{path}: {exc}") from exc


def load_similarity_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Square similarity matrix with a header row and identifiers in column 0.

    Malformed content raises ``PipelineError`` naming the file and line.
    """
    rows = _csv_rows(path)
    if len(rows) < 2:
        raise PipelineError(f"{path}: no data rows")
    _, header = rows[0]
    ids = tuple(header[1:])
    matrix = np.zeros((len(ids), len(ids)))
    if len(rows) - 1 != len(ids):
        raise PipelineError(f"{path}: matrix is not square")
    for i, (line, row) in enumerate(rows[1:]):
        if row[0] != ids[i]:
            raise PipelineError(f"{path}, line {line}: row identifier "
                                f"{row[0]!r} does not match header order")
        if len(row) - 1 != len(ids):
            raise PipelineError(f"{path}, line {line}: row has the wrong width")
        try:
            matrix[i] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise PipelineError(f"{path}, line {line}: {exc}") from None
        if not np.all((matrix[i] >= 0) & (matrix[i] <= 1)):
            raise PipelineError(f"{path}, line {line}: similarities must be "
                                f"finite and lie in [0, 1]")
    return ids, matrix


def _load_measures(paths, kind: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The shared identifiers and the stacked matrices of one kind's files."""
    ids, matrices = None, []
    for path in paths:
        path_ids, matrix = load_similarity_csv(path)
        if ids is None:
            ids = path_ids
        elif path_ids != ids:
            raise PipelineError(f"{path}: {kind} identifiers disagree across files")
        matrices.append(matrix)
    return ids, np.stack(matrices)


def load_bundle_csv(drug_paths, disease_paths) -> SimilarityBundle:
    if len(drug_paths) != N_DRUG_MEASURES:
        raise PipelineError(f"expected {N_DRUG_MEASURES} drug similarity files")
    if len(disease_paths) != N_DISEASE_MEASURES:
        raise PipelineError(f"expected {N_DISEASE_MEASURES} disease similarity files")
    drug_ids, drug_sims = _load_measures(drug_paths, "drug")
    disease_ids, disease_sims = _load_measures(disease_paths, "disease")
    bundle = SimilarityBundle(drug_ids=drug_ids, disease_ids=disease_ids,
                              drug_sims=drug_sims, disease_sims=disease_sims)
    bundle.validate()
    return bundle


def load_gold_csv(path, bundle: SimilarityBundle) -> GoldStandard:
    """Two-column CSV of (drug id, disease id) positive associations.

    Malformed content raises ``PipelineError`` naming the file and line.
    """
    drug_index = {name: i for i, name in enumerate(bundle.drug_ids)}
    disease_index = {name: i for i, name in enumerate(bundle.disease_ids)}
    pairs = set()
    for line, row in _csv_rows(path):
        if row[0].startswith("#"):
            continue
        if len(row) < 2:
            raise PipelineError(f"{path}, line {line}: expected a drug id "
                                f"and a disease id")
        drug, disease = row[0].strip(), row[1].strip()
        if drug not in drug_index:
            raise PipelineError(f"{path}, line {line}: unknown drug id {drug!r}")
        if disease not in disease_index:
            raise PipelineError(f"{path}, line {line}: unknown disease id "
                                f"{disease!r}")
        pairs.add((drug_index[drug], disease_index[disease]))
    if not pairs:
        raise PipelineError(f"{path}: no associations")
    return GoldStandard(frozenset(pairs))


# ---------------------------------------------------------------------------
# Provenance


def run_and_trace(bundle: SimilarityBundle, gold: GoldStandard, scheme: str,
                  workflow_graph: Graph, step: str, agent: str, role: str,
                  folds: int = 10, repetitions: int = 1, seed: int = 0,
                  hyper: Optional[Hyper] = None,
                  weights: tuple[float, float] = (0.5, 0.5)
                  ) -> tuple[CrossValRecord, Graph]:
    """Run cross-validation and record it as an execution of ``step``.

    The activity generates six model-evaluation artifacts (accuracy,
    average precision, F1, precision, recall, ROC AUC), each holding the
    cross-validation mean formatted to six decimals.
    """
    from .trace import Tracer

    record = cross_validate(bundle, gold, scheme, folds=folds,
                            repetitions=repetitions, seed=seed, hyper=hyper,
                            weights=weights)
    # A deterministic timestamp: fixed base plus the seed, so identical
    # invocations emit identical graphs.
    moment = 1_560_000_000 + seed
    tracer = Tracer(workflow_graph)
    activity = tracer.begin_activity(step, agent, role, moment)
    mean = record.mean
    for key, value in (("accuracy", mean.accuracy),
                       ("average_precision", mean.aupr),
                       ("f1", mean.f1),
                       ("precision", mean.precision),
                       ("recall", mean.recall),
                       ("roc_auc", mean.roc_auc)):
        tracer.record_evaluation(activity, MEASURES[key], f"{value:.6f}", moment)
    return record, tracer.emit()
