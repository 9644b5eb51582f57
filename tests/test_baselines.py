import re

import numpy as np
import pytest
from scipy.special import expit

from aucmax.baselines import (
    SVM_CHECK_EVERY,
    LinearModel,
    decision_scores,
    fit_linear_svm,
    fit_linear_svm_grid,
    fit_logistic,
    linear_rule,
    load_model,
    logistic_objective,
    model_from_dict,
    model_to_dict,
    predict,
    predict_proba,
    save_model,
    svm_objective,
)
from aucmax.data import SynthSpec, generate_synthetic
from aucmax.metrics import roc_auc
from aucmax.objective import LabeledDataset


def blobs(seed=1, n=60, sep=3.0, scale=0.3):
    rng = np.random.default_rng(seed)
    half = n // 2
    features = np.vstack([
        rng.standard_normal((half, 2)) * scale + sep,
        rng.standard_normal((half, 2)) * scale - sep,
    ])
    labels = np.concatenate([np.ones(half, dtype=int), -np.ones(half, dtype=int)])
    return LabeledDataset(features, labels)


# --- logistic regression

def test_logistic_separable_1d():
    ds = LabeledDataset(np.array([[-1.0], [1.0]]), np.array([-1, 1]))
    model = fit_logistic(ds, C=1e4)
    assert np.array_equal(predict(model, ds.features), ds.labels)


def test_logistic_intercept_only_prior():
    # all-zero features: optimum is the class-prior logit on the intercept
    features = np.zeros((30, 2))
    labels = np.concatenate([np.ones(10, dtype=int), -np.ones(20, dtype=int)])
    model = fit_logistic(LabeledDataset(features, labels), C=1.0)
    assert np.abs(model.beta[1:]).max() <= 1e-8
    assert expit(model.beta[0]) == pytest.approx(1 / 3, abs=1e-3)


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    features = rng.standard_normal((40, 3))
    labels = np.where(rng.random(40) < 0.5, 1, -1)
    beta = rng.standard_normal(4)
    _, grad = logistic_objective(beta, features, labels, C=2.0)
    numeric = np.zeros_like(beta)
    h = 1e-6
    for i in range(beta.size):
        bp, bm = beta.copy(), beta.copy()
        bp[i] += h
        bm[i] -= h
        numeric[i] = (
            logistic_objective(bp, features, labels, 2.0)[0]
            - logistic_objective(bm, features, labels, 2.0)[0]
        ) / (2 * h)
    assert np.linalg.norm(grad - numeric) / np.linalg.norm(numeric) <= 1e-6


def test_logistic_probabilities_monotone_in_score():
    ds = blobs(seed=3)
    model = fit_logistic(ds, C=1.0)
    scores = decision_scores(model, ds.features)
    probs = predict_proba(model, ds.features)
    assert np.all((probs > 0) & (probs < 1))
    order = np.argsort(scores)
    assert np.all(np.diff(probs[order]) >= 0)


def test_logistic_rejects_bad_C():
    with pytest.raises(ValueError, match="C"):
        fit_logistic(blobs(), C=0.0)


@pytest.mark.parametrize("fit", [fit_logistic, fit_linear_svm])
@pytest.mark.parametrize("max_iter", [0, -5])
def test_fit_rejects_non_positive_iteration_cap(fit, max_iter):
    with pytest.raises(ValueError, match="^max_iter must be a positive integer$"):
        fit(blobs(), C=1.0, max_iter=max_iter)


# --- linear SVM

def test_svm_separable_blobs():
    ds = blobs(seed=1)
    model = fit_linear_svm(ds, C=100.0)
    assert np.array_equal(predict(model, ds.features), ds.labels)
    design = np.hstack([np.ones((ds.n_samples, 1)), ds.features])
    margins = ds.labels * (design @ model.beta)
    assert np.maximum(0.0, 1.0 - margins).sum() == 0.0    # no slack used


def test_svm_small_C_shrinks_weights():
    ds = blobs(seed=4)
    model = fit_linear_svm(ds, C=1e-8)
    assert np.abs(model.beta[1:]).max() <= 1e-2


def test_svm_matches_1d_grid_search():
    features = np.array([[-2.0], [-1.0], [1.0], [2.0], [-0.5], [0.5]])
    labels = np.array([-1, -1, 1, 1, -1, 1])
    ds = LabeledDataset(features, labels)
    model = fit_linear_svm(ds, C=1.0, max_iter=20_000)
    fitted = svm_objective(model.beta, features, labels, 1.0)
    grid = np.linspace(-5.0, 5.0, 20_001)
    best = min(svm_objective(np.array([0.0, b]), features, labels, 1.0) for b in grid)
    assert fitted <= 1.01 * best


def test_svm_averaged_objective_non_increasing():
    # non-separable imbalanced instance: checkpointed objective of the
    # averaged iterate decreases monotonically
    ds = generate_synthetic(SynthSpec(400, 5, 1 / 3, 1.0, seed=7))
    model = fit_linear_svm(ds, C=1.0, max_iter=4000, tol=0.0)
    trace = model.train_meta["objective_trace"]
    assert len(trace) >= 10
    values = [obj for _, obj in trace]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def reference_fit_linear_svm(train, C, tol, max_iter):
    """The averaged subgradient loop written over the plain design: the
    margins, a boolean copy of the violating rows, and ``svm_objective`` at
    every checkpoint.  Returns ``(average, iterations, trace, quiet)``, where
    ``quiet`` counts the iterations in which no row violated its margin."""
    xd = np.hstack([np.ones((train.n_samples, 1)), train.features])
    y = train.labels.astype(float)
    n = y.size
    lam = 1.0 / (C * n)
    r2 = float(np.mean(np.sum(xd * xd, axis=1)))
    beta = np.zeros(xd.shape[1])
    average = beta.copy()
    trace = []
    previous = np.inf
    iterations = max_iter
    quiet = 0
    for t in range(max_iter):
        margins = y * (xd @ beta)
        violating = margins < 1.0
        subgrad = lam * np.concatenate([[0.0], beta[1:]])
        if violating.any():
            subgrad = subgrad - (xd[violating].T @ y[violating]) / n
        else:
            quiet += 1
        beta = beta - subgrad / (r2 + lam * t)
        average = average * (t / (t + 1.0)) + beta / (t + 1.0)
        if (t + 1) % SVM_CHECK_EVERY == 0 or t + 1 == max_iter:
            objective = svm_objective(average, train.features, train.labels, C)
            trace.append((t + 1, objective))
            if np.isfinite(previous) and previous - objective <= tol * max(1.0, abs(previous)):
                iterations = t + 1
                break
            previous = objective
    return average, iterations, trace, quiet


@pytest.mark.parametrize("data, C, max_iter, stop", [
    ("synth", 0.01, 10_000, "tol"),
    ("synth", 1.0, 10_000, "tol"),
    ("synth", 100.0, 10_000, "tol"),
    ("synth", 0.01, 1000, "cap"),
    ("synth", 100.0, 173, "cap"),           # not a multiple of the checkpoint interval
    ("blobs", 100.0, 10_000, "tol"),        # separable: no row violates after a while
])
def test_svm_matches_reference_loop(data, C, max_iter, stop):
    ds = (generate_synthetic(SynthSpec(400, 5, 1 / 3, 1.0, seed=7)) if data == "synth"
          else blobs(seed=1))
    model = fit_linear_svm(ds, C=C, max_iter=max_iter)
    beta, iterations, trace, quiet = reference_fit_linear_svm(ds, C, 1e-6, max_iter)
    meta = model.train_meta
    assert meta["iterations"] == iterations
    assert (iterations < max_iter) == (stop == "tol")
    assert meta["converged"] is (stop == "tol")
    assert [i for i, _ in meta["objective_trace"]] == [i for i, _ in trace]
    if max_iter % SVM_CHECK_EVERY:
        assert trace[-1][0] == max_iter
    assert np.abs(model.beta - beta).max() <= 1e-12
    for (_, got), (_, want) in zip(meta["objective_trace"], trace):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert meta["objective"] == meta["objective_trace"][-1][1]
    assert meta["objective"] == pytest.approx(
        svm_objective(model.beta, ds.features, ds.labels, C), rel=1e-12, abs=0)
    assert (quiet > 0) == (data == "blobs")


def test_svm_converged_when_tolerance_stops_at_the_cap():
    # the stop test, not the iteration count, decides convergence
    ds = generate_synthetic(SynthSpec(400, 5, 1 / 3, 1.0, seed=7))
    stopped = fit_linear_svm(ds, C=1.0, max_iter=10_000).train_meta
    assert stopped["converged"] is True and stopped["iterations"] < 10_000
    at_cap = fit_linear_svm(ds, C=1.0, max_iter=stopped["iterations"]).train_meta
    assert at_cap["converged"] is True and at_cap["iterations"] == stopped["iterations"]
    before = fit_linear_svm(ds, C=1.0, max_iter=stopped["iterations"] - SVM_CHECK_EVERY)
    assert before.train_meta["converged"] is False


def synth_400():
    return generate_synthetic(SynthSpec(400, 5, 1 / 3, 1.0, seed=7))


def assert_matches_reference(model, ds, C, max_iter, tol=1e-6):
    """``model`` stopped where the one-C reference loop stops, with the same
    checkpoints and ``converged``, and lies within 1e-12 of its iterate."""
    beta, iterations, trace, _ = reference_fit_linear_svm(ds, C, tol, max_iter)
    values = [o for _, o in trace]
    converged = len(values) > 1 and values[-2] - values[-1] <= tol * max(1.0, abs(values[-2]))
    meta = model.train_meta
    assert model.C == C
    assert meta["iterations"] == iterations
    assert meta["converged"] is converged
    assert [i for i, _ in meta["objective_trace"]] == [i for i, _ in trace]
    assert np.abs(model.beta - beta).max() <= 1e-12
    for (_, got), (_, want) in zip(meta["objective_trace"], trace):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert meta["objective"] == meta["objective_trace"][-1][1]


@pytest.mark.parametrize("data, Cs, max_iter, stops", [
    ("synth", [0.01, 1.0, 100.0], 10_000, 3),   # each column freezes at its own checkpoint
    ("synth", [100.0, 0.01, 10.0, 0.1], 173, 1),  # all at the cap, not a multiple of 50
    ("blobs", [1.0, 100.0], 10_000, 2),         # separable: no row violates after a while
    ("synth", [1.0, 0.01, 1.0], 10_000, 2),     # a duplicated C
])
def test_svm_grid_matches_reference_loop(data, Cs, max_iter, stops):
    ds = synth_400() if data == "synth" else blobs(seed=1)
    models = fit_linear_svm_grid(ds, Cs, max_iter=max_iter)
    assert len(models) == len(Cs)
    for model, C in zip(models, Cs):
        assert_matches_reference(model, ds, C, max_iter)
    assert len({m.train_meta["iterations"] for m in models}) == stops
    if max_iter % SVM_CHECK_EVERY:
        assert all(m.train_meta["iterations"] == max_iter for m in models)


def same_model(a, b):
    return (a.C == b.C and np.array_equal(a.beta, b.beta) and a.train_meta == b.train_meta
            and a.kind == b.kind and a.threshold == b.threshold)


# Grids of nine and more columns: a blocked matrix product may round a column
# differently by its position, which these identities must not see.
WIDE_GRID = [0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0]


def test_svm_grid_duplicated_c_gives_identical_columns():
    models = fit_linear_svm_grid(synth_400(), [1.0, *WIDE_GRID, 1.0])
    assert same_model(models[0], models[5]) and same_model(models[0], models[10])
    assert models[0].beta is not models[10].beta
    assert not np.array_equal(models[0].beta, models[1].beta)


def test_svm_grid_permuted_grid_gives_permuted_models():
    ds = synth_400()
    grid = WIDE_GRID
    order = [8, 3, 0, 6, 2, 7, 4, 1, 5]
    models = fit_linear_svm_grid(ds, grid)
    permuted = fit_linear_svm_grid(ds, [grid[i] for i in order])
    assert all(same_model(p, models[i]) for p, i in zip(permuted, order))


@pytest.mark.parametrize("data, C, max_iter", [
    ("synth", 1.0, 10_000), ("synth", 0.01, 173), ("blobs", 100.0, 10_000),
])
def test_svm_grid_single_c_is_fit_linear_svm(data, C, max_iter):
    ds = synth_400() if data == "synth" else blobs(seed=1)
    (model,) = fit_linear_svm_grid(ds, [C], max_iter=max_iter)
    assert same_model(model, fit_linear_svm(ds, C=C, max_iter=max_iter))


def test_svm_grid_rejects_empty_grid():
    with pytest.raises(ValueError, match="^Cs must name at least one C$"):
        fit_linear_svm_grid(blobs(), [])


@pytest.mark.parametrize("C, message", [
    (0.0, "C must be positive"),
    (float("nan"), "C must be positive"),
    (float("inf"), "C must be finite"),
    (1e-320, "C = 1e-320 is too small: 1/(C*N) overflows at N = 60"),
])
@pytest.mark.parametrize("fit", [
    fit_logistic,
    fit_linear_svm,
    lambda ds, C: fit_linear_svm_grid(ds, [1.0, C]),
], ids=["logistic", "svm", "svm-grid"])
def test_fits_refuse_unusable_c(fit, C, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit(blobs(), C=C)


# --- scores, predictions, serialization

def test_decision_scores_examples():
    zero = LinearModel(np.zeros(3), "svm", threshold=0.0)
    assert np.all(decision_scores(zero, np.ones((4, 2))) == 0.0)
    known = LinearModel(np.array([0.0, 1.0]), "svm", threshold=0.0)
    assert decision_scores(known, np.array([[2.0]]))[0] == 2.0


def test_threshold_reproduces_predictions():
    for kind, threshold in (("logistic", 0.5), ("svm", 0.0)):
        ds = blobs(seed=6)
        model = fit_logistic(ds, C=1.0) if kind == "logistic" else fit_linear_svm(ds, C=1.0)
        scores = decision_scores(model, ds.features)
        cut = 0.0 if kind == "logistic" else model.threshold   # logit(0.5) = 0
        assert np.array_equal(predict(model, ds.features), np.where(scores > cut, 1, -1))


def test_scores_rank_separable_data_perfectly():
    ds = blobs(seed=8)
    model = fit_logistic(ds, C=10.0)
    assert roc_auc(decision_scores(model, ds.features), ds.labels) == 1.0


def test_linear_rule_matches_decision_scores_and_predict():
    ds = generate_synthetic(SynthSpec(n_samples=300, n_features=5, positive_fraction=0.3,
                                      class_separation=1.5, seed=4))
    fitted = {"logistic": fit_logistic(ds, C=1.0), "svm": fit_linear_svm(ds, C=1.0)}
    for kind, thresholds in (("logistic", (0.5, 0.3, 0.8)), ("svm", (0.0, -0.4, 0.7))):
        for threshold in thresholds:
            model = LinearModel(fitted[kind].beta, kind, threshold=threshold)
            w, bias, cut = linear_rule(model_to_dict(model))
            scores = ds.features @ w + bias
            np.testing.assert_allclose(scores, decision_scores(model, ds.features),
                                       rtol=0, atol=1e-12)
            preds = np.where(scores > cut, 1, -1)
            assert np.array_equal(preds, predict(model, ds.features))
            assert 0 < np.count_nonzero(preds == 1) < ds.n_samples   # the cut splits the data
            if kind == "logistic":
                assert cut == pytest.approx(np.log(threshold / (1.0 - threshold)))


def test_linear_rule_auc_model_has_no_bias():
    w, bias, cut = linear_rule({"kind": "auc-linear", "w": [1.0, -2.0], "threshold": 0.25})
    assert np.array_equal(w, [1.0, -2.0]) and bias == 0.0 and cut == 0.25


def test_dimension_mismatch():
    model = LinearModel(np.array([0.0, 1.0]), "svm", threshold=0.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        decision_scores(model, np.ones((2, 3)))


def test_model_serialization_round_trip(tmp_path):
    ds = blobs(seed=9)
    model = fit_linear_svm(ds, C=2.0)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == "svm" and loaded.C == 2.0
    assert np.array_equal(loaded.beta, model.beta)
    assert model_to_dict(model_from_dict(model_to_dict(model))) == model_to_dict(model)
