import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.special import expit, xlogy

from aucmax import baselines
from aucmax.baselines import (
    LinearModel,
    auc_model,
    decision_scores,
    fit_linear_svm,
    fit_logistic,
    linear_rule,
    logistic_objective,
    model_to_dict,
    predict,
    score,
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


def synth_400():
    return generate_synthetic(SynthSpec(400, 5, 1 / 3, 1.0, seed=7))


def rows(features, labels):
    """The label-scaled rows ``z_i = y_i [1, x_i]`` that both objectives read,
    stored features-major as the fits store them: through BLAS the last bit
    of an objective depends on the memory layout of its rows."""
    features = np.asarray(features, dtype=float)
    z = np.asarray(labels)[:, None] * np.hstack([np.ones((features.shape[0], 1)), features])
    return np.ascontiguousarray(z.T).T


def set2_shaped(seed=0, n=60, d=80):
    """Like an EEG Set2 table: n < d (so separable), one duplicated column,
    and per-row max, min and range = max - min columns, standardized."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    high, low = x[:, :8].max(axis=1), x[:, :8].min(axis=1)
    x = np.column_stack([x, x[:, 3], high, low, high - low])
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    labels = np.where(np.arange(n) % 3 == 0, 1, -1)
    return LabeledDataset(x, labels)


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
    z = rows(features, labels)
    _, grad = logistic_objective(beta, z, C=2.0)
    numeric = np.zeros_like(beta)
    h = 1e-6
    for i in range(beta.size):
        bp, bm = beta.copy(), beta.copy()
        bp[i] += h
        bm[i] -= h
        numeric[i] = (
            logistic_objective(bp, z, 2.0)[0]
            - logistic_objective(bm, z, 2.0)[0]
        ) / (2 * h)
    assert np.linalg.norm(grad - numeric) / np.linalg.norm(numeric) <= 1e-6


def test_logistic_rejects_bad_C():
    with pytest.raises(ValueError, match="C"):
        fit_logistic(blobs(), C=0.0)


@pytest.mark.parametrize("fit", [fit_logistic, fit_linear_svm])
@pytest.mark.parametrize("max_iter", [0, -5])
def test_fit_rejects_non_positive_iteration_cap(fit, max_iter):
    with pytest.raises(ValueError, match="^max_iter must be a positive integer$"):
        fit(blobs(), C=1.0, max_iter=max_iter)


def reference_fit_logistic(train, C, tol=1e-6, max_iter=10_000):
    """Full-batch gradient descent with Armijo backtracking (the step doubles
    after each accepted step, up to 1e6): slow, but a plain reference for the
    optimum.  Returns ``(beta, value, grad_norm, iterations)``."""
    z = rows(train.features, train.labels)
    beta = np.zeros(train.n_features + 1)
    value, grad = logistic_objective(beta, z, C)
    step = 1.0
    iterations = 0
    grad_norm = float(np.linalg.norm(grad))
    for iterations in range(1, max_iter + 1):
        if grad_norm <= tol:
            iterations -= 1
            break
        accepted = False
        for _ in range(60):
            candidate = beta - step * grad
            cand_value, cand_grad = logistic_objective(candidate, z, C)
            if cand_value <= value - 1e-4 * step * grad_norm**2:
                beta, value, grad = candidate, cand_value, cand_grad
                grad_norm = float(np.linalg.norm(grad))
                step = min(step * 2.0, 1e6)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return beta, value, grad_norm, iterations


# The fitted objective is rounded in its last bits; a certificate far below
# that rounding cannot order two objectives that agree to it.
ROUNDING = 4 * np.finfo(float).eps


def assert_logistic_meta(model, ds, C):
    """``objective`` and ``grad_norm`` are the model's own, and the gap is a
    finite nonnegative number."""
    meta = model.train_meta
    value, grad = logistic_objective(model.beta, rows(ds.features, ds.labels), C)
    assert meta["objective"] == value
    assert meta["grad_norm"] == float(np.linalg.norm(grad))
    assert meta["converged"] is (meta["grad_norm"] <= 1e-6)
    assert np.isfinite(meta["duality_gap"]) and meta["duality_gap"] >= 0.0


@pytest.mark.parametrize("data", ["synth", "blobs"])
@pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
def test_logistic_objective_at_most_the_descent_reference(data, C):
    ds = synth_400() if data == "synth" else blobs(seed=1)
    model = fit_logistic(ds, C=C)
    assert_logistic_meta(model, ds, C)
    meta = model.train_meta
    assert meta["converged"] is True and meta["iterations"] <= 15
    _, value, grad_norm, iterations = reference_fit_logistic(ds, C)
    assert grad_norm <= 1e-6 and iterations > meta["iterations"]
    assert meta["objective"] <= value


@pytest.mark.parametrize("data, C", [
    ("synth", 0.01), ("synth", 1.0), ("synth", 100.0), ("blobs", 1.0), ("blobs", 100.0),
    ("set2", 0.01), ("set2", 100.0),
])
def test_logistic_gap_bounds_the_suboptimality(data, C):
    ds = {"synth": synth_400, "blobs": lambda: blobs(seed=1), "set2": set2_shaped}[data]()
    meta = fit_logistic(ds, C=C).train_meta
    tight = fit_logistic(ds, C=C, tol=1e-12).train_meta
    assert meta["converged"] is True and meta["duality_gap"] >= 0.0
    # the optimum lies in [tight objective - tight gap, tight objective]
    slack = ROUNDING * meta["objective"]
    assert meta["objective"] - tight["objective"] <= meta["duality_gap"] + slack
    assert tight["objective"] - tight["duality_gap"] <= meta["objective"] + slack
    # far below the rounding of P its sign is not resolved
    assert abs(tight["duality_gap"]) <= 1e-12 * tight["objective"]


def logistic_dual(a, ds, C):
    """``D(a) = mean(H(a_i)) - ||(1/N) sum a_i y_i x_i||^2 / (2 lam)``, the
    logistic fit's dual objective, written from its definition."""
    n = ds.n_samples
    entropy = -(xlogy(a, a) + xlogy(1.0 - a, 1.0 - a)).mean()
    pull = (a * ds.labels) @ ds.features / n
    return entropy - (pull @ pull) * C * n / 2.0


@pytest.mark.parametrize("C", [1e-4, 1.0])
def test_logistic_certificate_is_a_lower_bound_off_balance(C):
    # away from the optimum s(-m) breaks sum(a * y) = 0; the certificate must
    # balance it before D bounds the optimum, and its gap is then P - D(a)
    ds = synth_400()
    n, positive = ds.n_samples, ds.labels == 1
    optimum = fit_logistic(ds, C=C, tol=1e-12).train_meta["objective"]
    z = rows(ds.features, ds.labels)
    rng = np.random.default_rng(5)
    saturated = np.zeros(z.shape[1])
    saturated[0] = 800.0                # s(-m) is 0 on every positive row: a = 0 elsewhere
    for beta in (np.zeros(z.shape[1]), rng.standard_normal(z.shape[1]),
                 np.concatenate([[2.0], rng.standard_normal(z.shape[1] - 1)]), saturated):
        margins = z @ beta
        q = expit(-margins)
        assert abs(q @ ds.labels) > 1.0                  # off balance
        gap = baselines._logistic_gap(np.ascontiguousarray(z.T), margins, beta,
                                      1.0 / (C * n), positive)
        primal = logistic_objective(beta, z, C)[0]
        assert primal - gap <= optimum * (1 + 1e-12)
        balanced = q.copy()
        scaled = positive if q[positive].sum() > q[~positive].sum() else ~positive
        balanced[scaled] *= balanced[~scaled].sum() / balanced[scaled].sum()
        assert gap == pytest.approx(primal - logistic_dual(balanced, ds, C), rel=1e-12, abs=0)


@pytest.mark.parametrize("C", [0.01, 100.0])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_logistic_iteration_cap_returns_the_capped_iterate(C, cap):
    ds = blobs(seed=1)
    model = fit_logistic(ds, C=C, max_iter=cap)
    assert_logistic_meta(model, ds, C)
    meta = model.train_meta
    assert meta["iterations"] == cap and meta["converged"] is False
    full = fit_logistic(ds, C=C).train_meta
    assert full["iterations"] > cap
    assert meta["objective"] - full["objective"] <= meta["duality_gap"]
    if cap > 1:
        assert meta["objective"] < fit_logistic(ds, C=C, max_iter=cap - 1).train_meta["objective"]


def test_logistic_failed_cholesky_returns_the_last_iterate(monkeypatch):
    ds = synth_400()
    real, calls = baselines.cho_factor, []

    def fail_on_the_third(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise LinAlgError("not positive definite")
        return real(*args, **kwargs)

    monkeypatch.setattr(baselines, "cho_factor", fail_on_the_third)
    model = fit_logistic(ds, C=1.0)
    monkeypatch.undo()
    assert len(calls) == 3
    assert_logistic_meta(model, ds, 1.0)
    capped = fit_logistic(ds, C=1.0, max_iter=2)
    assert np.array_equal(model.beta, capped.beta) and model.train_meta == capped.train_meta
    assert model.train_meta["converged"] is False


@pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
def test_logistic_zero_tolerance_ends_at_the_rounding_floor(C):
    # no gradient norm meets a zero tolerance: the line search ends the fit
    # once a step no longer lowers the objective
    ds = synth_400()
    meta = fit_logistic(ds, C=C, tol=0.0).train_meta
    assert meta["converged"] is False and meta["iterations"] <= 20
    assert abs(meta["duality_gap"]) <= 1e-12 * meta["objective"]


def test_logistic_converges_on_a_set2_shaped_table_at_large_c():
    ds = set2_shaped()
    assert np.linalg.matrix_rank(ds.features) < ds.n_features
    model = fit_logistic(ds, C=100.0)
    assert_logistic_meta(model, ds, 100.0)
    meta = model.train_meta
    assert meta["converged"] is True and meta["iterations"] <= 20
    assert meta["duality_gap"] <= 1e-6 * meta["objective"]
    assert np.array_equal(predict(model, ds.features), ds.labels)


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
    model = fit_linear_svm(ds, C=1.0, tol=1e-12)
    z = rows(features, labels)
    fitted = svm_objective(model.beta, z, 1.0)
    grid = np.linspace(-5.0, 5.0, 20_001)
    best = min(svm_objective(np.array([0.0, b]), z, 1.0) for b in grid)
    assert fitted <= best + 1e-9


def reference_fit_linear_svm(train, C, max_iter, tol=None):
    """The averaged subgradient loop with Pegasos-like steps
    ``1 / (R^2 + lam * t)``, written over the plain design: slow, but a plain
    reference for the optimum.  Every ``REFERENCE_CHECK_EVERY`` iterations and
    at the cap it records ``svm_objective`` of the averaged iterate and, given
    a ``tol``, stops once that objective improves by at most
    ``tol * max(1, |previous|)``.  Returns ``(average, iterations, trace,
    quiet)``, where ``quiet`` counts the iterations in which no row violated
    its margin."""
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
        violating = y * (xd @ beta) < 1.0
        quiet += not violating.any()
        subgrad = lam * np.concatenate([[0.0], beta[1:]])
        subgrad = subgrad - (xd[violating].T @ y[violating]) / n
        beta = beta - subgrad / (r2 + lam * t)
        average = average * (t / (t + 1.0)) + beta / (t + 1.0)
        if (t + 1) % REFERENCE_CHECK_EVERY == 0 or t + 1 == max_iter:
            objective = svm_objective(average, y[:, None] * xd, C)
            trace.append((t + 1, objective))
            if (tol is not None and np.isfinite(previous)
                    and previous - objective <= tol * max(1.0, abs(previous))):
                iterations = t + 1
                break
            previous = objective
    return average, iterations, trace, quiet


REFERENCE_CHECK_EVERY = 50


def assert_certified(model, ds, C, tol=1e-6):
    """Converged, with a gap within ``tol`` of an objective that is the
    model's own ``svm_objective``."""
    meta = model.train_meta
    assert meta["converged"] is True
    assert meta["objective"] == pytest.approx(
        svm_objective(model.beta, rows(ds.features, ds.labels), C), rel=1e-12, abs=0)
    assert meta["objective"] == meta["objective_trace"][-1][1]
    assert [i for i, _ in meta["objective_trace"]] == list(range(1, meta["iterations"] + 1))
    assert 0.0 <= meta["duality_gap"] <= tol * meta["objective"]


@pytest.mark.parametrize("data", ["synth", "blobs"])
@pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
def test_svm_objective_at_most_the_subgradient_reference(data, C):
    ds = synth_400() if data == "synth" else blobs(seed=1)
    model = fit_linear_svm(ds, C=C)
    assert_certified(model, ds, C)
    assert model.train_meta["iterations"] <= 30
    reference, _, _, _ = reference_fit_linear_svm(ds, C, max_iter=20_000)
    assert model.train_meta["objective"] <= svm_objective(
        reference, rows(ds.features, ds.labels), C)


@pytest.mark.parametrize("data, C, max_iter, stop", [
    ("synth", 0.01, 10_000, "tol"),
    ("synth", 1.0, 10_000, "tol"),
    ("synth", 100.0, 10_000, "tol"),
    ("synth", 0.01, 1000, "cap"),
    ("synth", 100.0, 173, "cap"),           # not a multiple of the checkpoint interval
    ("blobs", 100.0, 10_000, "tol"),        # separable: no row violates after a while
])
def test_svm_matches_reference_loop(data, C, max_iter, stop):
    # the subgradient loop, stopped by its own tolerance or by the cap, lands
    # at or above the certified optimum, and near it once it stops by tolerance
    ds = synth_400() if data == "synth" else blobs(seed=1)
    model = fit_linear_svm(ds, C=C, max_iter=max_iter)
    assert_certified(model, ds, C)
    beta, iterations, trace, quiet = reference_fit_linear_svm(ds, C, max_iter, tol=1e-6)
    assert (iterations < max_iter) == (stop == "tol")
    assert trace[-1][0] == iterations
    fitted, reference = model.train_meta["objective"], trace[-1][1]
    assert reference == svm_objective(beta, rows(ds.features, ds.labels), C)
    slack = 1e-3 if stop == "tol" else 1e-2
    assert 0.0 <= reference - fitted <= slack * max(1.0, fitted)
    # separable blobs: the reference meets every margin at times, and the
    # optimum violates none
    margins = ds.labels * decision_scores(model, ds.features)
    assert (quiet > 0) == (data == "blobs")
    assert bool((margins >= 1.0 - 1e-6).all()) == (data == "blobs")


@pytest.mark.parametrize("data, C", [
    ("synth", 0.01), ("synth", 1.0), ("synth", 100.0), ("blobs", 1.0), ("blobs", 100.0),
])
def test_svm_gap_bounds_the_suboptimality(data, C):
    ds = synth_400() if data == "synth" else blobs(seed=1)
    meta = fit_linear_svm(ds, C=C).train_meta
    tight = fit_linear_svm(ds, C=C, tol=1e-12).train_meta
    assert meta["converged"] is True and meta["duality_gap"] >= 0.0
    # the optimum lies in [tight objective - tight gap, tight objective]
    assert meta["objective"] - tight["objective"] <= meta["duality_gap"]
    assert tight["objective"] - tight["duality_gap"] <= meta["objective"]
    assert tight["duality_gap"] <= 1e-9 * tight["objective"]


@pytest.mark.parametrize("C", [1e-4, 1.0])
def test_svm_certificate_is_a_lower_bound_at_any_dual_point(C):
    # far from the optimum the dual iterate breaks 0 <= alpha <= 1/N and
    # sum(alpha * y) = 0; the certificate must repair both before D bounds
    ds = synth_400()
    n = ds.n_samples
    optimum = fit_linear_svm(ds, C=C, tol=1e-12).train_meta["objective"]
    z = rows(ds.features, ds.labels)
    rng = np.random.default_rng(5)
    dual_points = [np.full(n, 1.0 / n), np.full(n, 2.0 / n), rng.uniform(-1.0, 2.0, n) / n,
                   np.where(ds.labels == 1, 1.0 / n, 0.0)]
    for beta in (np.zeros(z.shape[1]), rng.standard_normal(z.shape[1])):
        for alpha in dual_points:
            primal, gap = baselines._svm_certificate(
                np.ascontiguousarray(z.T), z @ beta, beta, alpha, 1.0 / (C * n), ds.labels == 1)
            assert primal == pytest.approx(
                svm_objective(beta, z, C), rel=1e-12, abs=0)
            assert primal - gap <= optimum * (1 + 1e-12)


def test_svm_converges_on_a_set2_shaped_table_at_large_c():
    ds = set2_shaped()
    assert np.linalg.matrix_rank(ds.features) < ds.n_features
    model = fit_linear_svm(ds, C=100.0)
    assert_certified(model, ds, 100.0)
    assert model.train_meta["iterations"] <= 30
    assert np.array_equal(predict(model, ds.features), ds.labels)


def assert_ends_unconverged(model, ds, C):
    """Not converged, at a finite iterate whose objective, trace and gap are
    its own."""
    meta = model.train_meta
    assert meta["converged"] is False
    assert np.isfinite(model.beta).all() and np.isfinite(meta["duality_gap"])
    assert meta["objective"] == pytest.approx(
        svm_objective(model.beta, rows(ds.features, ds.labels), C), rel=1e-12, abs=0)
    assert [i for i, _ in meta["objective_trace"]] == list(range(1, meta["iterations"] + 1))


@pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
def test_svm_zero_tolerance_ends_at_the_rounding_floor(C):
    ds = synth_400()
    model = fit_linear_svm(ds, C=C, tol=0.0)
    meta = model.train_meta
    if meta["duality_gap"] > 0.0:           # a gap of exactly 0 meets a zero tolerance
        assert_ends_unconverged(model, ds, C)
    assert meta["iterations"] <= 40
    assert abs(meta["duality_gap"]) <= 1e-12 * meta["objective"]


@pytest.mark.parametrize("C", [0.01, 100.0])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_svm_iteration_cap_returns_the_capped_iterate(C, cap):
    ds = synth_400()
    model = fit_linear_svm(ds, C=C, max_iter=cap)
    assert_ends_unconverged(model, ds, C)
    meta = model.train_meta
    assert meta["iterations"] == cap
    assert meta["duality_gap"] > 1e-6 * meta["objective"]
    full = fit_linear_svm(ds, C=C).train_meta
    assert full["objective_trace"][:cap] == meta["objective_trace"]


def test_svm_converged_when_tolerance_stops_at_the_cap():
    # the gap test against the tolerance, not the iteration count, decides convergence
    ds = synth_400()
    stopped = fit_linear_svm(ds, C=1.0).train_meta
    assert stopped["converged"] is True and stopped["iterations"] < 10_000
    at_cap = fit_linear_svm(ds, C=1.0, max_iter=stopped["iterations"]).train_meta
    assert at_cap == stopped
    before = fit_linear_svm(ds, C=1.0, max_iter=stopped["iterations"] - 1).train_meta
    assert before["converged"] is False
    assert before["objective_trace"] == stopped["objective_trace"][:-1]


def test_svm_failed_cholesky_returns_the_last_finite_iterate(monkeypatch):
    ds = synth_400()
    real, calls = baselines.cho_factor, []

    def fail_on_the_fourth(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise LinAlgError("not positive definite")
        return real(*args, **kwargs)

    monkeypatch.setattr(baselines, "cho_factor", fail_on_the_fourth)
    model = fit_linear_svm(ds, C=1.0)
    monkeypatch.undo()
    assert len(calls) == 4
    assert_ends_unconverged(model, ds, 1.0)
    capped = fit_linear_svm(ds, C=1.0, max_iter=3)
    assert np.array_equal(model.beta, capped.beta) and model.train_meta == capped.train_meta


def test_svm_rank_deficient_columns_fail_the_factorization(monkeypatch):
    # x0 = +-1 with sum 0, duplicated, n = 64: at the start theta = 1/256 and
    # every entry of the first system and of its Cholesky factor is exact, so
    # the duplicate's pivot is exactly 0 once lam = 1/(C*N) rounds away
    x0 = np.tile([1.0, -1.0], 32)
    labels = np.where(np.arange(64) % 4 == 0, -x0, x0).astype(int)
    ds = LabeledDataset(np.column_stack([x0, x0]), labels)
    real, failures = baselines.cho_factor, []

    def recording(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except LinAlgError:
            failures.append(None)
            raise

    monkeypatch.setattr(baselines, "cho_factor", recording)
    model = fit_linear_svm(ds, C=1e20)
    assert failures == [None]
    assert_ends_unconverged(model, ds, 1e20)
    assert model.train_meta["iterations"] == 0 and not model.beta.any()


# A case is named by the rule its C breaks; every C out of range gets the range's one message.
@pytest.mark.parametrize("C, rule", [
    (0.0, "C must be positive"),
    (float("nan"), "C must be positive"),
    (float("inf"), "C must be finite"),
    (1e-320, "C = 1e-320 is too small: 1/(C*N) overflows at N = 60"),
    (1e308, "C = 1e+308 is too large: 1/(C*N) underflows to 0 at N = 60"),
])
@pytest.mark.parametrize("fit", [
    fit_logistic,
    fit_linear_svm,
    lambda ds, C: [fit_linear_svm(ds, C=c) for c in (1.0, C)],   # compare's tuning: one fit per C
], ids=["logistic", "svm", "svm-grid"])
def test_fits_refuse_unusable_c(fit, C, rule):
    message = rule if "1/(C*N)" in rule else "C must be a positive finite number"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit(blobs(), C=C)


@pytest.mark.parametrize("fit", [fit_logistic, fit_linear_svm])
def test_fits_accept_a_subnormal_penalty(fit):
    # C * N = 1.6e308 is finite: lam = 6.25e-309 is below the smallest normal
    # number but positive, and the certificate stays finite
    ds = synth_400()
    lam = 1.0 / (4e305 * ds.n_samples)
    assert 0.0 < lam < np.finfo(float).tiny
    assert np.isfinite(fit(ds, C=4e305).train_meta["duality_gap"])


@pytest.mark.parametrize("fit", [fit_logistic, fit_linear_svm])
def test_fit_peak_memory_is_about_two_designs(fit):
    # a fit holds one design and, while it forms a system, one scaled copy of
    # it: no transposed copy and no GEMM operand beside them
    ds = generate_synthetic(SynthSpec(4000, 300, 1 / 3, 1.0, seed=11))
    design = ds.n_samples * (ds.n_features + 1) * 8
    tracemalloc.start()
    try:
        fit(ds, C=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * design


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
            stored_scores, stored_preds = score(model_to_dict(model), ds.features)
            assert np.array_equal(stored_scores, scores) and np.array_equal(stored_preds, preds)
            assert 0 < np.count_nonzero(preds == 1) < ds.n_samples   # the cut splits the data
            if kind == "logistic":
                assert cut == pytest.approx(np.log(threshold / (1.0 - threshold)))


def test_linear_rule_auc_model_has_no_bias():
    w, bias, cut = linear_rule({"kind": "auc-linear", "w": [1.0, -2.0], "threshold": 0.25})
    assert np.array_equal(w, [1.0, -2.0]) and bias == 0.0 and cut == 0.25


@pytest.mark.parametrize("threshold", [None, 0.3], ids=["midpoint", "override"])
def test_auc_model_scores_with_w_at_its_cut(threshold):
    rng = np.random.default_rng(5)
    z = rng.standard_normal(6)                  # d = 3: [w; u; v; y]
    x = rng.standard_normal((40, 3))
    w, u, v, y = z[:3], z[3], z[4], z[5]
    model = auc_model(z, 1e-2, threshold)
    cut = (u + v) / 2.0 if threshold is None else threshold
    assert model == {"kind": "auc-linear", "w": w.tolist(), "u": u, "v": v, "y": y,
                     "threshold": cut, "lambda": 1e-2}
    scores, preds = score(model, x)
    assert np.array_equal(scores, x @ w)
    assert np.array_equal(preds, np.where(x @ w > cut, 1, -1))
    assert 0 < np.count_nonzero(preds == 1) < x.shape[0]    # the cut splits the rows


@pytest.mark.parametrize("z", [np.zeros(3), np.zeros((2, 4))], ids=["short", "2-d"])
def test_auc_model_refuses_a_vector_that_is_not_a_state(z):
    with pytest.raises(ValueError, match=re.escape("packed vector must be [w; u; v; y] with d >= 1")):
        auc_model(z, 1e-4)


def test_dimension_mismatch():
    beta = np.array([0.0, 1.0])
    for model in (model_to_dict(LinearModel(beta, "svm", threshold=0.0)),
                  model_to_dict(LinearModel(beta, "logistic", threshold=0.5)),
                  auc_model(np.zeros(4), 1e-4)):
        with pytest.raises(ValueError, match="^dimension mismatch: model expects 1 features, got 3$"):
            score(model, np.ones((2, 3)))
        with pytest.raises(ValueError, match="^features must be a 2-D array$"):
            score(model, np.ones(3))
