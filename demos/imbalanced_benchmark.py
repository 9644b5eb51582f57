#!/usr/bin/env python3
"""End-to-end imbalanced benchmark: AUC maximizer vs tuned linear baselines.

On 2:1-imbalanced data with moderate class overlap, the three linear
models learn essentially the same ranking direction (similar AUC), but
their operating points differ sharply: logistic regression and the SVM
sit at majority-friendly thresholds (high accuracy/precision, poor
recall), while the AUC-trained classifier thresholds at the midpoint of
its learned score centers and recovers most of the minority class.
"""

import numpy as np

from aucmax import (
    AucProblem,
    PrimalDualState,
    SolverConfig,
    SplitSpec,
    SynthSpec,
    classification_report,
    decision_scores,
    fit_apply_standardizer,
    fit_linear_svm,
    fit_logistic,
    generate_synthetic,
    predict,
    roc_auc,
    solve,
    split,
)

C_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
SEED = 0

dataset = generate_synthetic(
    SynthSpec(n_samples=3000, n_features=20, positive_fraction=1 / 3,
              class_separation=1.0, seed=SEED)
)
train, test = split(dataset, SplitSpec(train_fraction=0.8, seed=SEED))
train_std, test_std, _ = fit_apply_standardizer(train, test)
print(f"train {train_std.n_samples} / test {test_std.n_samples}, "
      f"{train_std.n_features} features, positive fraction "
      f"{np.mean(train_std.labels == 1):.3f}")


def tune(fit_fn, name):
    carve_train, carve_val = split(train_std, SplitSpec(train_fraction=0.9, seed=SEED + 1))
    best_c, best_auc = None, -np.inf
    for c in C_GRID:
        model = fit_fn(carve_train, C=c)
        auc = roc_auc(decision_scores(model, carve_val.features), carve_val.labels)
        if auc > best_auc:
            best_c, best_auc = c, auc
    print(f"{name}: tuned C = {best_c} (validation AUC {best_auc:.3f})")
    return fit_fn(train_std, C=best_c)


logistic = tune(fit_logistic, "logistic regression")
svm = tune(fit_linear_svm, "linear SVM")

problem = AucProblem(train_std, lam=1e-4)
result = solve(problem, SolverConfig(method="alt-gda"))
state = PrimalDualState.from_packed(result.final_z)
threshold = (state.u + state.v) / 2.0
print(f"AUC maximizer (alt-gda): converged={result.converged} in "
      f"{result.iterations_used} iterations; threshold (u+v)/2 = {threshold:.4f}")

rows = []
for name, scores, preds in (
    ("logistic", decision_scores(logistic, test_std.features), predict(logistic, test_std.features)),
    ("linear-svm", decision_scores(svm, test_std.features), predict(svm, test_std.features)),
    ("auc-max", test_std.features @ state.w,
     np.where(test_std.features @ state.w > threshold, 1, -1)),
):
    rows.append((name, classification_report(test_std.labels, preds, scores)))

print(f"\n{'model':12s} {'accuracy':>9s} {'precision':>10s} {'recall':>8s} {'f1':>7s} {'auc':>7s}")
for name, rep in rows:
    print(f"{name:12s} {rep.accuracy:9.3f} {rep.precision:10.3f} "
          f"{rep.recall:8.3f} {rep.f1:7.3f} {rep.auc:7.3f}")

best_baseline_recall = max(rows[0][1].recall, rows[1][1].recall)
print(f"\nminority-class recall gain over the best baseline: "
      f"+{100 * (rows[2][1].recall - best_baseline_recall):.1f} percentage points "
      f"at matched AUC ({rows[2][1].auc:.3f} vs {max(rows[0][1].auc, rows[1][1].auc):.3f})")
