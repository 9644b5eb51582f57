"""Linear baseline classifiers fit by deterministic full-batch methods:
L2-regularized logistic regression (gradient descent with backtracking)
and a soft-margin linear SVM in its hinge-loss form (averaged subgradient
descent with Pegasos-style decreasing steps)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .objective import LabeledDataset

__all__ = [
    "LinearModel",
    "logistic_objective",
    "svm_objective",
    "fit_logistic",
    "fit_linear_svm",
    "fit_linear_svm_grid",
    "decision_scores",
    "predict",
    "predict_proba",
    "model_to_dict",
    "model_from_dict",
    "linear_rule",
    "save_model",
    "load_model",
]


@dataclass
class LinearModel:
    """Fitted linear classifier; ``beta`` holds the intercept first."""

    beta: np.ndarray
    kind: str                                   # "logistic" or "svm"
    threshold: float                            # probability (logistic) or margin (svm)
    C: float | None = None
    train_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.ndim != 1 or self.beta.size < 2:
            raise ValueError("beta must be [intercept, weights...]")
        if not np.isfinite(self.beta).all():
            raise ValueError("beta contains NaN or Inf")
        if self.kind not in ("logistic", "svm"):
            raise ValueError(f"unknown model kind {self.kind!r}")


def _design(features) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D array")
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _penalty(C, n: int) -> float:
    """The L2 weight ``1/(C*N)`` that both fits put on the non-intercept
    weights; refuses a ``C`` for which it is not a finite number."""
    if not C > 0:
        raise ValueError("C must be positive")
    if not np.isfinite(C):
        raise ValueError("C must be finite")
    lam = 1.0 / (C * n)
    if not np.isfinite(lam):
        raise ValueError(f"C = {C!r} is too small: 1/(C*N) overflows at N = {n}")
    return lam


def logistic_objective(beta, features, labels, C: float):
    """Mean logistic loss plus ``1/(2*C*N)`` L2 on the non-intercept weights.

    Returns ``(value, gradient)``.
    """
    xd = _design(features)
    y = np.asarray(labels, dtype=float)
    n = y.size
    margins = y * (xd @ beta)
    value = float(np.mean(np.logaddexp(0.0, -margins)))
    reg = np.asarray(beta, dtype=float).copy()
    reg[0] = 0.0
    value += float(reg @ reg) / (2.0 * C * n)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite logistic loss")
    weights = y * expit(-margins)               # sigma(-y * score)
    grad = -(xd.T @ weights) / n + reg / (C * n)
    return value, grad


def fit_logistic(train: LabeledDataset, C: float = 1.0, tol: float = 1e-6,
                 max_iter: int = 10_000) -> LinearModel:
    """Full-batch gradient descent with Armijo backtracking.

    Terminates when the loss gradient norm drops to ``tol`` or after
    ``max_iter`` accepted steps; predicts +1 when the modeled probability
    exceeds 0.5.
    """
    _penalty(C, train.n_samples)
    if max_iter < 1:
        raise ValueError("max_iter must be a positive integer")
    beta = np.zeros(train.n_features + 1)
    value, grad = logistic_objective(beta, train.features, train.labels, C)
    step = 1.0
    iterations = 0
    grad_norm = float(np.linalg.norm(grad))
    for iterations in range(1, max_iter + 1):
        if grad_norm <= tol:
            iterations -= 1
            break
        accepted = False
        for _ in range(60):                     # Armijo: halve until sufficient decrease
            candidate = beta - step * grad
            cand_value, cand_grad = logistic_objective(candidate, train.features, train.labels, C)
            if cand_value <= value - 1e-4 * step * grad_norm**2:
                beta, value, grad = candidate, cand_value, cand_grad
                grad_norm = float(np.linalg.norm(grad))
                step = min(step * 2.0, 1e6)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break                               # step underflow: cannot improve further
    meta = {
        "iterations": iterations,
        "grad_norm": grad_norm,
        "objective": value,
        "converged": bool(grad_norm <= tol),
    }
    return LinearModel(beta, "logistic", threshold=0.5, C=C, train_meta=meta)


def svm_objective(beta, features, labels, C: float) -> float:
    """Scaled soft-margin objective ``(0.5 ||w||^2 + C * sum hinge) / (C * N)``
    (intercept unregularized)."""
    xd = _design(features)
    y = np.asarray(labels, dtype=float)
    n = y.size
    margins = y * (xd @ beta)
    hinge = np.maximum(0.0, 1.0 - margins)
    lam = 1.0 / (C * n)
    weights = np.asarray(beta, dtype=float).copy()
    weights[0] = 0.0
    return float(0.5 * lam * (weights @ weights) + hinge.mean())


SVM_CHECK_EVERY = 50


def fit_linear_svm(train: LabeledDataset, C: float = 1.0, tol: float = 1e-6,
                   max_iter: int = 10_000) -> LinearModel:
    """The soft-margin SVM at one ``C``: the one-column call of
    ``fit_linear_svm_grid``, which documents the method."""
    return fit_linear_svm_grid(train, [C], tol=tol, max_iter=max_iter)[0]


def fit_linear_svm_grid(train: LabeledDataset, Cs, tol: float = 1e-6,
                        max_iter: int = 10_000) -> list[LinearModel]:
    """Averaged subgradient descent on the hinge form of the soft-margin SVM,
    run for every ``C`` of ``Cs`` at once; one model per ``C``, in grid order.

    Steps follow ``1 / (R^2 + lam * t)`` with ``lam = 1/(C*N)`` and ``R^2``
    the mean squared row norm, decreasing like the strongly convex optimal
    schedule but bounded at the start.  The running average of iterates is
    returned; its objective is checkpointed every 50 iterations and the fit
    stops early once the relative improvement falls below ``tol``
    (``train_meta["converged"]``; False when ``max_iter`` ends the fit).

    The label-scaled design ``y * [1, x]`` is formed once, and the iterates
    of the grid are the columns of one matrix with a per-column ``lam``, so
    an iteration is two matrix products: margins, and the hinge subgradients
    as the sums of the violating rows.  A column whose own stop test fires is
    frozen and leaves the product.  Each column takes the steps and stops at
    the checkpoint of a fit at its ``C`` alone; ``fit_linear_svm`` is that
    one-column fit.
    """
    Cs = list(Cs)
    n = train.n_samples
    per_c = [_penalty(C, n) for C in Cs]
    if not per_c:
        raise ValueError("Cs must name at least one C")
    if max_iter < 1:
        raise ValueError("max_iter must be a positive integer")
    xd = _design(train.features)
    y = train.labels.astype(float)
    # The fit depends on C only through lam.  Each distinct lam is one column,
    # in ascending order, so a column's bits do not depend on where or how
    # often its C appears in the grid.
    lam, column_of = np.unique(per_c, return_inverse=True)
    r2 = float(np.mean(np.sum(xd * xd, axis=1)))
    yx = y[:, None] * xd
    yx_t = np.ascontiguousarray(yx.T)
    penalized = np.ones((xd.shape[1], 1))
    penalized[0] = 0.0                          # the intercept is not regularized
    beta = np.zeros((xd.shape[1], lam.size))
    average = beta.copy()
    decay = lam * penalized                     # the L2 subgradient's factor on beta
    violating = np.empty((n, lam.size))         # 1.0 where a row violates its margin
    active = np.arange(lam.size)                # the column index of each running iterate
    traces: list[list[tuple[int, float]]] = [[] for _ in active]
    previous = [np.inf] * lam.size
    stopped: list = [None] * lam.size           # (average, iterations, converged) per column
    for t in range(max_iter):
        np.less(yx @ beta, 1.0, out=violating, casting="unsafe")
        subgrad = decay * beta - (yx_t @ violating) / n
        beta = beta - subgrad / (r2 + lam * t)
        average = average * (t / (t + 1.0)) + beta / (t + 1.0)
        if (t + 1) % SVM_CHECK_EVERY == 0 or t + 1 == max_iter:
            running = []
            for j, objective in enumerate(_svm_objectives(yx, average, lam, penalized)):
                col = active[j]
                before = previous[col]
                traces[col].append((t + 1, objective))
                converged = bool(np.isfinite(before)
                                 and before - objective <= tol * max(1.0, abs(before)))
                if converged or t + 1 == max_iter:
                    stopped[col] = (average[:, j], t + 1, converged)
                else:
                    previous[col] = objective
                    running.append(j)
            if not running:
                break
            if len(running) < active.size:      # freeze the stopped columns
                beta, average = beta[:, running], average[:, running]
                lam, active = lam[running], active[running]
                decay, violating = decay[:, running], violating[:, running]
    models = []
    for C, col in zip(Cs, column_of):
        final, iterations, converged = stopped[col]
        meta = {
            "converged": converged,
            "iterations": iterations,
            "objective": traces[col][-1][1],
            "objective_trace": [[i, o] for i, o in traces[col]],
        }
        models.append(LinearModel(final.copy(), "svm", threshold=0.0, C=C, train_meta=meta))
    return models


def _svm_objectives(yx, average, lam, penalized) -> list[float]:
    """``svm_objective`` of each column of ``average``, from the label-scaled
    design.  Each column is reduced as a contiguous vector, in the order a
    one-column fit reduces it."""
    weights = np.ascontiguousarray((penalized * average).T)
    hinge = np.ascontiguousarray(np.maximum(0.0, 1.0 - yx @ average).T)
    return [float(0.5 * lam[j] * (weights[j] @ weights[j]) + hinge[j].mean())
            for j in range(lam.size)]


def decision_scores(model: LinearModel, features) -> np.ndarray:
    """Linear scores ``x @ beta[1:] + beta[0]`` (logit for logistic, margin for svm)."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D array")
    if x.shape[1] != model.beta.size - 1:
        raise ValueError(
            f"dimension mismatch: model expects {model.beta.size - 1} features, got {x.shape[1]}"
        )
    return x @ model.beta[1:] + model.beta[0]


def predict(model: LinearModel, features) -> np.ndarray:
    """+1 where the decision score exceeds the cut of ``linear_rule``, else -1."""
    _, _, cut = linear_rule(model_to_dict(model))
    return np.where(decision_scores(model, features) > cut, 1, -1)


def predict_proba(model: LinearModel, features) -> np.ndarray:
    if model.kind != "logistic":
        raise ValueError("probabilities are defined for logistic models only")
    return expit(decision_scores(model, features))


def model_to_dict(model: LinearModel) -> dict:
    return {
        "kind": model.kind,
        "beta": model.beta.tolist(),
        "threshold": model.threshold,
        "C": model.C,
        "train_meta": model.train_meta,
    }


def model_from_dict(obj: dict) -> LinearModel:
    return LinearModel(
        beta=np.asarray(obj["beta"], dtype=float),
        kind=obj["kind"],
        threshold=float(obj["threshold"]),
        C=obj.get("C"),
        train_meta=obj.get("train_meta", {}),
    )


def linear_rule(obj: dict) -> tuple[np.ndarray, float, float]:
    """A stored model dict as ``(w, bias, cut)``: it predicts +1 where
    ``features @ w + bias > cut``.

    ``auc-linear`` has bias 0 and a score-space threshold; ``svm`` a margin
    threshold; ``logistic`` a probability threshold, cut at its logit.
    """
    kind = obj.get("kind")
    if kind == "auc-linear":
        w, bias, cut = np.asarray(obj["w"], dtype=float), 0.0, float(obj["threshold"])
    elif kind in ("logistic", "svm"):
        beta = np.asarray(obj["beta"], dtype=float)
        if beta.ndim != 1 or beta.size < 2:
            raise ValueError("beta must be [intercept, weights...]")
        w, bias, cut = beta[1:], float(beta[0]), float(obj["threshold"])
        if kind == "logistic":                  # probability threshold -> logit space
            if not 0.0 < cut < 1.0:
                raise ValueError("logistic threshold must lie in (0, 1)")
            cut = float(np.log(cut / (1.0 - cut)))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    if w.ndim != 1 or not (np.isfinite(w).all() and np.isfinite(bias)):
        raise ValueError("model weights must be a vector of finite numbers")
    return w, bias, cut


def save_model(model: LinearModel, path):
    Path(path).write_text(json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n")


def load_model(path) -> LinearModel:
    return model_from_dict(json.loads(Path(path).read_text()))
