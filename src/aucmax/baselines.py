"""Linear baseline classifiers fit by deterministic full-batch methods:
L2-regularized logistic regression (a damped Newton method that records a
certified duality gap) and a soft-margin linear SVM in its hinge-loss form
(a primal-dual interior-point method that stops on a certified duality
gap).

This module also owns the stored (JSON) form of every model kind: the
baselines' ``logistic`` and ``svm`` (``model_to_dict``) and the AUC
maximizer's ``auc-linear`` (``auc_model``).  ``linear_rule`` is the one
reader of that form and ``score`` the one way from a stored model to its
scores and predictions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import expit, xlog1py

from .objective import LabeledDataset, PrimalDualState
from .rules import FINITE, FRACTION, POSITIVE, POSITIVE_INTEGER, require

__all__ = [
    "DEFAULT_C",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "LinearModel",
    "logistic_objective",
    "svm_objective",
    "fit_logistic",
    "fit_linear_svm",
    "decision_scores",
    "predict",
    "model_to_dict",
    "auc_model",
    "linear_rule",
    "score",
]

DEFAULT_C = 1.0                 # the trade-off: L2 weight 1/(C*N)
DEFAULT_TOL = 1e-6              # logistic gradient norm, SVM relative duality gap
DEFAULT_MAX_ITER = 10_000       # logistic Newton or SVM interior-point iterations


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


def _fit_inputs(train: LabeledDataset, C, max_iter):
    """What both fits start from once their arguments pass: the design
    ``zt``, the L2 weight ``lam = 1/(C*N)`` and the per-coefficient weights
    ``lam P`` (0 on the intercept).  ``zt`` is the one design of both fits,
    stored features-major: the ``(d+1) x N`` array whose column ``i`` is
    ``z_i = y_i [1, x_i]``.  The objectives and the margins read its rows
    through the view ``zt.T``.  Refuses a ``C`` for which ``lam`` is not a
    positive finite number."""
    require("C", C, POSITIVE)
    n = train.n_samples
    lam = 1.0 / (C * n)
    if not np.isfinite(lam):
        raise ValueError(f"C = {C!r} is too small: 1/(C*N) overflows at N = {n}")
    if lam == 0.0:
        raise ValueError(f"C = {C!r} is too large: 1/(C*N) underflows to 0 at N = {n}")
    require("max_iter", max_iter, POSITIVE_INTEGER)
    zt = np.empty((train.n_features + 1, n))
    zt[0] = train.labels
    np.multiply(train.features.T, train.labels, out=zt[1:])
    reg = np.full(zt.shape[0], lam)
    reg[0] = 0.0                                # the intercept is not regularized
    return zt, lam, reg


def logistic_objective(beta, z, C: float):
    """Mean logistic loss plus ``1/(2*C*N)`` L2 on the non-intercept weights,
    over the label-scaled rows ``z_i = y_i [1, x_i]``.

    Returns ``(value, gradient)``.
    """
    n = z.shape[0]
    margins = z @ beta
    value = float(np.mean(np.logaddexp(0.0, -margins)))
    reg = np.asarray(beta, dtype=float).copy()
    reg[0] = 0.0
    value += float(reg @ reg) / (2.0 * C * n)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite logistic loss")
    grad = -(z.T @ expit(-margins)) / n + reg / (C * n)
    return value, grad


def fit_logistic(train: LabeledDataset, C: float = DEFAULT_C, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> LinearModel:
    """L2-regularized logistic regression at one ``C`` by a damped Newton
    method; predicts +1 when the modeled probability exceeds 0.5.

    The design ``zt``, whose column ``i`` is ``z_i = y_i [1, x_i]``, is
    formed once (``_fit_inputs``).  An iteration factors
    ``Z^T diag(s(m) s(-m) / N) Z + lam P`` (``m = Z beta``, ``s`` the logistic
    function, ``lam = 1/(C*N)``, ``P`` the identity without its intercept
    entry), formed by ``_normal_system``, by Cholesky and backtracks along
    the Newton direction ``d`` from step 1, halving at most 60 times until
    the Armijo test on ``grad . d`` holds.  Value and gradient come from
    ``logistic_objective`` on the rows ``zt.T``.

    The fit stops once the gradient norm is at most ``tol``
    (``train_meta["converged"]``) or after ``max_iter`` Newton iterations.
    It also ends, not converged, when the Cholesky factorization fails or the
    line search finds no decrease; it then returns the last iterate.
    ``train_meta["duality_gap"]`` certifies the returned objective: the
    optimum lies in ``[objective - duality_gap, objective]``
    (``_logistic_gap``).
    """
    n = train.n_samples
    zt, lam, reg = _fit_inputs(train, C, max_iter)
    beta = np.zeros(zt.shape[0])
    value, grad = logistic_objective(beta, zt.T, C)
    grad_norm = float(np.linalg.norm(grad))
    iterations = 0
    while grad_norm > tol and iterations < max_iter:
        margins = zt.T @ beta
        curvature = expit(margins) * expit(-margins) / n
        try:
            factor = cho_factor(_normal_system(zt, curvature, reg), check_finite=False)
        except LinAlgError:
            break
        direction = -cho_solve(factor, grad, check_finite=False)
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(60):                     # Armijo: halve until sufficient decrease
            candidate = beta + step * direction
            cand_value, cand_grad = logistic_objective(candidate, zt.T, C)
            # on the difference, so that a step that leaves the value as it is fails
            if cand_value - value <= 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break                               # no decrease: cannot improve further
        beta, value, grad = candidate, cand_value, cand_grad
        grad_norm = float(np.linalg.norm(grad))
        iterations += 1
    meta = {
        "iterations": iterations,
        "grad_norm": grad_norm,
        "objective": value,
        "converged": bool(grad_norm <= tol),
        "duality_gap": _logistic_gap(zt, zt.T @ beta, beta, lam, train.labels == 1),
    }
    return LinearModel(beta, "logistic", threshold=0.5, C=C, train_meta=meta)


def _normal_system(zt, weights, reg) -> np.ndarray:
    """``Z^T diag(weights) Z + diag(reg)``: the system each fit factors, for
    the design ``zt = Z^T`` and nonnegative ``weights``.  It is formed as the
    Gram matrix ``S S^T`` of the one array ``S = zt * sqrt(weights)``, which
    numpy hands to BLAS ``syrk`` at half the flops of a general product, as
    ``AucProblem`` builds its ``H_ww``."""
    s = zt * np.sqrt(weights)
    system = s @ s.T
    system.flat[::system.shape[0] + 1] += reg
    return system


def _logistic_gap(zt, margins, beta, lam, positive) -> float:
    """``P(beta) - D(a)``: how far the objective at ``beta`` (with
    ``margins = Z beta``) can lie above the optimum.

    The dual of the logistic fit is ``D(a) = mean(H(a_i)) - ||v||^2 / (2 lam)``
    with ``v = (1/N) sum a_i y_i x_i``, over ``0 <= a <= 1`` with
    ``sum(a_i y_i) = 0`` (the intercept is unregularized); ``H`` is the
    binary entropy.  ``a`` is ``q = s(-m)``, the dual point at the optimum,
    with the class of the larger sum scaled down; it is dual feasible, so
    ``D(a)`` is a lower bound on the optimum.  By Fenchel-Young equality the
    gap is ``mean(KL(a_i || q_i)) + ||lam w - v||^2 / (2 lam)``.  It is summed
    in that form, from nonnegative parts, because near the optimum it is far
    below the rounding of ``P`` and ``P - D`` would give it a random sign."""
    n = margins.size
    q = expit(-margins)
    a = _balance(q.copy(), positive)
    moved = a < q                               # the scaled class; KL is 0 elsewhere
    a_m, shrink = a[moved], 1.0 - a[moved] / q[moved]
    # KL(a || q) with a = (1 - shrink) q and q / (1 - q) = exp(-m); a may be 0
    divergence = (xlog1py(a_m, -shrink)
                  + (1.0 - a_m) * np.logaddexp(0.0, np.log(shrink) - margins[moved]))
    misfit = lam * beta[1:] - zt[1:] @ a / n    # lam w - v
    return float(divergence.sum() / n + (misfit @ misfit) / (2.0 * lam))


def svm_objective(beta, z, C: float) -> float:
    """Scaled soft-margin objective ``(0.5 ||w||^2 + C * sum hinge) / (C * N)``
    (intercept unregularized) over the label-scaled rows ``z_i = y_i [1, x_i]``."""
    n = z.shape[0]
    hinge = np.maximum(0.0, 1.0 - z @ beta)
    lam = 1.0 / (C * n)
    weights = np.asarray(beta, dtype=float).copy()
    weights[0] = 0.0
    return float(0.5 * lam * (weights @ weights) + hinge.mean())


SVM_STALL_STEP = 1e-8


def fit_linear_svm(train: LabeledDataset, C: float = DEFAULT_C, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> LinearModel:
    """The soft-margin SVM at one ``C``, in its hinge form

        min  lam/2 ||w||^2 + mean(xi)   s.t.  y_i (x_i . w + b) >= 1 - xi_i,  xi >= 0,

    with ``lam = 1/(C*N)`` and the intercept ``b`` unregularized, solved by a
    Mehrotra predictor-corrector primal-dual interior-point method (Ferris &
    Munson, SIAM J. Optim. 2002).

    The design ``zt``, whose column ``i`` is ``z_i = y_i [1, x_i]``, is
    formed once (``_fit_inputs``).  An iteration factors one ``(d+1) x (d+1)``
    matrix ``lam P + Z^T diag(theta) Z`` (``P`` the identity without its
    intercept entry), formed by ``_normal_system``, by Cholesky and solves
    with it twice, for the predictor and for the corrector; one step length,
    0.99 of the largest feasible one, moves the slacks, the hinge variables
    and both multipliers.

    The fit stops once the certified duality gap ``P(beta) - D(alpha)`` is at
    most ``tol * P(beta)`` (``train_meta["converged"]``).  ``alpha`` is the
    dual iterate clipped to ``[0, 1/N]`` and scaled down on the class with the
    larger sum so that ``sum(alpha_i y_i) = 0``; it is dual feasible, so
    ``D(alpha)`` is a lower bound on the optimum and ``P(beta)`` lies within
    ``train_meta["duality_gap"]`` of it.  ``max_iter`` caps the iterations.
    The fit also ends, not converged, when floating point allows no further
    progress: the complementarity falls below the rounding of ``P``, the
    step length below ``SVM_STALL_STEP``, the Cholesky factorization fails,
    or a step is not finite.  It then returns the last finite iterate.
    """
    n = train.n_samples
    zt, lam, reg = _fit_inputs(train, C, max_iter)
    positive = train.labels == 1
    beta = np.zeros(zt.shape[0])
    margins = np.zeros(n)                       # zt.T @ beta
    v = np.empty((4, n))                        # the positive vectors s, xi, alpha, nu
    v[:2], v[2:] = 1.0, 0.5 / n
    s, xi, alpha, nu = v                        # views: updating v updates them
    objective, gap = _svm_certificate(zt, margins, beta, alpha, lam, positive)
    trace = []
    converged = False
    with np.errstate(all="ignore"):             # a non-finite step ends the fit below
        for t in range(1, max_iter + 1):
            products = v[:2] * v[2:]            # the complementary pairs s*alpha, xi*nu
            complementarity = products.sum()    # 2N mu
            if complementarity <= np.finfo(float).eps * objective:
                break
            r_beta = reg * beta - zt @ alpha
            r_xi = 1.0 / n - alpha - nu
            r_p = margins + xi - s - 1.0
            theta = nu * alpha / (alpha * xi + s * nu)
            try:
                factor = cho_factor(_normal_system(zt, theta, reg), check_finite=False)
            except LinAlgError:
                break

            def direction(r):
                """The Newton step whose complementarity rows have right sides ``r``."""
                rhs = r[0] / alpha - r_p - (r[1] - xi * r_xi) / nu
                d_beta = cho_solve(factor, zt @ (theta * rhs) - r_beta, check_finite=False)
                d_v = np.empty_like(v)
                d_v[2] = theta * (rhs - zt.T @ d_beta)
                d_v[3] = r_xi - d_v[2]
                d_v[:2] = (r - v[:2] * d_v[2:]) / v[2:]
                return d_beta, d_v

            _, d_v = direction(-products)       # predictor: the affine step
            affine = v + min(1.0, _max_step(v, d_v)) * d_v
            sigma = (np.vdot(affine[:2], affine[2:]) / complementarity) ** 3
            target = sigma * complementarity / (2 * n)       # the centred mu
            d_beta, d_v = direction(target - products - d_v[:2] * d_v[2:])
            step = min(1.0, 0.99 * _max_step(v, d_v))
            if not (step >= SVM_STALL_STEP and np.isfinite(d_beta).all()
                    and np.isfinite(d_v).all()):
                break
            beta = beta + step * d_beta
            v += step * d_v
            margins = zt.T @ beta
            objective, gap = _svm_certificate(zt, margins, beta, alpha, lam, positive)
            trace.append([t, objective])
            if gap <= tol * objective:
                converged = True
                break
    meta = {
        "converged": converged,
        "iterations": len(trace),
        "objective": objective,
        "duality_gap": gap,
        "objective_trace": trace,
    }
    return LinearModel(beta, "svm", threshold=0.0, C=C, train_meta=meta)


def _max_step(v, d_v) -> float:
    """The largest ``a`` with ``v + a * d_v >= 0`` for a positive ``v`` (inf
    when no entry decreases)."""
    fastest = float(np.max(-d_v / v))          # the largest relative decrease
    return 1.0 / fastest if fastest > 0.0 else np.inf


def _svm_certificate(zt, margins, beta, alpha, lam, positive) -> tuple[float, float]:
    """``(P(beta), P(beta) - D(alpha_hat))``: the primal objective and the
    gap to the dual objective at the dual-feasible projection of ``alpha``."""
    n = margins.size
    w = beta[1:]
    primal = float(0.5 * lam * (w @ w) + np.maximum(0.0, 1.0 - margins).sum() / n)
    a = _balance(np.clip(alpha, 0.0, 1.0 / n), positive)
    pull = zt[1:] @ a                           # sum_i alpha_i y_i x_i
    dual = float(a.sum() - (pull @ pull) / (2.0 * lam))
    return primal, primal - dual


def _balance(a, positive) -> np.ndarray:
    """``a`` (nonnegative, modified in place) with the class of the larger
    sum scaled down so that ``sum(a_i y_i) = 0``, as an unregularized
    intercept requires of a dual point."""
    on_pos, on_neg = a[positive].sum(), a[~positive].sum()
    if on_pos > on_neg:
        a[positive] *= on_neg / on_pos
    elif on_neg > on_pos:
        a[~positive] *= on_pos / on_neg
    return a


def decision_scores(model: LinearModel, features) -> np.ndarray:
    """Linear scores ``x @ beta[1:] + beta[0]`` (logit for logistic, margin for svm)."""
    return score(model_to_dict(model), features)[0]


def predict(model: LinearModel, features) -> np.ndarray:
    """+1 where the decision score exceeds the cut of ``linear_rule``, else -1."""
    return score(model_to_dict(model), features)[1]


def model_to_dict(model: LinearModel) -> dict:
    """The stored (JSON) form of a fitted model; ``linear_rule`` reads it."""
    return {
        "kind": model.kind,
        "beta": model.beta.tolist(),
        "threshold": model.threshold,
        "C": model.C,
        "train_meta": model.train_meta,
    }


def auc_model(z, lam: float, threshold: float | None = None) -> dict:
    """The stored ``auc-linear`` form of the stacked saddle point
    ``z = [w; u; v; y]`` trained at ``lam``.  ``threshold`` is a score-space
    cut; by default ``(u + v) / 2``, midway between the score centres of the
    two classes.  Refuses what ``PrimalDualState.from_packed`` refuses."""
    state = PrimalDualState.from_packed(z)
    return {
        "kind": "auc-linear",
        "w": state.w.tolist(),
        "u": state.u,
        "v": state.v,
        "y": state.y,
        "threshold": (state.u + state.v) / 2.0 if threshold is None else threshold,
        "lambda": lam,
    }


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
            require("logistic threshold", cut, FRACTION)
            cut = float(np.log(cut / (1.0 - cut)))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    if w.ndim != 1 or not (np.isfinite(w).all() and np.isfinite(bias)):
        raise ValueError("model weights must be a vector of finite numbers")
    require("model threshold", cut, FINITE)
    return w, bias, cut


def score(model: dict, features) -> tuple[np.ndarray, np.ndarray]:
    """``(scores, predictions)`` of a stored model dict on ``features``: the
    scores ``features @ w + bias`` of its ``linear_rule``, and +1 where a
    score exceeds the rule's cut, else -1.  Refuses a ``features`` that is not
    2-D or not as wide as ``w``."""
    w, bias, cut = linear_rule(model)
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D array")
    if x.shape[1] != w.size:
        raise ValueError(f"dimension mismatch: model expects {w.size} features, got {x.shape[1]}")
    scores = x @ w + bias
    return scores, np.where(scores > cut, 1, -1)
