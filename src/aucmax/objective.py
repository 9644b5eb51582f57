"""Pairwise-ranking (AUC) minimax objective for a linear classifier.

The primal block packs the classifier weights with two scalar score
centers, ``x = [w; u; v]``, and a single dual scalar ``y`` couples the
positive and negative classes.  Positive samples contribute
``(1-p)*((w@a - u)^2 - 2*(1+y)*w@a)`` and negative samples
``p*((w@a - v)^2 + 2*(1+y)*w@a)``; their mean plus ``lam/2 * ||x||^2``
minus ``p*(1-p)*y^2`` is minimized over ``x`` and maximized over ``y``.
The objective is jointly quadratic in ``z = [w; u; v; y]`` and vanishes at
``z = 0``, so it equals ``1/2 z@H@z + b@z`` with a constant Hessian ``H``
and ``b`` the gradient at zero.  The linear terms ``-+2*w@a`` carry the
coefficients of the cross terms ``-+2*y*w@a``, so ``b`` is ``H[:d, d+2]`` in
the ``w`` block and zero elsewhere.  ``AucProblem`` builds ``(H, b)`` once and
answers every gradient, value and Hessian query from them.  Its ``w``-``w``
block is one row-weighted Gram matrix: with ``c_i = 1-p`` on positive rows
and ``p`` on negative ones, ``H_ww = S.T @ S + lam*I`` for
``S = sqrt(2c/n) * A``.  The module-level ``objective_value``, ``gradient``
and ``hessian`` evaluate the per-sample (per-class) formulas directly and
serve as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rules import FRACTION, NONNEGATIVE, require

__all__ = [
    "DEFAULT_LAMBDA",
    "LabeledDataset",
    "PrimalDualState",
    "ObjectiveParams",
    "AucProblem",
    "positive_fraction",
    "objective_value",
    "gradient",
    "hessian",
]

DEFAULT_LAMBDA = 1e-4


@dataclass
class LabeledDataset:
    """N x d feature matrix with labels in {+1, -1}; both classes present."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        n, d = self.features.shape
        if d < 1:
            raise ValueError("need at least one feature column")
        if self.labels.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {self.labels.shape}")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain NaN or Inf")
        if not np.isin(self.labels, (-1, 1)).all():
            raise ValueError("labels must be +1 or -1")
        self.labels = self.labels.astype(int)
        if n < 2:
            raise ValueError("need at least two samples")
        n_pos = int(np.count_nonzero(self.labels == 1))
        if n_pos == 0 or n_pos == n:
            raise ValueError("single-class dataset")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class PrimalDualState:
    """Solver iterate: weights ``w``, score centers ``u``/``v``, dual ``y``."""

    w: np.ndarray
    u: float = 0.0
    v: float = 0.0
    y: float = 0.0

    def __post_init__(self):
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
        if self.w.ndim != 1:
            raise ValueError("w must be a vector")
        self.u = float(self.u)
        self.v = float(self.v)
        self.y = float(self.y)
        if not (np.isfinite(self.w).all() and np.isfinite([self.u, self.v, self.y]).all()):
            raise ValueError("state contains NaN or Inf")

    @classmethod
    def zeros(cls, n_features: int) -> "PrimalDualState":
        return cls(w=np.zeros(n_features))

    @classmethod
    def from_packed(cls, z: np.ndarray) -> "PrimalDualState":
        """The inverse of ``pack``: the state of a stacked ``[w; u; v; y]``."""
        z = np.asarray(z, dtype=float)
        if z.ndim != 1 or z.size < 4:
            raise ValueError("packed vector must be [w; u; v; y] with d >= 1")
        return cls(w=z[:-3].copy(), u=float(z[-3]), v=float(z[-2]), y=float(z[-1]))

    def pack(self) -> np.ndarray:
        """Stacked vector [w; u; v; y] of length d + 3."""
        return np.concatenate([self.w, [self.u, self.v, self.y]])


@dataclass(frozen=True)
class ObjectiveParams:
    """Positive-class fraction ``p`` and L2 regularization weight ``lam``."""

    p: float
    lam: float = DEFAULT_LAMBDA

    def __post_init__(self):
        require("p", self.p, FRACTION)
        require("lambda", self.lam, NONNEGATIVE)

    @classmethod
    def from_dataset(cls, dataset: LabeledDataset, lam: float = DEFAULT_LAMBDA) -> "ObjectiveParams":
        return cls(p=positive_fraction(dataset), lam=lam)


def positive_fraction(dataset: LabeledDataset) -> float:
    """Fraction of +1 labels; the dataset invariant keeps it in (0, 1)."""
    n_pos = int(np.count_nonzero(dataset.labels == 1))
    if n_pos == 0 or n_pos == dataset.n_samples:
        raise ValueError("single-class dataset")
    return n_pos / dataset.n_samples


def _check_inputs(state: PrimalDualState, dataset: LabeledDataset, params: ObjectiveParams):
    if state.w.shape[0] != dataset.n_features:
        raise ValueError(
            f"dimension mismatch: state has {state.w.shape[0]} weights, "
            f"dataset has {dataset.n_features} features"
        )
    if abs(params.p - positive_fraction(dataset)) > 1e-12:
        raise ValueError("params.p does not match the dataset's positive fraction")


def objective_value(state: PrimalDualState, dataset: LabeledDataset, params: ObjectiveParams) -> float:
    """Mean per-sample term plus L2 penalty minus the concave dual term."""
    _check_inputs(state, dataset, params)
    p, lam = params.p, params.lam
    pos = dataset.labels == 1
    scores = dataset.features @ state.w
    sp, sn = scores[pos], scores[~pos]
    f_pos = (1.0 - p) * np.sum((sp - state.u) ** 2 - 2.0 * (1.0 + state.y) * sp)
    f_neg = p * np.sum((sn - state.v) ** 2 + 2.0 * (1.0 + state.y) * sn)
    penalty = 0.5 * lam * (state.w @ state.w + state.u**2 + state.v**2)
    value = (f_pos + f_neg) / dataset.n_samples + penalty - p * (1.0 - p) * state.y**2
    if not np.isfinite(value):
        raise FloatingPointError("non-finite objective value (overflow)")
    return float(value)


def gradient(
    state: PrimalDualState, dataset: LabeledDataset, params: ObjectiveParams
) -> tuple[np.ndarray, float]:
    """Analytic partials with respect to [w; u; v] and y, as exact batch sums."""
    _check_inputs(state, dataset, params)
    p, lam = params.p, params.lam
    n = dataset.n_samples
    pos = dataset.labels == 1
    a_pos, a_neg = dataset.features[pos], dataset.features[~pos]
    sp = a_pos @ state.w
    sn = a_neg @ state.w
    rp = sp - state.u
    rn = sn - state.v
    one_y = 1.0 + state.y
    gw = (
        2.0 * (1.0 - p) * (a_pos.T @ rp - one_y * a_pos.sum(axis=0))
        + 2.0 * p * (a_neg.T @ rn + one_y * a_neg.sum(axis=0))
    ) / n + lam * state.w
    gu = -2.0 * (1.0 - p) * rp.sum() / n + lam * state.u
    gv = -2.0 * p * rn.sum() / n + lam * state.v
    gy = (-2.0 * (1.0 - p) * sp.sum() + 2.0 * p * sn.sum()) / n - 2.0 * p * (1.0 - p) * state.y
    grad_x = np.concatenate([gw, [gu, gv]])
    return grad_x, float(gy)


def hessian(state: PrimalDualState, dataset: LabeledDataset, params: ObjectiveParams) -> np.ndarray:
    """Full (d+3) x (d+3) second-derivative matrix over [w; u; v; y].

    The objective is quadratic, so the result is the same at every state;
    ``state`` is accepted (and dimension-checked) for interface uniformity.
    """
    _check_inputs(state, dataset, params)
    p, lam = params.p, params.lam
    n = dataset.n_samples
    d = dataset.n_features
    pos = dataset.labels == 1
    a_pos, a_neg = dataset.features[pos], dataset.features[~pos]

    full = np.zeros((d + 3, d + 3))
    full[:d, :d] = 2.0 * ((1.0 - p) * a_pos.T @ a_pos + p * a_neg.T @ a_neg) / n
    full[:d, :d] += lam * np.eye(d)
    _fill_border(full, a_pos.sum(axis=0), a_neg.sum(axis=0), p, lam, n)
    return full


def _fill_border(full: np.ndarray, sum_pos: np.ndarray, sum_neg: np.ndarray,
                 p: float, lam: float, n: int) -> None:
    """Write the ``u``, ``v`` and ``y`` rows and columns of the zero-initialized
    Hessian ``full`` from the two class sums of the feature rows."""
    d = sum_pos.size
    wu = -2.0 * (1.0 - p) * sum_pos / n
    wv = -2.0 * p * sum_neg / n
    wy = (-2.0 * (1.0 - p) * sum_pos + 2.0 * p * sum_neg) / n
    full[:d, d] = wu
    full[d, :d] = wu
    full[:d, d + 1] = wv
    full[d + 1, :d] = wv
    full[:d, d + 2] = wy
    full[d + 2, :d] = wy
    full[d, d] = 2.0 * (1.0 - p) * p + lam
    full[d + 1, d + 1] = 2.0 * p * (1.0 - p) + lam
    full[d + 2, d + 2] = -2.0 * p * (1.0 - p)


class AucProblem:
    """Adapter exposing the objective to the saddle solvers.

    An iterate is the stacked ``z = [w; u; v; y]`` (``dim_x = d + 2``,
    ``dim_y = 1``); ``PrimalDualState.from_packed(z)`` gives its state.
    The constructor builds the quadratic form ``(H, b)`` once: ``H_ww`` from
    one row-weighted Gram product (a BLAS ``syrk``), the other rows from the
    two class sums, and ``b`` read off the ``w``-``y`` block, so that ``b`` is
    bit-equal to the reference ``gradient`` at zero.  Then ``grad = H z + b``
    and ``value = z@(H z + 2b) / 2`` cost O(d^2) per call, independent of the
    number of samples.  Both take ``H z`` from the last full product, kept
    with its ``z``, when the primal block ``z[:dim_x]`` is bit-equal to the
    kept one: ``H z = H z_0 + H[:, dim_x:] @ (z[dim_x:] - z_0[dim_x:])``, at
    O(d) cost; at any other ``z`` they take a fresh full product and keep
    it.  alt-gda's second gradient of each step moves only the dual, so each
    of its steps costs one full product.  The update agrees with a fresh
    product to rounding (not bit for bit), and is always taken from a full
    product, so its error does not accumulate.  ``hessian()`` returns the
    cached ``H`` itself, marked read-only.
    """

    def __init__(self, dataset: LabeledDataset, lam: float = DEFAULT_LAMBDA):
        self.dataset = dataset
        self.params = ObjectiveParams.from_dataset(dataset, lam=lam)
        a = dataset.features
        n, d = a.shape
        p = self.params.p
        pos = dataset.labels == 1
        h = np.zeros((d + 3, d + 3))
        _fill_border(h, a[pos].sum(axis=0), a[~pos].sum(axis=0), p, self.params.lam, n)
        s = np.sqrt(2.0 * np.where(pos, 1.0 - p, p) / n)[:, None] * a
        np.matmul(s.T, s, out=h[:d, :d])        # S.T @ S of one array: numpy calls syrk
        h[:d, :d][np.diag_indices(d)] += self.params.lam
        h.setflags(write=False)
        self._h = h
        self._b = np.zeros(d + 3)
        self._b[:d] = h[:d, d + 2]
        self._full = None                       # the last full product's (z, H @ z)
        self.dim_x = d + 2
        self.dim_y = 1

    def _product(self, z) -> tuple[np.ndarray, np.ndarray]:
        """``(z, H z)``: through the dual columns from the last full product
        when the primal blocks are bit-equal, else a full product, kept."""
        z = np.array(z, dtype=float)            # a copy: the caller may write into its z
        nx, full = self.dim_x, self._full
        if full is not None and z[:nx].tobytes() == full[0][:nx].tobytes():
            return z, full[1] + self._h[:, nx:] @ (z[nx:] - full[0][nx:])
        self._full = z, self._h @ z
        return self._full

    def value(self, z: np.ndarray) -> float:
        z, hz = self._product(z)
        value = 0.5 * float(z @ (hz + 2.0 * self._b))
        if not np.isfinite(value):
            raise FloatingPointError("non-finite objective value (overflow)")
        return value

    def grad(self, z: np.ndarray) -> np.ndarray:
        return self._product(z)[1] + self._b

    def hessian(self) -> np.ndarray:
        return self._h
