"""Property test: every solver lands on the unique saddle z* = -H^{-1} b.

The AUC objective is jointly quadratic, so a point with stacked gradient
``g`` lies within ``||g|| / sigma_min(H)`` of ``z*``.  Instances are drawn
at random, including nearly collinear feature columns, a column that is
exactly the difference of two others (as each ``range = max - min`` column
of the EEG feature sets is) and small ``lam``; the reference is a dense
``np.linalg.solve``.  First-order solvers need O(kappa) iterations, so they
run only on draws with kappa(H) <= 1e3.

Wide draws (fewer rows than columns, with an exact difference column) also
check alt-gda, whose dual gradient ``AucProblem`` updates through the dual
columns of ``H``, against a loop that takes two full products per step.

The paper's objective is checked directly too.  With ``q = p(1-p)``, class
means ``m+``, ``m-``, ``D = m+ - m-``, class covariances ``S+``, ``S-``
(divided by the class counts) and ``k = (lam/2) / (q + lam/2)``, the optimal
``u``, ``v`` and ``y`` of a given ``w`` are ``q m+@w / (q + lam/2)``,
``q m-@w / (q + lam/2)`` and ``-D@w``.  There the objective is ``q`` times the
mean over positive-negative pairs of ``(1 - w@(a_i - a_j))^2``, minus ``q``,
plus ``q k ((m+@w)^2 + (m-@w)^2) + lam/2 ||w||^2``, and its minimizer solves
``(S+ + S- + D D' + k (m+ m+' + m- m-') + lam/(2q) I) w = D``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aucmax.cli import _trace_auc_eval
from aucmax.objective import AucProblem, LabeledDataset
from aucmax.solvers import (FIRST_ORDER_METHODS, SECOND_ORDER_METHODS, SolverConfig,
                            _saddle_factor, solve)

FIRST_ORDER_KAPPA = 1e3
SLACK = 1e-6            # relative floating-point slack on the saddle-distance bound
CLOSED_FORM_SLACK = 10  # Newton's relative distance to the closed form, in units of cond(M) * eps


def labeled(rng, n, d, p, collinear, difference):
    features = rng.standard_normal((n, d))
    if collinear and d >= 2:
        features[:, -1] = features[:, 0] + 1e-6 * rng.standard_normal(n)
    if difference and d >= 4:
        features[:, -2] = features[:, 0] - features[:, 1]
    n_pos = min(max(round(p * n), 1), n - 1)
    labels = -np.ones(n, dtype=int)
    labels[rng.permutation(n)[:n_pos]] = 1
    return LabeledDataset(features, labels)


@st.composite
def auc_problems(draw):
    d = draw(st.integers(1, 12))
    n = draw(st.integers(4, 80))
    p = draw(st.floats(0.1, 0.9))
    lam = 10.0 ** draw(st.floats(-6.0, -1.0))
    collinear = draw(st.booleans())
    difference = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return AucProblem(labeled(rng, n, d, p, collinear, difference), lam=lam)


@st.composite
def wide_splits(draw):
    """A train and a test table with fewer rows than columns, one column the
    exact difference of two others (as ``range = max - min``), and lambda."""
    d = draw(st.integers(6, 40))
    n = draw(st.integers(4, d - 1))
    p = draw(st.floats(0.1, 0.9))
    lam = 10.0 ** draw(st.floats(-2.0, 0.0))
    collinear = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (labeled(rng, n, d, p, collinear, True), labeled(rng, n, d, p, collinear, True), lam)


@st.composite
def wide_problems(draw):
    """A problem with fewer rows than columns, one column the exact
    difference of two others, and lambda from 1e-6 to 1e-1."""
    d = draw(st.integers(6, 40))
    n = draw(st.integers(4, d - 1))
    p = draw(st.floats(0.1, 0.9))
    lam = 10.0 ** draw(st.floats(-6.0, -1.0))
    collinear = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return AucProblem(labeled(rng, n, d, p, collinear, True), lam=lam)


def class_moments(problem):
    """``q``, ``k``, the class means and the class covariances of ``problem``."""
    a, labels = problem.dataset.features, problem.dataset.labels
    p, lam = problem.params.p, problem.params.lam
    q = p * (1.0 - p)
    pos, neg = a[labels == 1], a[labels == -1]
    m_pos, m_neg = pos.mean(axis=0), neg.mean(axis=0)
    s_pos = (pos - m_pos).T @ (pos - m_pos) / len(pos)
    s_neg = (neg - m_neg).T @ (neg - m_neg) / len(neg)
    return q, (lam / 2) / (q + lam / 2), m_pos, m_neg, s_pos, s_neg


def optimal_centers(problem, w):
    """``z = [w; u; v; y]`` with the ``u``, ``v`` and ``y`` optimal for ``w``."""
    q, _, m_pos, m_neg, _, _ = class_moments(problem)
    shrink = q / (q + problem.params.lam / 2)
    return np.concatenate([w, [shrink * (m_pos @ w), shrink * (m_neg @ w), -(m_pos - m_neg) @ w]])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(wide_problems())
def test_newton_lands_on_the_closed_form_saddle(problem):
    q, k, m_pos, m_neg, s_pos, s_neg = class_moments(problem)
    delta = m_pos - m_neg
    m = (s_pos + s_neg + np.outer(delta, delta)
         + k * (np.outer(m_pos, m_pos) + np.outer(m_neg, m_neg))
         + problem.params.lam / (2 * q) * np.eye(delta.size))
    closed = optimal_centers(problem, np.linalg.solve(m, delta))
    result = solve(problem, SolverConfig(method="newton"))
    assert result.converged
    bound = CLOSED_FORM_SLACK * np.linalg.cond(m) * np.finfo(float).eps
    assert np.linalg.norm(result.final_z - closed) <= bound * np.linalg.norm(closed)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(wide_problems(), st.integers(0, 2**32 - 1))
def test_value_is_the_pairwise_square_loss_at_the_optimal_centers(problem, seed):
    q, k, m_pos, m_neg, _, _ = class_moments(problem)
    a, labels = problem.dataset.features, problem.dataset.labels
    w = np.random.default_rng(seed).standard_normal(problem.dim_x - 2)
    margins = 1.0 - ((a[labels == 1] @ w)[:, None] - (a[labels == -1] @ w)[None, :])
    terms = [q * np.mean(margins**2), -q, q * k * ((m_pos @ w) ** 2 + (m_neg @ w) ** 2),
             problem.params.lam / 2 * (w @ w)]
    value = problem.value(optimal_centers(problem, w))
    assert abs(value - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(auc_problems())
def test_every_solver_lands_on_the_unique_saddle(problem):
    h = problem.hessian()
    b = problem.grad(np.zeros(problem.dim_x + problem.dim_y))
    reference = np.linalg.solve(h, b)
    z_star = -reference
    sigma_min = float(np.min(np.abs(np.linalg.eigvalsh(h))))
    kappa = float(np.max(np.abs(np.linalg.eigvalsh(h)))) / sigma_min

    step = _saddle_factor(h, problem.dim_x)(b)
    assert np.linalg.norm(step - reference) <= 1e-8 * np.linalg.norm(reference)

    methods = SECOND_ORDER_METHODS
    if kappa <= FIRST_ORDER_KAPPA:
        methods += FIRST_ORDER_METHODS
    for method in methods:
        result = solve(problem, SolverConfig(method=method, grad_tolerance=1e-6))
        assert result.converged, method
        g_norm = float(np.linalg.norm(problem.grad(result.final_z)))
        distance = float(np.linalg.norm(result.final_z - z_star))
        bound = g_norm / sigma_min * (1.0 + SLACK) + SLACK * float(np.linalg.norm(z_star))
        assert distance <= bound, (method, distance, bound)


def two_product_alt_gda(problem, config, auc_eval):
    """alt-gda as ``solve`` runs it, each gradient a full ``H @ z + b``; the
    final iterate, the stop and the AUCs of every iterate (all are recorded)."""
    h = problem.hessian()
    nx, n = problem.dim_x, problem.dim_x + problem.dim_y
    b = problem.grad(np.zeros(n))
    eta = config.step_size

    def gradient(z):
        g = h @ z + b
        return g, float(np.sqrt(g[:nx] @ g[:nx] + g[nx:] @ g[nx:]))

    z = np.zeros(n)
    g, gn = gradient(z)
    primal, t = [z[:nx].copy()], 0
    while gn > config.grad_tolerance and t < config.max_iterations:
        t += 1
        fresh = np.concatenate([z[:nx] - eta * g[:nx], z[nx:]])
        gy = (h @ fresh + b)[nx:]
        z = np.concatenate([fresh[:nx], z[nx:] + eta * gy])
        g, gn = gradient(z)
        primal.append(z[:nx].copy())
    train, test = auc_eval(np.stack(primal))
    return z, t, gn <= config.grad_tolerance, list(train), list(test)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(wide_splits())
def test_alt_gda_dual_column_update_matches_two_full_products(split):
    train, test, lam = split
    problem = AucProblem(train, lam=lam)
    config = SolverConfig(method="alt-gda", step_size=0.5 / np.linalg.norm(problem.hessian(), 2),
                          grad_tolerance=1e-6, max_iterations=2000)
    auc_eval = _trace_auc_eval(train, test)
    result = solve(problem, config, auc_eval=auc_eval)
    z, iterations, converged, train_auc, test_auc = two_product_alt_gda(problem, config, auc_eval)
    assert (result.iterations_used, result.converged) == (iterations, converged)
    assert np.linalg.norm(result.final_z - z) <= 1e-12 * np.linalg.norm(z)
    assert [row.train_auc for row in result.trace] == train_auc
    assert [row.test_auc for row in result.trace] == test_auc


def test_trace_aucs_do_not_depend_on_the_tables_memory_order():
    rng = np.random.default_rng(5)
    train, test = labeled(rng, 30, 40, 0.4, False, True), labeled(rng, 20, 40, 0.4, False, True)
    xs = rng.standard_normal((16, 42))          # a block of primal iterates [w; u; v]

    def copies(order):
        return [LabeledDataset(np.array(t.features, order=order), t.labels) for t in (train, test)]

    c_tables, f_tables = copies("C"), copies("F")
    assert c_tables[0].features.flags.c_contiguous and f_tables[0].features.flags.f_contiguous
    c_aucs, f_aucs = _trace_auc_eval(*c_tables)(xs), _trace_auc_eval(*f_tables)(xs)
    for c_column, f_column in zip(c_aucs, f_aucs, strict=True):
        assert np.array_equal(c_column, f_column)
