"""Property test: every solver lands on the unique saddle z* = -H^{-1} b.

The AUC objective is jointly quadratic, so a point with stacked gradient
``g`` lies within ``||g|| / sigma_min(H)`` of ``z*``.  Instances are drawn
at random, including nearly collinear feature columns, a column that is
exactly the difference of two others (as each ``range = max - min`` column
of the EEG feature sets is) and small ``lam``; the reference is a dense
``np.linalg.solve``.  First-order solvers need O(kappa) iterations, so they
run only on draws with kappa(H) <= 1e3.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aucmax.objective import AucProblem, LabeledDataset
from aucmax.solvers import FIRST_ORDER_METHODS, SECOND_ORDER_METHODS, SolverConfig, _saddle_factor, solve

FIRST_ORDER_KAPPA = 1e3
SLACK = 1e-6            # relative floating-point slack on the saddle-distance bound


@st.composite
def auc_problems(draw):
    d = draw(st.integers(1, 12))
    n = draw(st.integers(4, 80))
    p = draw(st.floats(0.1, 0.9))
    lam = 10.0 ** draw(st.floats(-6.0, -1.0))
    collinear = draw(st.booleans())
    difference = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.standard_normal((n, d))
    if collinear and d >= 2:
        features[:, -1] = features[:, 0] + 1e-6 * rng.standard_normal(n)
    if difference and d >= 4:
        features[:, -2] = features[:, 0] - features[:, 1]
    n_pos = min(max(round(p * n), 1), n - 1)
    labels = -np.ones(n, dtype=int)
    labels[rng.permutation(n)[:n_pos]] = 1
    return AucProblem(LabeledDataset(features, labels), lam=lam)


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
