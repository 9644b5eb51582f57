#!/usr/bin/env python3
"""Tour of the saddle-point solvers on a synthetic imbalanced dataset.

The ranking objective is quadratic in the stacked variable, so Newton
lands on the saddle in one step; the quasi-Newton runs close that gap in
a handful of curvature updates, while the first-order methods take tens
of iterations.  All of them must agree on the terminal state: the
problem is strongly convex in the primal block and strongly concave in
the dual, so the saddle point is unique.
"""

import numpy as np

from aucmax import (
    AucProblem,
    SolverConfig,
    SynthSpec,
    generate_synthetic,
    roc_auc,
    solve,
)

# A 2:1 imbalanced Gaussian problem, small enough to watch every method.
dataset = generate_synthetic(
    SynthSpec(n_samples=400, n_features=10, positive_fraction=1 / 3,
              class_separation=2.0, seed=42)
)
problem = AucProblem(dataset, lam=1e-4)

configs = {
    "sim-gda": SolverConfig(method="sim-gda"),
    "alt-gda": SolverConfig(method="alt-gda"),
    "extragradient": SolverConfig(method="extragradient"),
    "newton": SolverConfig(method="newton"),
    "qn greedy SR1 (k=3)": SolverConfig(method="qn-broyden", broyden_tau="sr1",
                                        direction_rule="greedy-basis",
                                        updates_per_iteration=3),
    "qn greedy BFGS (k=3)": SolverConfig(method="qn-broyden", broyden_tau="bfgs",
                                         direction_rule="greedy-basis",
                                         updates_per_iteration=3),
    "qn random Gaussian": SolverConfig(method="qn-broyden", broyden_tau="sr1",
                                       direction_rule="random-gaussian",
                                       updates_per_iteration=1, rng_seed=7),
}

print(f"dataset: N={dataset.n_samples}, d={dataset.n_features}, "
      f"positive fraction {np.mean(dataset.labels == 1):.3f}")
print(f"{'method':24s} {'converged':>9s} {'iters':>7s} {'final grad':>12s} {'train AUC':>10s}")

finals = {}
for name, config in configs.items():
    result = solve(problem, config)
    state = problem.unpack(result.final_x, result.final_y)
    auc = roc_auc(dataset.features @ state.w, dataset.labels)
    finals[name] = np.concatenate([result.final_x, result.final_y])
    print(f"{name:24s} {str(result.converged):>9s} {result.iterations_used:7d} "
          f"{result.trace[-1].grad_norm:12.2e} {auc:10.4f}")

# Uniqueness of the saddle: every pair of terminal states coincides.
names = list(finals)
worst = max(
    np.linalg.norm(finals[a] - finals[b])
    for i, a in enumerate(names) for b in names[i + 1:]
)
print(f"\nmax pairwise distance between terminal states: {worst:.2e}")

# The bilinear toy f(x, y) = x*y shows why the extragradient exists: plain
# simultaneous GDA spirals outward while the mid-point step contracts.
class Bilinear:
    dim_x = dim_y = 1

    def value(self, x, y):
        return float(x[0] * y[0])

    def grad(self, x, y):
        return np.array([y[0]]), np.array([x[0]])

print("\nbilinear toy f = x*y from (1, 1), step 0.5:")
for method in ("sim-gda", "extragradient"):
    cfg = SolverConfig(method=method, step_size=0.5, max_iterations=50, grad_tolerance=1e-15)
    res = solve(Bilinear(), cfg, initial=([1.0], [1.0]))
    print(f"  {method:14s} iterate norm after 50 steps: {res.trace[-1].grad_norm:10.4g} "
          f"({'grows' if res.trace[-1].grad_norm > 1 else 'contracts'})")
