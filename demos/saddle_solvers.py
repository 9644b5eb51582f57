#!/usr/bin/env python3
"""Tour of the saddle-point solvers on a synthetic imbalanced dataset.

The ranking objective is quadratic in the stacked variable, so Newton
lands on the saddle in one step; the quasi-Newton runs close that gap in
a handful of curvature updates, while the first-order methods take tens
of iterations.  All of them must agree on the terminal state: the
problem is strongly convex in the primal block and strongly concave in
the dual, so the saddle point is unique.  The script exits 1 unless every
run converged, the terminal states agree within 1e-2, and on the bilinear
toy simultaneous GDA grows while the extragradient contracts.
"""

import sys

import numpy as np

from aucmax import (
    AucProblem,
    PrimalDualState,
    SolverConfig,
    SynthSpec,
    generate_synthetic,
    roc_auc,
    solve,
)

AGREEMENT = 1e-2    # largest distance allowed between two terminal states

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

finals, failures = {}, []
for name, config in configs.items():
    result = solve(problem, config)
    state = PrimalDualState.from_packed(result.final_z)
    auc = roc_auc(dataset.features @ state.w, dataset.labels)
    finals[name] = result.final_z
    if not result.converged:
        failures.append(f"{name} did not converge")
    print(f"{name:24s} {str(result.converged):>9s} {result.iterations_used:7d} "
          f"{result.trace[-1].grad_norm:12.2e} {auc:10.4f}")

# Uniqueness of the saddle: every pair of terminal states coincides.
names = list(finals)
worst = max(
    np.linalg.norm(finals[a] - finals[b])
    for i, a in enumerate(names) for b in names[i + 1:]
)
print(f"\nmax pairwise distance between terminal states: {worst:.2e}")
if not worst <= AGREEMENT:
    failures.append(f"terminal states {worst:.2e} apart, more than {AGREEMENT:g}")

# The bilinear toy f(x, y) = x*y shows why the extragradient exists: plain
# simultaneous GDA spirals outward while the mid-point step contracts.
class Bilinear:
    dim_x = dim_y = 1

    def value(self, z):
        return float(z[0] * z[1])

    def grad(self, z):
        return np.array([z[1], z[0]])

print("\nbilinear toy f = x*y from (1, 1), step 0.5:")
for method, expected in (("sim-gda", "grows"), ("extragradient", "contracts")):
    cfg = SolverConfig(method=method, step_size=0.5, max_iterations=50, grad_tolerance=1e-15)
    res = solve(Bilinear(), cfg, initial=[1.0, 1.0])
    norms = [row.grad_norm for row in res.trace]    # grad norm == iterate norm for f = x*y
    pairs = list(zip(norms, norms[1:]))
    if all(b > a for a, b in pairs):
        seen = "grows"
    elif all(b < a for a, b in pairs):
        seen = "contracts"
    else:
        seen = "neither grows nor contracts"
    print(f"  {method:14s} iterate norm after 50 steps: {norms[-1]:10.4g} ({seen})")
    if seen != expected:
        failures.append(f"bilinear toy: {method} {seen}; expected: {expected}")

for failure in failures:
    print(f"FAILED: {failure}", file=sys.stderr)
sys.exit(1 if failures else 0)
