import numpy as np
import pytest
import scipy.linalg

from aucmax.data import SynthSpec, generate_synthetic
from aucmax.objective import AucProblem, LabeledDataset
from aucmax.solvers import (
    SolverConfig,
    broyden_update,
    greedy_direction,
    solve,
    solve_extragradient,
    solve_gda,
    solve_newton,
    solve_quasi_newton,
    spectral_norm_estimate,
    trace_to_csv,
)


class ScalarSaddle:
    """f(x, y) = x^2/2 - y^2/2; saddle at the origin."""

    dim_x = dim_y = 1

    def value(self, x, y):
        return float(0.5 * x[0] ** 2 - 0.5 * y[0] ** 2)

    def grad(self, x, y):
        return np.array([x[0]]), np.array([-y[0]])


class Bilinear:
    """f(x, y) = x * y; rotation-dominated saddle at the origin."""

    dim_x = dim_y = 1

    def value(self, x, y):
        return float(x[0] * y[0])

    def grad(self, x, y):
        return np.array([y[0]]), np.array([x[0]])


class SlowQuadratic:
    """Tiny-curvature quadratic saddle; used to exercise long traces."""

    dim_x = dim_y = 1

    def __init__(self, mu=1.0):
        self.mu = mu

    def value(self, x, y):
        return float(0.5 * self.mu * (x[0] ** 2 - y[0] ** 2))

    def grad(self, x, y):
        return np.array([self.mu * x[0]]), np.array([-self.mu * y[0]])


def auc_problem(n=50, d=5, sep=2.0, seed=3, lam=1e-4, pos=1 / 3):
    return AucProblem(generate_synthetic(SynthSpec(n, d, pos, sep, seed=seed)), lam=lam)


def stacked(result):
    return np.concatenate([result.final_x, result.final_y])


def hessian_norm(problem):
    h = problem.hessian(np.zeros(problem.dim_x), np.zeros(problem.dim_y))
    return np.abs(np.linalg.eigvalsh(h)).max()


# --- config validation

def test_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        SolverConfig(method="sgd")
    with pytest.raises(ValueError, match="step_size"):
        SolverConfig(method="sim-gda", step_size=0.0)
    with pytest.raises(ValueError, match="broyden_tau"):
        SolverConfig(method="qn-broyden", broyden_tau=1.5)
    with pytest.raises(ValueError, match="direction_rule"):
        SolverConfig(method="qn-broyden", direction_rule="coordinate")
    with pytest.raises(ValueError, match="grad_tolerance"):
        SolverConfig(method="newton", grad_tolerance=0.0)


# --- first-order on toys

def test_alt_gda_scalar_toy():
    cfg = SolverConfig(method="alt-gda", step_size=0.5, max_iterations=100, grad_tolerance=1e-3)
    res = solve_gda(ScalarSaddle(), cfg, initial=([1.0], [1.0]))
    assert res.converged and res.iterations_used <= 100
    assert abs(res.final_x[0]) < 1e-3 and abs(res.final_y[0]) < 1e-3


def test_immediate_return_when_converged():
    for method in ("sim-gda", "extragradient"):
        cfg = SolverConfig(method=method, step_size=0.5, grad_tolerance=1e-3)
        res = solve(ScalarSaddle(), cfg, initial=([0.0], [0.0]))
        assert res.converged and res.iterations_used == 0
        assert len(res.trace) == 1 and res.trace[0].iteration == 0


def test_sim_gda_divergence_error():
    cfg = SolverConfig(method="sim-gda", step_size=0.5, max_iterations=10_000, grad_tolerance=1e-12)
    with pytest.raises(RuntimeError, match="diverged"):
        solve_gda(Bilinear(), cfg, initial=([1.0], [1.0]))


def test_bilinear_sim_grows_eg_contracts():
    # closed-form maps: sim multiplies the iterate norm by sqrt(1.25),
    # extragradient by sqrt(0.8125), every iteration
    sim = solve_gda(
        Bilinear(),
        SolverConfig(method="sim-gda", step_size=0.5, max_iterations=50, grad_tolerance=1e-15),
        initial=([1.0], [1.0]),
    )
    eg = solve_extragradient(
        Bilinear(),
        SolverConfig(method="extragradient", step_size=0.5, max_iterations=50, grad_tolerance=1e-15),
        initial=([1.0], [1.0]),
    )
    sim_norms = [row.grad_norm for row in sim.trace]   # grad norm == iterate norm for f = xy
    eg_norms = [row.grad_norm for row in eg.trace]
    assert len(sim_norms) == 51 and len(eg_norms) == 51
    assert all(b > a for a, b in zip(sim_norms, sim_norms[1:]))
    assert all(b < a for a, b in zip(eg_norms, eg_norms[1:]))
    factor = np.sqrt(1.25)
    assert sim_norms[1] == pytest.approx(sim_norms[0] * factor, rel=1e-12)


def test_alt_beats_sim_on_imbalanced_instance():
    # iteration counts are geometry-dependent; on this strongly imbalanced
    # instance the alternating update wins at eta well under 1/L
    problem = auc_problem(n=50, d=5, sep=2.0, seed=2, pos=0.1)
    eta = 0.3 / hessian_norm(problem)
    counts = {}
    for method in ("sim-gda", "alt-gda"):
        res = solve_gda(problem, SolverConfig(method=method, step_size=eta, grad_tolerance=1e-3))
        assert res.converged
        counts[method] = res.iterations_used
    assert counts["alt-gda"] < counts["sim-gda"]


def test_eg_agrees_with_alt_gda_on_auc():
    problem = auc_problem()
    alt = solve_gda(problem, SolverConfig(method="alt-gda"))
    eg = solve_extragradient(problem, SolverConfig(method="extragradient"))
    assert alt.converged and eg.converged
    assert np.linalg.norm(stacked(alt) - stacked(eg)) <= 1e-2


def test_default_step_requires_hessian():
    cfg = SolverConfig(method="sim-gda")
    with pytest.raises(ValueError, match="step_size"):
        solve_gda(ScalarSaddle(), cfg, initial=([1.0], [1.0]))


def test_trace_thinning_long_run():
    mu = 5e-4
    cfg = SolverConfig(method="sim-gda", step_size=1.0, max_iterations=30_000, grad_tolerance=1e-3)
    res = solve_gda(SlowQuadratic(mu), cfg, initial=([1e3], [1e3]))
    assert res.converged
    iters = [row.iteration for row in res.trace]
    assert all(b > a for a, b in zip(iters, iters[1:]))           # strictly increasing
    dense = [i for i in iters if i <= 10_000]
    assert dense == list(range(0, 10_001))                        # every iteration early on
    late = [i for i in iters if 10_000 < i < res.iterations_used]
    assert all(i % 10 == 0 for i in late)                         # thinned afterwards
    assert iters[-1] == res.iterations_used
    assert res.trace[-1].grad_norm <= cfg.grad_tolerance


def test_trace_integrity_at_cap():
    cfg = SolverConfig(method="sim-gda", step_size=0.1, max_iterations=5, grad_tolerance=1e-9)
    res = solve_gda(ScalarSaddle(), cfg, initial=([1.0], [1.0]))
    assert not res.converged
    assert res.iterations_used == 5
    assert res.trace[-1].iteration == 5
    assert res.trace[-1].grad_norm > cfg.grad_tolerance


class AffineSaddle:
    """Generic coupled quadratic; pins the exact update-rule semantics."""

    dim_x = 2
    dim_y = 1
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    B = np.array([[0.5], [-0.2]])
    C = np.array([[0.8]])
    c = np.array([0.1, -0.3])
    d = np.array([0.2])

    def value(self, x, y):
        return float(0.5 * x @ self.A @ x + x @ self.B @ y - 0.5 * y @ self.C @ y
                     + self.c @ x + self.d @ y)

    def grad(self, x, y):
        return self.A @ x + self.B @ y + self.c, self.B.T @ x - self.C @ y + self.d


def test_update_rules_match_hand_iterations():
    problem = AffineSaddle()
    eta = 0.1
    x0, y0 = np.array([1.0, -1.0]), np.array([0.5])

    hx, hy = x0.copy(), y0.copy()
    for _ in range(3):                           # simultaneous: both from the old point
        gx, gy = problem.grad(hx, hy)
        hx, hy = hx - eta * gx, hy + eta * gy
    res = solve_gda(problem, SolverConfig(method="sim-gda", step_size=eta,
                                          max_iterations=3, grad_tolerance=1e-30),
                    initial=(x0, y0))
    assert np.array_equal(res.final_x, hx) and np.array_equal(res.final_y, hy)

    hx, hy = x0.copy(), y0.copy()
    for _ in range(3):                           # alternating: dual sees the fresh primal
        gx, _ = problem.grad(hx, hy)
        x_next = hx - eta * gx
        _, gy_new = problem.grad(x_next, hy)
        hx, hy = x_next, hy + eta * gy_new
    res = solve_gda(problem, SolverConfig(method="alt-gda", step_size=eta,
                                          max_iterations=3, grad_tolerance=1e-30),
                    initial=(x0, y0))
    assert np.array_equal(res.final_x, hx) and np.array_equal(res.final_y, hy)

    hx, hy = x0.copy(), y0.copy()
    for _ in range(3):                           # extragradient: full step from mid-point
        gx, gy = problem.grad(hx, hy)
        mx, my = hx - eta * gx, hy + eta * gy
        gx_mid, gy_mid = problem.grad(mx, my)
        hx, hy = hx - eta * gx_mid, hy + eta * gy_mid
    res = solve_extragradient(problem, SolverConfig(method="extragradient", step_size=eta,
                                                    max_iterations=3, grad_tolerance=1e-30),
                              initial=(x0, y0))
    assert np.array_equal(res.final_x, hx) and np.array_equal(res.final_y, hy)


# --- newton

def test_newton_two_iteration_exactness():
    for seed in range(5):
        problem = auc_problem(n=30 + seed, d=3 + seed, seed=seed)
        res = solve_newton(problem, SolverConfig(method="newton", grad_tolerance=1e-10))
        assert res.converged and res.iterations_used <= 2


def test_newton_zero_iterations_at_saddle():
    problem = auc_problem()
    first = solve_newton(problem, SolverConfig(method="newton", grad_tolerance=1e-10))
    again = solve_newton(
        problem,
        SolverConfig(method="newton", grad_tolerance=1e-3),
        initial=(first.final_x, first.final_y),
    )
    assert again.converged and again.iterations_used == 0


def test_newton_monotone_contraction():
    problem = auc_problem(seed=8)
    res = solve_newton(problem, SolverConfig(method="newton", grad_tolerance=1e-14,
                                             max_iterations=3))
    g0 = res.trace[0].grad_norm
    g1 = res.trace[1].grad_norm
    assert g1 <= 1e-8 * g0


def test_newton_singular_hessian():
    # all-zero features with lam=0 zero out the weight rows of the Hessian;
    # start away from the (flat) optimum so the solve is actually attempted
    ds = LabeledDataset(np.zeros((4, 2)), [1, 1, -1, -1])
    problem = AucProblem(ds, lam=0.0)
    with pytest.raises(RuntimeError, match="singular Hessian"):
        solve_newton(problem, SolverConfig(method="newton"),
                     initial=(np.array([1.0, 1.0, 1.0, -1.0]), np.array([0.5])))


class IndefinitePrimal:
    """f(x, y) = (x1^2 - x2^2)/2 - y^2/2: nonsingular, but H_xx is indefinite."""

    dim_x, dim_y = 2, 1
    constant_hessian = True

    def value(self, x, y):
        return float(0.5 * (x[0] ** 2 - x[1] ** 2 - y[0] ** 2))

    def grad(self, x, y):
        return np.array([x[0], -x[1]]), np.array([-y[0]])

    def hessian(self, x, y):
        return np.diag([1.0, -1.0, -1.0])


@pytest.mark.parametrize("method", ["newton", "qn-broyden"])
def test_singular_hessian_without_exact_zero_pivot(method):
    # lam = 0 with a duplicated column: rounding lets the Cholesky of H_xx
    # succeed, so only the condition estimate can reject it.
    ds = generate_synthetic(SynthSpec(60, 4, 1 / 3, 2.0, seed=0))
    duplicated = LabeledDataset(np.column_stack([ds.features, ds.features[:, 1]]), ds.labels)
    problem = AucProblem(duplicated, lam=0.0)
    h = problem.hessian(np.zeros(problem.dim_x), np.zeros(1))
    scipy.linalg.cholesky(h[:-1, :-1])
    with pytest.raises(RuntimeError, match="singular Hessian"):
        solve(problem, SolverConfig(method=method))
    # A saddle that is nonsingular but not convex in x is not certified.
    with pytest.raises(RuntimeError, match="singular Hessian"):
        solve(IndefinitePrimal(), SolverConfig(method=method),
              initial=(np.array([1.0, 1.0]), np.array([1.0])))


# --- broyden family

def test_sr1_hand_case():
    q_new, skipped = broyden_update(2.0 * np.eye(2), np.eye(2), np.array([1.0, 0.0]), 0.0)
    assert skipped == ()
    assert np.allclose(q_new, np.diag([1.0, 2.0]))


def test_bfgs_fixed_point_and_sr1_skip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    h = a @ a.T + np.eye(4)
    u = rng.standard_normal(4)
    q_new, skipped = broyden_update(h, h, u, "bfgs")
    assert skipped == ()
    assert np.allclose(q_new, h, atol=1e-12)
    q_same, skipped = broyden_update(h, h, u, 0.0)
    assert skipped == ("sr1",)
    assert np.array_equal(q_same, h)


def test_bfgs_equals_tau_star_combination():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        h = a @ a.T + np.eye(5)
        b = rng.standard_normal((5, 5))
        q = h + b @ b.T + 0.1 * np.eye(5)          # Q strictly dominates H
        u = rng.standard_normal(5)
        tau_star = float(u @ h @ u) / float(u @ q @ u)
        via_family, _ = broyden_update(q, h, u, tau_star)
        hu, qu = h @ u, q @ u
        direct_bfgs = q - np.outer(qu, qu) / (u @ qu) + np.outer(hu, hu) / (u @ hu)
        assert np.allclose(via_family, direct_bfgs, atol=1e-10 * np.abs(q).max())
        via_mode, _ = broyden_update(q, h, u, "bfgs")
        assert np.allclose(via_mode, direct_bfgs, atol=1e-10 * np.abs(q).max())


@pytest.mark.parametrize("tau", [0.0, 0.3, 1.0, "bfgs"])
def test_broyden_preserves_dominance(tau):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    h = a @ a.T + 0.5 * np.eye(6)
    q = 1.5 * np.abs(np.linalg.eigvalsh(h)).max() * np.eye(6)
    for _ in range(25):
        u = rng.standard_normal(6)
        q, _ = broyden_update(q, h, u, tau)
        assert np.abs(q - q.T).max() <= 1e-10 * np.abs(q).max()
        assert np.linalg.eigvalsh(q - h).min() >= -1e-8


def test_broyden_zero_direction_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        broyden_update(np.eye(2), np.eye(2), np.zeros(2), 0.0)


def test_greedy_direction_cases():
    assert greedy_direction(np.diag([2.0, 1.0]), np.eye(2)) == 0
    assert greedy_direction(np.eye(3), np.eye(3)) == 0          # tie -> lowest index
    assert greedy_direction(np.diag([1.0, 1.0, 5.0]), np.eye(3)) == 2
    with pytest.raises(ValueError, match="invalid curvature"):
        greedy_direction(np.eye(2), np.diag([1.0, 0.0]))


# --- quasi-newton solver

def test_quasi_newton_agrees_with_newton():
    problem = auc_problem(n=30, d=4, seed=9)
    newton = solve_newton(problem, SolverConfig(method="newton"))
    qn = solve_quasi_newton(
        problem,
        SolverConfig(method="qn-broyden", broyden_tau="sr1",
                     direction_rule="greedy-basis", updates_per_iteration=3),
    )
    assert newton.converged and qn.converged
    assert np.linalg.norm(stacked(newton) - stacked(qn)) <= 1e-2


def test_quasi_newton_dominance_along_run():
    problem = auc_problem(n=40, d=6, seed=12)
    res = solve_quasi_newton(
        problem,
        SolverConfig(method="qn-broyden", broyden_tau="sr1", updates_per_iteration=3),
        record_q=True,
    )
    assert res.converged
    h_hat = problem.hessian(np.zeros(problem.dim_x), np.zeros(1))
    h_sq = h_hat @ h_hat
    for q in res.q_history:
        assert np.linalg.eigvalsh(q - h_sq).min() >= -1e-8


def test_quasi_newton_random_rule_deterministic():
    problem = auc_problem(n=30, d=4, seed=9)
    cfg = SolverConfig(method="qn-broyden", direction_rule="random-gaussian",
                       updates_per_iteration=1, rng_seed=5)
    first = solve_quasi_newton(problem, cfg)
    second = solve_quasi_newton(problem, cfg)
    assert first.iterations_used == second.iterations_used
    assert len(first.trace) == len(second.trace)
    for a, b in zip(first.trace, second.trace):
        assert a.grad_norm == b.grad_norm and a.objective == b.objective
    assert np.array_equal(first.final_x, second.final_x)


def test_cross_solver_agreement_small():
    problem = auc_problem(n=60, d=6, seed=15)
    results = [
        solve(problem, SolverConfig(method="sim-gda")),
        solve(problem, SolverConfig(method="alt-gda")),
        solve(problem, SolverConfig(method="extragradient")),
        solve(problem, SolverConfig(method="newton")),
        solve(problem, SolverConfig(method="qn-broyden", updates_per_iteration=3)),
    ]
    assert all(r.converged for r in results)
    points = [stacked(r) for r in results]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            assert np.linalg.norm(points[i] - points[j]) <= 1e-2


def test_final_state_unpacked_for_auc():
    problem = auc_problem()
    res = solve(problem, SolverConfig(method="newton"))
    assert res.final_state is not None
    assert res.final_state.w.shape == (5,)
    assert np.array_equal(res.final_state.pack_x(), res.final_x)


# --- utilities

def test_spectral_norm_estimate():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, 8))
    m = a + a.T
    exact = np.abs(np.linalg.eigvalsh(m)).max()
    assert spectral_norm_estimate(m, seed=0) == pytest.approx(exact, rel=1e-6)


def test_trace_csv_format():
    problem = auc_problem()
    res = solve(problem, SolverConfig(method="newton"),
                auc_eval=lambda x, y: (0.75, None))
    text = trace_to_csv(res.trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,grad_norm,objective,train_auc,test_auc"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[3] == "0.75" and first[4] == ""      # absent AUC column is empty
    assert float(first[1]) == res.trace[0].grad_norm  # 17 significant digits round-trip
