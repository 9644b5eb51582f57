import numpy as np
import pytest
import scipy.linalg

import aucmax.solvers as solvers
from aucmax.data import SplitSpec, SynthSpec, generate_synthetic, split
from aucmax.metrics import roc_auc, roc_auc_columns
from aucmax.objective import AucProblem, LabeledDataset, PrimalDualState
from aucmax.solvers import (
    CONDITION_LIMIT,
    DENSE_TRACE_ROWS,
    DIRECTION_RULES,
    FIRST_ORDER_METHODS,
    METHODS,
    REBASE_RANK,
    SECOND_ORDER_METHODS,
    THIN_TRACE_EVERY,
    TRACE_AUC_BLOCK,
    SolverConfig,
    _Curvature,
    broyden_update,
    greedy_direction,
    solve,
    spectral_norm_estimate,
    trace_to_csv,
)


class ScalarSaddle:
    """f(x, y) = x^2/2 - y^2/2; saddle at the origin."""

    dim_x = dim_y = 1

    def value(self, z):
        return float(0.5 * z[0] ** 2 - 0.5 * z[1] ** 2)

    def grad(self, z):
        return np.array([z[0], -z[1]])


class Bilinear:
    """f(x, y) = x * y; rotation-dominated saddle at the origin."""

    dim_x = dim_y = 1

    def value(self, z):
        return float(z[0] * z[1])

    def grad(self, z):
        return np.array([z[1], z[0]])


class SlowQuadratic:
    """Tiny-curvature quadratic saddle; used to exercise long traces."""

    dim_x = dim_y = 1

    def __init__(self, mu=1.0):
        self.mu = mu

    def value(self, z):
        return float(0.5 * self.mu * (z[0] ** 2 - z[1] ** 2))

    def grad(self, z):
        return np.array([self.mu * z[0], -self.mu * z[1]])


def auc_problem(n=50, d=5, sep=2.0, seed=3, lam=1e-4, pos=1 / 3):
    return AucProblem(generate_synthetic(SynthSpec(n, d, pos, sep, seed=seed)), lam=lam)


def hessian_norm(problem):
    return np.abs(np.linalg.eigvalsh(problem.hessian())).max()


# --- config validation

def test_config_validation():
    with pytest.raises(ValueError, match="^method must be one of sim-gda, alt-gda, "):
        SolverConfig(method="sgd")
    with pytest.raises(ValueError, match="step_size"):
        SolverConfig(method="sim-gda", step_size=0.0)
    with pytest.raises(ValueError, match="broyden_tau"):
        SolverConfig(method="qn-broyden", broyden_tau=1.5)
    with pytest.raises(ValueError, match="direction_rule"):
        SolverConfig(method="qn-broyden", direction_rule="coordinate")
    with pytest.raises(ValueError, match="grad_tolerance"):
        SolverConfig(method="newton", grad_tolerance=0.0)


def test_unknown_method_on_a_mutated_config_raises():
    cfg = SolverConfig(method="qn-broyden")
    cfg.method = "sgd"                          # past SolverConfig's own check
    with pytest.raises(ValueError, match="^method must be one of "):
        solve(auc_problem(), cfg)


def untouchable(problem):
    """``problem``, with each ``grad``, ``value`` and ``hessian`` call failing the test."""
    for name in ("grad", "value", "hessian"):
        if hasattr(problem, name):
            setattr(problem, name, lambda *args, _name=name: pytest.fail(f"{_name}() called"))
    return problem


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("make, initial", [
    # d = 4 (dim_x = 6), started from a 3-entry primal block: Newton cut H at 3
    (lambda: auc_problem(d=4), (np.zeros(3), [0.0])),
    (lambda: auc_problem(d=4), np.zeros(4)),
    # dim_x = 1, started from a 2-entry primal block: ran, the extra entry untouched
    (ScalarSaddle, ([1.0, 4.0], [1.0])),
    (ScalarSaddle, [1.0, 4.0, 1.0]),
    # dim_x + dim_y numbers, but not a vector
    (ScalarSaddle, np.zeros((2, 1))),
    # a vector of the right size with a non-finite entry: ran into an overflow in value()
    (lambda: auc_problem(d=3), [np.nan, 0.0, 0.0, 0.0, 0.0, 0.0]),
    (lambda: auc_problem(d=3), [0.0, 0.0, 0.0, 0.0, 0.0, -np.inf]),
], ids=["auc-pair", "auc-stacked", "toy-pair", "toy-stacked", "2-d", "nan", "inf"])
def test_start_of_the_wrong_shape_refused_before_any_call(method, make, initial):
    problem = untouchable(make())
    n = problem.dim_x + problem.dim_y
    with pytest.raises(ValueError, match=f"^initial must be a vector of dim_x \\+ dim_y = {n} "
                                         "finite numbers$"):
        solve(problem, SolverConfig(method=method, step_size=0.5), initial=initial)


# --- first-order on toys

def test_alt_gda_scalar_toy():
    cfg = SolverConfig(method="alt-gda", step_size=0.5, max_iterations=100, grad_tolerance=1e-3)
    res = solve(ScalarSaddle(), cfg, initial=[1.0, 1.0])
    assert res.converged and res.iterations_used <= 100
    assert np.abs(res.final_z).max() < 1e-3


@pytest.mark.parametrize("method", METHODS)
def test_immediate_return_when_converged(method):
    if method in SECOND_ORDER_METHODS:          # these need a Hessian: start at the AUC saddle
        problem = auc_problem()
        saddle = solve(problem, SolverConfig(method="newton", grad_tolerance=1e-10))
        start = saddle.final_z
        cfg = SolverConfig(method=method, grad_tolerance=1e-3)
    else:
        problem, start = ScalarSaddle(), np.zeros(2)
        cfg = SolverConfig(method=method, step_size=0.5, grad_tolerance=1e-3)
    res = solve(problem, cfg, initial=start)
    assert res.converged and res.iterations_used == 0
    assert len(res.trace) == 1 and res.trace[0].iteration == 0
    assert np.array_equal(res.final_z, start)


def test_sim_gda_divergence_error():
    cfg = SolverConfig(method="sim-gda", step_size=0.5, max_iterations=10_000, grad_tolerance=1e-12)
    with pytest.raises(RuntimeError, match="diverged"):
        solve(Bilinear(), cfg, initial=[1.0, 1.0])


def test_bilinear_sim_grows_eg_contracts():
    # closed-form maps: sim multiplies the iterate norm by sqrt(1.25),
    # extragradient by sqrt(0.8125), every iteration
    sim = solve(
        Bilinear(),
        SolverConfig(method="sim-gda", step_size=0.5, max_iterations=50, grad_tolerance=1e-15),
        initial=[1.0, 1.0],
    )
    eg = solve(
        Bilinear(),
        SolverConfig(method="extragradient", step_size=0.5, max_iterations=50, grad_tolerance=1e-15),
        initial=[1.0, 1.0],
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
        res = solve(problem, SolverConfig(method=method, step_size=eta, grad_tolerance=1e-3))
        assert res.converged
        counts[method] = res.iterations_used
    assert counts["alt-gda"] < counts["sim-gda"]


def test_eg_agrees_with_alt_gda_on_auc():
    problem = auc_problem()
    alt = solve(problem, SolverConfig(method="alt-gda"))
    eg = solve(problem, SolverConfig(method="extragradient"))
    assert alt.converged and eg.converged
    assert np.linalg.norm(alt.final_z - eg.final_z) <= 1e-2


def test_default_step_requires_hessian():
    cfg = SolverConfig(method="sim-gda")
    with pytest.raises(ValueError, match="step_size"):
        solve(ScalarSaddle(), cfg, initial=[1.0, 1.0])


def test_trace_thinning_long_run():
    mu = 5e-4
    cfg = SolverConfig(method="sim-gda", step_size=1.0, max_iterations=30_000, grad_tolerance=1e-3)
    res = solve(SlowQuadratic(mu), cfg, initial=[1e3, 1e3])
    assert res.converged
    iters = [row.iteration for row in res.trace]
    assert all(b > a for a, b in zip(iters, iters[1:]))           # strictly increasing
    dense = [i for i in iters if i <= 10_000]
    assert dense == list(range(0, 10_001))                        # every iteration early on
    late = [i for i in iters if 10_000 < i < res.iterations_used]
    assert all(i % 10 == 0 for i in late)                         # thinned afterwards
    assert iters[-1] == res.iterations_used
    assert res.trace[-1].grad_norm <= cfg.grad_tolerance


# a cap past the dense rows that is not a multiple of THIN_TRACE_EVERY: only
# the always-record-the-last-row rule keeps the cap row in a thinned trace
THINNED_CAP = DENSE_TRACE_ROWS + 3


@pytest.mark.parametrize("method, cap", [(m, 5) for m in METHODS]
                         + [(m, THINNED_CAP) for m in FIRST_ORDER_METHODS])
def test_trace_integrity_at_cap(method, cap):
    if method in SECOND_ORDER_METHODS:          # round-off keeps the gradient above 1e-30
        problem, start, step, tol = auc_problem(), None, None, 1e-30
    else:
        problem, start, step, tol = ScalarSaddle(), [1.0, 1.0], 0.1, 1e-9
        if cap == THINNED_CAP:                  # contracts slowly enough to stay above tol
            problem, step = SlowQuadratic(1e-4), 1.0
    cfg = SolverConfig(method=method, step_size=step, max_iterations=cap, grad_tolerance=tol)
    res = solve(problem, cfg, initial=start)
    assert not res.converged
    assert res.iterations_used == cap
    assert res.trace[-1].iteration == cap
    assert res.trace[-1].grad_norm > cfg.grad_tolerance
    iters = [row.iteration for row in res.trace]
    assert iters[:DENSE_TRACE_ROWS + 1] == list(range(min(cap, DENSE_TRACE_ROWS) + 1))
    assert all(i % THIN_TRACE_EVERY == 0 for i in iters[DENSE_TRACE_ROWS + 1:-1])


class AffineSaddle:
    """Generic coupled quadratic ``z@H@z/2 + q@z`` over ``z = [x1, x2, y]``;
    pins the exact update-rule semantics."""

    dim_x = 2
    dim_y = 1
    H = np.array([[2.0, 0.3, 0.5], [0.3, 1.0, -0.2], [0.5, -0.2, -0.8]])
    q = np.array([0.1, -0.3, 0.2])

    def value(self, z):
        return float(0.5 * z @ self.H @ z + self.q @ z)

    def grad(self, z):
        return self.H @ z + self.q


def test_update_rules_match_hand_iterations():
    problem = AffineSaddle()
    eta, nx = 0.1, problem.dim_x
    z0 = np.array([1.0, -1.0, 0.5])

    def gda(z, gx, gy):                         # descend in x, ascend in y
        return np.concatenate([z[:nx] - eta * gx, z[nx:] + eta * gy])

    def run(method):
        return solve(problem, SolverConfig(method=method, step_size=eta,
                                           max_iterations=3, grad_tolerance=1e-30),
                     initial=z0).final_z

    hand = z0.copy()
    for _ in range(3):                           # simultaneous: both from the old point
        g = problem.grad(hand)
        hand = gda(hand, g[:nx], g[nx:])
    assert np.array_equal(run("sim-gda"), hand)

    hand = z0.copy()
    for _ in range(3):                           # alternating: dual sees the fresh primal
        gx = problem.grad(hand)[:nx]
        fresh = np.concatenate([hand[:nx] - eta * gx, hand[nx:]])
        hand = gda(hand, gx, problem.grad(fresh)[nx:])
    assert np.array_equal(run("alt-gda"), hand)

    hand = z0.copy()
    for _ in range(3):                           # extragradient: full step from mid-point
        g = problem.grad(hand)
        g_mid = problem.grad(gda(hand, g[:nx], g[nx:]))
        hand = gda(hand, g_mid[:nx], g_mid[nx:])
    assert np.array_equal(run("extragradient"), hand)


# --- newton

def test_newton_two_iteration_exactness():
    for seed in range(5):
        problem = auc_problem(n=30 + seed, d=3 + seed, seed=seed)
        res = solve(problem, SolverConfig(method="newton", grad_tolerance=1e-10))
        assert res.converged and res.iterations_used <= 2


def test_newton_zero_iterations_at_saddle():
    problem = auc_problem()
    first = solve(problem, SolverConfig(method="newton", grad_tolerance=1e-10))
    again = solve(
        problem,
        SolverConfig(method="newton", grad_tolerance=1e-3),
        initial=first.final_z,
    )
    assert again.converged and again.iterations_used == 0


def test_newton_monotone_contraction():
    problem = auc_problem(seed=8)
    res = solve(problem, SolverConfig(method="newton", grad_tolerance=1e-14,
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
        solve(problem, SolverConfig(method="newton"),
              initial=[1.0, 1.0, 1.0, -1.0, 0.5])


@pytest.mark.parametrize("method", SECOND_ORDER_METHODS)
def test_second_order_refuses_a_singular_problem_at_its_saddle(method):
    # the same singular problem from the zero start, where the gradient is
    # already zero: the Hessian is certified before the convergence test
    problem = AucProblem(LabeledDataset(np.zeros((4, 2)), [1, 1, -1, -1]), lam=0.0)
    assert not problem.grad(np.zeros(problem.dim_x + problem.dim_y)).any()
    with pytest.raises(RuntimeError, match="singular Hessian"):
        solve(problem, SolverConfig(method=method))


class IndefinitePrimal:
    """f(x, y) = (x1^2 - x2^2)/2 - y^2/2: nonsingular, but H_xx is indefinite."""

    dim_x, dim_y = 2, 1

    def value(self, z):
        return float(0.5 * (z[0] ** 2 - z[1] ** 2 - z[2] ** 2))

    def grad(self, z):
        return np.array([z[0], -z[1], -z[2]])

    def hessian(self):
        return np.diag([1.0, -1.0, -1.0])


@pytest.mark.parametrize("method", ["newton", "qn-broyden"])
def test_singular_hessian_without_exact_zero_pivot(method):
    # lam = 0 with a nearly collinear column (a copy perturbed by 1e-7): the
    # Cholesky of H_xx succeeds with a last pivot well above rounding, so
    # only the condition estimate (about 1e15, past CONDITION_LIMIT) rejects.
    ds = generate_synthetic(SynthSpec(60, 4, 1 / 3, 2.0, seed=6))
    nudge = 1e-7 * np.random.default_rng(1).standard_normal(len(ds.labels))
    collinear = LabeledDataset(np.column_stack([ds.features, ds.features[:, 1] + nudge]),
                               ds.labels)
    problem = AucProblem(collinear, lam=0.0)
    h_xx = problem.hessian()[:-1, :-1]
    factor = scipy.linalg.cholesky(h_xx)
    assert np.diag(factor).min() ** 2 > 4 * np.finfo(float).eps * h_xx.diagonal().max()
    rcond, info = scipy.linalg.lapack.dpocon(factor, np.linalg.norm(h_xx, 1))
    assert info == 0 and rcond * CONDITION_LIMIT < 0.2
    with pytest.raises(RuntimeError, match="singular Hessian"):
        solve(problem, SolverConfig(method=method))
    # A saddle that is nonsingular but not convex in x is not certified.
    with pytest.raises(RuntimeError, match="singular Hessian"):
        solve(IndefinitePrimal(), SolverConfig(method=method),
              initial=[1.0, 1.0, 1.0])


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

def recorded_q(monkeypatch, problem, cfg):
    """The run of ``cfg`` on ``problem`` and every ``Q`` it held: the initial
    one, then the one after each iteration's updates.  A ``_Curvature``
    subclass copies ``Q`` on every ``solve`` call but the one inside
    ``add``, that is, as each step sees it; the last ``Q`` is read after the
    run."""
    made = []

    class RecordingCurvature(solvers._Curvature):
        def __init__(self, n, scale):
            super().__init__(n, scale)
            self.seen, self.adding = [], False
            made.append(self)

        def solve(self, v):
            if not self.adding:
                self.seen.append(self.q.copy())
            return super().solve(v)

        def add(self, sigma, a):
            self.adding = True
            try:
                super().add(sigma, a)
            finally:
                self.adding = False

    monkeypatch.setattr(solvers, "_Curvature", RecordingCurvature)
    res = solve(problem, cfg)
    (curvature,) = made
    assert len(curvature.seen) == res.iterations_used
    return res, curvature.seen + [curvature.q.copy()]


def test_quasi_newton_agrees_with_newton():
    problem = auc_problem(n=30, d=4, seed=9)
    newton = solve(problem, SolverConfig(method="newton"))
    qn = solve(
        problem,
        SolverConfig(method="qn-broyden", broyden_tau="sr1",
                     direction_rule="greedy-basis", updates_per_iteration=3),
    )
    assert newton.converged and qn.converged
    assert np.linalg.norm(newton.final_z - qn.final_z) <= 1e-2


def test_quasi_newton_dominance_along_run(monkeypatch):
    problem = auc_problem(n=40, d=6, seed=12)
    res, seen_q = recorded_q(
        monkeypatch, problem,
        SolverConfig(method="qn-broyden", broyden_tau="sr1", updates_per_iteration=3),
    )
    assert res.converged
    h_hat = problem.hessian()
    h_sq = h_hat @ h_hat
    for q in seen_q:
        assert np.linalg.eigvalsh(q - h_sq).min() >= -1e-8


def test_quasi_newton_random_rule_deterministic():
    problem = auc_problem(n=30, d=4, seed=9)
    cfg = SolverConfig(method="qn-broyden", direction_rule="random-gaussian",
                       updates_per_iteration=1, rng_seed=5)
    first = solve(problem, cfg)
    second = solve(problem, cfg)
    assert first.iterations_used == second.iterations_used
    assert len(first.trace) == len(second.trace)
    for a, b in zip(first.trace, second.trace):
        assert a.grad_norm == b.grad_norm and a.objective == b.objective
    assert np.array_equal(first.final_z, second.final_z)


DENSE_NOTE = "iteration {}: {} update skipped (degenerate curvature pair)"


def test_curvature_certificate_orders_bfgs_pieces():
    # BFGS on Q = c I along e0: + hu hu.T / uHu and - qu qu.T / uQu.  The
    # downdate alone leaves Q exactly singular; after the update it does not.
    c, u = 2.0, np.eye(3)[0]
    hu = np.array([0.5, 0.25, 0.0])
    alone = _Curvature(3, c)
    with pytest.raises(RuntimeError, match="lost positive definiteness"):
        alone.add(-1.0 / c, c * u)
    ordered = _Curvature(3, c)
    ordered.add(1.0 / float(u @ hu), hu)
    ordered.add(-1.0 / c, c * u)
    v = np.array([1.0, -2.0, 3.0])
    assert np.allclose(ordered.solve(v), np.linalg.solve(ordered.q, v), rtol=1e-12)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("rule", DIRECTION_RULES)
@pytest.mark.parametrize("tau", ["sr1", "dfp", "bfgs", 0.3])
def test_factored_quasi_newton_tracks_dense_reference(monkeypatch, tau, rule, k):
    # Replays the solver's run with the dense broyden_update and np.linalg.solve:
    # every recorded Q, every skip note and every trace row must agree, over at
    # least 60 updates, more than REBASE_RANK of them applied (so Q is refactored).
    problem = auc_problem(n=200, d=40, seed=21)
    iterations = 60 // k
    cfg = SolverConfig(method="qn-broyden", broyden_tau=tau, direction_rule=rule,
                       updates_per_iteration=k, max_iterations=iterations,
                       grad_tolerance=1e-300, rng_seed=4)
    res, seen_q = recorded_q(monkeypatch, problem, cfg)
    assert res.iterations_used == iterations

    z = np.zeros(problem.dim_x + problem.dim_y)
    h_hat = problem.hessian()
    h_sq = h_hat @ h_hat
    n = h_sq.shape[0]
    q = 1.01 * np.linalg.eigvalsh(h_sq).max() * np.eye(n)
    assert np.abs(seen_q[0] - q).max() <= 1e-12 * q[0, 0]
    rng = np.random.default_rng(cfg.rng_seed)
    g0 = res.trace[0].grad_norm
    notes, applied = [], 0
    for t in range(1, iterations + 1):
        z = z - np.linalg.solve(q, h_hat @ problem.grad(z))
        for _ in range(k):
            if rule == "greedy-basis":
                u = np.eye(n)[greedy_direction(q, h_sq)]
            else:
                u = rng.standard_normal(n)
            q, skipped = broyden_update(q, h_sq, u, tau)
            notes += [DENSE_NOTE.format(t, component) for component in skipped]
            applied += not skipped
        assert np.abs(seen_q[t] - q).max() <= 1e-10 * np.abs(q).max(), t
        grad_norm = float(np.linalg.norm(problem.grad(z)))
        assert abs(res.trace[t].grad_norm - grad_norm) <= 1e-8 * g0, t
    assert res.notes == notes
    assert applied > REBASE_RANK


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
    points = [r.final_z for r in results]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            assert np.linalg.norm(points[i] - points[j]) <= 1e-2


def test_final_state_unpacked_for_auc():
    problem = auc_problem()
    res = solve(problem, SolverConfig(method="newton"))
    state = PrimalDualState.from_packed(res.final_z)
    assert state.w.shape == (5,)
    assert np.array_equal(state.pack(), res.final_z)


# --- utilities

def test_spectral_norm_estimate():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, 8))
    m = a + a.T
    exact = np.abs(np.linalg.eigvalsh(m)).max()
    assert spectral_norm_estimate(m, seed=0) == pytest.approx(exact, rel=1e-6)


def test_spectral_norm_estimate_negative_extreme_eigenvalue():
    # a saddle-shaped matrix whose largest-magnitude eigenvalue is negative
    rotation, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 6)))
    m = rotation @ np.diag([-5.0, 3.0, 2.0, -1.0, 0.5, 4.0]) @ rotation.T
    assert spectral_norm_estimate(m, seed=1) == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize("matrix, expected", [
    ([[1.0, 2.0], [2.0, -5.0]], 2.0 + np.sqrt(13.0)),
    ([[0.0, 1.0], [1.0, 0.0]], 1.0),
    ([[1.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, 2.0]], 3.0),
    ([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]], 2.0 + np.sqrt(2.0)),
    ([[-7.0]], 7.0),
    (np.zeros((3, 3)), 0.0),
])
def test_spectral_norm_estimate_small_and_degenerate(matrix, expected):
    assert spectral_norm_estimate(np.array(matrix)) == pytest.approx(expected, rel=1e-12)


def test_spectral_norm_estimate_same_seed_same_bits():
    problem = auc_problem(n=80, d=30, seed=4)
    h = problem.hessian()
    first = spectral_norm_estimate(h, seed=11)
    assert spectral_norm_estimate(h, seed=11) == first
    assert first == pytest.approx(np.abs(np.linalg.eigvalsh(h)).max(), rel=1e-12)


def test_trace_csv_format():
    problem = auc_problem()
    res = solve(problem, SolverConfig(method="newton"),
                auc_eval=lambda xs: ([0.75] * len(xs), [None] * len(xs)))
    text = trace_to_csv(res.trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,grad_norm,objective,train_auc,test_auc"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[3] == "0.75" and first[4] == ""      # absent AUC column is empty
    assert float(first[1]) == res.trace[0].grad_norm  # 17 significant digits round-trip


class RecordingAucProblem(AucProblem):
    """Keeps the iterate of every ``value`` call: the loop calls ``value``
    once per trace row, at that row's iterate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.points = []

    def value(self, z):
        self.points.append(np.array(z))
        return super().value(z)


@pytest.mark.parametrize("method, cap, rows", [
    ("newton", 5, 2),                                           # fewer rows than one block
    ("sim-gda", 2 * TRACE_AUC_BLOCK + 2, 2 * TRACE_AUC_BLOCK + 3),  # not a multiple of it
    ("extragradient", TRACE_AUC_BLOCK - 1, TRACE_AUC_BLOCK),    # exactly one block
])
def test_trace_aucs_scored_in_blocks_match_each_rows_iterate(method, cap, rows):
    data = generate_synthetic(SynthSpec(120, 6, 1 / 3, 1.0, seed=5))
    train, test = split(data, SplitSpec(train_fraction=0.8, seed=1))
    problem = RecordingAucProblem(train, lam=1e-4)
    d = train.n_features
    blocks = []

    def auc_eval(xs):
        blocks.append(len(xs))
        weights = xs[:, :d].T
        return (roc_auc_columns(train.features @ weights, train.labels),
                roc_auc_columns(test.features @ weights, test.labels))

    res = solve(problem, SolverConfig(method=method, max_iterations=cap, grad_tolerance=1e-12),
                auc_eval=auc_eval)
    assert len(res.trace) == len(problem.points) == rows
    assert blocks == [TRACE_AUC_BLOCK] * (rows // TRACE_AUC_BLOCK) + (
        [rows % TRACE_AUC_BLOCK] if rows % TRACE_AUC_BLOCK else [])
    for row, z in zip(res.trace, problem.points):
        assert row.train_auc == roc_auc(train.features @ z[:d], train.labels)
        assert row.test_auc == roc_auc(test.features @ z[:d], test.labels)
        assert type(row.train_auc) is float and type(row.test_auc) is float
