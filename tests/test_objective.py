import numpy as np
import pytest

from aucmax.objective import (
    AucProblem,
    LabeledDataset,
    ObjectiveParams,
    PrimalDualState,
    gradient,
    hessian,
    objective_value,
    positive_fraction,
)
from aucmax.solvers import SolverConfig, solve


def random_instance(seed, max_n=50, max_d=10, lam=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    labels = np.where(rng.random(n) < 0.4, 1, -1)
    if abs(labels.sum()) == n:
        labels[0] *= -1
    dataset = LabeledDataset(rng.standard_normal((n, d)), labels)
    if lam is None:
        lam = float(10.0 ** rng.uniform(-4, 0))
    params = ObjectiveParams.from_dataset(dataset, lam=lam)
    state = PrimalDualState(rng.standard_normal(d), *rng.standard_normal(3))
    return dataset, params, state


def value_at(z, dataset, params):
    return objective_value(PrimalDualState.from_packed(z), dataset, params)


def grad_at(z, dataset, params):
    gx, gy = gradient(PrimalDualState.from_packed(z), dataset, params)
    return np.append(gx, gy)


def fd_gradient(z, dataset, params, h=1e-5):
    out = np.zeros_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        out[i] = (value_at(zp, dataset, params) - value_at(zm, dataset, params)) / (2 * h)
    return out


def fd_hessian(z, dataset, params, h=1e-5):
    out = np.zeros((z.size, z.size))
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        out[:, i] = (grad_at(zp, dataset, params) - grad_at(zm, dataset, params)) / (2 * h)
    return out


# --- dataset / params invariants

def test_positive_fraction_counts():
    ds = LabeledDataset(np.zeros((3, 1)) + 1.0, [1, -1, -1])
    assert positive_fraction(ds) == pytest.approx(1 / 3)
    ds = LabeledDataset(np.ones((4, 2)), [1, 1, -1, -1])
    assert positive_fraction(ds) == 0.5


def test_single_class_rejected():
    with pytest.raises(ValueError, match="single-class"):
        LabeledDataset(np.ones((3, 1)), [1, 1, 1])


def test_dataset_validation():
    with pytest.raises(ValueError, match="NaN"):
        LabeledDataset([[np.nan], [1.0]], [1, -1])
    with pytest.raises(ValueError, match="labels"):
        LabeledDataset([[0.0], [1.0]], [1, 2])
    with pytest.raises(ValueError):
        LabeledDataset([[0.0]], [1])


def test_params_validation():
    with pytest.raises(ValueError):
        ObjectiveParams(p=0.0)
    with pytest.raises(ValueError):
        ObjectiveParams(p=1.0)
    with pytest.raises(ValueError):
        ObjectiveParams(p=0.5, lam=-1.0)
    for lam in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^lambda must be a nonnegative finite number$"):
            ObjectiveParams(p=0.5, lam=lam)


def test_params_must_match_dataset():
    ds = LabeledDataset(np.ones((3, 1)), [1, -1, -1])
    bad = ObjectiveParams(p=0.5, lam=0.0)
    with pytest.raises(ValueError, match="positive fraction"):
        objective_value(PrimalDualState.zeros(1), ds, bad)


# --- objective value

def test_value_zero_state():
    ds = LabeledDataset([[1.0], [0.0]], [1, -1])
    params = ObjectiveParams.from_dataset(ds, lam=0.0)
    assert objective_value(PrimalDualState.zeros(1), ds, params) == 0.0


def test_value_hand_computed():
    # one positive a=[1], one negative a=[1], w=[1], u=v=y=0:
    # f_pos = 0.5*(1 - 2) = -0.5, f_neg = 0.5*(1 + 2) = 1.5, mean 0.5
    ds = LabeledDataset([[1.0], [1.0]], [1, -1])
    params = ObjectiveParams.from_dataset(ds, lam=0.0)
    state = PrimalDualState(np.array([1.0]))
    assert objective_value(state, ds, params) == pytest.approx(0.5)
    params2 = ObjectiveParams.from_dataset(ds, lam=2.0)
    assert objective_value(state, ds, params2) == pytest.approx(1.5)


def test_value_dimension_mismatch():
    ds = LabeledDataset(np.ones((2, 2)), [1, -1])
    params = ObjectiveParams.from_dataset(ds)
    with pytest.raises(ValueError, match="dimension mismatch"):
        objective_value(PrimalDualState.zeros(3), ds, params)


def test_value_permutation_invariant():
    rng = np.random.default_rng(3)
    ds, params, state = random_instance(3)
    perm = rng.permutation(ds.n_samples)
    shuffled = LabeledDataset(ds.features[perm], ds.labels[perm])
    v1 = objective_value(state, ds, params)
    v2 = objective_value(state, shuffled, params)
    assert v2 == pytest.approx(v1, rel=1e-12)


# --- gradient

def test_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(40):
        ds, params, state = random_instance(seed)
        analytic = grad_at(state.pack(), ds, params)
        numeric = fd_gradient(state.pack(), ds, params)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst = max(worst, rel)
    assert worst <= 1e-6


def test_gradient_dual_hand_case():
    # balanced single pos/neg at a=1, w=1: dual partial cancels exactly
    ds = LabeledDataset([[1.0], [1.0]], [1, -1])
    params = ObjectiveParams.from_dataset(ds, lam=0.0)
    _, gy = gradient(PrimalDualState(np.array([1.0])), ds, params)
    assert gy == 0.0


def test_gradient_zero_state_centers():
    ds, params, _ = random_instance(11, lam=0.0)
    params = ObjectiveParams.from_dataset(ds, lam=0.0)
    gx, _ = gradient(PrimalDualState.zeros(ds.n_features), ds, params)
    assert gx[-2] == 0.0 and gx[-1] == 0.0   # du and dv vanish at w=0, u=v=0


# --- hessian

def test_hessian_state_independent():
    ds, params, _ = random_instance(7)
    rng = np.random.default_rng(0)
    d = ds.n_features
    states = [PrimalDualState(rng.standard_normal(d), *rng.standard_normal(3)) for _ in range(2)]
    h1 = hessian(states[0], ds, params)
    h2 = hessian(states[1], ds, params)
    assert np.array_equal(h1, h2)


def test_hessian_dual_block():
    ds = LabeledDataset(np.ones((4, 1)), [1, 1, -1, -1])
    params = ObjectiveParams.from_dataset(ds, lam=0.0)
    h = hessian(PrimalDualState.zeros(1), ds, params)
    assert h[-1, -1] == pytest.approx(-0.5)   # -2 * 0.5 * 0.5


def test_hessian_matches_finite_differences():
    for seed in (0, 5, 9):
        ds, params, state = random_instance(seed)
        analytic = hessian(state, ds, params)
        numeric = fd_hessian(state.pack(), ds, params)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert rel.max() <= 1e-6


def test_convexity_concavity_split():
    for seed in range(8):
        ds, params, state = random_instance(seed, lam=1e-3)
        h = hessian(state, ds, params)
        d = ds.n_features
        xx = h[: d + 2, : d + 2]
        assert np.linalg.eigvalsh(xx).min() >= -1e-10
        assert h[-1, -1] < 0.0


def test_problem_adapter_round_trip():
    # The adapter's cached quadratic form sums in another order than the
    # per-sample formulas, so agreement is to rounding, not bitwise.
    for seed in range(21, 26):
        ds, params, state = random_instance(seed)
        problem = AucProblem(ds, lam=params.lam)
        z = state.pack()
        gx, gy = gradient(state, ds, params)
        np.testing.assert_allclose(problem.grad(z), np.append(gx, gy), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(problem.value(z), objective_value(state, ds, params),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(problem.hessian(), hessian(state, ds, params),
                                   rtol=1e-12, atol=1e-12)
        assert not problem.hessian().flags.writeable         # the cached H, shared
        unpacked = PrimalDualState.from_packed(z)
        assert np.array_equal(unpacked.w, state.w)
        assert (unpacked.u, unpacked.v, unpacked.y) == (state.u, state.v, state.y)


@pytest.mark.parametrize("z", [np.zeros(3), np.zeros((2, 2)), np.zeros(())])
def test_from_packed_refuses_what_pack_cannot_give(z):
    with pytest.raises(ValueError, match=r"^packed vector must be \[w; u; v; y\] with d >= 1$"):
        PrimalDualState.from_packed(z)


def test_problem_gradient_at_zero_is_the_reference_gradient():
    # b is read off H's w-y block; at z = 0 the adapter returns it bit for bit.
    for seed in range(21, 26):
        ds, params, _ = random_instance(seed)
        d = ds.n_features
        g = AucProblem(ds, lam=params.lam).grad(np.zeros(d + 3))
        gx_ref, gy_ref = gradient(PrimalDualState.zeros(d), ds, params)
        assert np.array_equal(g, np.append(gx_ref, gy_ref))


def uncached_value(problem, b, z):
    """``value``'s formula with a fresh ``H @ z``; ``b`` is the gradient at zero."""
    return 0.5 * float(z @ (problem.hessian() @ z + 2.0 * b))


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_value_takes_a_fresh_product_unless_the_primal_block_is_the_kept_one(seed):
    ds, params, state = random_instance(seed)
    problem = AucProblem(ds, lam=params.lam)
    n = problem.dim_x + problem.dim_y
    b = problem.grad(np.zeros(n))
    rng = np.random.default_rng(seed)
    z = state.pack()
    # value after grad at another primal block: a fresh product
    problem.grad(rng.standard_normal(n))
    assert problem.value(z) == uncached_value(problem, b, z)
    # value after grad at the same point: the kept product, same bits
    problem.grad(z)
    assert problem.value(z) == uncached_value(problem, b, z)
    # the caller changed z in place after grad: not the stale product
    problem.grad(z)
    z[0] += 1.0
    z[-1] -= 0.5
    assert problem.value(z) == uncached_value(problem, b, z)


class CountingHessian(np.ndarray):
    """A view of ``H`` that counts the full (d+3) x (d+3) products taken with it."""

    full_products = 0

    def __matmul__(self, other):
        if self.shape[0] == self.shape[1]:
            CountingHessian.full_products += 1
        return np.asarray(self) @ other


def test_alt_gda_takes_one_full_hessian_product_per_iteration(monkeypatch):
    ds, params, _ = random_instance(41, max_n=60, max_d=12)
    problem = AucProblem(ds, lam=params.lam)
    monkeypatch.setattr(problem, "_h", problem.hessian().view(CountingHessian))
    monkeypatch.setattr(CountingHessian, "full_products", 0)
    result = solve(problem, SolverConfig(method="alt-gda", step_size=0.05, max_iterations=40,
                                         grad_tolerance=1e-30))
    assert result.iterations_used == 40
    assert CountingHessian.full_products == result.iterations_used + 1     # row 0's, then one a step


@pytest.mark.parametrize("seed", [42, 43, 44])
def test_grad_updates_a_dual_only_move_through_the_dual_columns(seed):
    ds, params, state = random_instance(seed)
    problem = AucProblem(ds, lam=params.lam)
    n, nx = problem.dim_x + problem.dim_y, problem.dim_x
    h, b = problem.hessian(), problem.grad(np.zeros(n))
    rng = np.random.default_rng(seed)
    z = state.pack()
    problem.grad(z)
    # a changed primal block: a full product, bit for bit
    moved = z.copy()
    moved[0] += 0.25
    assert np.array_equal(problem.grad(moved), h @ moved + b)
    # a dual-only move: the kept product plus the dual columns, to rounding,
    # for value as for grad
    for _ in range(5):                          # each from the last full product: no drift
        dual = moved.copy()
        dual[nx:] += rng.standard_normal(n - nx)
        fresh = h @ dual + b
        scale = np.linalg.norm(dual) * np.linalg.norm(fresh + b)   # value: dual @ (fresh + b) / 2
        assert abs(problem.value(dual) - uncached_value(problem, b, dual)) <= 1e-14 * scale
        g = problem.grad(dual)
        assert np.linalg.norm(g - fresh) <= 1e-14 * np.linalg.norm(fresh)
