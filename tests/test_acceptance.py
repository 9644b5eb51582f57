"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured figure and runtime (run with -s to see
them).  Tolerances and budgets are fixed here, not configurable."""

import itertools
import json
import time

import numpy as np
import pytest

from aucmax.cli import main
from aucmax.data import SynthSpec, generate_synthetic
from aucmax.features import build_feature_sets, feature_layout, layout_manifest
from aucmax.metrics import roc_auc
from aucmax.objective import (
    AucProblem,
    LabeledDataset,
    ObjectiveParams,
    PrimalDualState,
    gradient,
    hessian,
    objective_value,
)
from aucmax.signals import (
    DEFAULT_BANDS,
    TrialSignal,
    WindowSpec,
    band_power_psd,
    butterworth_gain_squared,
    lagged_correlation,
    plv,
    power_spectrum,
)
from aucmax.solvers import SolverConfig, solve


def report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed <= budget else "FAIL"
    print(f"[criterion {number:2d}] {status} {name}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {number} failed: {detail}"
    assert elapsed <= budget, f"criterion {number} exceeded runtime budget: {elapsed:.2f}s > {budget}s"


def random_pair(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 51))
    d = int(rng.integers(1, 11))
    labels = np.where(rng.random(n) < 0.4, 1, -1)
    if abs(labels.sum()) == n:
        labels[0] *= -1
    dataset = LabeledDataset(rng.standard_normal((n, d)), labels)
    params = ObjectiveParams.from_dataset(dataset, lam=float(10.0 ** rng.uniform(-4, -1)))
    state = PrimalDualState(rng.standard_normal(d), *rng.standard_normal(3))
    return dataset, params, state


def test_criterion_1_gradient_hessian_finite_differences():
    start = time.time()
    h = 1e-5
    worst_grad = worst_hess = 0.0
    for seed in range(100):
        dataset, params, state = random_pair(seed)
        z0 = state.pack()

        def value_at(z):
            return objective_value(PrimalDualState.from_packed(z), dataset, params)

        def grad_at(z):
            gx, gy = gradient(PrimalDualState.from_packed(z), dataset, params)
            return np.append(gx, gy)

        problem = AucProblem(dataset, params.lam)
        oracles = (     # value, gradient and Hessian: the per-sample reference, then AucProblem
            (value_at, grad_at, hessian(state, dataset, params)),
            (problem.value, problem.grad, problem.hessian()),
        )
        for value_of, grad_of, analytic_hess in oracles:
            analytic = grad_of(z0)
            numeric = np.zeros_like(z0)
            for i in range(z0.size):
                zp, zm = z0.copy(), z0.copy()
                zp[i] += h
                zm[i] -= h
                numeric[i] = (value_of(zp) - value_of(zm)) / (2 * h)
            worst_grad = max(worst_grad,
                             np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8))

            numeric_hess = np.zeros_like(analytic_hess)
            for i in range(z0.size):
                zp, zm = z0.copy(), z0.copy()
                zp[i] += h
                zm[i] -= h
                numeric_hess[:, i] = (grad_of(zp) - grad_of(zm)) / (2 * h)
            rel = np.abs(analytic_hess - numeric_hess) / np.maximum(1.0, np.abs(numeric_hess))
            worst_hess = max(worst_hess, float(rel.max()))

    elapsed = time.time() - start
    passed = worst_grad <= 1e-6 and worst_hess <= 1e-6
    report(1, "gradient/Hessian vs finite differences",
           passed, f"worst grad rel {worst_grad:.2e}, worst hess rel {worst_hess:.2e}", elapsed, 10.0)


def test_criterion_2_newton_quadratic_exactness():
    start = time.time()
    worst_iters = 0
    worst_norm = 0.0
    for seed in range(20):
        dataset = generate_synthetic(
            SynthSpec(30 + 5 * seed, 1 + seed % 10, 0.3, 1.5, seed=seed)
        )
        problem = AucProblem(dataset, lam=1e-4)
        t0 = time.time()
        result = solve(problem, SolverConfig(method="newton", grad_tolerance=1e-10))
        per_instance = time.time() - t0
        assert per_instance <= 1.0
        worst_iters = max(worst_iters, result.iterations_used)
        worst_norm = max(worst_norm, result.trace[-1].grad_norm)
        if not (result.converged and result.iterations_used <= 2):
            report(2, "Newton quadratic-saddle exactness", False,
                   f"seed {seed}: {result.iterations_used} iterations", time.time() - start, 20.0)
    report(2, "Newton quadratic-saddle exactness", True,
           f"20 instances, max {worst_iters} iterations, worst grad {worst_norm:.1e}",
           time.time() - start, 20.0)


def test_criterion_3_cross_solver_agreement():
    start = time.time()
    dataset = generate_synthetic(SynthSpec(200, 10, 1 / 3, 2.0, seed=20))
    problem = AucProblem(dataset, lam=1e-4)
    runs = {
        "sim-gda": SolverConfig(method="sim-gda", grad_tolerance=1e-3, max_iterations=50_000),
        "alt-gda": SolverConfig(method="alt-gda", grad_tolerance=1e-3, max_iterations=50_000),
        "extragradient": SolverConfig(method="extragradient", grad_tolerance=1e-3,
                                      max_iterations=50_000),
        "newton": SolverConfig(method="newton", grad_tolerance=1e-3),
        "qn-greedy-sr1": SolverConfig(method="qn-broyden", broyden_tau="sr1",
                                      direction_rule="greedy-basis", updates_per_iteration=3,
                                      grad_tolerance=1e-3),
        "qn-greedy-bfgs": SolverConfig(method="qn-broyden", broyden_tau="bfgs",
                                       direction_rule="greedy-basis", updates_per_iteration=3,
                                       grad_tolerance=1e-3),
    }
    finals = {}
    for name, config in runs.items():
        result = solve(problem, config)
        if not result.converged:
            report(3, "cross-solver saddle agreement", False, f"{name} did not converge",
                   time.time() - start, 60.0)
        finals[name] = result.final_z
    max_dist = max(
        np.linalg.norm(finals[a] - finals[b]) for a, b in itertools.combinations(finals, 2)
    )
    report(3, "cross-solver saddle agreement", max_dist <= 1e-2,
           f"6 solvers converged, max pairwise distance {max_dist:.2e}",
           time.time() - start, 60.0)


def test_criterion_4_eg_vs_gda_bilinear_stability():
    start = time.time()

    class Bilinear:
        dim_x = dim_y = 1

        def value(self, z):
            return float(z[0] * z[1])

        def grad(self, z):
            return np.array([z[1], z[0]])

    sim = solve(
        Bilinear(),
        SolverConfig(method="sim-gda", step_size=0.5, max_iterations=50, grad_tolerance=1e-15),
        initial=[1.0, 1.0],
    )
    eg = solve(
        Bilinear(),
        SolverConfig(method="extragradient", step_size=0.5, max_iterations=50,
                     grad_tolerance=1e-15),
        initial=[1.0, 1.0],
    )
    sim_norms = [row.grad_norm for row in sim.trace]    # iterate norm == grad norm for f=xy
    eg_norms = [row.grad_norm for row in eg.trace]
    increasing = len(sim_norms) == 51 and all(b > a for a, b in zip(sim_norms, sim_norms[1:]))
    decreasing = len(eg_norms) == 51 and all(b < a for a, b in zip(eg_norms, eg_norms[1:]))
    report(4, "EG vs GDA bilinear stability", increasing and decreasing,
           f"sim-GDA norm x{sim_norms[-1] / sim_norms[0]:.1f}, EG norm x{eg_norms[-1] / eg_norms[0]:.1e} over 50 iters",
           time.time() - start, 1.0)


def test_criterion_5_auc_brute_force_equivalence():
    start = time.time()
    mismatches = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 201))
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        if abs(labels.sum()) == n:
            labels[0] *= -1
        if seed % 2:
            scores = rng.integers(0, 6, n).astype(float)   # heavy ties
        else:
            scores = rng.standard_normal(n)
        pos = scores[labels == 1]
        neg = scores[labels == -1]
        wins = np.count_nonzero(pos[:, None] > neg[None, :])
        ties = np.count_nonzero(pos[:, None] == neg[None, :])
        brute = (wins + 0.5 * ties) / (pos.size * neg.size)
        if roc_auc(scores, labels) != brute:
            mismatches += 1
    report(5, "rank AUC == brute-force pair counting", mismatches == 0,
           f"1000 instances, {mismatches} mismatches", time.time() - start, 30.0)


def test_criterion_6_signal_processing_identities():
    start = time.time()
    fs = 128.0
    rng = np.random.default_rng(0)
    checks = {}

    x = rng.standard_normal(256)
    _, power = power_spectrum(x, fs)
    energy = float(np.sum(x * x))
    checks["parseval"] = abs(power.sum() - energy) <= 1e-9 * energy

    checks["butterworth_cutoff"] = all(
        abs(float(butterworth_gain_squared(9.5, 9.5, order)) - 0.5) <= 1e-12
        for order in range(1, 21)
    )

    t = np.arange(256) / fs
    tone = np.sin(2 * np.pi * 10.0 * t)
    powers = band_power_psd(tone, fs, DEFAULT_BANDS)
    checks["alpha_purity"] = powers[1] / powers.sum() >= 0.99

    checks["plv_self"] = plv(tone, tone) == pytest.approx(1.0, abs=1e-12)
    lagged = np.sin(2 * np.pi * 8.0 * t + np.pi / 3)
    checks["plv_constant_lag"] = plv(np.sin(2 * np.pi * 8.0 * t), lagged) >= 0.99

    raw = rng.standard_normal(259)
    xs = raw[3:]
    ys = np.empty(256)
    ys[3:] = xs[:-3]
    ys[:3] = raw[:3]
    checks["lagged_corr_shift"] = lagged_correlation(xs, ys, 3) >= 0.99

    failed = [name for name, ok in checks.items() if not ok]
    report(6, "signal-processing identities", not failed,
           "all identities hold" if not failed else f"failed: {failed}",
           time.time() - start, 10.0)


def test_criterion_7_feature_set_shapes():
    start = time.time()
    rng = np.random.default_rng(14)
    t = np.arange(int(63 * 128)) / 128.0
    data = rng.standard_normal((14, t.size))
    for c in range(14):
        data[c] += 0.4 * np.sin(2 * np.pi * (5 + c) * t)
    trial = TrialSignal(data, 128.0, pretrial_seconds=3.0)
    channels = list(range(14))
    spec = WindowSpec()
    corr_lags = (0, 32)

    matrices = {
        level: build_feature_sets(trial, channels=channels, spec=spec, set_id=level,
                                  corr_lags=corr_lags)
        for level in (1, 2, 3, 4)
    }
    ok = matrices[1].n_features == 112
    for level in (2, 3, 4):
        prev, cur = matrices[level - 1], matrices[level]
        ok = ok and cur.feature_names[: prev.n_features] == prev.feature_names
        ok = ok and np.array_equal(cur.values[:, : prev.n_features], prev.values)
    manifest_ok = True
    for level in (1, 2, 3, 4):
        manifest = layout_manifest(channels, spec, DEFAULT_BANDS, level, corr_lags)
        manifest_ok = manifest_ok and manifest["n_features"] == matrices[level].n_features
        names = [n for cols in feature_layout(channels, DEFAULT_BANDS, level, corr_lags).values()
                 for n in cols]
        manifest_ok = manifest_ok and names == matrices[level].feature_names
    widths = [matrices[level].n_features for level in (1, 2, 3, 4)]
    report(7, "feature-set shapes and nesting", ok and manifest_ok,
           f"widths {widths}, Set1 == 112, manifests consistent", time.time() - start, 5.0)


def test_criterion_8_directional_benchmark(tmp_path):
    start = time.time()
    recalls = {"logistic": [], "linear-svm": [], "auc-max": []}
    aucs = {"logistic": [], "linear-svm": [], "auc-max": []}
    for seed in range(10):
        table, out = tmp_path / f"synth{seed}", tmp_path / f"compare{seed}"
        assert main(["synth", "--n", "3000", "--dim", "20", "--pos-frac", str(1 / 3),
                     "--sep", "1.0", "--seed", str(100 + seed), "--out", str(table)]) == 0
        assert main(["compare", "--features", str(table / "features.csv"), "--solver", "newton",
                     "--lambda", "1e-4", "--seed", str(seed), "--out", str(out)]) == 0
        for row in json.loads((out / "comparison.json").read_text())["rows"]:
            if row["split"] == "test":
                recalls[row["model"]].append(row["recall"])
                aucs[row["model"]].append(row["auc"])

    mean_recall = {k: float(np.mean(v)) for k, v in recalls.items()}
    mean_auc = {k: float(np.mean(v)) for k, v in aucs.items()}
    baseline_band = (0.70 <= mean_auc["logistic"] <= 0.85
                     and 0.70 <= mean_auc["linear-svm"] <= 0.85)
    recall_margin = min(
        mean_recall["auc-max"] - mean_recall["logistic"],
        mean_recall["auc-max"] - mean_recall["linear-svm"],
    )
    auc_slack = min(
        mean_auc["auc-max"] - mean_auc["logistic"],
        mean_auc["auc-max"] - mean_auc["linear-svm"],
    )
    passed = baseline_band and recall_margin >= 0.10 and auc_slack >= -0.01
    report(8, "directional imbalanced-benchmark reproduction", passed,
           f"recall margin +{100 * recall_margin:.1f}pp, AUC slack {auc_slack:+.4f}, "
           f"baseline AUC {mean_auc['logistic']:.3f}/{mean_auc['linear-svm']:.3f}",
           time.time() - start, 300.0)


def test_criterion_9_protocol_fidelity(tmp_path):
    start = time.time()
    out_synth = tmp_path / "synth"
    assert main(["synth", "--n", "300", "--dim", "5", "--sep", "2", "--seed", "1",
                 "--out", str(out_synth)]) == 0
    out_train = tmp_path / "train"
    assert main(["train", "--features", str(out_synth / "features.csv"),
                 "--solver", "alt-gda", "--seed", "2", "--out", str(out_train)]) == 0
    config = json.loads((out_train / "manifest.json").read_text())["config"]
    checks = (
        config["grad_tolerance"] == 1e-3,
        config["max_iterations"] == 50_000,
        config["train_fraction"] == 0.8,
        config["standardize"] is True,
    )
    report(9, "protocol fidelity in run manifests", all(checks),
           f"tol {config['grad_tolerance']}, cap {config['max_iterations']}, "
           f"split {config['train_fraction']}, standardized {config['standardize']}",
           time.time() - start, 60.0)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.time()

    def files(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}

    out_synth = tmp_path / "synth"
    synth_args = ["synth", "--n", "300", "--dim", "6", "--sep", "1.5", "--seed", "5",
                  "--out", str(out_synth)]
    assert main(synth_args) == 0
    synth_first = files(out_synth)
    assert main(synth_args) == 0
    synth_same = files(out_synth) == synth_first

    out_train = tmp_path / "train"
    train_args = ["train", "--features", str(out_synth / "features.csv"),
                  "--solver", "qn-broyden", "--tau", "bfgs", "--seed", "4",
                  "--out", str(out_train)]
    assert main(train_args) == 0
    train_first = files(out_train)
    assert main(train_args) == 0
    train_same = files(out_train) == train_first

    out_cmp = tmp_path / "cmp"
    cmp_args = ["compare", "--features", str(out_synth / "features.csv"),
                "--solver", "newton", "--seed", "4", "--out", str(out_cmp)]
    assert main(cmp_args) == 0
    cmp_first = files(out_cmp)
    assert main(cmp_args) == 0
    cmp_same = files(out_cmp) == cmp_first

    report(10, "CLI byte-identical determinism", synth_same and train_same and cmp_same,
           f"synth {len(synth_first)} files, train {len(train_first)} files, "
           f"compare {len(cmp_first)} files all byte-identical on rerun",
           time.time() - start, 120.0)
