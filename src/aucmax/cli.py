"""Benchmark command line: synthetic data generation, signal feature
extraction, training (saddle solvers or baselines), evaluation of stored
models, and a three-way model comparison.

Every command accepts ``--config <json>``; explicit flags override config
file entries, which override built-in defaults.  The resolved configuration
is echoed into each output manifest, and identical flags plus seeds always
reproduce byte-identical outputs.  Exit codes: 0 success, 1 runtime or data
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    LinearModel,
    decision_scores,
    fit_linear_svm,
    fit_linear_svm_grid,
    fit_logistic,
    linear_rule,
    model_to_dict,
)
from .data import (
    SplitSpec,
    Standardizer,
    SynthSpec,
    fit_apply_standardizer,
    generate_synthetic,
    load_labeled_csv,
    split,
    table_path,
    write_feature_csv,
)
from .features import (
    WindowSpec,
    build_feature_sets,
    default_channel_indices,
    layout_manifest,
    read_trial_labels,
    set_level,
)
from .metrics import (
    REPORT_CSV_HEADER,
    classification_report,
    report_csv_row,
    report_to_dict,
    roc_auc,
)
from .objective import AucProblem
from .signals import DEFAULT_BANDS, read_signal_binary, read_signal_csv
from .solvers import METHODS, SolverConfig, solve, write_trace_csv

ENV_SEED = "AUCMAX_SEED"
EXIT_OK, EXIT_ERROR, EXIT_USAGE = 0, 1, 2

SOLVER_CHOICES = METHODS + ("logistic", "svm")
DEFAULT_C_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
QUASI_NEWTON_DIM_WARNING = 1500     # qn-broyden is impractical beyond this dimension

SYNTH_DEFAULTS = {"n": 1000, "dim": 10, "pos_frac": 1.0 / 3.0, "sep": 1.0, "out": "."}
EXTRACT_DEFAULTS = {
    "set": 1,
    "window": 2.0,
    "stride": 0.5,
    "order": 4,
    "channels": "auto",
    "corr_lags": None,
    "out": ".",
}
FIT_DEFAULTS = {
    "solver": "alt-gda",
    "step_size": None,
    "grad_tolerance": 1e-3,
    "max_iterations": 50_000,
    "lambda": 1e-4,
    "broyden_tau": "sr1",
    "direction_rule": "greedy-basis",
    "updates_per_iteration": 1,
    "baseline_tol": None,
    "baseline_max_iter": 10_000,
    "train_fraction": 0.8,
    "threshold": None,
    "out": ".",
}
TRAIN_DEFAULTS = {**FIT_DEFAULTS, "C": 1.0, "trace_auc": True}
COMPARE_DEFAULTS = {**FIT_DEFAULTS, "c_grid": list(DEFAULT_C_GRID)}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # argparse already printed usage (code 2) or help (0)
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aucmax",
        description="AUC-maximizing linear classification benchmark harness",
    )
    parser.add_argument("--version", action="version", version=f"aucmax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--seed", type=int, help=f"RNG seed (fallback: ${ENV_SEED}, then 0)")
        p.add_argument("--out", help="output directory (created if missing)")

    p = sub.add_parser("synth", help="generate a synthetic imbalanced feature CSV")
    common(p)
    p.add_argument("--n", type=int, help="number of samples")
    p.add_argument("--dim", type=int, help="number of features")
    p.add_argument("--pos-frac", dest="pos_frac", type=float, help="positive-class fraction")
    p.add_argument("--sep", type=float, help="class mean separation")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("extract", help="extract feature sets from trial signal files")
    common(p)
    p.add_argument("--signals", nargs="+", required=True,
                   help="signal files (.csv/.bin) or directories of them")
    p.add_argument("--labels", required=True, help="sidecar CSV mapping trial id to +1/-1")
    p.add_argument("--set", type=int, choices=(1, 2, 3, 4), help="cumulative feature set")
    p.add_argument("--window", type=float, help="window length in seconds")
    p.add_argument("--stride", type=float, help="stride in seconds")
    p.add_argument("--order", type=int, help="Butterworth filter order")
    p.add_argument("--channels", help="'auto' or comma-separated 0-based channel rows")
    p.add_argument("--corr-lags", dest="corr_lags", help="comma-separated sample lags")
    p.set_defaults(handler=_cmd_extract)

    def train_flags(p, threshold_help):
        p.add_argument("--features", required=True, help="feature CSV (label column first)")
        p.add_argument("--eta", dest="step_size", type=float, help="first-order step size")
        p.add_argument("--tol", dest="grad_tolerance", type=float, help="gradient norm tolerance")
        p.add_argument("--max-iter", dest="max_iterations", type=int, help="iteration cap")
        p.add_argument("--lambda", dest="lambda", type=float, help="L2 regularization weight")
        p.add_argument("--tau", dest="broyden_tau", help="Broyden tau in [0,1] or sr1/dfp/bfgs")
        p.add_argument("--direction", dest="direction_rule",
                       choices=("greedy-basis", "random-gaussian"), help="quasi-Newton direction rule")
        p.add_argument("--k-updates", dest="updates_per_iteration", type=int,
                       help="curvature updates per quasi-Newton iteration")
        p.add_argument("--C", type=float, help="baseline trade-off parameter")
        p.add_argument("--baseline-tol", dest="baseline_tol", type=float, help="baseline tolerance")
        p.add_argument("--baseline-max-iter", dest="baseline_max_iter", type=int,
                       help="baseline iteration cap")
        p.add_argument("--train-frac", dest="train_fraction", type=float, help="train split fraction")
        p.add_argument("--threshold", type=float, help=threshold_help)

    p = sub.add_parser("train", help="split, standardize, and train one model")
    common(p)
    train_flags(p, "classification threshold override")
    p.add_argument("--solver", choices=SOLVER_CHOICES, help="saddle solver or baseline")
    auc_trace = p.add_mutually_exclusive_group()
    auc_trace.add_argument("--trace-auc", dest="trace_auc", action="store_true", default=None,
                           help="record train/test AUC on every trace row (default)")
    auc_trace.add_argument("--no-trace-auc", dest="trace_auc", action="store_false", default=None)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a stored model on a feature CSV")
    common(p)
    p.add_argument("--features", required=True, help="feature CSV (label column first)")
    p.add_argument("--model", required=True, help="model JSON produced by train/compare")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("compare", help="tuned logistic vs tuned SVM vs the AUC maximizer")
    common(p)
    train_flags(p, "score threshold of the AUC model only; the tuned baselines keep "
                   "their 0.5 probability (logistic) and 0 margin (svm) cuts")
    p.add_argument("--solver", choices=METHODS, help="saddle solver for the AUC maximizer")
    p.add_argument("--c-grid", dest="c_grid", help="comma-separated C grid for tuning")
    p.set_defaults(handler=_cmd_compare)
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing

def _read_json_object(path, what: str) -> dict:
    """The JSON object stored in ``path``; ValueError naming the file otherwise."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:                   # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: {what} must hold a JSON object")
    return obj


def _config(args, defaults: dict) -> dict:
    """Each key of ``defaults`` from its flag, else the ``--config`` file, else
    the default; then ``seed`` from ``--seed``, else the file (a JSON integer),
    else ``$AUCMAX_SEED``, else 0.  Refuses a bad file or seed before any output."""
    file_cfg = _read_json_object(args.config, "config file") if args.config else {}
    eff = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        eff[key] = flag if flag is not None else file_cfg.get(key, default)
    if args.seed is not None:
        eff["seed"] = args.seed
    elif "seed" in file_cfg:
        seed = file_cfg["seed"]
        if type(seed) is not int:               # JSON true/false load as bool, 1.7 as float
            raise ValueError(f"{args.config}: seed must be an integer, got {json.dumps(seed)}")
        eff["seed"] = seed
    else:
        env = os.environ.get(ENV_SEED, "0")
        try:
            eff["seed"] = int(env)
        except ValueError:
            raise ValueError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return eff


def _out_dir(effective: dict) -> Path:
    out = Path(effective["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _finish(out: Path, command: str, eff: dict, outputs: dict, **sections) -> int:
    """Write the command's ``manifest.json``: its resolved config, output files
    and ``sections``."""
    _write_json(out / "manifest.json",
                {"command": command, "config": eff, "outputs": outputs, **sections})
    return EXIT_OK


def _write_table(out: Path, values, labels, names) -> dict:
    """Write ``features.csv`` with its binary sidecar; returns the manifest's ``outputs``."""
    write_feature_csv(out / "features.csv", values, labels, names)
    return {"features": "features.csv", "table": table_path("features.csv").name}


def _parse_tau(raw):
    if raw is None or isinstance(raw, (int, float)):
        return raw
    if raw in ("sr1", "dfp", "bfgs"):
        return raw
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"--tau must be a number in [0,1] or sr1/dfp/bfgs, got {raw!r}") from None


def _parse_int_list(raw):
    return [int(tok) for tok in str(raw).split(",") if tok != ""]


def _parse_float_list(raw):
    return [float(tok) for tok in str(raw).split(",") if tok != ""]


# ---------------------------------------------------------------------------
# synth

def _cmd_synth(args) -> int:
    eff = _config(args, SYNTH_DEFAULTS)
    spec = SynthSpec(
        n_samples=int(eff["n"]), n_features=int(eff["dim"]),
        positive_fraction=float(eff["pos_frac"]), class_separation=float(eff["sep"]),
        seed=eff["seed"],
    )
    dataset = generate_synthetic(spec)
    out = _out_dir(eff)
    names = [f"f{i:03d}" for i in range(spec.n_features)]
    outputs = _write_table(out, dataset.features, dataset.labels, names)
    return _finish(out, "synth", eff, outputs, dataset={
        "n_samples": dataset.n_samples,
        "n_features": dataset.n_features,
        "positive_count": int(np.count_nonzero(dataset.labels == 1)),
    })


# ---------------------------------------------------------------------------
# extract

def _signal_files(raw_paths) -> list[Path]:
    files: list[Path] = []
    for raw in raw_paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(p for p in path.iterdir() if p.suffix in (".csv", ".bin")))
        else:
            files.append(path)
    return files


def _read_trial(path: Path):
    if path.suffix == ".csv":
        return read_signal_csv(path)
    return read_signal_binary(path)


def _resolve_channels(raw, n_channels: int) -> list[int]:
    if raw is None or raw == "auto":
        if n_channels >= 32:
            return default_channel_indices()
        return list(range(n_channels))
    return _parse_int_list(raw)


def _cmd_extract(args) -> int:
    eff = _config(args, EXTRACT_DEFAULTS)
    eff.update(signals=list(args.signals), labels=args.labels)

    labels = read_trial_labels(args.labels)
    table = (Path(eff["out"]) / "features.csv").resolve()     # ours, if --out is a signal dir
    files = [p for p in _signal_files(args.signals) if p.resolve() != table]
    if not files:
        raise ValueError("no signal files found")
    spec = WindowSpec(float(eff["window"]), float(eff["stride"]))
    set_id = set_level(eff["set"])

    all_rows, all_labels, layout = [], [], None
    names = None
    trials_meta = []
    for path in files:
        trial = _read_trial(path)
        trial_id = path.stem
        if trial_id not in labels:
            raise ValueError(f"missing label for trial {trial_id!r} in {args.labels}")
        channels = _resolve_channels(eff["channels"], trial.n_channels)
        corr_lags = (
            _parse_int_list(eff["corr_lags"]) if eff["corr_lags"] is not None
            else (0, int(round(trial.sampling_rate / 4.0)))
        )
        fm = build_feature_sets(
            trial, channels=channels, spec=spec, set_id=set_id,
            bands=DEFAULT_BANDS, filter_order=int(eff["order"]), corr_lags=corr_lags,
        )
        if names is None:
            names = fm.feature_names
            layout = layout_manifest(channels, spec, DEFAULT_BANDS, set_id, corr_lags,
                                     filter_order=int(eff["order"]))
        elif fm.feature_names != names:
            raise ValueError(f"{path}: trial produced an inconsistent feature layout")
        all_rows.append(fm.values)
        all_labels.extend([labels[trial_id]] * fm.n_rows)
        trials_meta.append({"trial": trial_id, "rows": fm.n_rows, "label": labels[trial_id]})

    out = _out_dir(eff)
    outputs = _write_table(out, np.vstack(all_rows), np.asarray(all_labels), names)
    return _finish(out, "extract", eff, outputs, layout=layout, trials=trials_meta)


# ---------------------------------------------------------------------------
# train / eval / compare helpers

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_positive_finite(values, subject: str) -> None:
    if not all(v > 0 for v in values):             # NaN is not positive
        raise ValueError(f"{subject} must be positive")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{subject} must be finite")


def _load_split(args, defaults: dict):
    """Resolve the config, load the feature CSV, split it stratified and fit
    the standardizer on the training part.

    Refuses, before any output exists, a C grid that is not a non-empty list
    of positive finite numbers, a C that is not one positive finite number,
    a threshold that is not a finite number, and a baseline tolerance that is
    not a nonnegative finite number: none of them can be fit or written as
    JSON."""
    eff = _config(args, defaults)
    eff.update(features=args.features, standardize=True)
    if "c_grid" in eff:
        grid = eff["c_grid"]
        if isinstance(grid, str):
            grid = eff["c_grid"] = _parse_float_list(grid)
        if not isinstance(grid, list) or not all(_is_number(c) for c in grid):
            raise ValueError("c_grid must be a list of numbers")
        if not grid:
            raise ValueError("c_grid must name at least one C")
        _check_positive_finite(grid, "c_grid: every C")
    if "C" in eff:
        if not _is_number(eff["C"]):
            raise ValueError("C must be a number")
        _check_positive_finite([eff["C"]], "C")
    threshold = eff["threshold"]
    if threshold is not None and not (_is_number(threshold) and math.isfinite(threshold)):
        raise ValueError("threshold must be a finite number")
    tol = eff["baseline_tol"]                   # None: the fits' default
    if tol is not None and not (_is_number(tol) and 0 <= tol < math.inf):
        raise ValueError("baseline_tol must be a nonnegative finite number")

    dataset, _ = load_labeled_csv(args.features)
    spec = SplitSpec(train_fraction=float(eff["train_fraction"]), seed=eff["seed"])
    train_std, test_std, standardizer = fit_apply_standardizer(*split(dataset, spec))
    return eff, dataset, train_std, test_std, standardizer


def _report(model_dict: dict, features: np.ndarray, labels: np.ndarray):
    """Score ``features`` with the model's ``linear_rule`` and report against ``labels``."""
    w, bias, cut = linear_rule(model_dict)
    if w.size != features.shape[1]:
        raise ValueError(
            f"model expects {w.size} features, table has {features.shape[1]} after standardization"
        )
    scores = features @ w + bias
    return classification_report(labels, np.where(scores > cut, 1, -1), scores)


def _train_auc_model(train_std, test_std, eff, standardizer, meta: dict, trace_auc: bool):
    """Solve the AUC saddle problem; returns the solver result and the model dict."""
    config = SolverConfig(
        method=eff["solver"],
        step_size=eff["step_size"],
        max_iterations=int(eff["max_iterations"]),
        grad_tolerance=float(eff["grad_tolerance"]),
        broyden_tau=_parse_tau(eff["broyden_tau"]),
        direction_rule=eff["direction_rule"],
        updates_per_iteration=int(eff["updates_per_iteration"]),
        rng_seed=eff["seed"],
    )
    problem = AucProblem(train_std, lam=float(eff["lambda"]))
    if eff["solver"] == "qn-broyden" and problem.dim_x + 1 > QUASI_NEWTON_DIM_WARNING:
        print(
            f"warning: qn-broyden on dimension {problem.dim_x + 1} "
            f"(> {QUASI_NEWTON_DIM_WARNING}) is likely impractical: it keeps a dense "
            "curvature matrix of that size and updates it on every iteration",
            file=sys.stderr,
        )
    d = train_std.n_features
    auc_eval = None
    if trace_auc:
        def auc_eval(x, y):
            return (
                roc_auc(train_std.features @ x[:d], train_std.labels),
                roc_auc(test_std.features @ x[:d], test_std.labels),
            )
    result = solve(problem, config, auc_eval=auc_eval)
    state = problem.unpack(result.final_x, result.final_y)
    threshold = (
        float(eff["threshold"]) if eff["threshold"] is not None
        else (state.u + state.v) / 2.0
    )
    model_dict = {
        "kind": "auc-linear",
        "w": state.w.tolist(),
        "u": state.u,
        "v": state.v,
        "y": state.y,
        "threshold": threshold,
        "lambda": float(eff["lambda"]),
        "train_meta": {
            "standardizer": standardizer.to_dict(), **meta, "solver": eff["solver"],
            "converged": result.converged, "iterations": result.iterations_used,
        },
    }
    return result, model_dict


def _fit_limits(eff) -> dict:
    """The baselines' ``tol`` and ``max_iter`` keyword arguments."""
    tol = eff["baseline_tol"]
    return {"tol": tol if tol is not None else 1e-6, "max_iter": int(eff["baseline_max_iter"])}


def _fit_baseline(kind: str, train_std, C: float, eff) -> LinearModel:
    fit = fit_logistic if kind == "logistic" else fit_linear_svm
    return fit(train_std, C=C, **_fit_limits(eff))


def _baseline_model(kind: str, train_std, C: float, eff, standardizer, meta: dict,
                    threshold=None) -> dict:
    """Fit ``kind`` on the full training split, apply the threshold override,
    stamp ``meta`` and the standardizer into ``train_meta``; the stored dict."""
    model = _fit_baseline(kind, train_std, C, eff)
    if threshold is not None:
        model.threshold = float(threshold)
    model.train_meta.update(meta, standardizer=standardizer.to_dict())
    return model_to_dict(model)


def _cmd_train(args) -> int:
    eff, dataset, train_std, test_std, standardizer = _load_split(args, TRAIN_DEFAULTS)
    outputs = {"model": "model.json", "report": "report.json"}
    common_meta = {
        "seed": eff["seed"],
        "train_fraction": float(eff["train_fraction"]),
        "n_train": train_std.n_samples,
        "n_test": test_std.n_samples,
    }

    if eff["solver"] in ("logistic", "svm"):
        model_dict = _baseline_model(eff["solver"], train_std, float(eff["C"]), eff,
                                     standardizer, common_meta, eff["threshold"])
        fit_meta = model_dict["train_meta"]
        results_meta = {"converged": fit_meta["converged"],
                        "iterations_used": fit_meta["iterations"]}
    else:
        result, model_dict = _train_auc_model(
            train_std, test_std, eff, standardizer, common_meta, bool(eff["trace_auc"])
        )
        outputs["trace"] = "trace.csv"
        results_meta = {"converged": result.converged,
                        "iterations_used": result.iterations_used,
                        "skipped_updates": len(result.notes),
                        "threshold": model_dict["threshold"]}

    report = {
        part: report_to_dict(_report(model_dict, data.features, data.labels))
        for part, data in (("train", train_std), ("test", test_std))
    }
    out = _out_dir(eff)
    if "trace" in outputs:
        write_trace_csv(result.trace, out / "trace.csv")
    _write_json(out / "model.json", model_dict)
    _write_json(out / "report.json", report)
    return _finish(out, "train", eff, outputs, results=results_meta, dataset={
        "n_samples": dataset.n_samples,
        "n_features": dataset.n_features,
        "positive_fraction": float(np.count_nonzero(dataset.labels == 1) / dataset.n_samples),
    })


def _cmd_eval(args) -> int:
    eff = _config(args, {"out": "."})
    eff.update(features=args.features, model=args.model)

    dataset, _ = load_labeled_csv(args.features)
    model_obj = _read_json_object(args.model, "model file")
    try:
        standardizer = Standardizer.from_dict(model_obj["train_meta"]["standardizer"])
        report = _report(model_obj, standardizer.transform(dataset.features), dataset.labels)
    except KeyError as exc:
        raise ValueError(f"{args.model}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:     # TypeError: a field of the wrong JSON type
        raise ValueError(f"{args.model}: {exc}") from None

    out = _out_dir(eff)
    _write_json(out / "report.json", report_to_dict(report))
    return _finish(out, "eval", eff, {"report": "report.json"}, model_kind=model_obj["kind"],
                   dataset={"n_samples": dataset.n_samples, "n_features": dataset.n_features})


def _tune_baseline(kind: str, train_std, eff):
    """Pick C by validation AUC on a 10% carve-out of the training split; the
    earliest C wins a tie.  The SVM fits the whole grid in one call."""
    carve = SplitSpec(train_fraction=0.9, seed=eff["seed"] + 1)
    fit_part, val_part = split(train_std, carve)
    grid = [float(c) for c in eff["c_grid"]]
    if kind == "svm":
        models = fit_linear_svm_grid(fit_part, grid, **_fit_limits(eff))
    else:
        models = [_fit_baseline(kind, fit_part, c, eff) for c in grid]
    best_c, best_auc = None, -np.inf
    grid_fits = []
    for c, model in zip(grid, models):
        auc = roc_auc(decision_scores(model, val_part.features), val_part.labels)
        grid_fits.append({"C": c, "val_auc": float(auc),
                          "iterations": model.train_meta["iterations"],
                          "converged": model.train_meta["converged"]})
        if auc > best_auc:
            best_c, best_auc = c, float(auc)
    return best_c, grid_fits


def _cmd_compare(args) -> int:
    eff, _, train_std, test_std, standardizer = _load_split(args, COMPARE_DEFAULTS)

    tuning = {}
    models = {}                                 # label -> (file name, model dict)
    for kind, label in (("logistic", "logistic"), ("svm", "linear-svm")):
        best_c, grid_fits = _tune_baseline(kind, train_std, eff)
        tuning[label] = {"C": best_c, "grid": grid_fits}
        models[label] = (f"model_{kind}.json",
                         _baseline_model(kind, train_std, best_c, eff, standardizer, {}))
    result, auc_model = _train_auc_model(
        train_std, test_std, eff, standardizer, {"seed": eff["seed"]}, trace_auc=False
    )
    models["auc-max"] = ("model_auc.json", auc_model)

    out = _out_dir(eff)
    csv_lines = ["model,split," + REPORT_CSV_HEADER]
    json_rows = []
    for label, (filename, model_dict) in models.items():
        _write_json(out / filename, model_dict)
        for part, data in (("train", train_std), ("test", test_std)):
            report = _report(model_dict, data.features, data.labels)
            csv_lines.append(f"{label},{part},{report_csv_row(report)}")
            json_rows.append({"model": label, "split": part, **report_to_dict(report)})
    (out / "comparison.csv").write_text("\n".join(csv_lines) + "\n")
    _write_json(out / "comparison.json",
                {"rows": json_rows, "tuning": tuning, "config": eff})
    outputs = {"comparison_csv": "comparison.csv", "comparison_json": "comparison.json",
               "models": {label: filename for label, (filename, _) in models.items()}}
    return _finish(out, "compare", eff, outputs, results={
        "converged": result.converged,
        "iterations_used": result.iterations_used,
        "threshold": auc_model["threshold"],
        "tuned_C": {label: tuning[label]["C"] for label in tuning},
    })

if __name__ == "__main__":
    sys.exit(main())
