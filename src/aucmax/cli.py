"""Benchmark command line: synthetic data generation, signal feature
extraction, training (saddle solvers or baselines), evaluation of stored
models, and a three-way model comparison.

Every command accepts ``--config <json>``; explicit flags override config
file entries, which override built-in defaults.  A config file holds only the
command's keys (the ``*_KEYS`` tables; every command has ``out``, and
``synth``, ``train`` and ``compare`` have ``seed``, default 0), and each
value, from any of the three, must be of its key's kind.  ``main`` resolves
the configuration once, before any input is read; the keys and the input
paths are echoed into each output manifest, and identical flags plus seeds
always reproduce byte-identical outputs.  ``extract`` leaves each trial's
channels (``"auto"``: the standard montage on a trial of 32 or more
channels, else every channel), lags and layout to
``features.build_feature_sets``.  Exit codes: 0 success, 1 runtime or data
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, rules
from ._rowblocks import ENCODING
from .baselines import (
    DEFAULT_C,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LinearModel,
    auc_model,
    decision_scores,
    fit_linear_svm,
    fit_logistic,
    model_to_dict,
    score,
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
from .features import WindowSpec, build_feature_sets, read_trial_labels
from .metrics import (
    REPORT_CSV_HEADER,
    classification_report,
    report_csv_row,
    report_to_dict,
    roc_auc,
    roc_auc_columns,
)
from .objective import DEFAULT_LAMBDA, AucProblem, positive_fraction
from .signals import DEFAULT_FILTER_ORDER, read_signal_binary, read_signal_csv
from .solvers import (
    DIRECTION_RULES, METHODS, SolverConfig, solve, write_trace_csv,
)

EXIT_OK, EXIT_ERROR, EXIT_USAGE = 0, 1, 2

SOLVER_CHOICES = METHODS + ("logistic", "svm")
DEFAULT_C_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
QUASI_NEWTON_DIM_WARNING = 1500     # qn-broyden is impractical beyond this dimension


def _is_int(value) -> bool:
    return type(value) is int                   # JSON true/false load as bool, 1.7 as float


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Kind(NamedTuple):
    """What a key's value must be: ``test`` accepts a config value, ``what``
    names it in the refusal, ``convert`` gives the value that runs and is
    echoed, ``parse`` reads the flag's text, and ``choices``, where given,
    are the flag's only values."""

    test: Callable[[object], bool]
    what: str
    convert: Callable = lambda value: value
    parse: Callable[[str], object] = str
    choices: tuple | None = None


def _ranged(of_type: Callable[[object], bool], rule: rules.Rule, **how) -> Kind:
    """The values of JSON type ``of_type`` that ``rule`` accepts, refused in its words."""
    return Kind(lambda v: of_type(v) and rule.test(v), rule.what, **how)


def choice(options: tuple) -> Kind:
    """The kind whose values are exactly ``options``, all of one type."""
    of_type = type(options[0])
    return _ranged(lambda v: type(v) is of_type, rules.choice(options), parse=of_type,
                   choices=options)


INTEGER = Kind(_is_int, "an integer", parse=int)
POSITIVE_INTEGER = _ranged(_is_int, rules.POSITIVE_INTEGER, parse=int)
NONNEGATIVE_INTEGER = _ranged(_is_int, rules.NONNEGATIVE_INTEGER, parse=int)
FILTER_ORDER = _ranged(_is_int, rules.FILTER_ORDER, parse=int)
FINITE = _ranged(_is_number, rules.FINITE, convert=float, parse=float)
NONNEGATIVE = _ranged(_is_number, rules.NONNEGATIVE, convert=float, parse=float)
POSITIVE = _ranged(_is_number, rules.POSITIVE, convert=float, parse=float)
FRACTION = _ranged(_is_number, rules.FRACTION, convert=float, parse=float)
POSITIVES = Kind(lambda v: isinstance(v, list) and len(v) > 0 and all(map(POSITIVE.test, v)),
                 "a nonempty list of positive finite numbers", lambda v: [float(c) for c in v],
                 lambda raw: [float(tok) for tok in raw.split(",") if tok != ""])
INTEGERS = Kind(lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers",
                parse=lambda raw: [int(tok) for tok in raw.split(",") if tok != ""])
LAGS = Kind(lambda v: INTEGERS.test(v) and all(map(NONNEGATIVE_INTEGER.test, v))
            and len(v) == len(set(v)), "a list of distinct nonnegative integers",
            parse=INTEGERS.parse)
CHANNELS = Kind(lambda v: v == "auto" or (LAGS.test(v) and len(v) > 0),
                '"auto" or a nonempty list of distinct nonnegative integers',
                parse=lambda raw: raw if raw == "auto" else INTEGERS.parse(raw))
TEXT = Kind(lambda v: isinstance(v, str), "text")
TAU = _ranged(lambda v: isinstance(v, str) or _is_number(v), rules.BROYDEN_TAU,
              convert=lambda v: v if isinstance(v, str) else float(v),
              parse=lambda raw: raw if raw in rules.BROYDEN_MODES else float(raw))
SWITCH = Kind(lambda v: isinstance(v, bool), "true or false")   # a --key/--no-key flag pair


class Key(NamedTuple):
    """One config key: its default, its kind, its flag's help and, only where
    it is not ``--`` plus the key with ``_`` as ``-``, its flag's spelling.
    ``null`` is a value only where the default is None."""

    default: object
    kind: Kind
    help: str
    flag: str | None = None


# Each command's config keys, and so its flags.  A default the library also
# has is taken from the library's name for it.
OUT = {"out": Key(".", TEXT, "output directory (created if missing)")}     # every command's
SEED = {"seed": Key(0, NONNEGATIVE_INTEGER, "RNG seed")}   # the commands that draw from an RNG
SYNTH_KEYS = {
    **OUT,
    **SEED,
    "n": Key(1000, INTEGER, "number of samples"),
    "dim": Key(10, POSITIVE_INTEGER, "number of features"),
    "pos_frac": Key(SynthSpec.positive_fraction, FRACTION, "positive-class fraction"),
    "sep": Key(SynthSpec.class_separation, NONNEGATIVE, "class mean separation"),
}
EXTRACT_KEYS = {
    **OUT,
    "set": Key(1, choice((1, 2, 3, 4)), "cumulative feature set"),
    "window": Key(WindowSpec.window_seconds, POSITIVE, "window length in seconds"),
    "stride": Key(WindowSpec.stride_seconds, POSITIVE, "stride in seconds"),
    "order": Key(DEFAULT_FILTER_ORDER, FILTER_ORDER, "Butterworth filter order"),
    "channels": Key("auto", CHANNELS, "'auto' (the standard montage on >= 32 channels, else "
                    "all) or comma-separated 0-based channel rows"),
    "corr_lags": Key(None, LAGS, "comma-separated sample lags"),
}
FIT_KEYS = {                    # the solver's keys are SolverConfig's field names
    **OUT,
    **SEED,
    "step_size": Key(SolverConfig.step_size, POSITIVE, "first-order step size", "--eta"),
    "grad_tolerance": Key(SolverConfig.grad_tolerance, POSITIVE, "gradient norm tolerance",
                          "--tol"),
    "max_iterations": Key(SolverConfig.max_iterations, POSITIVE_INTEGER, "iteration cap",
                          "--max-iter"),
    "lambda": Key(DEFAULT_LAMBDA, NONNEGATIVE, "L2 regularization weight"),
    "broyden_tau": Key(SolverConfig.broyden_tau, TAU, "Broyden tau in [0,1] or sr1/dfp/bfgs",
                       "--tau"),
    "direction_rule": Key(SolverConfig.direction_rule, choice(DIRECTION_RULES),
                          "quasi-Newton direction rule", "--direction"),
    "updates_per_iteration": Key(SolverConfig.updates_per_iteration, POSITIVE_INTEGER,
                                 "curvature updates per quasi-Newton iteration", "--k-updates"),
    "baseline_tol": Key(None, NONNEGATIVE, "baseline tolerance (default "
                        f"{np.format_float_scientific(DEFAULT_TOL, trim='-', exp_digits=1)}): "
                        "logistic gradient norm, SVM relative duality gap"),
    "baseline_max_iter": Key(DEFAULT_MAX_ITER, POSITIVE_INTEGER, "baseline iteration cap: "
                             "logistic Newton iterations, SVM interior-point iterations"),
    "train_fraction": Key(SplitSpec.train_fraction, FRACTION, "train split fraction",
                          "--train-frac"),
}
TRAIN_KEYS = {
    **FIT_KEYS,
    "C": Key(DEFAULT_C, POSITIVE, "baseline trade-off parameter"),
    "threshold": Key(None, FINITE, "classification threshold override"),
    "solver": Key("alt-gda", choice(SOLVER_CHOICES), "saddle solver or baseline"),
    "trace_auc": Key(True, SWITCH, "record train/test AUC on every trace row (default)"),
}
COMPARE_KEYS = {                # no C: compare tunes it over c_grid
    **FIT_KEYS,
    "threshold": Key(None, FINITE, "score threshold of the AUC model only; the tuned baselines "
                     "keep their 0.5 probability (logistic) and 0 margin (svm) cuts"),
    "solver": Key("alt-gda", choice(METHODS), "saddle solver for the AUC maximizer"),
    "c_grid": Key(list(DEFAULT_C_GRID), POSITIVES, "comma-separated C grid for tuning"),
}
EVAL_KEYS = OUT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # argparse already printed usage (code 2) or help (0)
        return int(exc.code or 0)
    try:
        return args.handler(_config(args))
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
    features = {"--features": {"help": "feature CSV (label column first)"}}
    commands = (        # name, help, handler, key table (one flag per key), input paths
        ("synth", "generate a synthetic imbalanced feature CSV", _cmd_synth, SYNTH_KEYS, {}),
        ("extract", "extract feature sets from trial signal files", _cmd_extract, EXTRACT_KEYS,
         {"--signals": {"nargs": "+", "help": "signal files (.csv/.bin) or directories of them"},
          "--labels": {"help": "sidecar CSV mapping trial id to +1/-1"}}),
        ("train", "split, standardize, and train one model", _cmd_train, TRAIN_KEYS, features),
        ("eval", "evaluate a stored model on a feature CSV", _cmd_eval, EVAL_KEYS,
         {**features, "--model": {"help": "model JSON produced by train/compare"}}),
        ("compare", "tuned logistic vs tuned SVM vs the AUC maximizer", _cmd_compare,
         COMPARE_KEYS, features),
    )
    for name, command_help, handler, table, inputs in commands:
        p = sub.add_parser(name, help=command_help)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        for flag, options in inputs.items():
            p.add_argument(flag, required=True, **options)
        for key, entry in table.items():
            _add_flag(p, key, entry)
        p.set_defaults(handler=handler, table=table, inputs=[flag[2:] for flag in inputs])
    return parser


def _add_flag(p: argparse.ArgumentParser, key: str, entry: Key) -> None:
    """Add ``key``'s flag, whose text its kind parses, or a switch's ``--no-`` pair."""
    flag = entry.flag or "--" + key.replace("_", "-")
    if entry.kind is SWITCH:
        pair = p.add_mutually_exclusive_group()
        pair.add_argument(flag, dest=key, action="store_true", default=None, help=entry.help)
        pair.add_argument("--no-" + flag[2:], dest=key, action="store_false", default=None)
        return
    kind = entry.kind

    def parse(raw: str):
        try:
            return kind.parse(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{raw!r} is not {kind.what}") from None

    p.add_argument(flag, dest=key, type=parse, choices=kind.choices, help=entry.help)


# ---------------------------------------------------------------------------
# Shared plumbing

def _read_json_object(path, what: str) -> dict:
    """The JSON object stored in ``path``; ValueError naming the file otherwise."""
    try:
        obj = json.loads(Path(path).read_text(encoding=ENCODING))
    except ValueError as exc:                   # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: {what} must hold a JSON object")
    return obj


def _config(args) -> dict:
    """The command's configuration: each key of its table (``key: Key``) from
    its flag, else the ``--config`` file, else the default, converted by its
    kind; then each input path as given.  Refuses a bad file, a file key the
    command does not have and a value not of its key's kind by name, before
    any input is read or output written."""
    file_cfg = _read_json_object(args.config, "config file") if args.config else {}
    for key in file_cfg:
        if key not in args.table:
            raise ValueError(f"{args.config}: {args.command} has no key {key!r}")
    eff = {}
    for key, (default, kind, *_) in args.table.items():
        flag = getattr(args, key)
        value = flag if flag is not None else file_cfg.get(key, default)
        if value is None and default is None:
            eff[key] = None
        elif kind.test(value):
            eff[key] = kind.convert(value)
        else:
            raise ValueError(f"{key} must be {kind.what}")
    eff.update({name: getattr(args, name) for name in args.inputs})
    return eff


def _out_dir(effective: dict) -> Path:
    out = Path(effective["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding=ENCODING)


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


# ---------------------------------------------------------------------------
# synth

def _cmd_synth(eff) -> int:
    spec = SynthSpec(n_samples=eff["n"], n_features=eff["dim"], positive_fraction=eff["pos_frac"],
                     class_separation=eff["sep"], seed=eff["seed"])
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

def _signal_files(raw_paths, skip: set[Path]) -> dict[str, Path]:
    """Each named file, and each ``.csv``/``.bin`` file of a named directory
    in the byte order of its name (a subdirectory is not a trial, whatever
    its name), by trial id: the UTF-8 reading of the file stem's bytes, as
    the labels file is read, whatever the locale.  Leaves out the resolved
    paths ``skip`` (the labels file and the feature CSV about to be
    written).  Refuses a named file of another suffix, and a trial id that
    two paths give, naming the paths, before any is read."""
    files: dict[str, Path] = {}
    for raw in raw_paths:
        path = Path(raw)
        if path.is_dir():
            listed = sorted((p for p in path.iterdir()
                             if p.suffix in (".csv", ".bin") and p.is_file()), key=os.fsencode)
        elif path.suffix in (".csv", ".bin"):
            listed = [path]
        else:
            raise ValueError(f"{path}: a signal file must end in .csv or .bin")
        for p in listed:
            if p.resolve() in skip:
                continue
            trial_id = os.fsencode(p.stem).decode(ENCODING, "surrogateescape")
            if trial_id in files:
                raise ValueError(f"trial {trial_id!r} is given twice: {files[trial_id]} and {p}")
            files[trial_id] = p
    return files


def _cmd_extract(eff) -> int:
    spec = WindowSpec(eff["window"], eff["stride"])

    labels = read_trial_labels(eff["labels"])
    table = (Path(eff["out"]) / "features.csv").resolve()     # ours, if --out is a signal dir
    files = _signal_files(eff["signals"], {table, Path(eff["labels"]).resolve()})
    if not files:
        raise ValueError("no signal files found")
    for trial_id in files:                      # every label before any trial is read
        if trial_id not in labels:
            raise ValueError(f"missing label for trial {trial_id!r} in {eff['labels']}")

    channels = None if eff["channels"] == "auto" else eff["channels"]
    first, all_rows, all_labels, trials_meta = None, [], [], []
    for trial_id, path in files.items():
        trial = read_signal_csv(path) if path.suffix == ".csv" else read_signal_binary(path)
        try:
            fm = build_feature_sets(trial, channels=channels, spec=spec, set_id=eff["set"],
                                    filter_order=eff["order"], corr_lags=eff["corr_lags"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if first is None:
            first = fm
        elif fm.layout != first.layout:        # the layout fixes the column names
            raise ValueError(f"{path}: trial produced an inconsistent feature layout")
        all_rows.append(fm.values)
        all_labels.extend([labels[trial_id]] * fm.n_rows)
        trials_meta.append({"trial": trial_id, "rows": fm.n_rows, "label": labels[trial_id]})

    out = _out_dir(eff)
    outputs = _write_table(out, np.vstack(all_rows), np.asarray(all_labels), first.feature_names)
    return _finish(out, "extract", eff, outputs, layout=first.layout, trials=trials_meta)


# ---------------------------------------------------------------------------
# train / eval / compare helpers

def _load_split(eff):
    """Load the feature CSV, split it stratified and fit the standardizer on
    the training part.  Returns the standardized halves, the standardizer and
    the manifest's ``dataset`` counts; the raw table is freed once split.  A
    logistic threshold (a probability) outside (0, 1) is refused before the
    table is read."""
    if eff["solver"] == "logistic" and eff["threshold"] is not None:
        rules.require("logistic threshold", eff["threshold"], rules.FRACTION)
    eff["standardize"] = True
    spec = SplitSpec(train_fraction=eff["train_fraction"], seed=eff["seed"])

    dataset, _ = load_labeled_csv(eff["features"])
    counts = {"n_samples": dataset.n_samples, "n_features": dataset.n_features,
              "positive_fraction": positive_fraction(dataset)}
    halves = split(dataset, spec)
    del dataset                                 # the halves are copies: free the table now
    train_std, test_std, standardizer = fit_apply_standardizer(*halves)
    return train_std, test_std, standardizer, counts


def _report(model_dict: dict, features: np.ndarray, labels: np.ndarray):
    """Score ``features`` with the stored model and report against ``labels``."""
    scores, predictions = score(model_dict, features)
    return classification_report(labels, predictions, scores)


def _trace_auc_eval(train_std, test_std):
    """The solver's ``auc_eval``: the train and test AUC columns of a block
    ``xs`` of recorded primal iterates.  Each table is multiplied from its
    memory order's side (``Standardizer.transform`` leaves them
    Fortran-ordered): ``(xs[:, :d] @ X.T).T`` reads ``X.T`` as a C-ordered
    matrix, with no copy.  The AUCs do not depend on the order."""
    d = train_std.n_features

    def auc_eval(xs):
        weights = xs[:, :d]
        return (
            roc_auc_columns((weights @ train_std.features.T).T, train_std.labels),
            roc_auc_columns((weights @ test_std.features.T).T, test_std.labels),
        )

    return auc_eval


def _fit_baseline(kind: str, train_std, C: float, eff) -> LinearModel:
    fit = fit_logistic if kind == "logistic" else fit_linear_svm
    tol = eff["baseline_tol"]
    return fit(train_std, C=C, tol=tol if tol is not None else DEFAULT_TOL,
               max_iter=eff["baseline_max_iter"])


def _fit_model(kind: str, train_std, test_std, eff, standardizer, C=None, threshold=None,
               auc_eval=None):
    """Fit ``kind`` on the training split: the baseline ``logistic``/``svm``
    at ``C``, or the saddle method ``kind`` (tracing ``auc_eval``, if given).
    ``threshold`` overrides the model's own cut.  Returns the stored dict, the
    manifest's ``results`` and the solver's trace (None for a baseline).
    Every kind's ``train_meta`` holds the standardizer, the split's seed,
    fraction and sizes, then the fit's own fields, whichever command fits it,
    so ``compare``'s model files are the ones ``train`` writes."""
    meta = {"standardizer": standardizer.to_dict(), "seed": eff["seed"],
            "train_fraction": eff["train_fraction"], "n_train": train_std.n_samples,
            "n_test": test_std.n_samples}
    if kind not in METHODS:
        model = _fit_baseline(kind, train_std, C, eff)
        if threshold is not None:
            model.threshold = threshold
        model.train_meta.update(meta)
        results = {"converged": model.train_meta["converged"],
                   "iterations_used": model.train_meta["iterations"]}
        return model_to_dict(model), results, None

    problem = AucProblem(train_std, lam=eff["lambda"])
    if kind == "qn-broyden" and problem.dim_x + 1 > QUASI_NEWTON_DIM_WARNING:
        print(
            f"warning: qn-broyden on dimension {problem.dim_x + 1} "
            f"(> {QUASI_NEWTON_DIM_WARNING}) is likely impractical: it keeps a dense "
            "curvature matrix of that size and updates it on every iteration",
            file=sys.stderr,
        )
    config = SolverConfig(
        method=kind, rng_seed=eff["seed"],
        **{f.name: eff[f.name] for f in fields(SolverConfig) if f.name in eff},
    )
    result = solve(problem, config, auc_eval=auc_eval)
    model_dict = {
        **auc_model(result.final_z, eff["lambda"], threshold),
        "train_meta": {**meta, "solver": kind, "converged": result.converged,
                       "iterations": result.iterations_used},
    }
    results = {"converged": result.converged, "iterations_used": result.iterations_used,
               "skipped_updates": len(result.notes), "threshold": model_dict["threshold"]}
    return model_dict, results, result.trace


def _cmd_train(eff) -> int:
    train_std, test_std, standardizer, counts = _load_split(eff)
    auc_eval = _trace_auc_eval(train_std, test_std) if eff["trace_auc"] else None
    model_dict, results, trace = _fit_model(eff["solver"], train_std, test_std, eff,
                                            standardizer, eff["C"], eff["threshold"], auc_eval)
    report = {
        part: report_to_dict(_report(model_dict, data.features, data.labels))
        for part, data in (("train", train_std), ("test", test_std))
    }
    out = _out_dir(eff)
    outputs = {"model": "model.json", "report": "report.json"}
    if trace is not None:
        outputs["trace"] = "trace.csv"
        write_trace_csv(trace, out / "trace.csv")
    _write_json(out / "model.json", model_dict)
    _write_json(out / "report.json", report)
    return _finish(out, "train", eff, outputs, results=results, dataset=counts)


def _cmd_eval(eff) -> int:
    dataset, _ = load_labeled_csv(eff["features"])
    model_obj = _read_json_object(eff["model"], "model file")
    try:
        standardizer = Standardizer.from_dict(model_obj["train_meta"]["standardizer"])
        report = _report(model_obj, standardizer.transform(dataset.features), dataset.labels)
    except KeyError as exc:
        raise ValueError(f"{eff['model']}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:     # TypeError: a field of the wrong JSON type
        raise ValueError(f"{eff['model']}: {exc}") from None

    out = _out_dir(eff)
    _write_json(out / "report.json", report_to_dict(report))
    return _finish(out, "eval", eff, {"report": "report.json"}, model_kind=model_obj["kind"],
                   dataset={"n_samples": dataset.n_samples, "n_features": dataset.n_features})


def _tune_baseline(kind: str, fit_part, val_part, eff):
    """Pick C by validation AUC: fit ``kind`` on ``fit_part`` at each C of the
    grid and score ``val_part``; the earliest C wins a tie."""
    best_c, best_auc = None, -np.inf
    grid_fits = []
    for c in eff["c_grid"]:
        model = _fit_baseline(kind, fit_part, c, eff)
        auc = roc_auc(decision_scores(model, val_part.features), val_part.labels)
        grid_fits.append({"C": c, "val_auc": float(auc),
                          "iterations": model.train_meta["iterations"],
                          "converged": model.train_meta["converged"]})
        if auc > best_auc:
            best_c, best_auc = c, float(auc)
    return best_c, grid_fits


def _cmd_compare(eff) -> int:
    train_std, test_std, standardizer, _ = _load_split(eff)
    try:
        fit_part, val_part = split(train_std, SplitSpec(train_fraction=0.9, seed=eff["seed"] + 1))
    except ValueError as exc:
        raise ValueError(f"C tuning's 10% validation carve-out: {exc}") from None

    tuning = {}
    models = {}                                 # label -> (file name, model dict)
    for kind, label in (("logistic", "logistic"), ("svm", "linear-svm")):
        best_c, grid_fits = _tune_baseline(kind, fit_part, val_part, eff)
        tuning[label] = {"C": best_c, "grid": grid_fits}
        models[label] = (f"model_{kind}.json",
                         _fit_model(kind, train_std, test_std, eff, standardizer, best_c)[0])
    auc_dict, results, _ = _fit_model(eff["solver"], train_std, test_std, eff, standardizer,
                                      threshold=eff["threshold"])
    models["auc-max"] = ("model_auc.json", auc_dict)

    out = _out_dir(eff)
    csv_lines = ["model,split," + REPORT_CSV_HEADER]
    json_rows = []
    for label, (filename, model_dict) in models.items():
        _write_json(out / filename, model_dict)
        for part, data in (("train", train_std), ("test", test_std)):
            report = _report(model_dict, data.features, data.labels)
            csv_lines.append(f"{label},{part},{report_csv_row(report)}")
            json_rows.append({"model": label, "split": part, **report_to_dict(report)})
    (out / "comparison.csv").write_text("\n".join(csv_lines) + "\n", encoding=ENCODING)
    _write_json(out / "comparison.json",
                {"rows": json_rows, "tuning": tuning, "config": eff})
    outputs = {"comparison_csv": "comparison.csv", "comparison_json": "comparison.json",
               "models": {label: filename for label, (filename, _) in models.items()}}
    return _finish(out, "compare", eff, outputs, results={
        **results, "tuned_C": {label: tuning[label]["C"] for label in tuning},
    })

if __name__ == "__main__":
    sys.exit(main())
