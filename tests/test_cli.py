import csv
import json
import shutil
import warnings

import numpy as np
import pytest

from aucmax import cli
from aucmax.baselines import (
    decision_scores, fit_linear_svm, fit_logistic, linear_rule,
)
from aucmax.cli import main
from aucmax.data import (
    Standardizer, load_labeled_csv, read_feature_csv, split, SplitSpec, fit_apply_standardizer,
    table_path, write_feature_csv,
)
from aucmax.metrics import classification_report, report_to_dict, roc_auc
from aucmax.objective import AucProblem
from aucmax.signals import TrialSignal, write_signal_binary, write_signal_csv
from aucmax.solvers import SolverConfig, solve


def run(*argv):
    return main([str(a) for a in argv])


def synth_csv(tmp_path, n=400, dim=8, sep=2.0, seed=7, name="synth"):
    out = tmp_path / name
    assert run("synth", "--n", n, "--dim", dim, "--pos-frac", 0.333,
               "--sep", sep, "--seed", seed, "--out", out) == 0
    return out / "features.csv"


def make_trial_files(tmp_path, n_trials=2, n_channels=14, seconds=63.0):
    rng = np.random.default_rng(21)
    sig_dir = tmp_path / "signals"
    sig_dir.mkdir()
    labels = ["+1", "-1", "+1", "-1"]
    rows = ["trial,label"]
    for i in range(n_trials):
        t = np.arange(int(seconds * 128)) / 128.0
        data = rng.standard_normal((n_channels, t.size)) + 0.4 * np.sin(2 * np.pi * (8 + i) * t)
        trial = TrialSignal(data, 128.0, pretrial_seconds=3.0)
        if i % 2 == 0:
            write_signal_csv(trial, sig_dir / f"trial{i:02d}.csv")
        else:
            write_signal_binary(trial, sig_dir / f"trial{i:02d}.bin")
        rows.append(f"trial{i:02d},{labels[i]}")
    label_path = tmp_path / "labels.csv"
    label_path.write_text("\n".join(rows) + "\n")
    return sig_dir, label_path


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


# --- synth

def test_synth_writes_expected_shape(tmp_path):
    path = synth_csv(tmp_path, n=3000, dim=20, seed=7)
    features, labels, names = read_feature_csv(path)
    assert features.shape == (3000, 20)
    positives = int(np.count_nonzero(labels == 1))
    assert abs(positives - 999) <= 1             # round(0.333 * 3000)
    manifest = json.loads((path.parent / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert manifest["dataset"]["positive_count"] == positives


def test_synth_rerun_byte_identical(tmp_path):
    out = tmp_path / "s"
    args = ("synth", "--n", 200, "--dim", 4, "--seed", 3, "--out", out)
    assert run(*args) == 0
    first = snapshot(out)
    assert run(*args) == 0
    assert snapshot(out) == first


def test_missing_output_dir_created(tmp_path):
    nested = tmp_path / "a" / "b" / "c"
    assert run("synth", "--n", 100, "--dim", 2, "--seed", 0, "--out", nested) == 0
    assert (nested / "features.csv").exists()


# --- usage and error exit codes

def test_unknown_solver_usage_error(tmp_path):
    path = synth_csv(tmp_path, n=100, dim=2)
    assert run("train", "--features", path, "--solver", "nosuch", "--out", tmp_path / "x") == 2


def test_unknown_command_usage_error():
    assert run("frobnicate") == 2


def test_missing_features_runtime_error(tmp_path, capsys):
    assert run("train", "--features", tmp_path / "none.csv", "--solver", "newton",
               "--out", tmp_path / "x") == 1
    assert "error:" in capsys.readouterr().err


def test_corrupt_signal_header_reports_offset(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("fs=128,oops\n1.0,2.0\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("trial,label\nbad,+1\n")
    assert run("extract", "--signals", bad, "--labels", labels, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert "byte 7" in err


# --- extract

def test_extract_set1_shape(tmp_path):
    sig_dir, labels = make_trial_files(tmp_path, n_trials=1)
    out = tmp_path / "ext"
    assert run("extract", "--signals", sig_dir, "--labels", labels,
               "--set", 1, "--out", out) == 0
    features, labels, names = read_feature_csv(out / "features.csv")
    assert features.shape == (117, 112)
    assert np.all(labels == 1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["layout"]["n_features"] == 112
    assert manifest["trials"][0]["rows"] == 117


def test_extract_sets_nested_and_mixed_formats(tmp_path):
    sig_dir, labels = make_trial_files(tmp_path, n_trials=2)
    out3 = tmp_path / "e3"
    out4 = tmp_path / "e4"
    assert run("extract", "--signals", sig_dir, "--labels", labels, "--set", 3, "--out", out3) == 0
    assert run("extract", "--signals", sig_dir, "--labels", labels, "--set", 4, "--out", out4) == 0
    _, _, names3 = read_feature_csv(out3 / "features.csv")
    _, _, names4 = read_feature_csv(out4 / "features.csv")
    assert names4[: len(names3)] == names3
    assert len(names4) > len(names3)


def test_extract_missing_label(tmp_path, capsys):
    sig_dir, labels = make_trial_files(tmp_path, n_trials=2)
    labels.write_text("trial,label\ntrial00,+1\n")
    assert run("extract", "--signals", sig_dir, "--labels", labels, "--out", tmp_path / "x") == 1
    assert "missing label" in capsys.readouterr().err


def test_extract_ignores_feature_table_in_signal_directory(tmp_path):
    sig_dir, labels = make_trial_files(tmp_path, n_trials=1)
    table = synth_csv(tmp_path, n=40, dim=3)
    assert table_path(table).suffix not in (".csv", ".bin")
    args = ["extract", "--signals", sig_dir, "--labels", labels, "--set", 1]
    assert run(*args, "--out", tmp_path / "before") == 0
    shutil.copyfile(table_path(table), table_path(sig_dir / "trial00.csv"))
    assert run(*args, "--out", tmp_path / "after") == 0
    for name in ("features.csv", "features.csv.table"):
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()
    for out in (table.parent, tmp_path / "after"):              # synth and extract
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs == {"features": "features.csv", "table": "features.csv.table"}
        assert (out / outputs["table"]).is_file()
    assert len(json.loads((tmp_path / "after" / "manifest.json").read_text())["trials"]) == 1


def test_extract_rerun_into_its_signal_directory(tmp_path):
    sig_dir, labels = make_trial_files(tmp_path, n_trials=1)
    args = ("extract", "--signals", sig_dir, "--labels", labels, "--set", 1, "--out", sig_dir)
    assert run(*args) == 0
    first = snapshot(sig_dir)
    assert run(*args) == 0                       # features.csv is now among the signals
    assert snapshot(sig_dir) == first
    assert {"features.csv", "features.csv.table"} <= set(first)
    assert len(json.loads((sig_dir / "manifest.json").read_text())["trials"]) == 1


# --- train

def test_train_alt_gda_converges_and_reports(tmp_path):
    path = synth_csv(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", "alt-gda", "--seed", 3,
               "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["converged"] is True
    report = json.loads((out / "report.json").read_text())
    assert report["test"]["auc"] > 0.75
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,grad_norm,objective,train_auc,test_auc"
    assert len(trace_lines) >= 3
    model = json.loads((out / "model.json").read_text())
    assert model["kind"] == "auc-linear"
    assert len(model["w"]) == 8


def test_train_newton_agrees_with_alt_gda(tmp_path):
    path = synth_csv(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("train", "--features", path, "--solver", "alt-gda", "--seed", 3, "--out", out_a) == 0
    assert run("train", "--features", path, "--solver", "newton", "--seed", 3, "--out", out_b) == 0
    auc_a = json.loads((out_a / "report.json").read_text())["test"]["auc"]
    auc_b = json.loads((out_b / "report.json").read_text())["test"]["auc"]
    assert abs(auc_a - auc_b) <= 0.01


def test_train_manifest_protocol_defaults(tmp_path):
    path = synth_csv(tmp_path, n=200, dim=4)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", "newton", "--seed", 1, "--out", out) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["grad_tolerance"] == 1e-3
    assert config["max_iterations"] == 50_000
    assert config["train_fraction"] == 0.8
    assert config["standardize"] is True


def test_train_baseline_solver(tmp_path):
    path = synth_csv(tmp_path)
    out = tmp_path / "logr"
    assert run("train", "--features", path, "--solver", "logistic", "--C", 1.0,
               "--seed", 5, "--out", out) == 0
    model = json.loads((out / "model.json").read_text())
    assert model["kind"] == "logistic" and model["C"] == 1.0
    assert not (out / "trace.csv").exists()      # traces are for saddle solvers only
    report = json.loads((out / "report.json").read_text())
    assert report["test"]["auc"] > 0.7


@pytest.mark.parametrize("cap, converged", [(10_000, True), (50, False)])
def test_train_svm_manifest_reports_convergence(tmp_path, cap, converged):
    path = synth_csv(tmp_path, n=200, dim=3)
    out = tmp_path / "svm"
    assert run("train", "--features", path, "--solver", "svm", "--seed", 1,
               "--baseline-max-iter", cap, "--out", out) == 0
    results = json.loads((out / "manifest.json").read_text())["results"]
    meta = json.loads((out / "model.json").read_text())["train_meta"]
    assert results["converged"] is meta["converged"] is converged
    assert (results["iterations_used"] < cap) is converged


def test_train_reports_skipped_quasi_newton_updates(tmp_path):
    path = synth_csv(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", "qn-broyden", "--seed", 3,
               "--out", out) == 0
    results = json.loads((out / "manifest.json").read_text())["results"]
    dataset, _ = load_labeled_csv(path)
    train_std, _, _ = fit_apply_standardizer(
        *split(dataset, SplitSpec(train_fraction=0.8, seed=3))
    )
    direct = solve(AucProblem(train_std, lam=1e-4), SolverConfig(method="qn-broyden", rng_seed=3))
    assert len(direct.notes) > 0
    assert results["skipped_updates"] == len(direct.notes)
    assert results["iterations_used"] == direct.iterations_used


def test_dimension_warning_only_for_quasi_newton(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "QUASI_NEWTON_DIM_WARNING", 10)   # below d + 3 = 11
    path = synth_csv(tmp_path)
    capsys.readouterr()
    assert run("train", "--features", path, "--solver", "newton", "--seed", 1,
               "--out", tmp_path / "newton") == 0
    assert "warning" not in capsys.readouterr().err
    assert run("train", "--features", path, "--solver", "qn-broyden", "--max-iter", 2,
               "--seed", 1, "--out", tmp_path / "qn") == 0
    err = capsys.readouterr().err
    assert "warning: qn-broyden on dimension 11" in err
    assert "on every iteration" in err


def test_train_rerun_byte_identical(tmp_path):
    path = synth_csv(tmp_path, n=200, dim=4)
    out = tmp_path / "run"
    args = ("train", "--features", path, "--solver", "extragradient", "--seed", 2, "--out", out)
    assert run(*args) == 0
    first = snapshot(out)
    assert run(*args) == 0
    assert snapshot(out) == first


def test_train_threshold_override(tmp_path):
    path = synth_csv(tmp_path, n=200, dim=4)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", "newton", "--seed", 1,
               "--threshold", 100.0, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["test"]["recall"] == 0.0       # absurd threshold kills every positive


def test_config_file_precedence(tmp_path):
    path = synth_csv(tmp_path, n=200, dim=4)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"solver": "newton", "train_fraction": 0.7, "seed": 9}))
    out = tmp_path / "run"
    assert run("train", "--features", path, "--config", config,
               "--train-frac", 0.75, "--out", out) == 0
    eff = json.loads((out / "manifest.json").read_text())["config"]
    assert eff["solver"] == "newton"             # from config file
    assert eff["train_fraction"] == 0.75         # flag beats config
    assert eff["seed"] == 9                      # from config file
    assert eff["max_iterations"] == 50_000       # default


def test_env_seed_fallback(tmp_path, monkeypatch):
    path = synth_csv(tmp_path, n=200, dim=4)
    out_env = tmp_path / "env"
    out_flag = tmp_path / "flag"
    monkeypatch.setenv("AUCMAX_SEED", "13")
    assert run("train", "--features", path, "--solver", "newton", "--out", out_env) == 0
    monkeypatch.delenv("AUCMAX_SEED")
    assert run("train", "--features", path, "--solver", "newton", "--seed", 13,
               "--out", out_flag) == 0
    assert (out_env / "model.json").read_bytes() == (out_flag / "model.json").read_bytes()


def test_env_seed_not_an_integer_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AUCMAX_SEED", "abc")
    assert run("synth", "--n", 50, "--out", tmp_path / "s") == 1
    assert capsys.readouterr().err == "error: AUCMAX_SEED must be an integer, got 'abc'\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("text, shown", [
    ('"abc"', '"abc"'), ("1.7", "1.7"), ("true", "true"), ('"5"', '"5"'),
], ids=["string", "float", "bool", "numeric-string"])
def test_config_seed_not_a_json_integer_is_named(tmp_path, capsys, text, shown):
    config = tmp_path / "config.json"
    config.write_text('{"seed": %s}' % text)
    assert run("synth", "--n", 50, "--config", config, "--out", tmp_path / "s") == 1
    assert capsys.readouterr().err == f"error: {config}: seed must be an integer, got {shown}\n"
    assert not (tmp_path / "s").exists()
    assert run("synth", "--n", 50, "--config", config, "--seed", 4, "--out", tmp_path / "s") == 0


def test_manifest_sections_per_command(tmp_path):
    path = synth_csv(tmp_path, n=200, dim=4)
    sig_dir, labels = make_trial_files(tmp_path, n_trials=1)
    cases = [       # output dir, argv, command, sections besides config/outputs, output keys
        (path.parent, (), "synth", {"dataset"}, {"features", "table"}),
        (tmp_path / "ext", ("extract", "--signals", sig_dir, "--labels", labels),
         "extract", {"layout", "trials"}, {"features", "table"}),
        (tmp_path / "auc", ("train", "--features", path, "--solver", "newton"),
         "train", {"dataset", "results"}, {"model", "report", "trace"}),
        (tmp_path / "svm", ("train", "--features", path, "--solver", "svm"),
         "train", {"dataset", "results"}, {"model", "report"}),
        (tmp_path / "eval", ("eval", "--features", path, "--model", tmp_path / "auc" / "model.json"),
         "eval", {"dataset", "model_kind"}, {"report"}),
        (tmp_path / "cmp", ("compare", "--features", path, "--solver", "newton", "--c-grid", "1",
                            "--baseline-max-iter", 200),
         "compare", {"results"}, {"comparison_csv", "comparison_json", "models"}),
    ]
    for out, argv, command, sections, outputs in cases:
        if argv:
            assert run(*argv, "--seed", 2, "--out", out) == 0, out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command, out
        assert set(manifest) == {"command", "config", "outputs"} | sections, out
        assert set(manifest["outputs"]) == outputs, out
        files = [f for f in manifest["outputs"].values() if isinstance(f, str)]
        files += manifest["outputs"].get("models", {}).values()
        assert all((out / f).is_file() for f in files), out
    assert manifest["outputs"]["models"] == {
        "logistic": "model_logistic.json", "linear-svm": "model_svm.json",
        "auc-max": "model_auc.json"}


@pytest.mark.parametrize("command, flags, model_file", [
    ("train", ("--solver", "newton"), "model.json"),
    ("compare", ("--solver", "newton", "--c-grid", "1", "--baseline-max-iter", 200),
     "model_auc.json"),
], ids=["train", "compare"])
def test_lambda_flag_beats_config_beats_default(tmp_path, command, flags, model_file):
    path = synth_csv(tmp_path, n=200, dim=4)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lambda": 0.02}))
    cases = {
        "default": ((), 1e-4),
        "config": (("--config", config), 0.02),
        "flag": (("--config", config, "--lambda", 0.5), 0.5),
    }
    weights = set()
    for name, (source, expected) in cases.items():
        out = tmp_path / name
        assert run(command, "--features", path, *flags, *source, "--seed", 1, "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["lambda"] == expected
        model = json.loads((out / model_file).read_text())
        assert model["lambda"] == expected
        weights.add(tuple(model["w"]))
    assert len(weights) == 3                     # each lambda reached the solver


# --- eval

def test_eval_reproduces_training_split_metrics(tmp_path):
    path = synth_csv(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", "newton", "--seed", 3, "--out", out) == 0
    out_eval = tmp_path / "eval"
    assert run("eval", "--features", path, "--model", out / "model.json",
               "--out", out_eval) == 0
    report = json.loads((out_eval / "report.json").read_text())
    assert 0.5 < report["auc"] <= 1.0
    assert report["tp"] + report["fp"] + report["tn"] + report["fn"] == 400


def test_eval_baseline_model(tmp_path):
    path = synth_csv(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", "svm", "--seed", 3, "--out", out) == 0
    out_eval = tmp_path / "eval"
    assert run("eval", "--features", path, "--model", out / "model.json",
               "--out", out_eval) == 0
    assert json.loads((out_eval / "report.json").read_text())["auc"] > 0.7


@pytest.mark.parametrize("solver", ["logistic", "svm", "newton"])
def test_eval_on_test_rows_reproduces_train_report(tmp_path, solver):
    path = synth_csv(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", solver, "--seed", 3, "--out", out) == 0
    dataset, names = load_labeled_csv(path)
    _, test = split(dataset, SplitSpec(train_fraction=0.8, seed=3))
    test_csv = tmp_path / "test.csv"
    write_feature_csv(test_csv, test.features, test.labels, names)
    out_eval = tmp_path / "eval"
    assert run("eval", "--features", test_csv, "--model", out / "model.json",
               "--out", out_eval) == 0
    evaluated = json.loads((out_eval / "report.json").read_text())
    assert evaluated == json.loads((out / "report.json").read_text())["test"]
    # and both equal linear_rule, the one reader of every stored kind
    stored = json.loads((out / "model.json").read_text())
    features = Standardizer.from_dict(stored["train_meta"]["standardizer"]).transform(test.features)
    w, bias, cut = linear_rule(stored)
    scores = features @ w + bias
    preds = np.where(scores > cut, 1, -1)
    assert evaluated == report_to_dict(classification_report(test.labels, preds, scores))


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.update(w=m["w"][:-1]), "model expects 7 features, table has 8 after standardization"),
    (lambda m: m.update(w=m["w"] + [0.5]), "model expects 9 features, table has 8 after standardization"),
    (lambda m: m.update(w=[float("nan")] + m["w"][1:]), "model weights must be a vector of finite numbers"),
    (lambda m: m.update(kind="foo"), "unknown model kind 'foo'"),
], ids=["short-w", "long-w", "nan-w", "unknown-kind"])
def test_eval_rejects_malformed_model(tmp_path, capsys, edit, message):
    path = synth_csv(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", "newton", "--seed", 3, "--out", out) == 0
    model = json.loads((out / "model.json").read_text())
    edit(model)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(model))
    capsys.readouterr()
    assert run("eval", "--features", path, "--model", bad, "--out", tmp_path / "eval") == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"



@pytest.mark.parametrize("solver, threshold", [("logistic", 0.3), ("svm", -0.2)])
def test_baseline_threshold_is_stored_and_reproduced_by_eval(tmp_path, solver, threshold):
    path = synth_csv(tmp_path)
    runs = {}
    for tag, extra in (("default", ()), ("override", ("--threshold", threshold))):
        out = tmp_path / tag
        assert run("train", "--features", path, "--solver", solver, "--seed", 3,
                   *extra, "--out", out) == 0
        runs[tag] = out
    model = json.loads((runs["override"] / "model.json").read_text())
    default = json.loads((runs["default"] / "model.json").read_text())
    assert model["threshold"] == threshold != default["threshold"]
    assert model["beta"] == default["beta"]
    report = json.loads((runs["override"] / "report.json").read_text())
    assert report != json.loads((runs["default"] / "report.json").read_text())
    dataset, names = load_labeled_csv(path)
    _, test = split(dataset, SplitSpec(train_fraction=0.8, seed=3))
    test_csv = tmp_path / "test.csv"
    write_feature_csv(test_csv, test.features, test.labels, names)
    assert run("eval", "--features", test_csv, "--model", runs["override"] / "model.json",
               "--out", tmp_path / "eval") == 0
    assert json.loads((tmp_path / "eval" / "report.json").read_text()) == report["test"]


@pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.2])
def test_logistic_threshold_outside_unit_interval_rejected(tmp_path, capsys, threshold):
    path = synth_csv(tmp_path)
    capsys.readouterr()
    assert run("train", "--features", path, "--solver", "logistic", "--seed", 3,
               "--threshold", threshold, "--out", tmp_path / "run") == 1
    assert capsys.readouterr().err == "error: logistic threshold must lie in (0, 1)\n"
    assert not (tmp_path / "run" / "model.json").exists()


@pytest.mark.parametrize("solver, edit, message", [
    ("svm", lambda m: m.pop("beta"), "missing field 'beta'"),
    ("newton", lambda m: m.pop("train_meta"), "missing field 'train_meta'"),
    ("newton", lambda m: m["train_meta"]["standardizer"].pop("means"), "missing field 'means'"),
], ids=["beta", "train_meta", "standardizer-means"])
def test_eval_missing_model_field_names_the_file(tmp_path, capsys, solver, edit, message):
    path = synth_csv(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", solver, "--seed", 3, "--out", out) == 0
    model = json.loads((out / "model.json").read_text())
    edit(model)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(model))
    capsys.readouterr()
    assert run("eval", "--features", path, "--model", bad, "--out", tmp_path / "eval") == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_eval_standardizer_width_mismatch_names_the_file(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("train", "--features", synth_csv(tmp_path, dim=6, name="six"), "--solver",
               "newton", "--seed", 3, "--out", out) == 0
    capsys.readouterr()
    assert run("eval", "--features", synth_csv(tmp_path, name="eight"),
               "--model", out / "model.json", "--out", tmp_path / "eval") == 1
    model = out / "model.json"
    assert capsys.readouterr().err == (
        f"error: {model}: feature width mismatch: expected 6, got (400, 8)\n")


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "model file must hold a JSON object"),
    ('{"kind": "auc-linear", "train_meta": 5}', "'int' object is not subscriptable"),
    ("{", "invalid JSON: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
], ids=["list", "train_meta-int", "truncated"])
def test_eval_unreadable_model_names_the_file(tmp_path, capsys, text, message):
    path = synth_csv(tmp_path, n=100, dim=3)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    capsys.readouterr()
    assert run("eval", "--features", path, "--model", bad, "--out", tmp_path / "eval") == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("{", "invalid JSON: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
    ("[1, 2]", "config file must hold a JSON object"),
], ids=["truncated", "list"])
def test_unreadable_config_names_the_file(tmp_path, capsys, text, message):
    path = synth_csv(tmp_path, n=100, dim=3)
    config = tmp_path / "config.json"
    config.write_text(text)
    capsys.readouterr()
    assert run("train", "--features", path, "--config", config, "--out", tmp_path / "run") == 1
    assert capsys.readouterr().err == f"error: {config}: {message}\n"

# --- compare

def test_compare_table_shape_and_patterns(tmp_path):
    path = synth_csv(tmp_path, n=900, dim=10, sep=1.2, seed=11)
    out = tmp_path / "cmp"
    assert run("compare", "--features", path, "--solver", "newton", "--seed", 4,
               "--out", out) == 0
    with open(out / "comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6                        # 3 models x 2 splits
    assert {r["model"] for r in rows} == {"logistic", "linear-svm", "auc-max"}
    by_key = {(r["model"], r["split"]): r for r in rows}
    auc_recall = float(by_key[("auc-max", "test")]["recall"])
    assert auc_recall > float(by_key[("logistic", "test")]["recall"])
    assert auc_recall > float(by_key[("linear-svm", "test")]["recall"])
    payload = json.loads((out / "comparison.json").read_text())
    assert payload["tuning"]["logistic"]["C"] in (0.01, 0.1, 1.0, 10.0, 100.0)


def test_compare_threshold_applies_to_auc_model_only(tmp_path, capsys):
    path = synth_csv(tmp_path, n=300, dim=4, name="t")
    out = tmp_path / "cmp"
    assert run("compare", "--features", path, "--solver", "newton", "--threshold", 0.3,
               "--out", out) == 0
    thresholds = {kind: json.loads((out / f"model_{kind}.json").read_text())["threshold"]
                  for kind in ("auc", "logistic", "svm")}
    assert thresholds == {"auc": 0.3, "logistic": 0.5, "svm": 0.0}
    assert run("compare", "--help") == 0
    assert "AUC model only" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command, cap", [
    (("train", "--solver", "svm"), 0),
    (("train", "--solver", "logistic"), -5),
    (("compare", "--solver", "newton"), 0),
])
def test_non_positive_baseline_iteration_cap_rejected(tmp_path, capsys, command, cap):
    path = synth_csv(tmp_path, n=100, dim=3)
    capsys.readouterr()
    assert run(*command, "--features", path, "--baseline-max-iter", cap,
               "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err == "error: max_iter must be a positive integer\n"


@pytest.mark.parametrize("grid", [("--c-grid", ""), ("--c-grid", ","), "config"])
def test_compare_empty_c_grid_refused_before_output(tmp_path, capsys, grid):
    path = synth_csv(tmp_path, n=100, dim=3)
    if grid == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"c_grid": []}))
        grid = ("--config", config)
    out = tmp_path / "cmp"
    capsys.readouterr()
    assert run("compare", "--features", path, "--solver", "newton", *grid, "--out", out) == 1
    assert capsys.readouterr().err == "error: c_grid must name at least one C\n"
    assert not out.exists()


@pytest.mark.parametrize("grid, message", [
    ({"c_grid": 5}, "c_grid must be a list of numbers"),
    ({"c_grid": [1.0, "10"]}, "c_grid must be a list of numbers"),
    ({"c_grid": [0.1, -1]}, "c_grid: every C must be positive"),
    (("--c-grid=-1",), "c_grid: every C must be positive"),
    (("--c-grid", "1,0"), "c_grid: every C must be positive"),
    (("--c-grid", "nan"), "c_grid: every C must be positive"),
    (("--c-grid=-inf,1",), "c_grid: every C must be positive"),
    (("--c-grid", "1,inf"), "c_grid: every C must be finite"),
    ({"c_grid": [0.1, 1e400]}, "c_grid: every C must be finite"),
])
def test_compare_bad_c_grid_refused_before_output(tmp_path, capsys, grid, message):
    path = synth_csv(tmp_path, n=100, dim=3)
    if isinstance(grid, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(grid))
        grid = ("--config", config)
    out = tmp_path / "cmp"
    capsys.readouterr()
    assert run("compare", "--features", path, "--solver", "newton", *grid, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


TOL_MESSAGE = "baseline_tol must be a nonnegative finite number"


@pytest.mark.parametrize("command, flags, message", [
    ("train", ("--solver", "svm", "--C", "inf"), "C must be finite"),
    ("train", ("--solver", "svm", "--C", "0"), "C must be positive"),
    ("train", ("--solver", "logistic", "--C", "nan"), "C must be positive"),
    ("train", ("--solver", "newton", "--C", "inf"), "C must be finite"),
    ("train", {"C": "1"}, "C must be a number"),
    ("train", ("--solver", "newton", "--threshold", "nan"), "threshold must be a finite number"),
    ("train", ("--solver", "svm", "--threshold", "inf"), "threshold must be a finite number"),
    ("compare", ("--threshold=-inf",), "threshold must be a finite number"),
    ("compare", ("--threshold", "nan"), "threshold must be a finite number"),
    ("compare", {"threshold": "0.5"}, "threshold must be a finite number"),
    ("train", ("--solver", "newton", "--lambda", "nan"), "lambda must be finite"),
    ("train", ("--solver", "newton", "--lambda", "inf"), "lambda must be finite"),
    ("train", ("--solver", "alt-gda", "--lambda", "nan"), "lambda must be finite"),
    ("train", ("--solver", "newton", "--lambda=-1"), "lambda must be nonnegative"),
    ("compare", ("--lambda", "nan", "--c-grid", "1"), "lambda must be finite"),
    ("compare", {"lambda": float("inf"), "c_grid": [1]}, "lambda must be finite"),
    ("train", ("--solver", "svm", "--baseline-tol", "nan"), TOL_MESSAGE),
    ("train", ("--solver", "svm", "--baseline-tol", "inf"), TOL_MESSAGE),
    ("train", ("--solver", "logistic", "--baseline-tol=-1"), TOL_MESSAGE),
    ("train", {"baseline_tol": float("nan")}, TOL_MESSAGE),
    ("train", {"baseline_tol": "1e-6"}, TOL_MESSAGE),
    ("compare", ("--baseline-tol", "nan"), TOL_MESSAGE),
    ("compare", ("--baseline-tol=-inf",), TOL_MESSAGE),
    ("compare", {"baseline_tol": True}, TOL_MESSAGE),
    ("compare", {"baseline_tol": -1e-6}, TOL_MESSAGE),
])
def test_unusable_c_or_threshold_refused_before_output(tmp_path, capsys, command, flags, message):
    path = synth_csv(tmp_path, n=100, dim=3)
    if isinstance(flags, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(flags))
        flags = ("--config", config)
    if command == "compare":
        flags = ("--solver", "newton", *flags)
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(command, "--features", path, *flags, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_null_baseline_tol_keeps_the_default(tmp_path):
    path = synth_csv(tmp_path, n=100, dim=3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"baseline_tol": None}))
    for name, flags in (("null", ("--config", config)), ("default", ()), ("zero", ("--baseline-tol", 0))):
        assert run("train", "--features", path, "--solver", "svm", *flags,
                   "--out", tmp_path / name) == 0       # a zero tolerance is usable
    null, default = (json.loads((tmp_path / name / "model.json").read_text())
                     for name in ("null", "default"))
    assert null["beta"] == default["beta"]
    assert null["train_meta"]["iterations"] == default["train_meta"]["iterations"]


def tuning_split(path, seed):
    """The training split of ``compare --seed seed`` and its tuning carve-out."""
    dataset, _ = load_labeled_csv(path)
    train, test = split(dataset, SplitSpec(train_fraction=0.8, seed=seed))
    train_std, _, _ = fit_apply_standardizer(train, test)
    return train_std, split(train_std, SplitSpec(train_fraction=0.9, seed=seed + 1))


@pytest.mark.parametrize("solver", ["svm", "logistic"])
def test_c_whose_penalty_overflows_is_named_and_leaves_no_output(tmp_path, capsys, solver):
    path = synth_csv(tmp_path, n=100, dim=3)
    n_train = tuning_split(path, seed=2)[0].n_samples
    out = tmp_path / "run"
    capsys.readouterr()
    assert run("train", "--features", path, "--solver", solver, "--C", "1e-320",
               "--seed", 2, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: C = 1e-320 is too small: 1/(C*N) overflows at N = {n_train}\n")
    assert not out.exists()


@pytest.mark.parametrize("grid, cap", [("0.01,0.1,1,10,100", 10_000), ("1,1,10", 10_000),
                                       ("100,0.01,1", 40)])
def test_compare_tuning_matches_per_c_fits(tmp_path, grid, cap):
    path = synth_csv(tmp_path, n=400, dim=5, sep=1.0, seed=3)
    out = tmp_path / "cmp"
    seed = 5
    assert run("compare", "--features", path, "--solver", "newton", "--seed", seed,
               "--c-grid", grid, "--baseline-max-iter", cap, "--out", out) == 0
    tuning = json.loads((out / "comparison.json").read_text())["tuning"]
    _, (fit_part, val_part) = tuning_split(path, seed)
    cs = [float(c) for c in grid.split(",")]
    for label, fit in (("logistic", fit_logistic), ("linear-svm", fit_linear_svm)):
        expected = []
        for c in cs:
            model = fit(fit_part, C=c, tol=1e-6, max_iter=cap)
            expected.append({
                "C": c,
                "val_auc": roc_auc(decision_scores(model, val_part.features), val_part.labels),
                "iterations": model.train_meta["iterations"],
                "converged": model.train_meta["converged"],
            })
        assert tuning[label]["grid"] == expected
        best = max(expected, key=lambda e: e["val_auc"])     # the first of equal maxima
        assert tuning[label]["C"] == best["C"]
    if cap == 40:                               # one checkpoint: nothing to improve on
        assert all(e["iterations"] == 40 and e["converged"] is False
                   for e in tuning["linear-svm"]["grid"])


def test_compare_tie_picks_the_earliest_c(tmp_path):
    path = synth_csv(tmp_path, n=300, dim=4, sep=8.0, seed=2, name="sep")
    out = tmp_path / "cmp"
    assert run("compare", "--features", path, "--solver", "newton", "--seed", 1,
               "--c-grid", "10,1,100", "--out", out) == 0
    tuning = json.loads((out / "comparison.json").read_text())["tuning"]
    for label in ("logistic", "linear-svm"):
        assert [e["val_auc"] for e in tuning[label]["grid"]] == [1.0, 1.0, 1.0]
        assert tuning[label]["C"] == 10.0


def test_compare_separable_all_aucs_high(tmp_path):
    path = synth_csv(tmp_path, n=600, dim=6, sep=8.0, seed=2, name="sep")
    out = tmp_path / "cmp"
    assert run("compare", "--features", path, "--solver", "newton", "--seed", 1,
               "--out", out) == 0
    with open(out / "comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["auc"]) >= 0.99 for r in rows)


def test_compare_reports_consistent_with_stored_models(tmp_path):
    # recompute every metric from the stored model and the reproduced split
    path = synth_csv(tmp_path, n=400, dim=6, sep=1.5, seed=6, name="c")
    out = tmp_path / "cmp"
    seed = 8
    assert run("compare", "--features", path, "--solver", "newton", "--seed", seed,
               "--out", out) == 0
    features, labels, _ = read_feature_csv(path)
    from aucmax.objective import LabeledDataset
    train, test = split(LabeledDataset(features, labels), SplitSpec(train_fraction=0.8, seed=seed))
    train_std, test_std, _ = fit_apply_standardizer(train, test)
    model = json.loads((out / "model_auc.json").read_text())
    weights = np.asarray(model["w"])
    scores = test_std.features @ weights
    preds = np.where(scores > model["threshold"], 1, -1)
    recomputed = report_to_dict(classification_report(test_std.labels, preds, scores))
    stored = next(
        r for r in json.loads((out / "comparison.json").read_text())["rows"]
        if r["model"] == "auc-max" and r["split"] == "test"
    )
    for key, value in recomputed.items():
        assert stored[key] == pytest.approx(value, abs=1e-12)


def test_compare_rerun_byte_identical(tmp_path):
    path = synth_csv(tmp_path, n=300, dim=4, name="d")
    out = tmp_path / "cmp"
    args = ("compare", "--features", path, "--solver", "newton", "--seed", 0, "--out", out)
    assert run(*args) == 0
    first = snapshot(out)
    assert run(*args) == 0
    assert snapshot(out) == first
