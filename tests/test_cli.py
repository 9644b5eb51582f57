import argparse
import csv
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
import weakref
from dataclasses import fields
from pathlib import Path

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
from aucmax.features import build_feature_sets
from aucmax.metrics import classification_report, report_to_dict, roc_auc
from aucmax.objective import AucProblem, LabeledDataset, ObjectiveParams
from aucmax.signals import (
    TrialSignal, WindowSpec, read_signal_csv, write_signal_binary, write_signal_csv,
)
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


def test_extract_manifest_layout_is_the_first_trials(tmp_path, capsys):
    """The manifest's layout is the one build_feature_sets reports for the
    first trial, defaults resolved there; a trial of another layout is refused."""
    sig_dir, labels = make_trial_files(tmp_path, n_trials=2, n_channels=4, seconds=8.0)
    out = tmp_path / "ext"
    assert run("extract", "--signals", sig_dir, "--labels", labels, "--set", 4, "--out", out) == 0
    first = build_feature_sets(read_signal_csv(sig_dir / "trial00.csv"), set_id=4)
    layout = json.loads((out / "manifest.json").read_text())["layout"]
    assert layout == first.layout
    assert (layout["channels"], layout["corr_lags"]) == ([0, 1, 2, 3], [0, 32])
    trial = TrialSignal(np.random.default_rng(3).standard_normal((3, 8 * 128)), 128.0, 3.0)
    write_signal_binary(trial, sig_dir / "trial01.bin")           # 3 channels: all of them
    assert run("extract", "--signals", sig_dir, "--labels", labels, "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err == (
        f"error: {sig_dir / 'trial01.bin'}: trial produced an inconsistent feature layout\n")
    assert not (tmp_path / "x").exists()


def test_extract_accepts_two_sampling_rates_below_set4(tmp_path, capsys):
    """The fs/4 default lag belongs to Set4's correlation columns alone, so
    trials at 128 and 256 Hz share a Set1-3 layout but not a Set4 one."""
    sig_dir, labels = make_trial_files(tmp_path, n_trials=1, n_channels=4, seconds=8.0)
    data = np.random.default_rng(5).standard_normal((4, 16 * 256))
    write_signal_binary(TrialSignal(data, 256.0, 3.0), sig_dir / "trial01.bin")
    labels.write_text("trial,label\ntrial00,+1\ntrial01,-1\n")
    flags = ("--signals", sig_dir, "--labels", labels)
    for level in (1, 2):
        out = tmp_path / f"e{level}"
        assert run("extract", *flags, "--set", level, "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["layout"]["corr_lags"] == []
    capsys.readouterr()
    assert run("extract", *flags, "--set", 4, "--out", tmp_path / "e4") == 1
    assert capsys.readouterr().err == (
        f"error: {sig_dir / 'trial01.bin'}: trial produced an inconsistent feature layout\n")
    assert not (tmp_path / "e4").exists()
    out = tmp_path / "e4_lags"
    assert run("extract", *flags, "--set", 4, "--corr-lags", "0,32", "--out", out) == 0
    assert json.loads((out / "manifest.json").read_text())["layout"]["corr_lags"] == [0, 32]


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


def test_extract_refuses_a_signal_file_of_another_suffix(tmp_path, capsys, work):
    sig_dir, labels = make_trial_files(tmp_path, n_trials=1, n_channels=2, seconds=8.0)
    text = sig_dir / "trial01.txt"
    shutil.copyfile(sig_dir / "trial00.csv", text)
    out = tmp_path / "ext"
    assert run("extract", "--signals", sig_dir / "trial00.csv", text, "--labels", labels,
               "--out", out) == 1
    assert capsys.readouterr().err == f"error: {text}: a signal file must end in .csv or .bin\n"
    assert not out.exists()
    assert work == ["read_trial_labels"]         # no trial is read


def test_extract_skips_the_labels_file_among_the_signals(tmp_path):
    sig_dir, labels = make_trial_files(tmp_path, n_trials=4, n_channels=2, seconds=8.0)
    args = ("extract", "--signals", sig_dir, "--set", 1)
    assert run(*args, "--labels", labels, "--out", tmp_path / "apart") == 0
    inside = sig_dir / "labels.csv"
    shutil.copyfile(labels, inside)
    (sig_dir / "x.csv").mkdir()                 # a subdirectory is no trial, whatever its name
    (sig_dir / "trial04.bin").mkdir()
    assert run(*args, "--labels", inside, "--out", tmp_path / "among") == 0
    trials = json.loads((tmp_path / "among" / "manifest.json").read_text())["trials"]
    assert [t["trial"] for t in trials] == ["trial00", "trial01", "trial02", "trial03"]
    for name in ("features.csv", "features.csv.table"):
        assert (tmp_path / "among" / name).read_bytes() == (tmp_path / "apart" / name).read_bytes()


@pytest.mark.parametrize("given", ["directory", "path-twice"])
def test_extract_refuses_a_trial_given_twice(tmp_path, capsys, work, given):
    sig_dir, labels = make_trial_files(tmp_path, n_trials=2, n_channels=2, seconds=8.0)
    if given == "directory":                    # trial00 as .csv and as .bin
        write_signal_binary(TrialSignal(np.ones((2, 1024)), 128.0), sig_dir / "trial00.bin")
        signals, first, second = (sig_dir,), sig_dir / "trial00.bin", sig_dir / "trial00.csv"
    else:
        first = second = sig_dir / "trial00.csv"
        signals = (first, sig_dir / "trial01.bin", second)
    out = tmp_path / "ext"
    assert run("extract", "--signals", *signals, "--labels", labels, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: trial 'trial00' is given twice: {first} and {second}\n")
    assert not out.exists()
    assert work == ["read_trial_labels"]         # no trial is read


@pytest.fixture
def trial_reads(monkeypatch):
    """The trial files the command read, in order; the readers still read."""
    read = []
    for name in ("read_signal_csv", "read_signal_binary"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda path, _real=real: read.append(path) or _real(path))
    return read


@pytest.mark.parametrize("labels_text, signals, message", [
    ("trial,label\ntrial0,+1\ntrial2,-1\n", "signals",
     "missing label for trial 'trial1' in {labels}"),
    ("trial,label\na,+1\na,-1\n", "signals", "{labels}: line 3: duplicate trial id 'a'"),
    ("trial,label\na,+1,x\n", "signals",
     "{labels}: line 2: expected 'trial,label', found 'a,+1,x'"),
    ("trial,label\ntrial0,+1\n", "empty", "no signal files found"),
], ids=["unlabeled-trial", "duplicate-id", "three-fields", "no-signal-files"])
def test_extract_refuses_before_any_trial_is_read(tmp_path, capsys, trial_reads, labels_text,
                                                  signals, message):
    # three binary trials: a trial without a label is refused before the
    # first, labeled one is read
    sig_dir = tmp_path / "signals"
    sig_dir.mkdir()
    (tmp_path / "empty").mkdir()
    rng = np.random.default_rng(5)
    for i in range(3):
        write_signal_binary(TrialSignal(rng.standard_normal((4, 8 * 128)), 128.0, 3.0),
                            sig_dir / f"trial{i}.bin")
    labels = tmp_path / "labels.csv"
    labels.write_text(labels_text)
    out = tmp_path / "ext"
    assert run("extract", "--signals", tmp_path / signals, "--labels", labels, "--set", 4,
               "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message.format(labels=labels)}\n"
    assert not out.exists()
    assert trial_reads == []


@pytest.mark.parametrize("lag", [254, 255])
def test_extract_refuses_a_lag_that_leaves_no_window_pair(tmp_path, capsys, lag):
    # 2 s windows at 128 Hz: lag 254 still pairs two samples, lag 255 one
    sig_dir, labels = make_trial_files(tmp_path, n_trials=1, n_channels=4, seconds=8.0)
    out = tmp_path / "ext"
    code = run("extract", "--signals", sig_dir, "--labels", labels, "--set", 4,
               "--corr-lags", lag, "--out", out)
    if lag == 254:
        assert code == 0 and out.exists()
        return
    assert code == 1
    assert capsys.readouterr().err == (f"error: {sig_dir / 'trial00.csv'}: correlation lag 255 "
                                       "incompatible with 256-sample windows\n")
    assert not out.exists()


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


@pytest.mark.parametrize("cap", [5, 20])        # 6 trace rows: under one block; 21: over one
def test_trace_aucs_equal_roc_auc_of_each_rows_iterate(tmp_path, monkeypatch, cap):
    points = []

    class RecordingAucProblem(AucProblem):      # value() runs once per row, at its iterate
        def value(self, z):
            points.append(np.array(z))
            return super().value(z)

    monkeypatch.setattr(cli, "AucProblem", RecordingAucProblem)
    path = synth_csv(tmp_path, n=200, dim=5, sep=1.0)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", "alt-gda", "--max-iter", cap,
               "--tol", 1e-12, "--seed", 3, "--out", out) == 0
    dataset, _ = load_labeled_csv(path)
    train, test, _ = fit_apply_standardizer(*split(dataset, SplitSpec(train_fraction=0.8, seed=3)))
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(points) == cap + 1
    for row, z in zip(rows, points):
        w = z[:train.n_features]
        assert float(row["train_auc"]) == roc_auc(train.features @ w, train.labels)
        assert float(row["test_auc"]) == roc_auc(test.features @ w, test.labels)


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


def test_load_split_frees_the_raw_table(tmp_path, monkeypatch):
    path = synth_csv(tmp_path, n=200, dim=4)
    raw = []

    def load(table):
        dataset, names = load_labeled_csv(table)
        raw.append((weakref.ref(dataset), weakref.ref(dataset.features)))
        return dataset, names

    monkeypatch.setattr(cli, "load_labeled_csv", load)
    eff = {"features": str(path), "solver": "newton", "threshold": None,
           "train_fraction": 0.8, "seed": 1}
    train_std, test_std, _, counts = cli._load_split(eff)
    assert [ref() for ref in raw[0]] == [None, None]
    labels = load_labeled_csv(path)[0].labels
    assert counts == {"n_samples": 200, "n_features": 4,
                      "positive_fraction": np.count_nonzero(labels == 1) / 200}
    assert train_std.n_samples + test_std.n_samples == 200
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", "newton", "--seed", 1, "--out", out) == 0
    assert json.loads((out / "manifest.json").read_text())["dataset"] == counts


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


@pytest.mark.parametrize("cap, converged", [(10_000, True), (2, False)])
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


def test_compare_reports_the_skipped_updates_train_reports(tmp_path):
    path = synth_csv(tmp_path)
    flags = ("--features", path, "--solver", "qn-broyden", "--seed", 3)
    results = {}
    for command in ("train", "compare"):
        assert run(command, *flags, "--out", tmp_path / command) == 0
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        results[command] = manifest["results"]["skipped_updates"]
    assert results["compare"] == results["train"] > 0


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


def test_seed_is_not_read_from_the_environment(tmp_path, monkeypatch):
    path = synth_csv(tmp_path, n=200, dim=4)
    args = ("train", "--features", path, "--solver", "newton", "--out", tmp_path / "run")
    monkeypatch.setenv("AUCMAX_SEED", "13")
    assert run(*args) == 0
    with_env = snapshot(tmp_path / "run")
    monkeypatch.delenv("AUCMAX_SEED")
    assert run(*args) == 0
    assert snapshot(tmp_path / "run") == with_env           # the default seed, 0
    assert json.loads(with_env["manifest.json"])["config"]["seed"] == 0


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
            seed = ("--seed", 2) if "seed" in getattr(cli, f"{command.upper()}_KEYS") else ()
            assert run(*argv, *seed, "--out", out) == 0, out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command, out
        given = {flag[2:]: [str(path)] if flag == "--signals" else str(path)     # nargs="+"
                 for flag, path in zip(argv[1::2], argv[2::2]) if flag[2:] in _INPUTS[command]}
        config = manifest["config"]
        echoed = set(config) - set(getattr(cli, f"{command.upper()}_KEYS")) - {"standardize"}
        assert {key: config[key] for key in echoed} == given, out
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
    (lambda m: m.update(w=m["w"][:-1]), "dimension mismatch: model expects 7 features, got 8"),
    (lambda m: m.update(w=m["w"] + [0.5]), "dimension mismatch: model expects 9 features, got 8"),
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


@pytest.fixture(scope="module")
def newton_run(tmp_path_factory):
    """A Newton model trained on the 400x8 synth table: the table's path and
    the stored model's JSON object."""
    tmp_path = tmp_path_factory.mktemp("newton")
    path = synth_csv(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", "newton", "--seed", 3, "--out", out) == 0
    return path, json.loads((out / "model.json").read_text())


def _standardizer(edit):
    return lambda m: edit(m["train_meta"]["standardizer"])


SPLIT_MESSAGE = "standardizer kept and dropped must hold each of the 8 columns once"
VECTORS_MESSAGE = "standardizer means and stds must be finite vectors of equal length"


@pytest.mark.parametrize("edit, message", [
    (_standardizer(lambda st: st["kept"].__setitem__(0, -1)), SPLIT_MESSAGE),
    (_standardizer(lambda st: st["kept"].__setitem__(0, 0.5)),
     "standardizer kept and dropped must be lists of integers"),
    (_standardizer(lambda st: st["kept"].__setitem__(0, True)),
     "standardizer kept and dropped must be lists of integers"),
    (_standardizer(lambda st: st.update(dropped=7)),
     "standardizer kept and dropped must be lists of integers"),
    (_standardizer(lambda st: st["kept"].__setitem__(-1, 8)), SPLIT_MESSAGE),
    (_standardizer(lambda st: st["kept"].__setitem__(1, 0)), SPLIT_MESSAGE),
    (_standardizer(lambda st: st.update(dropped=[3])), SPLIT_MESSAGE),
    (_standardizer(lambda st: st.update(kept=[], dropped=list(range(8)))),
     "standardizer keeps no column"),
    (_standardizer(lambda st: st.update(stds=st["stds"][:-1])), VECTORS_MESSAGE),
    (_standardizer(lambda st: st.update(means=st["means"] + [0.0])), VECTORS_MESSAGE),
    (_standardizer(lambda st: st["means"].__setitem__(2, float("nan"))), VECTORS_MESSAGE),
    (_standardizer(lambda st: st["stds"].__setitem__(2, float("inf"))), VECTORS_MESSAGE),
    (_standardizer(lambda st: st["stds"].__setitem__(5, 0.0)),
     "standardizer keeps a zero-variance column"),
    (lambda m: m.update(threshold=float("nan")), "model threshold must be a finite number"),
    (lambda m: m.update(threshold=-float("inf")), "model threshold must be a finite number"),
], ids=["kept-negative", "kept-fraction", "kept-bool", "dropped-not-list", "kept-out-of-range",
        "kept-repeated", "dropped-also-kept", "kept-empty", "short-stds", "long-means",
        "nan-mean", "inf-std", "zero-std-kept", "nan-threshold", "inf-threshold"])
def test_eval_refuses_a_tampered_model(tmp_path, capsys, newton_run, edit, message):
    path, model = newton_run
    model = json.loads(json.dumps(model))       # a copy the edit may change
    edit(model)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(model))
    capsys.readouterr()
    assert run("eval", "--features", path, "--model", bad, "--out", tmp_path / "eval") == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "eval" / "report.json").exists()


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
    assert capsys.readouterr().err == "error: logistic threshold must be strictly between 0 and 1\n"
    assert not (tmp_path / "run" / "model.json").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_logistic_threshold_refused_before_the_table_is_read(tmp_path, capsys, source):
    # the features path does not exist: the threshold's refusal must come first
    flags = ("--threshold", 1.5)
    if source == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": 1.5}))
        flags = ("--config", config)
    out = tmp_path / "run"
    assert run("train", "--features", tmp_path / "missing.csv", "--solver", "logistic",
               *flags, "--out", out) == 1
    assert capsys.readouterr().err == "error: logistic threshold must be strictly between 0 and 1\n"
    assert not out.exists()


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


def test_eval_refuses_a_baseline_beta_without_weights(tmp_path, capsys):
    path = synth_csv(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--solver", "svm", "--seed", 3, "--out", out) == 0
    model = json.loads((out / "model.json").read_text())
    model["beta"] = model["beta"][:1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(model))
    capsys.readouterr()
    assert run("eval", "--features", path, "--model", bad, "--out", tmp_path / "eval") == 1
    assert capsys.readouterr().err == f"error: {bad}: beta must be [intercept, weights...]\n"
    assert not (tmp_path / "eval").exists()


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


def test_compare_model_files_are_the_ones_train_writes(tmp_path):
    path = synth_csv(tmp_path, n=300, dim=4, sep=1.0, name="same")
    flags = ("--features", path, "--seed", 3)
    assert run("compare", *flags, "--solver", "newton", "--threshold", 0.05,
               "--out", tmp_path / "cmp") == 0
    tuned = json.loads((tmp_path / "cmp" / "manifest.json").read_text())["results"]["tuned_C"]
    runs = {"auc": ("--solver", "newton", "--threshold", 0.05),
            "logistic": ("--solver", "logistic", "--C", repr(tuned["logistic"])),
            "svm": ("--solver", "svm", "--C", repr(tuned["linear-svm"]))}
    for kind, train_flags in runs.items():
        out = tmp_path / f"train_{kind}"
        assert run("train", *flags, *train_flags, "--out", out) == 0
        stored = (tmp_path / "cmp" / f"model_{kind}.json").read_bytes()
        assert stored == (out / "model.json").read_bytes(), kind
        meta = json.loads(stored)["train_meta"]
        assert (meta["seed"], meta["train_fraction"], meta["n_train"] + meta["n_test"]) == (
            3, 0.8, 300)


def test_compare_carve_out_failure_is_named_before_output(tmp_path, capsys, monkeypatch):
    path = synth_csv(tmp_path, n=9, dim=2)
    assert run("train", "--features", path, "--solver", "newton", "--out", tmp_path / "tr") == 0
    for name in ("solve", "fit_logistic", "fit_linear_svm"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: pytest.fail(_name))
    out = tmp_path / "cmp"
    capsys.readouterr()
    assert run("compare", "--features", path, "--out", out) == 1
    assert capsys.readouterr().err == (
        "error: C tuning's 10% validation carve-out: too few samples per class to stratify\n")
    assert not out.exists()


@pytest.mark.parametrize("command, cap", [
    (("train", "--solver", "svm"), 0),
    (("train", "--solver", "logistic"), -5),
    (("compare", "--solver", "newton"), 0),
    (("train", "--solver", "svm"), -3),
])
def test_non_positive_baseline_iteration_cap_rejected(tmp_path, capsys, monkeypatch, command, cap):
    path = synth_csv(tmp_path, n=100, dim=3)
    reads = []                                  # refused before the table is read
    real_load = cli.load_labeled_csv
    monkeypatch.setattr(cli, "load_labeled_csv", lambda *a, **k: reads.append(a) or real_load(*a, **k))
    capsys.readouterr()
    assert run(*command, "--features", path, "--baseline-max-iter", cap,
               "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err == "error: baseline_max_iter must be a positive integer\n"
    assert reads == []
    assert not (tmp_path / "x").exists()


C_GRID_MESSAGE = "c_grid must be a nonempty list of positive finite numbers"


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
    assert capsys.readouterr().err == f"error: {C_GRID_MESSAGE}\n"
    assert not out.exists()


@pytest.mark.parametrize("grid, rule", [
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
def test_compare_bad_c_grid_refused_before_output(tmp_path, capsys, grid, rule):
    path = synth_csv(tmp_path, n=100, dim=3)
    if isinstance(grid, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(grid))
        grid = ("--config", config)
    out = tmp_path / "cmp"
    capsys.readouterr()
    assert run("compare", "--features", path, "--solver", "newton", *grid, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {C_GRID_MESSAGE}\n"     # each rule is the kind's
    assert not out.exists()


# The one refusal of each ranged key, whatever rule its value breaks: the
# same words from ``_config`` and from the library guard of the field it names.
MESSAGES = {
    "C": "C must be a positive finite number",
    "lambda": "lambda must be a nonnegative finite number",
    "threshold": "threshold must be a finite number",
    "baseline_tol": "baseline_tol must be a nonnegative finite number",
    "baseline_max_iter": "baseline_max_iter must be a positive integer",
    "train_fraction": "train_fraction must be strictly between 0 and 1",
    "step_size": "step_size must be a positive finite number",
    "grad_tolerance": "grad_tolerance must be a positive finite number",
    "max_iterations": "max_iterations must be a positive integer",
    "updates_per_iteration": "updates_per_iteration must be a positive integer",
    "broyden_tau": "broyden_tau must be sr1/dfp/bfgs or a number in [0, 1]",
    "direction_rule": "direction_rule must be one of greedy-basis, random-gaussian",
    "window": "window must be a positive finite number",
    "stride": "stride must be a positive finite number",
    "order": "order must be an integer from 1 to 20",
    "pos_frac": "pos_frac must be strictly between 0 and 1",
    "sep": "sep must be a nonnegative finite number",
    "dim": "dim must be a positive integer",
    "corr_lags": "corr_lags must be a list of distinct nonnegative integers",
    "seed": "seed must be a nonnegative integer",
    "channels": 'channels must be "auto" or a nonempty list of distinct nonnegative integers',
}
# A case below is named by the rule its value breaks; it is refused in its key's one message.
TOL_RULE = MESSAGES["baseline_tol"]
FRACTION_RULE = "train_fraction must lie strictly between 0 and 1"


@pytest.mark.parametrize("command, flags, rule", [
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
    ("train", ("--solver", "svm", "--baseline-tol", "nan"), TOL_RULE),
    ("train", ("--solver", "svm", "--baseline-tol", "inf"), TOL_RULE),
    ("train", ("--solver", "logistic", "--baseline-tol=-1"), TOL_RULE),
    ("train", {"baseline_tol": float("nan")}, TOL_RULE),
    ("train", {"baseline_tol": "1e-6"}, TOL_RULE),
    ("compare", ("--baseline-tol", "nan"), TOL_RULE),
    ("compare", ("--baseline-tol=-inf",), TOL_RULE),
    ("compare", {"baseline_tol": True}, TOL_RULE),
    ("compare", {"baseline_tol": -1e-6}, TOL_RULE),
    ("train", ("--solver", "svm", "--lambda", "nan"), "lambda must be finite"),
    ("train", ("--solver", "logistic", "--lambda", "inf"), "lambda must be finite"),
    ("train", ("--solver", "logistic", "--lambda=-1e-3"), "lambda must be nonnegative"),
    ("compare", ("--lambda=-inf",), "lambda must be nonnegative"),
    ("train", {"lambda": "1e-4"}, "lambda must be a number"),
    ("compare", {"lambda": None}, "lambda must be a number"),
    ("train", ("--solver", "newton", "--train-frac", "1.5"), FRACTION_RULE),
    ("train", {"solver": "logistic", "train_fraction": 1.0}, FRACTION_RULE),
    ("compare", ("--train-frac", "0"), FRACTION_RULE),
    ("train", ("--solver", "qn-broyden", "--k-updates", "0"),
     "updates_per_iteration must be at least 1"),
    ("compare", ("--tau", "2"), "broyden_tau must lie in [0, 1]"),
])
def test_unusable_c_or_threshold_refused_before_output(tmp_path, capsys, monkeypatch,
                                                      command, flags, rule):
    path = synth_csv(tmp_path, n=100, dim=3)
    work = []                                   # refused before the table is read or any fit runs
    for name in ("load_labeled_csv", "fit_logistic", "fit_linear_svm", "solve"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: work.append(_name))
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
    assert capsys.readouterr().err == f"error: {MESSAGES[rule.split()[0]]}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()
    assert work == []


BAD_VALUES = {
    "step_size": [0.0, -1.0, float("inf"), float("nan")],
    "grad_tolerance": [0.0, -5.0, float("inf"), float("nan")],
    "max_iterations": [0, -3],
    "updates_per_iteration": [0, -1],
    "broyden_tau": [-0.1, 2.0, float("nan"), "bfg"],
    "direction_rule": ["coordinate"],
    "train_fraction": [0.0, 1.0, 1.5, float("nan")],
    "C": [0.0, -1.0, float("inf"), float("nan")],
    "lambda": [-1e-3, float("inf"), float("nan")],
    "window": [0.0, float("inf"), float("nan")],
    "stride": [-0.5, float("inf"), float("nan")],
}


@pytest.mark.parametrize("key, guard", [
    *[(f.name, "SolverConfig") for f in fields(SolverConfig) if f.name in cli.FIT_KEYS],
    ("train_fraction", "SplitSpec"), ("C", "fit_logistic"), ("C", "fit_linear_svm"),
    ("lambda", "ObjectiveParams"), ("window", "WindowSpec"), ("stride", "WindowSpec"),
])
def test_library_guard_refuses_in_the_words_of_config(tmp_path, capsys, key, guard):
    """A key that names a library field is refused by ``_config`` and by the
    library's own guard of that field in the same words."""
    data = LabeledDataset(np.arange(8.0).reshape(4, 2), np.array([1, -1, 1, -1]))
    construct = {
        "SolverConfig": lambda v: SolverConfig(method="newton", **{key: v}),
        "SplitSpec": lambda v: SplitSpec(train_fraction=v),
        "fit_logistic": lambda v: fit_logistic(data, C=v),
        "fit_linear_svm": lambda v: fit_linear_svm(data, C=v),
        "ObjectiveParams": lambda v: ObjectiveParams(p=0.5, lam=v),
        "WindowSpec": lambda v: WindowSpec(**{f"{key}_seconds": v}),
    }[guard]
    inputs = (("--signals", tmp_path, "--labels", tmp_path / "labels.csv")
              if guard == "WindowSpec" else ("--features", tmp_path / "f.csv"))
    config = tmp_path / "config.json"
    for value in BAD_VALUES[key]:
        config.write_text(json.dumps({key: value}))
        capsys.readouterr()
        assert run("extract" if guard == "WindowSpec" else "train", *inputs,
                   "--config", config, "--out", tmp_path / "out") == 1
        with pytest.raises(ValueError) as refusal:
            construct(value)
        assert capsys.readouterr().err == f"error: {refusal.value}\n", value
        assert str(refusal.value) == MESSAGES[key]
        assert not (tmp_path / "out").exists()


def test_null_baseline_tol_keeps_the_default(tmp_path):
    path = synth_csv(tmp_path, n=100, dim=3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"baseline_tol": None}))
    for name, flags in (("null", ("--config", config)), ("default", ()), ("zero", ("--baseline-tol", 0))):
        assert run("train", "--features", path, "--solver", "svm", *flags,
                   "--out", tmp_path / name) == 0       # a zero tolerance is usable
    null, default, zero = (json.loads((tmp_path / name / "model.json").read_text())
                           for name in ("null", "default", "zero"))
    assert null["beta"] == default["beta"]
    assert null["train_meta"]["iterations"] == default["train_meta"]["iterations"]
    # a zero tolerance ends at the rounding floor, far below the 10,000 cap
    meta = zero["train_meta"]
    assert meta["iterations"] <= 40
    assert abs(meta["duality_gap"]) <= 1e-12 * meta["objective"]
    assert meta["converged"] is (meta["duality_gap"] <= 0.0)


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


@pytest.mark.parametrize("command", [
    ("train", "--solver", "svm", "--C", "1e308"),
    ("train", "--solver", "logistic", "--C", "1e308"),
    ("compare", "--solver", "newton", "--c-grid", "1,1e308"),   # refused at the grid's second C
], ids=["svm", "logistic", "compare"])
def test_c_whose_penalty_underflows_is_named_and_leaves_no_output(tmp_path, capsys, command):
    path = synth_csv(tmp_path, n=100, dim=3)
    train_std, (fit_part, _) = tuning_split(path, seed=2)
    n = (fit_part if command[0] == "compare" else train_std).n_samples
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(*command, "--features", path, "--seed", 2, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: C = 1e+308 is too large: 1/(C*N) underflows to 0 at N = {n}\n")
    assert not out.exists()


@pytest.mark.parametrize("grid, cap", [("0.01,0.1,1,10,100", 10_000), ("1,1,10", 10_000),
                                       ("100,0.01,1", 40), ("100,0.01,1", 2)])
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
    if cap == 2:                                # two iterations: far from the gap test
        assert all(e["iterations"] == 2 and e["converged"] is False
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


# --- config keys: each value checked against its key's kind, whatever its source

_NEWTON = ("--solver", "newton")
_GDA = ("--solver", "alt-gda", "--max-iter", 30)
_QN = ("--solver", "qn-broyden", "--max-iter", 10)
_SVM = ("--solver", "svm", "--baseline-max-iter", 50)
_TUNE = ("--c-grid", 1, "--baseline-max-iter", 50)      # compare's tuning, kept short
_FIT_CASES = [      # key, flags both runs share, the key's flags, its config entries
    ("step_size", _GDA, ("--eta", 0.05), {"step_size": 0.05}),
    ("grad_tolerance", _GDA, ("--tol", 1), {"grad_tolerance": 1}),
    ("max_iterations", ("--solver", "alt-gda"), ("--max-iter", 20), {"max_iterations": 20}),
    ("lambda", _NEWTON, ("--lambda", 0.01), {"lambda": 0.01}),
    ("broyden_tau", _QN, ("--tau", 1), {"broyden_tau": 1}),
    ("direction_rule", _QN, ("--direction", "random-gaussian"),
     {"direction_rule": "random-gaussian"}),
    ("updates_per_iteration", _QN, ("--k-updates", 2), {"updates_per_iteration": 2}),
    ("train_fraction", _NEWTON, ("--train-frac", 0.7), {"train_fraction": 0.7}),
    ("threshold", _NEWTON, ("--threshold", 0), {"threshold": 0}),
    ("seed", _NEWTON, ("--seed", 4), {"seed": 4}),
]
_KEY_CASES = {      # command -> its cli table and cases covering every key; each moves out too
    "synth": ("SYNTH_KEYS", [
        ("n", (), ("--n", 120), {"n": 120}),
        ("dim", (), ("--dim", 3), {"dim": 3}),
        ("pos_frac", (), ("--pos-frac", 0.25), {"pos_frac": 0.25}),
        ("sep", (), ("--sep", 2), {"sep": 2}),
        ("seed", (), ("--seed", 5), {"seed": 5}),
    ]),
    "extract": ("EXTRACT_KEYS", [
        ("set", (), ("--set", 2), {"set": 2}),
        ("window", (), ("--window", 1), {"window": 1}),
        ("stride", (), ("--stride", 1), {"stride": 1}),
        ("order", (), ("--order", 3), {"order": 3}),
        ("channels", (), ("--channels", "0,2"), {"channels": [0, 2]}),
        ("corr_lags", ("--set", 4), ("--corr-lags", "0,4"), {"corr_lags": [0, 4]}),
    ]),
    "train": ("TRAIN_KEYS", _FIT_CASES + [
        ("solver", (), ("--solver", "newton"), {"solver": "newton"}),
        ("baseline_tol", _SVM, ("--baseline-tol", 0.001), {"baseline_tol": 0.001}),
        ("baseline_max_iter", ("--solver", "svm"), ("--baseline-max-iter", 40),
         {"baseline_max_iter": 40}),
        ("C", _SVM, ("--C", 2), {"C": 2}),
        ("trace_auc", _NEWTON, ("--no-trace-auc",), {"trace_auc": False}),
    ]),
    "compare": ("COMPARE_KEYS", [(key, (*shared, *_TUNE), flags, entries)
                                   for key, shared, flags, entries in _FIT_CASES] + [
        ("solver", _TUNE, ("--solver", "newton"), {"solver": "newton"}),
        ("baseline_tol", (*_NEWTON, *_TUNE), ("--baseline-tol", 0.001), {"baseline_tol": 0.001}),
        ("baseline_max_iter", (*_NEWTON, "--c-grid", 1), ("--baseline-max-iter", 40),
         {"baseline_max_iter": 40}),
        ("c_grid", (*_NEWTON, "--baseline-max-iter", 50), ("--c-grid", "1,10"),
         {"c_grid": [1, 10]}),
    ]),
    "eval": ("EVAL_KEYS", [("out", (), (), {})]),          # out is eval's one key
}


def test_every_key_by_flag_or_by_config_writes_the_same_bytes(tmp_path):
    """Each case runs twice into one --out: once with the key (and --out) as
    flags, once with them in --config.  The kind's conversion makes the two
    directories byte-identical, manifests included."""
    table = synth_csv(tmp_path, n=120, dim=3)
    sig_dir, labels = make_trial_files(tmp_path, n_trials=2, n_channels=4, seconds=8.0)
    assert run("train", "--features", table, "--solver", "newton", "--out", tmp_path / "m") == 0
    inputs = {
        "synth": (), "extract": ("--signals", sig_dir, "--labels", labels),
        "train": ("--features", table), "compare": ("--features", table),
        "eval": ("--features", table, "--model", tmp_path / "m" / "model.json"),
    }
    config = tmp_path / "config.json"
    for command, (table_name, cases) in _KEY_CASES.items():
        keys = getattr(cli, table_name)
        assert {case[0] for case in cases} | {"out"} == set(keys), command
        for key, shared, flags, entries in cases:
            out = tmp_path / "runs" / command / key
            assert run(command, *inputs[command], *shared, *flags, "--out", out) == 0, (command, key)
            by_flag = snapshot(out)
            config.write_text(json.dumps({**entries, "out": str(out)}))
            assert run(command, *inputs[command], *shared, "--config", config) == 0, (command, key)
            assert snapshot(out) == by_flag, (command, key)


COMPARE_SOLVERS = "sim-gda, alt-gda, extragradient, newton, qn-broyden"
TRAIN_SOLVERS = f"{COMPARE_SOLVERS}, logistic, svm"
DIRECTIONS = "greedy-basis, random-gaussian"


@pytest.fixture
def work(monkeypatch):
    """The names of the input readers, solvers and fits a command called, in
    order; each is stubbed out."""
    called = []
    for name in ("generate_synthetic", "read_trial_labels", "read_signal_csv",
                 "read_signal_binary", "load_labeled_csv", "solve", "fit_logistic",
                 "fit_linear_svm"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: called.append(_name))
    return called


def input_flags(command, tmp_path):
    """The input-path flags ``command`` requires, naming files under ``tmp_path``."""
    return {
        "synth": (), "extract": ("--signals", tmp_path, "--labels", tmp_path / "labels.csv"),
        "train": ("--features", tmp_path / "f.csv"), "compare": ("--features", tmp_path / "f.csv"),
        "eval": ("--features", tmp_path / "f.csv", "--model", tmp_path / "model.json"),
    }[command]


# A case is named by the rule its value breaks; a ranged key's refusal is its one message.
@pytest.mark.parametrize("command, source, rule", [
    ("synth", {"n": 1.7}, "n must be an integer"),
    ("synth", {"n": None}, "n must be an integer"),
    ("synth", {"pos_frac": "0.5"}, "pos_frac must be a number"),
    ("extract", {"order": 4.5}, "order must be an integer"),
    ("extract", {"channels": "no"}, 'channels must be "auto" or a list of integers'),
    ("extract", {"channels": [0, "1"]}, 'channels must be "auto" or a list of integers'),
    ("extract", {"corr_lags": [0, "1"]}, "corr_lags must be a list of integers"),
    ("train", {"max_iterations": 1.7}, "max_iterations must be an integer"),
    ("train", {"updates_per_iteration": 2.9}, "updates_per_iteration must be an integer"),
    ("train", {"step_size": "0.5"}, "step_size must be a number"),
    ("train", {"grad_tolerance": True}, "grad_tolerance must be a number"),
    ("train", {"solver": True}, f"solver must be one of {TRAIN_SOLVERS}"),
    ("train", {"broyden_tau": "0.5"}, "broyden_tau must be a number or sr1/dfp/bfgs"),
    ("train", {"trace_auc": "no"}, "trace_auc must be true or false"),
    ("compare", {"direction_rule": [0, "1"]}, f"direction_rule must be one of {DIRECTIONS}"),
    ("compare", {"baseline_max_iter": True}, "baseline_max_iter must be a positive integer"),
    ("eval", {"out": 1.7}, "out must be text"),
    ("train", ("--seed", -1), "seed must be nonnegative, got -1"),
    ("synth", {"seed": -2}, "seed must be nonnegative, got -2"),
    ("compare", ("--seed", -3), "seed must be nonnegative, got -3"),
    ("compare", {"solver": "logistic"}, f"solver must be one of {COMPARE_SOLVERS}"),
    ("train", {"solver": "svm", "direction_rule": "foo"},
     f"direction_rule must be one of {DIRECTIONS}"),
    ("extract", {"set": 7}, "set must be one of 1, 2, 3, 4"),
    ("extract", {"set": True}, "set must be one of 1, 2, 3, 4"),
    ("extract", ("--window=-1",), "window and stride must be positive"),
    ("extract", {"stride": 0}, "stride must be positive"),
    ("train", ("--solver", "svm", "--max-iter", "0"), MESSAGES["max_iterations"]),
    ("train", ("--solver", "logistic", "--eta=-1"), MESSAGES["step_size"]),
    ("train", ("--solver", "logistic", "--tol=-5"), MESSAGES["grad_tolerance"]),
    ("train", ("--solver", "logistic", "--k-updates", "0"), MESSAGES["updates_per_iteration"]),
    ("train", ("--solver", "logistic", "--tau", "9"), MESSAGES["broyden_tau"]),
    ("train", ("--solver", "newton", "--tol", "inf"), MESSAGES["grad_tolerance"]),
    ("train", ("--solver", "alt-gda", "--eta", "inf"), MESSAGES["step_size"]),
    ("compare", ("--solver", "qn-broyden", "--tau", "nan"), MESSAGES["broyden_tau"]),
    ("extract", ("--window", "inf"), MESSAGES["window"]),
    ("extract", ("--stride", "nan"), MESSAGES["stride"]),
    ("extract", ("--order", "0"), MESSAGES["order"]),
    ("extract", ("--order", "100"), MESSAGES["order"]),
    ("synth", ("--sep", "inf"), MESSAGES["sep"]),
    ("synth", ("--sep", "nan"), MESSAGES["sep"]),
    ("synth", ("--dim", "0"), MESSAGES["dim"]),
    ("extract", ("--corr-lags=-1", "--set", "4"), MESSAGES["corr_lags"]),
    ("extract", ("--corr-lags=-1", "--set", "1"), MESSAGES["corr_lags"]),
    ("extract", {"corr_lags": [0, -4], "set": 4}, MESSAGES["corr_lags"]),
    ("extract", ("--channels=-1,0", "--set", "1"), "channels must be nonnegative"),
    ("extract", {"channels": [0, -2]}, "channels must be nonnegative"),
    ("extract", ("--channels", "1,0,1"), "channels must be distinct"),
    ("extract", {"channels": [2, 2]}, "channels must be distinct"),
    ("extract", ("--channels=",), "channels must be nonempty"),
    ("extract", {"channels": []}, "channels must be nonempty"),
    ("synth", {"seed": "abc"}, "seed must be an integer"),
    ("synth", {"seed": 1.7}, "seed must be an integer"),
    ("synth", {"seed": True}, "seed must be an integer"),
    ("synth", {"seed": "5"}, "seed must be an integer"),
    ("compare", {"seed": -1}, "seed must be nonnegative"),
    ("extract", ("--corr-lags", "0,0", "--set", "4"), "corr_lags must be distinct"),
    ("extract", ("--corr-lags", "8,0,8", "--set", "1"), "corr_lags must be distinct"),
    ("extract", {"corr_lags": [4, 4], "set": 2}, "corr_lags must be distinct"),
])
def test_value_not_of_its_kind_refused_before_any_work(tmp_path, capsys, work,
                                                      command, source, rule):
    inputs = input_flags(command, tmp_path)
    out = tmp_path / "out"
    out_flag = ("--out", out)
    if isinstance(source, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(source))
        out_flag = () if "out" in source else out_flag
        source = ("--config", config)
    assert run(command, *inputs, *source, *out_flag) == 1
    assert capsys.readouterr().err == f"error: {MESSAGES.get(rule.split()[0], rule)}\n"
    assert not out.exists()
    assert work == []


@pytest.mark.parametrize("command, key", [
    ("synth", "dimension"),         # the key is dim
    ("extract", "signals"),         # an input path is a flag, not a key
    ("train", "max_iter"),          # the key is max_iterations; --max-iter is its flag
    ("eval", "features"),
    ("compare", "C"),               # compare tunes C over c_grid
    ("extract", "seed"),            # extract and eval draw no random numbers
    ("eval", "seed"),
])
def test_unknown_config_key_refused_before_any_work(tmp_path, capsys, work, command, key):
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    config.write_text(json.dumps({"out": str(out), key: 1}))
    assert run(command, *input_flags(command, tmp_path), "--config", config, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {config}: {command} has no key {key!r}\n"
    assert not out.exists()
    assert work == []


_INPUTS = {"synth": set(), "extract": {"signals", "labels"}, "train": {"features"},
           "eval": {"features", "model"}, "compare": {"features"}}


@pytest.mark.parametrize("command, table", [("synth", "SYNTH_KEYS"), ("extract", "EXTRACT_KEYS"),
                                            ("train", "TRAIN_KEYS"), ("eval", "EVAL_KEYS"),
                                            ("compare", "COMPARE_KEYS")])
def test_each_command_flag_is_a_key_of_its_table(command, table):
    """Besides --config and the input paths, a command has exactly one flag
    (or --key/--no-key pair) per key of its table, --seed included where
    the table has seed."""
    commands = next(action for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for action in commands.choices[command]._actions} - {"help"}
    assert dests == set(getattr(cli, table)) | {"config"} | _INPUTS[command]


@pytest.mark.parametrize("command", ["extract", "eval"])
def test_seed_is_a_usage_error_where_nothing_draws_from_it(tmp_path, capsys, work, command):
    out = tmp_path / "out"
    assert run(command, *input_flags(command, tmp_path), "--seed", 1, "--out", out) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()
    assert work == []


def test_compare_takes_no_c_flag(tmp_path, capsys):
    path = synth_csv(tmp_path, n=100, dim=3)
    out = tmp_path / "cmp"
    capsys.readouterr()
    assert run("compare", "--features", path, "--C", 1, "--out", out) == 2
    assert "unrecognized arguments: --C 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--trace-auc", "--no-trace-auc"),
     "argument --no-trace-auc: not allowed with argument --trace-auc"),
    (("--channels", "0,x"), "argument --channels: '0,x' is not \"auto\" or a nonempty list of "
                            "distinct nonnegative integers"),
    (("--tau", "bfg"), "argument --tau: 'bfg' is not sr1/dfp/bfgs or a number in [0, 1]"),
    (("--direction", "foo"), "argument --direction: invalid choice: 'foo'"),
    (("--seed", "x"), "argument --seed: 'x' is not a nonnegative integer"),
    (("--seed", "1.5"), "argument --seed: '1.5' is not a nonnegative integer"),
    (("--seed", "true"), "argument --seed: 'true' is not a nonnegative integer"),
])
def test_flag_text_not_of_its_kind_is_a_usage_error(tmp_path, capsys, flags, message):
    command = "extract" if flags[0] == "--channels" else "train"
    inputs = {"extract": ("--signals", tmp_path, "--labels", tmp_path / "labels.csv"),
              "train": ("--features", tmp_path / "f.csv")}[command]
    assert run(command, *inputs, *flags, "--out", tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, write, message", [
    ("nan.csv", lambda p: p.write_text("fs=128,pretrial=0,channels=1\n1.0,nan,3.0\n"),
     "samples contain NaN or Inf"),
    ("inf.bin", lambda p: p.write_bytes(struct.pack("<IIdd", 1, 3, 128.0, 0.0)
                                        + np.array([1.0, np.inf, 3.0]).tobytes()),
     "samples contain NaN or Inf"),
    ("rate.bin", lambda p: p.write_bytes(struct.pack("<IIdd", 1, 3, 0.0, 0.0) + bytes(24)),
     "sampling_rate must be a positive finite number"),
    ("short.csv", lambda p: p.write_text("fs=1,pretrial=5,channels=1\n1.0,2.0,3.0\n"),
     "signal is not longer than its pre-trial stretch"),
    ("empty.csv", lambda p: p.write_text(""), "corrupt signal header at byte 0: empty file"),
    ("cut.bin", lambda p: p.write_bytes(struct.pack("<IIdd", 32, 2560, 128.0, 0.0)
                                        + bytes(8 * (32 * 2560 - 1))),
     "malformed signal file: expected 655384 bytes for 32x2560 samples, found 655376"),
    ("none.bin", lambda p: p.write_bytes(struct.pack("<IIdd", 0, 1000, 128.0, 0.0)),
     "corrupt signal header at byte 0: channel count must be a positive integer"),
    ("none.csv", lambda p: p.write_text("fs=128,pretrial=0,channels=0\n"),
     "corrupt signal header at byte 18: channel count must be a positive integer"),
], ids=["nan-sample", "inf-sample", "zero-rate", "all-pretrial", "empty-csv",
        "bin-one-sample-short", "bin-zero-channels", "csv-zero-channels"])
def test_extract_refusal_names_the_trial_file(tmp_path, capsys, name, write, message):
    sig_dir = tmp_path / "signals"
    sig_dir.mkdir()
    write(sig_dir / name)
    labels = tmp_path / "labels.csv"
    labels.write_text(f"trial,label\n{name.split('.')[0]},+1\n")
    assert run("extract", "--signals", sig_dir, "--labels", labels, "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err == f"error: {sig_dir / name}: {message}\n"
    assert not (tmp_path / "x").exists()


def test_extract_feature_refusal_names_the_trial_file(tmp_path, capsys):
    # three binary trials; the second has a flat channel, so its band-filtered
    # windows have zero variance
    sig_dir = tmp_path / "signals"
    sig_dir.mkdir()
    rng = np.random.default_rng(5)
    for i in range(3):
        data = rng.standard_normal((4, 8 * 128))
        if i == 1:
            data[2] = 0.0
        write_signal_binary(TrialSignal(data, 128.0, pretrial_seconds=3.0),
                            sig_dir / f"trial{i}.bin")
    labels = tmp_path / "labels.csv"
    labels.write_text("trial,label\ntrial0,+1\ntrial1,-1\ntrial2,+1\n")
    out = tmp_path / "ext"
    assert run("extract", "--signals", sig_dir, "--labels", labels, "--set", 2,
               "--out", out) == 1
    assert capsys.readouterr().err == (f"error: {sig_dir / 'trial1.bin'}: degenerate segment "
                                       "(zero variance) in a band-filtered window\n")
    assert not out.exists()


@pytest.mark.parametrize("source", [("--channels=",), {"channels": []}], ids=["flag", "config"])
def test_extract_empty_channel_list_refused(tmp_path, capsys, source):
    sig_dir, labels = make_trial_files(tmp_path, n_trials=1, n_channels=4, seconds=8.0)
    if isinstance(source, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(source))
        source = ("--config", config)
    out = tmp_path / "ext"
    assert run("extract", "--signals", sig_dir, "--labels", labels, *source, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {MESSAGES['channels']}\n"
    assert not out.exists()


def test_cli_import_leaves_out_scipy_signal_stats_and_interpolate():
    # a fresh interpreter: this one has scipy.signal from the signal tests
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = ("import sys, aucmax.cli; print(sorted(m for m in sys.modules if "
             "m.startswith(('scipy.signal', 'scipy.stats', 'scipy.interpolate'))))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"
