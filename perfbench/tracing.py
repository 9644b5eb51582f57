"""Span-recording wrappers around the public functions of each aucmax module.

The wrappers are installed from the benchmark's files only, on the name
where the caller looks it up: ``aucmax.cli`` and ``aucmax.features`` import
their callees by name, so those module attributes are replaced; the
``AucProblem`` and ``Standardizer`` methods are class attributes.  Spans
live in memory; a span's self time is its duration minus the time its
child spans cover.  A span nested in an open span with the same key is not
recorded again (``fit_apply_standardizer`` calls ``Standardizer.transform``).
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import aucmax.baselines as baselines
import aucmax.cli as cli
import aucmax.data as data
import aucmax.features as features
import aucmax.metrics as metrics
import aucmax.objective as objective
import aucmax.solvers as solvers

COMMANDS = ("synth", "extract", "train", "eval", "compare")
METHODS = solvers.METHODS


def _file_bytes(key):
    def observe(tracer, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(args[0])
    return observe


def _rows(tracer, args, kwargs, result):
    tracer.counts["features.rows"] += result.n_rows


def _grad_bytes(tracer, args, kwargs, result):
    # Bytes of the feature matrix that the per-sample gradient formula reads per call.
    tracer.counts["objective.grad_bytes"] += args[0].dataset.features.nbytes


def _solve(tracer, args, kwargs, result):
    config = args[1]
    tracer.counts[f"solvers.iterations.{config.method}"] += result.iterations_used
    tracer.counts["solvers.solves"] += 1
    tracer.counts["solvers.converged"] += int(result.converged)
    tracer.counts["solvers.trace_rows"] += len(result.trace)
    tracer.counts["solvers.broyden_skips"] += len(result.notes)   # one note per skipped update


def _fit_logistic(tracer, args, kwargs, result):
    meta = result.train_meta
    tracer.counts["baselines.logistic_iterations"] += meta["iterations"]
    # Each loop iteration accepts one Armijo step, except a final one that found
    # no decrease: that ends the fit before the cap without convergence.
    stalled = not meta["converged"] and meta["iterations"] < kwargs["max_iter"]
    tracer.counts["baselines.logistic_accepted"] += meta["iterations"] - int(stalled)


def _fit_svm(tracer, args, kwargs, result):
    tracer.counts["baselines.svm_iterations"] += result.train_meta["iterations"]


# (span key, owner whose attribute is replaced, attribute name, observer)
WRAPS = (
    ("data.read_csv", data, "read_feature_csv", _file_bytes("data.read_csv_bytes")),
    ("data.write_csv", cli, "write_feature_csv", _file_bytes("data.write_csv_bytes")),
    ("data.standardize", cli, "fit_apply_standardizer", None),
    ("data.standardize", data.Standardizer, "transform", None),
    ("signals.read_trial", cli, "read_signal_csv", None),
    ("signals.read_trial", cli, "read_signal_binary", None),
    ("signals.bandpass", features, "butterworth_bandpass", None),
    ("signals.band_power", features, "band_power_psd", None),
    ("signals.segment", features, "segment", None),
    ("signals.channel_stats", features, "channel_stats", None),
    ("features.build", cli, "build_feature_sets", _rows),
    ("objective.grad", objective.AucProblem, "grad", _grad_bytes),
    ("objective.value", objective.AucProblem, "value", None),
    ("objective.hessian", objective.AucProblem, "hessian", None),
    ("solvers.solve", cli, "solve", _solve),
    ("solvers.step_estimate", solvers, "spectral_norm_estimate", None),
    ("solvers.broyden_update", solvers, "broyden_update", None),
    ("solvers.write_trace", cli, "write_trace_csv", None),
    ("metrics.roc_auc", cli, "roc_auc", None),
    ("metrics.roc_auc", metrics, "roc_auc", None),
    ("metrics.report", cli, "classification_report", None),
    ("baselines.fit_logistic", cli, "fit_logistic", _fit_logistic),
    ("baselines.fit_svm", cli, "fit_linear_svm", _fit_svm),
    ("baselines.logistic_objective", baselines, "logistic_objective", None),
)


class Tracer:
    """Records spans and counts for one traced pass at a time."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.time = defaultdict(float)          # inclusive, per key
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.by_command = defaultdict(float)    # (command, key) -> inclusive time
        self._stack = []                        # open spans: [key, start, child time]
        self._command = None

    # -- spans -----------------------------------------------------------------

    def enter(self, key):
        if key.startswith("cli."):
            self._command = key[4:]
        self._stack.append([key, time.perf_counter(), 0.0])

    def exit(self):
        key, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.calls[key] += 1
        self.time[key] += duration
        self.self_time[key] += duration - child
        self.by_command[(self._command, key)] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _is_open(self, key):
        return any(span[0] == key for span in self._stack)

    # -- installation ----------------------------------------------------------

    def install(self):
        for key, owner, name, observe in WRAPS:
            original = owner.__dict__[name]
            setattr(owner, name, self._wrapper(key, original, observe))
            self._patches.append((owner, name, original))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrapper(self, key, original, observe):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._is_open(key):
                return original(*args, **kwargs)
            tracer.enter(key)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- per-layer metrics of the recorded pass ----------------------------------

    def layer_metrics(self) -> dict[str, float]:
        c, t, s = self.calls, self.time, self.self_time
        n = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "data.read_csv_calls": c["data.read_csv"],
            "data.read_csv_s": t["data.read_csv"],
            "data.read_csv_bytes": n["data.read_csv_bytes"],
            "data.write_csv_s": t["data.write_csv"],
            "data.write_csv_bytes": n["data.write_csv_bytes"],
            "data.standardize_s": t["data.standardize"],
            "signals.read_trial_calls": c["signals.read_trial"],
            "signals.read_trial_s": t["signals.read_trial"],
            "signals.bandpass_calls": c["signals.bandpass"],
            "signals.bandpass_s": t["signals.bandpass"],
            "signals.band_power_s": t["signals.band_power"],
            "signals.segment_s": t["signals.segment"],
            "signals.channel_stats_s": t["signals.channel_stats"],
            "features.build_calls": c["features.build"],
            "features.build_s": t["features.build"],
            "features.build_self_s": s["features.build"],
            "features.rows": n["features.rows"],
            "objective.grad_calls": c["objective.grad"],
            "objective.grad_s": t["objective.grad"],
            "objective.grad_bytes": n["objective.grad_bytes"],
            "objective.value_calls": c["objective.value"],
            "objective.value_s": t["objective.value"],
            "objective.hessian_calls": c["objective.hessian"],
            "objective.hessian_s": t["objective.hessian"],
            "solvers.solve_s": t["solvers.solve"],
            "solvers.solve_self_s": s["solvers.solve"],
            "solvers.converged_ratio": ratio(n["solvers.converged"], n["solvers.solves"]),
            "solvers.step_estimate_s": t["solvers.step_estimate"],
            "solvers.broyden_update_calls": c["solvers.broyden_update"],
            "solvers.broyden_update_s": t["solvers.broyden_update"],
            "solvers.broyden_skip_ratio": ratio(n["solvers.broyden_skips"],
                                                c["solvers.broyden_update"]),
            "solvers.trace_rows": n["solvers.trace_rows"],
            "solvers.write_trace_s": t["solvers.write_trace"],
            "metrics.roc_auc_calls": c["metrics.roc_auc"],
            "metrics.roc_auc_s": t["metrics.roc_auc"],
            "metrics.report_s": t["metrics.report"],
            "baselines.fit_logistic_calls": c["baselines.fit_logistic"],
            "baselines.fit_logistic_s": t["baselines.fit_logistic"],
            "baselines.fit_svm_calls": c["baselines.fit_svm"],
            "baselines.fit_svm_s": t["baselines.fit_svm"],
            "baselines.logistic_iterations": n["baselines.logistic_iterations"],
            "baselines.svm_iterations": n["baselines.svm_iterations"],
            "baselines.logistic_objective_calls": c["baselines.logistic_objective"],
            "baselines.logistic_accept_ratio": ratio(n["baselines.logistic_accepted"],
                                                     c["baselines.logistic_objective"]),
        }
        for method in METHODS:
            m[f"solvers.iterations.{method}"] = n[f"solvers.iterations.{method}"]
        for command in COMMANDS:
            m[f"cli.{command}_self_s"] = s[f"cli.{command}"]
        return m

    def design_split(self) -> dict[str, float]:
        """Shares of each command's time spent in the layers the workload is
        designed to stress (see ``layers.json``)."""
        b = self.by_command

        def share(command, keys):
            total = b[(command, f"cli.{command}")]
            return sum(b[(command, k)] for k in keys) / total if total else 0.0

        return {
            "baselines_share_of_compare": share(
                "compare", ("baselines.fit_logistic", "baselines.fit_svm")),
            "solve_share_of_train": share("train", ("solvers.solve",)),
            "extract_work_share_of_extract": share(
                "extract", ("features.build", "signals.read_trial", "data.write_csv")),
        }
