"""Output checks.  A command whose outputs fail a check counts as failed.

Training splits are rebuilt with the public ``data.split`` and
``fit_apply_standardizer`` from an independent ``np.loadtxt`` read of the
feature table.  The AUC objective is a jointly quadratic saddle problem,
``grad(z) = H (z - z*)``, so a point with gradient norm ``g`` lies within
``g / sigma_min(H)`` of the unique saddle ``z*``: every converged solver is
checked against ``z*`` with that bound, which also makes all converged
solvers agree.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from aucmax.data import SplitSpec, Standardizer, fit_apply_standardizer, split
from aucmax.features import build_feature_sets, default_channel_indices
from aucmax.metrics import roc_auc
from aucmax.objective import (
    LabeledDataset,
    ObjectiveParams,
    PrimalDualState,
    gradient,
    hessian,
)
from aucmax.signals import DEFAULT_BANDS, WindowSpec

from workloads import sha256_file, trial_labels

AUC_TOLERANCE = 1e-12        # reported vs recomputed AUC: same scores, same ranks
FP_SLACK = 1e-6              # relative slack on the gradient and saddle-distance bounds
TRAIN_FRACTION = 0.8


def _json(path: Path):
    return json.loads(Path(path).read_text())


class Checker:
    """Checks one workload's command outputs; caches tables, splits and saddles
    by file content so repeated passes stay cheap."""

    def __init__(self, workload):
        self.workload = workload
        self._tables: dict = {}
        self._splits: dict = {}
        self._saddles: dict = {}
        self._first_sha: dict = {}
        self._reference_rows: dict = {}

    def check(self, cmd) -> list[str]:
        try:
            return getattr(self, f"_check_{cmd.kind}")(cmd)
        except (OSError, ValueError, KeyError, TypeError, IndexError,
                np.linalg.LinAlgError) as exc:
            return [f"{cmd.kind}: unreadable output ({type(exc).__name__}: {exc})"]

    # -- shared helpers ------------------------------------------------------

    def _table(self, path):
        sha = sha256_file(path)
        if sha not in self._tables:
            raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            self._tables[sha] = LabeledDataset(raw[:, 1:], raw[:, 0].astype(int))
        return sha, self._tables[sha]

    def _split(self, path, seed):
        sha, dataset = self._table(path)
        key = (sha, seed)
        if key not in self._splits:
            train, test = split(dataset, SplitSpec(train_fraction=TRAIN_FRACTION, seed=seed))
            self._splits[key] = fit_apply_standardizer(train, test)
        return key, self._splits[key]

    def _saddle(self, key, train_std, lam):
        """Unique saddle z* = -H^-1 b and the smallest |eigenvalue| of H."""
        if (key, lam) not in self._saddles:
            params = ObjectiveParams.from_dataset(train_std, lam=lam)
            zero = PrimalDualState.zeros(train_std.n_features)
            h = hessian(zero, train_std, params)
            gx, gy = gradient(zero, train_std, params)
            z_star = -np.linalg.solve(h, np.concatenate([gx, [gy]]))
            sigma_min = float(np.min(np.abs(np.linalg.eigvalsh(h))))
            self._saddles[(key, lam)] = (params, z_star, sigma_min)
        return self._saddles[(key, lam)]

    def _same_bytes(self, tag, path) -> list[str]:
        sha = sha256_file(path)
        first = self._first_sha.setdefault(tag, sha)
        return [] if sha == first else [f"{tag}: output bytes differ from the first pass"]

    @staticmethod
    def _auc_errors(tag, reported, scores, labels) -> list[str]:
        expected = roc_auc(scores, labels)
        if abs(float(reported) - expected) > AUC_TOLERANCE:
            return [f"{tag}: reported AUC {reported!r} != recomputed {expected!r}"]
        return []

    def _saddle_errors(self, tag, model, results, key, train_std, tol, cap) -> list[str]:
        lam = float(model["lambda"])
        params, z_star, sigma_min = self._saddle(key, train_std, lam)
        w = np.asarray(model["w"], dtype=float)
        state = PrimalDualState(w=w, u=model["u"], v=model["v"], y=model["y"])
        gx, gy = gradient(state, train_std, params)
        g_norm = float(np.sqrt(gx @ gx + gy * gy))
        if not results["converged"]:
            if results["iterations_used"] != cap:
                return [f"{tag}: not converged but stopped at {results['iterations_used']} "
                        f"iterations, cap is {cap}"]
            return []
        errors = []
        if g_norm > tol * (1.0 + FP_SLACK):
            errors.append(f"{tag}: converged but gradient norm {g_norm:.3e} > tolerance {tol}")
        distance = float(np.linalg.norm(state.pack() - z_star))
        bound = g_norm / sigma_min * (1.0 + FP_SLACK) + FP_SLACK * float(np.linalg.norm(z_star))
        if distance > bound:
            errors.append(f"{tag}: {distance:.3e} from the unique saddle, bound {bound:.3e}")
        return errors

    # -- per command -----------------------------------------------------------

    def _check_synth(self, cmd) -> list[str]:
        path = cmd.out / "features.csv"
        _, data = self._table(path)
        p = cmd.params
        errors = self._same_bytes("synth", path)
        if data.features.shape != (p["n"], p["dim"]):
            errors.append(f"synth: table shape {data.features.shape}")
        if int(np.count_nonzero(data.labels == 1)) != round(p["pos_frac"] * p["n"]):
            errors.append("synth: positive count does not match --pos-frac")
        return errors

    def _check_train(self, cmd) -> list[str]:
        p = cmd.params
        tag = f"train {p['solver']}"
        key, (train_std, test_std, standardizer) = self._split(p["table"], p["seed"])
        model = _json(cmd.out / "model.json")
        report = _json(cmd.out / "report.json")
        results = _json(cmd.out / "manifest.json")["results"]
        errors = self._standardizer_errors(tag, model, standardizer)
        errors += self._saddle_errors(tag, model, results, key, train_std, p["tol"], p["cap"])
        w = np.asarray(model["w"], dtype=float)
        for part, data in (("train", train_std), ("test", test_std)):
            errors += self._auc_errors(f"{tag} {part}", report[part]["auc"],
                                       data.features @ w, data.labels)
        return errors

    def _check_eval(self, cmd) -> list[str]:
        p = cmd.params
        _, data = self._table(p["table"])
        model = _json(p["model"])
        report = _json(cmd.out / "report.json")
        standardizer = Standardizer.from_dict(model["train_meta"]["standardizer"])
        scores = standardizer.transform(data.features) @ np.asarray(model["w"], dtype=float)
        return self._auc_errors("eval", report["auc"], scores, data.labels)

    def _check_compare(self, cmd) -> list[str]:
        p = cmd.params
        key, (train_std, test_std, standardizer) = self._split(p["table"], p["seed"])
        rows = _json(cmd.out / "comparison.json")["rows"]
        results = _json(cmd.out / "manifest.json")["results"]
        models = {
            "logistic": _json(cmd.out / "model_logistic.json"),
            "linear-svm": _json(cmd.out / "model_svm.json"),
            "auc-max": _json(cmd.out / "model_auc.json"),
        }
        errors = []
        for label, model in models.items():
            errors += self._standardizer_errors(f"compare {label}", model, standardizer)
        errors += self._saddle_errors("compare auc-max", models["auc-max"], results, key,
                                      train_std, p["tol"], p["cap"])
        splits = {"train": train_std, "test": test_std}
        if len(rows) != 2 * len(models):
            errors.append(f"compare: {len(rows)} report rows, expected {2 * len(models)}")
        for row in rows:
            model, data = models[row["model"]], splits[row["split"]]
            if "w" in model:
                scores = data.features @ np.asarray(model["w"], dtype=float)
            else:
                beta = np.asarray(model["beta"], dtype=float)
                scores = beta[0] + data.features @ beta[1:]
            errors += self._auc_errors(f"compare {row['model']} {row['split']}", row["auc"],
                                       scores, data.labels)
        return errors

    def _check_extract(self, cmd) -> list[str]:
        return self.check_table(cmd.out, int(cmd.params["trials"]), int(cmd.params["set"]))

    def check_table(self, out_dir, trials, set_id) -> list[str]:
        """Width from the layout manifest, trials x rows-per-trial rows, labels
        per trial, and the first trial's rows bit-equal to a direct
        ``build_feature_sets`` call."""
        path = Path(out_dir) / "features.csv"
        tag = f"extract set {set_id}"
        layout = _json(Path(out_dir) / "manifest.json")["layout"]
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            n_rows = sum(1 for line in fh if line.strip())
        per_trial = self.workload.scale.rows_per_trial
        errors = self._same_bytes(tag, path)
        if len(header) - 1 != layout["n_features"]:
            errors.append(f"{tag}: {len(header) - 1} columns, manifest says {layout['n_features']}")
        if n_rows != trials * per_trial:
            errors.append(f"{tag}: {n_rows} rows, expected {trials} x {per_trial}")
            return errors
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        expected_labels = np.repeat(trial_labels(trials), per_trial)
        if not np.array_equal(raw[:, 0].astype(int), expected_labels):
            errors.append(f"{tag}: label column does not follow the trial labels")
        reference = self._reference(set_id)
        if reference.shape != (per_trial, raw.shape[1] - 1):
            errors.append(f"{tag}: direct extraction gives shape {reference.shape}")
        elif not np.array_equal(raw[:per_trial, 1:], reference):
            errors.append(f"{tag}: first trial's rows differ from build_feature_sets")
        return errors

    def _reference(self, set_id):
        if set_id not in self._reference_rows:
            fm = build_feature_sets(
                self.workload.first_trial, channels=default_channel_indices(),
                spec=WindowSpec(), set_id=set_id, bands=DEFAULT_BANDS,
            )
            self._reference_rows[set_id] = fm.values
        return self._reference_rows[set_id]

    @staticmethod
    def _standardizer_errors(tag, model, standardizer) -> list[str]:
        stored = model["train_meta"]["standardizer"]
        if not (np.array_equal(np.asarray(stored["means"]), standardizer.means)
                and np.array_equal(np.asarray(stored["stds"]), standardizer.stds)
                and list(stored["kept"]) == standardizer.kept.tolist()):
            return [f"{tag}: stored standardizer differs from the rebuilt training split"]
        return []
