"""Dataset splitting, train-fitted standardization, synthetic imbalanced
Gaussian data, and the shared label-first feature CSV format."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .objective import LabeledDataset

__all__ = [
    "SplitSpec",
    "Standardizer",
    "SynthSpec",
    "split",
    "fit_apply_standardizer",
    "generate_synthetic",
    "write_feature_csv",
    "read_feature_csv",
    "load_labeled_csv",
]

ZERO_VARIANCE_STD = 1e-12


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")


def split(dataset: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle into train/test; stratified mode keeps each class's
    train share within one sample of the requested fraction."""
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        train_parts, test_parts = [], []
        for label in (1, -1):                   # fixed class order for reproducibility
            idx = np.flatnonzero(dataset.labels == label)
            idx = idx[rng.permutation(idx.size)]
            k = int(round(spec.train_fraction * idx.size))
            if k < 1 or k >= idx.size:
                raise ValueError("too few samples per class to stratify")
            train_parts.append(idx[:k])
            test_parts.append(idx[k:])
        train_idx = np.concatenate(train_parts)
        test_idx = np.concatenate(test_parts)
        train_idx = train_idx[rng.permutation(train_idx.size)]
        test_idx = test_idx[rng.permutation(test_idx.size)]
    else:
        perm = rng.permutation(dataset.n_samples)
        k = int(round(spec.train_fraction * dataset.n_samples))
        if k < 1 or k >= dataset.n_samples:
            raise ValueError("split would leave an empty subset")
        train_idx, test_idx = perm[:k], perm[k:]

    try:
        train = LabeledDataset(dataset.features[train_idx], dataset.labels[train_idx])
        test = LabeledDataset(dataset.features[test_idx], dataset.labels[test_idx])
    except ValueError as exc:
        raise ValueError(f"split produced an invalid subset ({exc}); use stratified mode") from exc
    return train, test


@dataclass
class Standardizer:
    """Per-column center/scale fitted on training rows only; zero-variance
    columns are recorded and dropped from everything it transforms."""

    means: np.ndarray
    stds: np.ndarray
    kept: np.ndarray
    dropped: np.ndarray

    def transform(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.means.size:
            raise ValueError(
                f"feature width mismatch: expected {self.means.size}, got {x.shape}"
            )
        return (x[:, self.kept] - self.means[self.kept]) / self.stds[self.kept]

    def to_dict(self) -> dict:
        return {
            "means": self.means.tolist(),
            "stds": self.stds.tolist(),
            "kept": self.kept.tolist(),
            "dropped": self.dropped.tolist(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Standardizer":
        return cls(
            means=np.asarray(obj["means"], dtype=float),
            stds=np.asarray(obj["stds"], dtype=float),
            kept=np.asarray(obj["kept"], dtype=int),
            dropped=np.asarray(obj["dropped"], dtype=int),
        )


def fit_apply_standardizer(
    train: LabeledDataset, test: LabeledDataset
) -> tuple[LabeledDataset, LabeledDataset, Standardizer]:
    """Standardize both splits with train-only statistics (no leakage)."""
    if train.n_features != test.n_features:
        raise ValueError("train and test feature widths differ")
    means = train.features.mean(axis=0)
    stds = train.features.std(axis=0, ddof=1)
    keep = stds >= ZERO_VARIANCE_STD
    if not keep.any():
        raise ValueError("all columns are zero-variance")
    standardizer = Standardizer(
        means=means, stds=stds, kept=np.flatnonzero(keep), dropped=np.flatnonzero(~keep)
    )
    train_std = LabeledDataset(standardizer.transform(train.features), train.labels.copy())
    test_std = LabeledDataset(standardizer.transform(test.features), test.labels.copy())
    return train_std, test_std, standardizer


@dataclass(frozen=True)
class SynthSpec:
    n_samples: int
    n_features: int
    positive_fraction: float = 1.0 / 3.0
    class_separation: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 4:
            raise ValueError("need at least four samples")
        if self.n_features < 1:
            raise ValueError("need at least one feature")
        if not 0.0 < self.positive_fraction < 1.0:
            raise ValueError("positive_fraction must lie strictly between 0 and 1")
        if self.class_separation < 0.0:
            raise ValueError("class_separation must be nonnegative")
        n_pos = int(round(self.positive_fraction * self.n_samples))
        if n_pos < 2 or self.n_samples - n_pos < 2:
            raise ValueError("each class needs at least two samples")

    @property
    def n_positive(self) -> int:
        return int(round(self.positive_fraction * self.n_samples))


def generate_synthetic(spec: SynthSpec) -> LabeledDataset:
    """Two isotropic Gaussian classes, means at +/-(sep/2)/sqrt(d) * ones(d)."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_samples, spec.n_features
    n_pos = spec.n_positive
    offset = 0.5 * spec.class_separation * np.ones(d) / np.sqrt(d)
    features = rng.standard_normal((n, d))
    labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n - n_pos, dtype=int)])
    labels = labels[rng.permutation(n)]
    features[labels == 1] += offset
    features[labels == -1] -= offset
    return LabeledDataset(features, labels)


def write_feature_csv(path, features, labels, feature_names):
    """Label-first CSV: header ``label,<names...>``, labels as +1/-1, values
    at 17 significant digits (enough to read every float64 back exactly)."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    names = list(feature_names)
    if x.ndim != 2 or x.shape != (y.size, len(names)):
        raise ValueError("features, labels and feature_names have inconsistent shapes")
    if len(set(names)) != len(names):
        raise ValueError("feature names must be unique")
    for name in names:
        # the reader splits the header on commas and the file with str.splitlines
        if "," in name or "".join(name.splitlines()) != name:
            raise ValueError(f"feature name {name!r} contains a comma or line break")
    if not np.isin(y, (1, -1)).all():
        raise ValueError("labels must be +1 or -1")
    row_format = ",".join(["%.17g"] * len(names))
    lines = ["label," + ",".join(names)]
    for label, row in zip(y, x):
        # one row at a time: a whole-matrix tolist() holds every value as a Python float
        lines.append(("+1," if label == 1 else "-1,") + row_format % tuple(row.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def _loadtxt(lines, n_fields: int) -> np.ndarray:
    """numpy's C parser over the value columns of label-first data lines.
    ``comments=None``: a ``#`` is part of a value, not a comment."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float,
                      usecols=range(1, n_fields))


def _parse_values(path, data, numbers, n_fields: int) -> np.ndarray:
    """Parse the data lines (file line ``numbers``) in one numpy call; on
    failure raise naming the first line and value the parser rejects."""
    try:
        return _loadtxt(data, n_fields)
    except ValueError as exc:
        for i, line in zip(numbers, data):
            try:
                _loadtxt([line], n_fields)
            except ValueError:
                for field in line.split(",")[1:]:
                    try:
                        _loadtxt(["+1," + field], 2)
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {i}: could not convert string to float: {field!r}"
                        ) from exc
        raise ValueError(f"{path}: {exc}") from exc


def read_feature_csv(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Read a label-first feature CSV into ``(features, labels, names)``.

    Blank lines are skipped and there are no comments. Labels are ``+1`` or
    ``-1`` (``1`` is read as ``+1``). Every error names the file and line;
    when a file has several, the first in line order is raised. Returns raw
    arrays: a file holding a single class (e.g. features of one trial) or no
    data rows at all is readable; construct a :class:`LabeledDataset` to
    train.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty feature file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise ValueError(f"{path}: line 1: header must start with 'label' and name one feature")
    names = header[1:]
    labels, data, numbers = [], [], []
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        error = None
        if line.count(",") != len(names):
            error = f"expected {len(header)} fields, found {line.count(',') + 1}"
        elif (tag := line[:line.index(",")]) not in ("+1", "-1", "1"):
            error = f"label must be +1 or -1, found {tag!r}"
        if error:
            if data:
                _parse_values(path, data, numbers, len(header))   # a bad value above comes first
            raise ValueError(f"{path}: line {i}: {error}")
        labels.append(-1 if tag == "-1" else 1)
        data.append(line)
        numbers.append(i)
    if not data:
        return np.empty((0, len(names))), np.empty(0, dtype=int), names
    return _parse_values(path, data, numbers, len(header)), np.asarray(labels, dtype=int), names


def load_labeled_csv(path) -> tuple[LabeledDataset, list[str]]:
    """Read a feature CSV that must be trainable (two classes present)."""
    features, labels, names = read_feature_csv(path)
    if labels.size == 0:
        raise ValueError(f"{path}: no data rows")
    try:
        return LabeledDataset(features, labels), names
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
