"""Dataset splitting, train-fitted standardization, synthetic imbalanced
Gaussian data, and the shared label-first feature CSV format with its binary
table sidecar."""

from __future__ import annotations

import hashlib
import locale
import math
import os
import warnings
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
    "table_path",
    "load_labeled_csv",
]

ZERO_VARIANCE_STD = 1e-12


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")


def split(dataset: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded stratified shuffle into train/test: each class's train share is
    within one sample of the requested fraction, and each side keeps at least
    one sample of each class."""
    rng = np.random.default_rng(spec.seed)
    train_parts, test_parts = [], []
    for label in (1, -1):                       # fixed class order for reproducibility
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
    train = LabeledDataset(dataset.features[train_idx], dataset.labels[train_idx])
    test = LabeledDataset(dataset.features[test_idx], dataset.labels[test_idx])
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


def table_path(csv_path) -> Path:
    """The binary sidecar of a feature CSV: ``features.csv`` -> ``features.csv.table``.

    Its suffix is neither ``.csv`` nor ``.bin``, so ``extract`` never takes it
    for a trial file.
    """
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.name + ".table")


def write_feature_csv(path, features, labels, feature_names):
    """Label-first CSV: header ``label,<names...>``, labels as +1/-1, values
    at 17 significant digits (enough to read every float64 back exactly).

    Then writes the sidecar :func:`table_path`: the SHA-256 of the CSV's
    bytes, followed by two ``np.save`` streams, the labels (int) and the
    values (float64), exactly as :func:`read_feature_csv` returns them.
    """
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
    encoding = locale.getpreferredencoding(False)          # the encoding of Path.write_text
    row_format = ",".join(["%.17g"] * len(names))

    def lines():
        yield "label," + ",".join(names)
        for label, row in zip(y, x):
            # one row at a time: a whole-matrix tolist() holds every value as a Python float
            yield ("+1," if label == 1 else "-1,") + row_format % tuple(row.tolist())

    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in lines():                    # streamed: the whole text is never held
            chunk = (line + "\n").encode(encoding)
            digest.update(chunk)
            fh.write(chunk)
    if np.isnan(x).any():                       # the text keeps no NaN sign or payload
        x = np.where(np.isnan(x), np.nan, x)
    with open(table_path(path), "wb") as fh:
        fh.write(digest.digest())
        np.save(fh, np.where(y == 1, 1, -1), allow_pickle=False)
        np.save(fh, np.ascontiguousarray(x), allow_pickle=False)


def _load_npy(fh, dtype) -> np.ndarray:
    """The next ``np.save`` stream of ``fh``. Raises ValueError unless it holds
    a C-order array of ``dtype`` whose data fits in the rest of the file,
    checked from its header before any data is read."""
    start = fh.tell()
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("unsupported array format")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # numpy warns on some corrupt headers
            shape, fortran_order, found = np.lib.format.read_array_header_1_0(fh)
    except Exception as exc:                    # and raises Value/Type/Syntax/TokenError on others
        raise ValueError("unreadable array header") from exc
    if (fortran_order or found != np.dtype(dtype)
            or math.prod(shape) * found.itemsize > os.fstat(fh.fileno()).st_size - fh.tell()):
        raise ValueError("array does not match the sidecar")
    fh.seek(start)
    return np.lib.format.read_array(fh, allow_pickle=False)


def _read_table(path, raw: bytes):
    """``(features, labels, names)`` from the sidecar of ``path`` if it is bound
    to the CSV bytes ``raw`` and its arrays fit the CSV header; otherwise (no
    sidecar, another digest, truncated, garbage) ``None``."""
    try:
        with open(table_path(path), "rb") as fh:
            if fh.read(32) != hashlib.sha256(raw).digest():
                return None
            labels = _load_npy(fh, int)
            features = _load_npy(fh, float)
        # bound to these bytes, so the CSV is the writer's: its first line is the header
        header = raw[:raw.index(b"\n")].decode(locale.getpreferredencoding(False)).split(",")
    except (OSError, ValueError):
        return None
    if labels.ndim != 1 or features.shape != (labels.size, len(header) - 1):
        return None
    return features, labels, header[1:]


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

    The CSV is the source of truth. Its sidecar (:func:`table_path`) is read
    in place of parsing the text only when the SHA-256 it starts with is that
    of the CSV's bytes and its arrays have the header's width and one label
    per row; otherwise the text is parsed, silently. Readers never write a
    sidecar.
    """
    raw = Path(path).read_bytes()
    table = _read_table(path, raw)
    if table is not None:
        return table
    lines = raw.decode(locale.getpreferredencoding(False)).splitlines()   # as Path.read_text
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
