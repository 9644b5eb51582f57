"""Dataset splitting, train-fitted standardization, synthetic imbalanced
Gaussian data, and the shared label-first feature CSV format with its binary
table sidecar.

The feature CSV's header, field count, order of checks and messages are
this module's; its number rule, label tags and encoding, shared with the
other CSV formats, are :mod:`aucmax._rowblocks`'s."""

from __future__ import annotations

import hashlib
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rowblocks import (ENCODING, LABEL_RULE, label_of, read_text, text_floats, usable_cpus,
                         write_rows)
from .objective import LabeledDataset
from .rules import FRACTION, NONNEGATIVE, POSITIVE_INTEGER, require

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
        require("train_fraction", self.train_fraction, FRACTION)


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
        """The standardizer ``to_dict`` stored.  ValueError unless ``means``
        and ``stds`` are finite vectors of one length, ``kept`` (not empty)
        and ``dropped`` are integer lists that hold each column once between
        them, and every kept column's std is at least ``ZERO_VARIANCE_STD``."""
        means = np.asarray(obj["means"], dtype=float)
        stds = np.asarray(obj["stds"], dtype=float)
        if means.ndim != 1 or means.shape != stds.shape or not (
                np.isfinite(means).all() and np.isfinite(stds).all()):
            raise ValueError("standardizer means and stds must be finite vectors of equal length")
        kept, dropped = obj["kept"], obj["dropped"]
        if not all(isinstance(part, list) and all(type(c) is int for c in part)
                   for part in (kept, dropped)):
            raise ValueError("standardizer kept and dropped must be lists of integers")
        if sorted(kept + dropped) != list(range(means.size)):
            raise ValueError(f"standardizer kept and dropped must hold each of the "
                             f"{means.size} columns once")
        if not kept:
            raise ValueError("standardizer keeps no column")
        if not (stds[kept] >= ZERO_VARIANCE_STD).all():
            raise ValueError("standardizer keeps a zero-variance column")
        return cls(means, stds, np.asarray(kept, dtype=int), np.asarray(dropped, dtype=int))


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
        require("n_features", self.n_features, POSITIVE_INTEGER)
        require("positive_fraction", self.positive_fraction, FRACTION)
        require("class_separation", self.class_separation, NONNEGATIVE)
        if min(self.n_positive, self.n_samples - self.n_positive) < 2:
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
    """Label-first CSV: header ``label,<names...>``, labels as +1/-1, each
    value as ``'%.17g' % v`` (enough to read every float64 back exactly).

    The rows are formatted on every CPU this process may use, streamed, by
    the vectorized number kernel of :mod:`aucmax._rowblocks`, which writes
    Python's bytes for every float64; they do not depend on how many CPUs.
    Then writes the sidecar :func:`table_path`: the 32-byte piece-tree
    SHA-256 of the CSV's bytes (:class:`_PieceDigest`, fed the chunks as they
    are written), the row and column counts as ``struct`` ``"<QQ"``, the
    labels as int8 ±1, then the values as C-order ``"<f8"``: the arrays
    :func:`read_feature_csv` returns, written from memory without a copy.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    names = list(feature_names)
    if x.ndim != 2 or x.shape != (y.size, len(names)):
        raise ValueError("features, labels and feature_names have inconsistent shapes")
    if not names:                               # the reader needs a header naming one feature
        raise ValueError("feature_names must name at least one feature")
    if len(set(names)) != len(names):
        raise ValueError("feature names must be unique")
    for name in names:
        # the reader splits the header on commas and the file with str.splitlines
        if "," in name or "".join(name.splitlines()) != name:
            raise ValueError(f"feature name {name!r} contains a comma or line break")
    if not np.isin(y, (1, -1)).all():
        raise ValueError(f"labels must be {LABEL_RULE}")
    digest = _PieceDigest()
    write_rows(path, "label," + ",".join(names), x, y, digest)
    if np.isnan(x).any():                       # the text keeps no NaN sign or payload
        x = np.where(np.isnan(x), np.nan, x)
    with open(table_path(path), "wb") as fh:
        fh.write(digest.digest() + _COUNTS.pack(*x.shape))
        fh.write(memoryview(np.where(y == 1, np.int8(1), np.int8(-1))))
        fh.write(memoryview(np.ascontiguousarray(x, dtype="<f8")))


DIGEST_PIECE = 1 << 20           # bytes per leaf of the sidecar's digest, and per read of the CSV
# The fewest digest pieces a hashing thread gets: 4 MiB, about 3 ms of SHA-256,
# so that a thread's start, open and join stay small beside its work.
THREAD_PIECES = 4
_DIGEST_TAG = b"aucmax feature table: sha256 tree of 1 MiB pieces\n"
_COUNTS = struct.Struct("<QQ")   # the sidecar's row and column counts, after the digest
_TABLE_START = 32 + _COUNTS.size


class _PieceDigest:
    """The sidecar's digest of a byte stream fed by :meth:`update`: the
    SHA-256 of ``_DIGEST_TAG``, the stream's length as 8 little-endian bytes,
    then the SHA-256 of each ``DIGEST_PIECE`` bytes in order (the last piece
    may be shorter; an empty stream has none).  The writer feeds it as it
    writes; a reader hashes the pieces apart (:func:`_hash_csv`)."""

    def __init__(self):
        self._size = 0
        self._leaves = []
        self._piece = hashlib.sha256()
        self._room = DIGEST_PIECE

    def update(self, data) -> None:
        view = memoryview(data)
        self._size += len(view)
        while len(view) >= self._room:
            self._piece.update(view[:self._room])
            view = view[self._room:]
            self._leaves.append(self._piece.digest())
            self._piece, self._room = hashlib.sha256(), DIGEST_PIECE
        self._piece.update(view)
        self._room -= len(view)

    def digest(self) -> bytes:
        tail = [self._piece.digest()] if self._room < DIGEST_PIECE else []
        return _tree_root(self._size, self._leaves + tail)


def _tree_root(size: int, leaves) -> bytes:
    return hashlib.sha256(b"".join([_DIGEST_TAG, size.to_bytes(8, "little"), *leaves])).digest()


def _hash_range(fh, start: int, stop: int, buffer: bytearray) -> list[bytes]:
    """The leaf digests of bytes ``[start, stop)`` of the open file ``fh``, a
    range of whole pieces, each read whole into ``buffer``.  ValueError if the
    file ends before ``stop``: it shrank since its size was taken."""
    fh.seek(start)
    leaves = []
    for start in range(start, stop, DIGEST_PIECE):
        piece = memoryview(buffer)[:min(DIGEST_PIECE, stop - start)]
        if fh.readinto(piece) != len(piece):
            raise ValueError("the CSV shrank while it was hashed")
        leaves.append(hashlib.sha256(piece).digest())
    return leaves


def _hash_path_range(path, start: int, stop: int, buffer: bytearray) -> list[bytes]:
    with open(path, "rb") as fh:
        return _hash_range(fh, start, stop, buffer)


def _hash_csv(path) -> tuple[bytes, bytes]:
    """The sidecar digest (:class:`_PieceDigest`) of the file ``path`` and its
    first line with the line break (the whole file if it has none).

    The calling thread opens the file once: it takes the size, reads the
    header line, then hashes the first range of pieces from the same file.
    The ranges are contiguous, one per CPU this process may use but none
    shorter than ``THREAD_PIECES`` pieces; each other range is hashed on a
    thread of its own, which opens the file itself.  Threads, not forked
    processes: ``readinto`` and SHA-256 release the interpreter lock on large
    buffers, and a thread starts far faster than a fork.  Every read buffer is
    allocated here, in the calling thread, which keeps the other threads from
    growing the heap.  Every thread is joined before this returns or raises.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.readline()
        n_pieces = -(-size // DIGEST_PIECE)
        threads = max(1, min(usable_cpus(), size // (THREAD_PIECES * DIGEST_PIECE)))
        cuts = [min(n_pieces * k // threads * DIGEST_PIECE, size) for k in range(threads + 1)]
        buffers = [bytearray(DIGEST_PIECE) for _ in range(threads)]
        with ThreadPoolExecutor(max(1, threads - 1)) as pool:
            rest = [pool.submit(_hash_path_range, path, cuts[k], cuts[k + 1], buffers[k])
                    for k in range(1, threads)]
            leaves = _hash_range(fh, 0, cuts[1], buffers[0])
            for future in rest:
                leaves += future.result()
    return _tree_root(size, leaves), head


def _read_table(path):
    """``(features, labels, names)`` from the sidecar of ``path`` if it is bound
    to the CSV's bytes, is exactly as long as its counts ask, has the CSV
    header's width and holds only ±1 labels; otherwise (no sidecar, another
    digest, another layout, truncated, garbage) ``None``.  The CSV is hashed
    only when the sidecar opens."""
    try:
        with open(table_path(path), "rb") as fh:
            digest, head = _hash_csv(path)
            start = fh.read(_TABLE_START)
            rows, cols = _COUNTS.unpack(start[32:])
            # once bound to these bytes, the CSV is the writer's: its first line is the header
            names = head[:-1].decode(ENCODING).split(",")[1:]
            if (start[:32] != digest or not head.endswith(b"\n") or cols != len(names)
                    or os.fstat(fh.fileno()).st_size != _TABLE_START + rows * (1 + 8 * cols)):
                return None
            labels = np.fromfile(fh, np.int8, rows)
            features = np.fromfile(fh, "<f8", rows * cols).reshape(rows, cols)
    except (OSError, ValueError, struct.error):
        return None
    if not np.isin(labels, (1, -1)).all():
        return None
    return features, labels.astype(int), names


def _refused_field(line: str, n_fields: int) -> str | None:
    """The first value field of the data line ``line``, of ``n_fields`` fields,
    that the number rule refuses, or None; parsed whole, then field by field."""
    try:
        text_floats([line], range(1, n_fields))
    except ValueError:
        for k, field in enumerate(line.split(",")[1:], start=1):
            try:
                text_floats([line], [k])
            except ValueError:
                return field
    return None


def read_feature_csv(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Read a label-first feature CSV into ``(features, labels, names)``.

    Blank lines are skipped and there are no comments. Labels are ``+1`` or
    ``-1`` (``1`` is read as ``+1``). Every error names the file and line;
    when a file has several, the first in line order is raised. Returns raw
    arrays: a file holding a single class (e.g. features of one trial) or no
    data rows at all is readable; construct a :class:`LabeledDataset` to
    train.

    The CSV is the source of truth. Its sidecar (:func:`table_path`) is read
    in place of parsing the text only when the digest it starts with is the
    piece-tree SHA-256 of the CSV's bytes (:class:`_PieceDigest`), its size is
    exactly what its row and column counts ask, its width is the header's and
    its labels are ±1; otherwise the text is parsed, silently (so is a sidecar
    of an older layout). Readers never write a sidecar. The digest is taken
    over the file in pieces, on every CPU of a large file (:func:`_hash_csv`),
    so a table read from its sidecar never holds the CSV text; the text is
    read whole only to be parsed.
    """
    table = _read_table(path)
    if table is not None:
        return table
    lines = read_text(path).splitlines()        # no sidecar is bound to these bytes
    if not lines:
        raise ValueError(f"{path}: empty feature file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise ValueError(f"{path}: line 1: header must start with 'label' and name one feature")
    names = header[1:]
    body = lines[1:]
    if not any(body):
        return np.empty((0, len(names))), np.empty(0, dtype=int), names
    try:                                        # numpy skips the blank lines too
        values, failure = text_floats(body, range(1, len(header))), None
    except ValueError as exc:
        values, failure = None, exc
    labels = []
    for i, line in enumerate(body, start=2):
        if not line:
            continue
        try:
            if line.count(",") != len(names):
                raise ValueError(f"expected {len(header)} fields, found {line.count(',') + 1}")
            labels.append(label_of(line[:line.index(",")]))
            if failure is not None and (field := _refused_field(line, len(header))) is not None:
                raise ValueError(f"could not convert string to float: {field!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {i}: {exc}") from None
    if failure is not None:                     # no line alone is refused
        raise ValueError(f"{path}: {failure}") from failure
    return values, np.asarray(labels, dtype=int), names


def load_labeled_csv(path) -> tuple[LabeledDataset, list[str]]:
    """Read a feature CSV that must be trainable (two classes present)."""
    features, labels, names = read_feature_csv(path)
    if labels.size == 0:
        raise ValueError(f"{path}: no data rows")
    try:
        return LabeledDataset(features, labels), names
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
