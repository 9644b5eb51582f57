import hashlib
import re
import shutil
import struct
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucmax import data
from aucmax.baselines import decision_scores, fit_logistic
from aucmax.cli import main
from aucmax.data import (
    SplitSpec,
    load_labeled_csv,
    Standardizer,
    SynthSpec,
    fit_apply_standardizer,
    generate_synthetic,
    read_feature_csv,
    split,
    table_path,
    write_feature_csv,
)
from aucmax.metrics import roc_auc
from aucmax.objective import LabeledDataset


def two_to_one(n=30, seed=5):
    return generate_synthetic(SynthSpec(n, 3, positive_fraction=1 / 3,
                                        class_separation=1.0, seed=seed))


# --- split

def test_split_sizes():
    ds = two_to_one(10, seed=1)
    train, test = split(ds, SplitSpec(train_fraction=0.8, seed=0))
    assert train.n_samples == 8 and test.n_samples == 2


def test_split_stratified_counts():
    # 30 samples at 2:1 -> 20 negatives; 0.8 of each class in train
    ds = two_to_one(30)
    train, _ = split(ds, SplitSpec(train_fraction=0.8, seed=3))
    negatives = int(np.count_nonzero(train.labels == -1))
    assert abs(negatives - 16) <= 1              # round(0.8 * 20) = 16
    positives = int(np.count_nonzero(train.labels == 1))
    assert abs(positives - 8) <= 1


def test_split_deterministic_and_partition():
    ds = two_to_one(60, seed=2)
    spec = SplitSpec(train_fraction=0.8, seed=11)
    a_train, a_test = split(ds, spec)
    b_train, b_test = split(ds, spec)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.labels, b_test.labels)
    stacked = np.vstack([a_train.features, a_test.features])
    assert stacked.shape == ds.features.shape
    original = {tuple(row) for row in ds.features}
    assert {tuple(row) for row in stacked} == original
    assert a_train.n_samples + a_test.n_samples == ds.n_samples


def test_split_too_few_per_class():
    ds = LabeledDataset(np.arange(8, dtype=float).reshape(4, 2), [1, -1, -1, -1])
    with pytest.raises(ValueError, match="too few samples"):
        split(ds, SplitSpec(train_fraction=0.9, seed=0))


# --- standardizer

def test_standardizer_hand_case():
    train = LabeledDataset(np.array([[1.0], [3.0]]), [1, -1])
    test = LabeledDataset(np.array([[2.0], [5.0]]), [1, -1])
    train2, test2, st = fit_apply_standardizer(train, test)
    assert train2.features[:, 0] == pytest.approx([-0.7071067811865475, 0.7071067811865475])
    assert test2.features[0, 0] == 0.0           # test value at the train mean
    assert st.stds[0] == pytest.approx(np.sqrt(2))


def test_standardizer_drops_constant_columns():
    train = LabeledDataset(np.array([[1.0, 7.0], [3.0, 7.0], [2.0, 7.0]]), [1, -1, -1])
    test = LabeledDataset(np.array([[0.0, 7.0], [4.0, 9.0]]), [1, -1])
    train2, test2, st = fit_apply_standardizer(train, test)
    assert train2.n_features == 1 and test2.n_features == 1
    assert list(st.dropped) == [1]


def test_standardizer_no_leakage():
    rng = np.random.default_rng(0)
    train = LabeledDataset(rng.standard_normal((20, 3)), np.where(rng.random(20) < 0.5, 1, -1))
    if abs(train.labels.sum()) == 20:
        train.labels[0] *= -1
    test_a = LabeledDataset(rng.standard_normal((5, 3)), [1, -1, 1, -1, 1])
    test_b = LabeledDataset(100.0 + rng.standard_normal((5, 3)), [1, -1, 1, -1, 1])
    _, _, st_a = fit_apply_standardizer(train, test_a)
    _, _, st_b = fit_apply_standardizer(train, test_b)
    assert np.array_equal(st_a.means, st_b.means)
    assert np.array_equal(st_a.stds, st_b.stds)


def test_standardizer_all_constant_errors():
    train = LabeledDataset(np.ones((4, 2)), [1, 1, -1, -1])
    with pytest.raises(ValueError, match="zero-variance"):
        fit_apply_standardizer(train, train)


def test_standardizer_round_trip_dict():
    train = LabeledDataset(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]]), [1, -1, 1])
    _, _, st = fit_apply_standardizer(train, train)
    st2 = Standardizer.from_dict(st.to_dict())
    assert np.array_equal(st2.transform(train.features), st.transform(train.features))


# --- synthetic generator

def test_synthetic_positive_fraction_and_determinism():
    spec = SynthSpec(301, 7, positive_fraction=1 / 3, class_separation=2.0, seed=9)
    ds = generate_synthetic(spec)
    fraction = np.count_nonzero(ds.labels == 1) / ds.n_samples
    assert abs(fraction - 1 / 3) <= 1.0 / ds.n_samples
    again = generate_synthetic(spec)
    assert np.array_equal(ds.features, again.features)
    assert np.array_equal(ds.labels, again.labels)


def test_synthetic_zero_separation_auc_band():
    ds = generate_synthetic(SynthSpec(2000, 10, 1 / 3, class_separation=0.0, seed=4))
    train, test = split(ds, SplitSpec(0.8, seed=0))
    train2, test2, _ = fit_apply_standardizer(train, test)
    model = fit_logistic(train2, C=1.0)
    auc = roc_auc(decision_scores(model, test2.features), test2.labels)
    assert 0.4 <= auc <= 0.6


def test_synthetic_separated_auc_high():
    ds = generate_synthetic(SynthSpec(2000, 10, 1 / 3, class_separation=4.0, seed=2))
    train, test = split(ds, SplitSpec(0.8, seed=0))
    train2, test2, _ = fit_apply_standardizer(train, test)
    model = fit_logistic(train2, C=1.0)
    auc = roc_auc(decision_scores(model, test2.features), test2.labels)
    assert auc >= 0.95                           # Gaussian oracle: Phi(sep/sqrt(2)) ~ 0.998


def test_synthetic_validation():
    with pytest.raises(ValueError):
        SynthSpec(3, 2)
    with pytest.raises(ValueError, match="at least two"):
        SynthSpec(10, 2, positive_fraction=0.05)


# --- feature CSV

def test_feature_csv_round_trip(tmp_path):
    ds = two_to_one(12, seed=8)
    names = [f"f{i}" for i in range(ds.n_features)]
    path = tmp_path / "features.csv"
    write_feature_csv(path, ds.features, ds.labels, names)
    features, labels, loaded_names = read_feature_csv(path)
    assert loaded_names == names
    assert np.array_equal(features, ds.features)          # 17 digits round-trip exactly
    assert np.array_equal(labels, ds.labels)
    dataset, names2 = load_labeled_csv(path)
    assert np.array_equal(dataset.labels, ds.labels) and names2 == names


def test_feature_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("notlabel,f0\n+1,1.0\n")
    with pytest.raises(ValueError, match="line 1"):
        read_feature_csv(path)
    path.write_text("label,f0\n+2,1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        read_feature_csv(path)
    path.write_text("label,f0\n+1,1.0,9.0\n")
    with pytest.raises(ValueError, match="fields"):
        read_feature_csv(path)


# Reference implementations: the per-value parser and writer that the
# numpy-backed ones replaced.  Outputs must stay bit-identical to these.

def reference_write_feature_csv(path, features, labels, feature_names):
    x = np.asarray(features, dtype=float)
    lines = ["label," + ",".join(feature_names)]
    for label, row in zip(np.asarray(labels), x):
        tag = "+1" if label == 1 else "-1"
        lines.append(tag + "," + ",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def reference_read_feature_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    labels, rows = [], []
    for line in lines[1:]:
        if not line:
            continue
        fields = line.split(",")
        labels.append(1 if fields[0] in ("+1", "1") else -1)
        rows.append([float(f) for f in fields[1:]])
    return np.asarray(rows, dtype=float), np.asarray(labels, dtype=int), header[1:]


@st.composite
def feature_tables(draw):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 6))
    bits = st.integers(0, 2**64 - 1).map(lambda b: np.array(b, dtype=np.uint64).view(np.float64))
    values = draw(st.lists(bits.filter(np.isfinite), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return np.array(values, dtype=float).reshape(n, d), np.array(labels)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(feature_tables())
def test_feature_csv_matches_reference_bit_for_bit(table):
    features, labels = table
    names = [f"f{i}" for i in range(features.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        write_feature_csv(new, features, labels, names)
        reference_write_feature_csv(ref, features, labels, names)
        assert new.read_bytes() == ref.read_bytes()
        got, got_labels, got_names = read_feature_csv(new)
        want, want_labels, want_names = reference_read_feature_csv(new)
    assert got.shape == want.shape == features.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), features.view(np.uint64))
    assert np.array_equal(got_labels, want_labels) and got_names == want_names


def _csv(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_feature_csv_bad_value_names_its_line(tmp_path):
    path = _csv(tmp_path, "label,f0,f1\n+1,1,2\n-1,3,4\n+1,5,x\n")
    with pytest.raises(ValueError, match=r"line 4: could not convert string to float: 'x'"):
        read_feature_csv(path)


@pytest.mark.parametrize("text, line, value", [
    ("label,f0,f1\n+1,1,\n", 2, "''"),
    ("label,f0\n+1,1\n-1,1_0\n", 3, "'1_0'"),      # float() accepts '1_0'; the format does not
], ids=["empty", "underscore"])
def test_feature_csv_empty_field_and_underscore_name_their_line(tmp_path, text, line, value):
    path = _csv(tmp_path, text)
    message = f"{path}: line {line}: could not convert string to float: {value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_feature_csv(path)


def test_feature_csv_blank_lines_skipped_and_counted(tmp_path):
    path = _csv(tmp_path, "label,f0\n\n+1,1\n\n-1,2\n\n")
    features, labels, _ = read_feature_csv(path)
    assert features.tolist() == [[1.0], [2.0]] and labels.tolist() == [1, -1]
    path = _csv(tmp_path, "label,f0\n\n+1,1\n\n-1,bad\n")
    with pytest.raises(ValueError, match="line 5: could not convert"):
        read_feature_csv(path)


def test_feature_csv_hash_is_not_a_comment(tmp_path):
    path = _csv(tmp_path, "label,f0,f1\n+1,1#2,3\n")
    with pytest.raises(ValueError, match=r"line 2: could not convert string to float: '1#2'"):
        read_feature_csv(path)


@pytest.mark.parametrize("text, line, error", [
    ("label,f0\n+1,1\n-1,oops\n+1,1,2\n", 3, "could not convert string to float: 'oops'"),
    ("label,f0,f1\n+1,1,2\n-1,oops,3\n+1,1\n", 3, "could not convert string to float: 'oops'"),
    ("label,f0,f1\n+1,1,2\n-1,3\n+1,x,2\n", 3, "expected 3 fields, found 2"),
    ("label,f0\n+1,1\n+2,1\n-1,oops\n", 3, "label must be +1 or -1, found '+2'"),
    # numpy's one call over every line ignores the extra field; the field count does not
    ("label,f0\n+1,1\n-1,2,zz\n+1,oops\n", 3, "expected 2 fields, found 3"),
    ("label,f0,f1\n" + "+1,1,2\n-1,3,4\n" * 2499 + "+1,5,bad\n", 5000,
     "could not convert string to float: 'bad'"),
], ids=["value-above-long-line", "value-above-short-line", "short-line-above-value",
        "tag-above-value", "extra-field-above-value", "value-on-last-of-5000-lines"])
def test_feature_csv_first_error_in_line_order(tmp_path, text, line, error):
    path = _csv(tmp_path, text)
    with pytest.raises(ValueError) as excinfo:
        read_feature_csv(path)
    assert str(excinfo.value) == f"{path}: line {line}: {error}"


def test_feature_csv_single_row_is_2d_and_label_1_accepted(tmp_path):
    path = _csv(tmp_path, "label,f0,f1\n1,0.5,-2\n")
    features, labels, names = read_feature_csv(path)
    assert features.shape == (1, 2) and features.tolist() == [[0.5, -2.0]]
    assert labels.tolist() == [1] and names == ["f0", "f1"]


def test_feature_csv_crlf_reads_like_lf(tmp_path):
    ds = two_to_one(9, seed=3)
    lf = tmp_path / "lf.csv"
    write_feature_csv(lf, ds.features, ds.labels, ["a", "b", "c"])
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    for got, want in zip(read_feature_csv(crlf), read_feature_csv(lf)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("labels", [[0, 1], [2, -1], [1, -2]])
def test_feature_csv_writer_rejects_labels_outside_plus_minus_one(tmp_path, labels):
    with pytest.raises(ValueError, match=r"labels must be \+1 or -1"):
        write_feature_csv(tmp_path / "x.csv", np.zeros((2, 1)), labels, ["f0"])
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("bad", ["a,b", "a\nb", "a\r", "\x0bb"])
def test_feature_csv_writer_rejects_unreadable_names(tmp_path, bad):
    with pytest.raises(ValueError, match="comma or line break"):
        write_feature_csv(tmp_path / "x.csv", np.zeros((2, 2)), [1, -1], ["ok", bad])
    assert not (tmp_path / "x.csv").exists()


def test_feature_csv_writer_rejects_zero_feature_names(tmp_path):
    with pytest.raises(ValueError, match="^feature_names must name at least one feature$"):
        write_feature_csv(tmp_path / "x.csv", np.zeros((2, 0)), [1, -1], [])
    assert not (tmp_path / "x.csv").exists()
    assert not table_path(tmp_path / "x.csv").exists()


def test_feature_csv_header_only(tmp_path):
    path = _csv(tmp_path, "label,f0,f1\n")
    features, labels, names = read_feature_csv(path)
    assert features.shape == (0, 2) and labels.shape == (0,) and names == ["f0", "f1"]
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: no data rows$"):
        load_labeled_csv(path)


@pytest.mark.parametrize("text, message", [
    ("label,f0\n+1,nan\n-1,1\n", "features contain NaN or Inf"),
    ("label,f0\n+1,1\n+1,2\n", "single-class dataset"),
], ids=["nan", "single-class"])
def test_load_labeled_csv_errors_name_the_file(tmp_path, text, message):
    path = _csv(tmp_path, text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
        load_labeled_csv(path)


# --- binary table sidecar

def read_with_source(path):
    """``read_feature_csv(path)``, which must not warn, and where it came
    from: "table" or "text"."""
    results = []
    real = data._read_table

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    with mock.patch.object(data, "_read_table", spy), warnings.catch_warnings():
        warnings.simplefilter("error")
        table = read_feature_csv(path)
    return table, "text" if results == [None] else "table"


def read_by_text(path):
    table, source = read_with_source(path)
    assert source == "text"
    return table


def read_by_table(path):
    table, source = read_with_source(path)
    assert source == "table"
    return table


def assert_tables_equal(got, want):
    assert np.array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
    assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def written_table(tmp_path, seed=8, n=12, name="features.csv"):
    ds = two_to_one(n, seed=seed)
    path = tmp_path / name
    names = [f"s{seed}_{i}" for i in range(ds.n_features)]
    write_feature_csv(path, ds.features, ds.labels, names)
    return path, (ds.features, ds.labels, names)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(feature_tables())
def test_feature_table_sidecar_matches_text_path_bit_for_bit(table):
    features, labels = table
    names = [f"f{i}" for i in range(features.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        write_feature_csv(path, features, labels, names)
        assert table_path(path) == Path(tmp) / "features.csv.table"
        got = read_by_table(path)
        table_path(path).unlink()
        want = read_by_text(path)
    assert got[0].shape == features.shape and got[0].flags.c_contiguous
    assert_tables_equal(got, want)
    assert_tables_equal(got, (features, labels, names))


def test_feature_table_nan_and_fortran_order_read_like_the_text(tmp_path):
    negative_nan = np.array(0xFFF8000000000001, dtype=np.uint64).view(np.float64)
    features = np.asfortranarray([[negative_nan, 1.0], [np.nan, -0.0], [np.inf, 2.0]])
    path = tmp_path / "t.csv"
    write_feature_csv(path, features, [1, -1, 1], ["a", "b"])
    got = read_by_table(path)
    table_path(path).unlink()
    assert got[0].flags.c_contiguous
    assert_tables_equal(got, read_by_text(path))


def test_feature_table_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_feature_csv(path, np.empty((0, 2)), [], ["a", "b"])
    got = read_by_table(path)
    table_path(path).unlink()
    assert got[0].shape == (0, 2)
    assert_tables_equal(got, read_by_text(path))


def test_feature_table_not_used_after_the_csv_changed(tmp_path):
    path, (features, labels, _) = written_table(tmp_path)
    raw = bytearray(path.read_bytes())
    i = raw.rindex(b",") + 1                    # the leading digit of the last value
    i += raw[i:i + 1] == b"-"
    raw[i] = ord("0") + (raw[i] - ord("0") + 1) % 10
    path.write_bytes(raw)
    got = read_by_text(path)
    assert got[0][-1, -1] != features[-1, -1]
    assert np.array_equal(got[0][:-1], features[:-1]) and np.array_equal(got[1], labels)
    # replaced by another table's CSV: that table is what reads back
    other, want = written_table(tmp_path, seed=2, n=9, name="other.csv")
    shutil.copyfile(other, path)
    assert_tables_equal(read_by_text(path), want)


@pytest.mark.parametrize("piece", [1, 7, 64])
def test_feature_table_hashes_the_csv_in_pieces(tmp_path, monkeypatch, piece):
    monkeypatch.setattr(data, "DIGEST_PIECE", piece)
    path, want = written_table(tmp_path)        # its header spans several pieces

    def whole_read(self):
        raise AssertionError(f"read whole: {self}")

    monkeypatch.setattr(Path, "read_bytes", whole_read)
    assert_tables_equal(read_by_table(path), want)


def test_feature_table_not_used_for_a_csv_without_a_line_break(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"label,a")
    digest = data._PieceDigest()
    digest.update(b"label,a")
    assert data._hash_csv(path) == (digest.digest(), b"label,a")
    # bound to the bytes, and counts of the right width for a size that fits them
    table_path(path).write_bytes(digest.digest() + struct.pack("<QQ", 0, 1))
    assert_tables_equal(read_by_text(path), (np.empty((0, 1)), np.empty(0, dtype=int), ["a"]))


def test_feature_table_layout_of_a_two_by_one_table(tmp_path):
    path = tmp_path / "t.csv"
    write_feature_csv(path, [[1.5], [-2.0]], [1, -1], ["a"])
    assert path.read_bytes() == b"label,a\n+1,1.5\n-1,-2\n"
    assert table_path(path).read_bytes() == bytes.fromhex(
        "18afb77fde3cc105bfffd1f671044cd5b6bc6fe3fa43f545d36b34e8442ae470"   # digest
        "0200000000000000" "0100000000000000"   # rows, cols
        "01ff"                                  # labels +1, -1
        "000000000000f83f" "00000000000000c0")  # values 1.5, -2.0
    assert table_path(path).read_bytes()[:32] == reference_digest(path.read_bytes(), 1 << 20)
    assert_tables_equal(read_by_table(path), (np.array([[1.5], [-2.0]]), np.array([1, -1]), ["a"]))


def test_feature_table_label_other_than_plus_minus_one_falls_back_to_text(tmp_path):
    path = tmp_path / "t.csv"
    write_feature_csv(path, [[1.0], [2.0], [3.0]], [1, -1, 1], ["a"])
    sidecar = table_path(path)
    blob = bytearray(sidecar.read_bytes())
    assert blob[48:51] == b"\x01\xff\x01"
    blob[48] = 7                                # still bound, the size still right
    sidecar.write_bytes(blob)
    assert data._hash_csv(path)[0] == blob[:32]
    got = read_by_text(path)
    assert got[1].tolist() == [1, -1, 1]


def test_feature_table_with_a_plain_sha256_is_not_used(tmp_path):
    path, want = written_table(tmp_path)        # the sidecar layout of older releases
    sidecar = table_path(path)
    sidecar.write_bytes(hashlib.sha256(path.read_bytes()).digest() + sidecar.read_bytes()[32:])
    assert_tables_equal(read_by_text(path), want)


def test_feature_table_of_the_np_save_layout_is_not_used(tmp_path):
    path, want = written_table(tmp_path)        # the digest, then two np.save streams
    sidecar = table_path(path)
    with open(sidecar, "r+b") as fh:
        fh.truncate(32)
        fh.seek(32)
        np.save(fh, want[1], allow_pickle=False)
        np.save(fh, want[0], allow_pickle=False)
    assert sidecar.read_bytes()[:32] == reference_digest(path.read_bytes(), 1 << 20)
    assert_tables_equal(read_by_text(path), want)


def reference_digest(raw, piece):
    """The sidecar digest by its definition, hashed one piece after another."""
    leaves = [hashlib.sha256(raw[i:i + piece]).digest() for i in range(0, len(raw), piece)]
    return hashlib.sha256(data._DIGEST_TAG + len(raw).to_bytes(8, "little")
                          + b"".join(leaves)).digest()


@pytest.fixture
def hash_threads(monkeypatch):
    """hash_threads(cpus, piece=64): digest pieces (and reads) of ``piece``
    bytes (None: the default), as few as one per hashing thread, and ``cpus``
    CPUs, so that a small file is hashed on up to ``cpus`` threads."""
    monkeypatch.setattr(data, "THREAD_PIECES", 1)

    def set_threads(cpus, piece=64):
        monkeypatch.setattr(data, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(data, "DIGEST_PIECE", piece or DEFAULT_PIECE)
    return set_threads


DEFAULT_PIECE = data.DIGEST_PIECE
HASH_CPUS = (1, 2, 3)
HASH_PIECES = (1, 7, 64, None)                  # digest piece sizes, each also the read size


@pytest.mark.parametrize("size", [0, 63, 64, 65, 191, 192, 193])
def test_table_digest_does_not_depend_on_threads_or_reads(tmp_path, hash_threads, size):
    # a header line longer than a 64-byte piece, so it ends past the first range
    text = b"label," + b"ab" * 40 + b"\n" + bytes(range(256))
    raw = text[:size]
    head = raw[:raw.index(b"\n") + 1] if b"\n" in raw else raw
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    threads = threading.active_count()
    for piece in HASH_PIECES:
        want = reference_digest(raw, piece or DEFAULT_PIECE)
        for cpus in HASH_CPUS:
            hash_threads(cpus, piece)
            assert data._hash_csv(path) == (want, head), (cpus, piece)
            assert threading.active_count() == threads
        for chunk in (1, 7, 64, 100):           # the writer's digest, fed as it writes
            digest = data._PieceDigest()
            for i in range(0, size, chunk):
                digest.update(raw[i:i + chunk])
            assert digest.digest() == want, (piece, chunk)


@pytest.mark.parametrize("piece", HASH_PIECES)
@pytest.mark.parametrize("cpus", HASH_CPUS)
def test_feature_table_bound_read_does_not_depend_on_threads_or_reads(tmp_path, hash_threads,
                                                                     cpus, piece):
    hash_threads(cpus, piece)
    path, want = written_table(tmp_path)
    raw = path.read_bytes()
    assert table_path(path).read_bytes()[:32] == reference_digest(raw, piece or DEFAULT_PIECE)
    threads = threading.active_count()
    assert_tables_equal(read_by_table(path), want)
    assert threading.active_count() == threads


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("cpus", HASH_CPUS)
def test_feature_table_edit_in_any_piece_falls_back_to_text(tmp_path, hash_threads, cpus, where):
    hash_threads(cpus)
    path, (features, labels, _) = written_table(tmp_path, n=24)   # its last piece holds a value
    raw = bytearray(path.read_bytes())
    n_pieces = -(-len(raw) // 64)
    start = 64 * {"first": 0, "middle": n_pieces // 2, "last": n_pieces - 1}[where]
    # the first leading digit of a value in the piece: editing it changes the value
    i = next(i for i in range(start, min(start + 64, len(raw)))
             if raw[i:i + 1].isdigit() and raw[:i].rstrip(b"-").endswith(b","))
    raw[i] = ord("0") + (raw[i] - ord("0") + 1) % 10
    path.write_bytes(raw)
    threads = threading.active_count()
    got = read_by_text(path)
    assert threading.active_count() == threads
    assert (got[0] != features).sum() == 1 and np.array_equal(got[1], labels)


def test_feature_table_read_of_a_csv_gone_before_a_thread_opens_it(tmp_path, hash_threads,
                                                                   monkeypatch):
    path, _ = written_table(tmp_path)

    def cpus():         # asked after the CSV's size is taken, before any thread opens it
        path.unlink()
        return 3

    hash_threads(3)
    monkeypatch.setattr(data, "usable_cpus", cpus)
    threads = threading.active_count()
    with pytest.raises(FileNotFoundError):
        data._hash_csv(path)
    assert threading.active_count() == threads
    with pytest.raises(FileNotFoundError):
        read_feature_csv(path)
    assert threading.active_count() == threads


@pytest.mark.parametrize("damage", [
    "missing", "empty", "digest-only", "cut-in-counts", "cut-in-labels", "cut-in-values-data",
    "one-trailing-byte", "garbage", "garbage-after-digest", "rows-2**63", "counts-2**63",
    "labels-swapped", "wrong-width",
])
def test_feature_table_damaged_sidecar_falls_back_to_text(tmp_path, damage):
    path, want = written_table(tmp_path)
    sidecar = table_path(path)
    blob = sidecar.read_bytes()
    assert blob[32:48] == struct.pack("<QQ", 12, 3) and len(blob) == 48 + 12 + 8 * 12 * 3
    values_start = 48 + 12
    narrow = tmp_path / "narrow.csv"
    write_feature_csv(narrow, want[0][:, :2], want[1], want[2][:2])
    damaged = {
        "missing": None,
        "empty": b"",
        "digest-only": blob[:32],
        "cut-in-counts": blob[:40],
        "cut-in-labels": blob[:values_start - 5],
        "cut-in-values-data": blob[:-8],
        "one-trailing-byte": blob + b"\0",
        "garbage": bytes(range(256)) * 4,
        "garbage-after-digest": blob[:32] + bytes(range(200)),
        # counts whose size overflows 64 bits: the size rule is taken in Python integers
        "rows-2**63": blob[:32] + struct.pack("<QQ", 2 ** 63, 3) + blob[48:],
        "counts-2**63": blob[:32] + struct.pack("<QQ", 2 ** 63, 2 ** 63) + blob[48:],
        # right digest, right size, but not in the order or of the width of the CSV
        "labels-swapped": blob[:48] + blob[values_start:] + blob[48:values_start],
        "wrong-width": blob[:32] + table_path(narrow).read_bytes()[32:],
    }[damage]
    if damaged is None:
        sidecar.unlink()
    else:
        sidecar.write_bytes(damaged)
    assert_tables_equal(read_by_text(path), want)
    assert not sidecar.exists() if damaged is None else sidecar.read_bytes() == damaged


def test_feature_table_bad_csv_next_to_old_sidecar_names_its_line(tmp_path):
    path, _ = written_table(tmp_path)
    path.write_text("label,s8_0,s8_1,s8_2\n+1,1,2,3\n-1,4,x,6\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: could not convert"):
        read_feature_csv(path)
