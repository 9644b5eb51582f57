import re
import shutil
import tempfile
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


def test_feature_csv_first_error_in_line_order(tmp_path):
    path = _csv(tmp_path, "label,f0\n+1,1\n-1,oops\n+1,1,2\n")
    with pytest.raises(ValueError, match="line 3: could not convert"):
        read_feature_csv(path)


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


@pytest.mark.parametrize("damage", [
    "missing", "empty", "digest-only", "cut-in-labels-header", "cut-in-values-header",
    "cut-in-values-data", "garbage", "garbage-after-digest", "header-unbalanced",
    "header-python2", "labels-swapped", "wrong-width",
])
def test_feature_table_damaged_sidecar_falls_back_to_text(tmp_path, damage):
    path, want = written_table(tmp_path)
    sidecar = table_path(path)
    blob = sidecar.read_bytes()
    assert b"'shape': (12,)" in blob
    values_start = blob.index(b"\x93NUMPY", 40)
    narrow = tmp_path / "narrow.csv"
    write_feature_csv(narrow, want[0][:, :2], want[1], want[2][:2])
    damaged = {
        "missing": None,
        "empty": b"",
        "digest-only": blob[:32],
        "cut-in-labels-header": blob[:50],
        "cut-in-values-header": blob[:values_start + 20],
        "cut-in-values-data": blob[:-8],
        "garbage": bytes(range(256)) * 4,
        "garbage-after-digest": blob[:32] + b"\x93NUMPY\x01\x00" + bytes(range(200)),
        # numpy's header parser raises tokenize.TokenError on the first, warns on the second
        "header-unbalanced": blob.replace(b"(12,)", b"(12,(", 1),
        "header-python2": blob.replace(b"(12,)", b"(12L)", 1),
        # right digest, valid arrays, but not in the order or of the width of the CSV
        "labels-swapped": blob[:32] + blob[values_start:] + blob[32:values_start],
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
