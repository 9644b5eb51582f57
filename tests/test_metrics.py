import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from aucmax.metrics import (
    REPORT_CSV_HEADER,
    ConfusionCounts,
    _check_labels,
    _positive_rank_sums,
    classification_report,
    confusion_counts,
    report_csv_row,
    report_to_dict,
    roc_auc,
    roc_auc_columns,
)


def brute_force_auc(scores, labels):
    """O(N^2) pairwise counting oracle with half credit for ties."""
    s = np.asarray(scores, dtype=float)
    l = np.asarray(labels)
    pos = s[l == 1]
    neg = s[l == -1]
    wins = np.count_nonzero(pos[:, None] > neg[None, :])
    ties = np.count_nonzero(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def random_scored_labels(seed, max_n=200):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    labels = np.where(rng.random(n) < 0.4, 1, -1)
    if abs(labels.sum()) == n:
        labels[0] *= -1
    if seed % 2:                                 # discrete scores force ties
        scores = rng.integers(0, 5, n).astype(float)
    else:
        scores = rng.standard_normal(n)
    return scores, labels


# --- roc_auc

def test_auc_examples():
    assert roc_auc([0.9, 0.4, 0.5], [1, 1, -1]) == 0.5       # (1 win + 0 ties) / 2
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [-1, -1, 1, 1]) == 1.0
    assert roc_auc([0.5, 0.5], [1, -1]) == 0.5               # tie counts half


def test_auc_matches_brute_force_exactly():
    for seed in range(400):
        scores, labels = random_scored_labels(seed)
        assert roc_auc(scores, labels) == brute_force_auc(scores, labels)


def test_auc_monotone_transform_invariant():
    rng = np.random.default_rng(5)
    scores = rng.standard_normal(80)
    labels = np.where(rng.random(80) < 0.5, 1, -1)
    labels[0], labels[1] = 1, -1
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-15)
    assert roc_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-15)


def test_auc_complement_symmetry():
    rng = np.random.default_rng(6)
    scores = rng.standard_normal(60)             # continuous draws: no ties
    labels = np.where(rng.random(60) < 0.4, 1, -1)
    labels[0], labels[1] = 1, -1
    assert roc_auc(-scores, labels) == pytest.approx(1.0 - roc_auc(scores, labels), abs=1e-12)


def test_auc_errors():
    with pytest.raises(ValueError, match="single-class"):
        roc_auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError, match="length"):
        roc_auc([0.1, 0.2, 0.3], [1, -1])
    with pytest.raises(ValueError, match="finite"):
        roc_auc([np.nan, 0.2], [1, -1])


def test_auc_columns_equal_roc_auc_bit_for_bit():
    rng = np.random.default_rng(8)
    for seed in range(40):
        _, labels = random_scored_labels(seed)
        n = labels.size
        columns = [rng.standard_normal(n),                  # continuous: no ties
                   rng.integers(0, 4, n).astype(float),     # heavy ties
                   np.full(n, 2.5),                         # constant: every score tied
                   np.where(labels == 1, 1.0, 0.0)]         # perfect separation
        block = np.column_stack(columns)
        aucs = roc_auc_columns(block, labels)
        assert aucs.shape == (len(columns),)
        for j, column in enumerate(columns):
            assert aucs[j] == roc_auc(column, labels)
            assert roc_auc_columns(block[:, j:j + 1], labels)[0] == roc_auc(column, labels)
    assert roc_auc_columns(np.full((3, 1), 7.0), [1, -1, -1])[0] == 0.5


def rankdata_auc_columns(scores, labels):
    """Per-column AUC from ``scipy.stats.rankdata`` average ranks."""
    labels = np.asarray(labels)
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = labels.size - n_pos
    rank_sum_pos = rankdata(scores, axis=0)[labels == 1].sum(axis=0)
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def test_auc_columns_bit_equal_to_rankdata_reference():
    rng = np.random.default_rng(17)
    for n in (2, 3, 17, 600, 3001):
        for n_pos in {1, max(1, n // 3), n - 1}:
            labels = np.full(n, -1)
            labels[rng.permutation(n)[:n_pos]] = 1
            noise = rng.standard_normal((n, 16))
            block = np.column_stack([
                noise[:, :8],
                np.round(noise[:, 8:14], 1),                 # tie-heavy
                np.full(n, -3.25),                           # every score tied
                np.where(labels == 1, 0.0, 1.0),             # two tie groups, reversed
            ])
            aucs = roc_auc_columns(block, labels)
            assert np.array_equal(aucs, rankdata_auc_columns(block, labels))
            for j in range(block.shape[1]):
                assert aucs[j] == roc_auc(block[:, j], labels)


TIE_KINDS = ("untied", "tied-first", "tied-last", "tied-positives", "tied-negatives",
             "tied-throughout")


@st.composite
def tied_blocks(draw):
    """Labels with both classes and a score block whose columns are each
    untied, or tied only at the lowest or highest sorted positions, only among
    positives, only among negatives, or throughout."""
    n = draw(st.integers(2, 40))
    labels = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
    labels[:2] = draw(st.permutations([1, -1]))           # both classes
    columns = []
    for kind in draw(st.lists(st.sampled_from(TIE_KINDS), min_size=1, max_size=8)):
        column = np.array(draw(st.permutations(range(n))), dtype=float)
        column *= draw(st.sampled_from([1.0, -0.5, 1e-300, 3e300 / n]))
        if kind in ("tied-first", "tied-last"):
            size = draw(st.integers(2, n))
            ascending = np.argsort(column)
            rows = ascending[:size] if kind == "tied-first" else ascending[-size:]
            column[rows] = column[rows[0]]
        elif kind in ("tied-positives", "tied-negatives"):
            rows = np.flatnonzero(labels == (1 if kind == "tied-positives" else -1))
            if rows.size >= 2:
                tied = draw(st.lists(st.sampled_from(rows.tolist()), min_size=2, unique=True))
                column[tied] = column[tied[0]]
        elif kind == "tied-throughout":
            column[:] = draw(st.sampled_from([0.0, -0.0, 2.5]))
        columns.append(column)
    return np.column_stack(columns), labels


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tied_blocks())
def test_auc_columns_equal_brute_force_on_mixed_tie_patterns(block):
    scores, labels = block
    aucs = roc_auc_columns(scores, labels)
    for j in range(scores.shape[1]):
        assert aucs[j] == brute_force_auc(scores[:, j], labels)


@pytest.mark.parametrize("column, labels, auc", [
    ([0.0, 1.0], [-1, 1], 1.0),
    ([1.0, 0.0], [-1, 1], 0.0),
    ([3.0, 3.0], [-1, 1], 0.5),
    ([-0.0, 0.0], [1, -1], 0.5),                           # equal scores: one tie group
], ids=["ordered", "reversed", "tied", "signed-zeros"])
def test_auc_columns_two_rows(column, labels, auc):
    block = np.column_stack([column, np.arange(2.0), np.zeros(2)])
    aucs = roc_auc_columns(block, labels)
    assert aucs[0] == auc == brute_force_auc(column, labels)
    assert aucs[1] == brute_force_auc(np.arange(2.0), labels) and aucs[2] == 0.5


def test_one_row_rank_sums_and_refusal():
    assert np.array_equal(_positive_rank_sums(np.array([[4.0, -1.0, 0.0]]), np.array([True])),
                          [1.0, 1.0, 1.0])
    assert np.array_equal(_positive_rank_sums(np.array([[4.0, -1.0]]), np.array([False])),
                          [0.0, 0.0])
    with pytest.raises(ValueError, match="single-class"):
        roc_auc_columns(np.zeros((1, 3)), [1])


@pytest.mark.parametrize("labels", [
    np.array([True, False]),
    np.array(["1", "-1"]),
    np.array([1, None], dtype=object),
    np.array(["+1", -1], dtype=object),
    [1.0, np.nan],
    [1, 0],
    [1, 2],
    [1.0, -1.0, 0.5],
], ids=["bool", "string", "object-none", "object-string", "nan", "zero", "two", "fraction"])
def test_check_labels_refuses_anything_but_plus_minus_one(labels):
    with pytest.raises(ValueError, match="^labels must contain only \\+1 and -1$"):
        _check_labels(labels, "labels")


@pytest.mark.parametrize("labels", [[1.0, -1.0], [1, -1], np.array([1, -1], dtype=np.int8)],
                         ids=["float", "int", "int8"])
def test_check_labels_accepts_plus_minus_one(labels):
    checked = _check_labels(labels, "labels")
    assert checked.dtype == int and checked.tolist() == [1, -1]


def test_auc_columns_errors():
    with pytest.raises(ValueError, match="one row per label"):
        roc_auc_columns([0.1, 0.2], [1, -1])                # a vector, not a matrix
    with pytest.raises(ValueError, match="one row per label"):
        roc_auc_columns(np.zeros((3, 2)), [1, -1])
    with pytest.raises(ValueError, match="finite"):
        roc_auc_columns([[0.1, np.inf], [0.2, 0.3]], [1, -1])
    with pytest.raises(ValueError, match="single-class"):
        roc_auc_columns(np.zeros((2, 2)), [-1, -1])


# --- classification report

def test_report_hand_case():
    # TP=3 FP=1 FN=2 TN=4
    true = np.array([1, 1, 1, 1, 1, -1, -1, -1, -1, -1])
    pred = np.array([1, 1, 1, -1, -1, 1, -1, -1, -1, -1])
    scores = np.where(pred == 1, 1.0, 0.0)
    report = classification_report(true, pred, scores)
    assert report.counts == ConfusionCounts(tp=3, fp=1, tn=4, fn=2)
    assert report.accuracy == pytest.approx(0.7)
    assert report.precision == pytest.approx(0.75)
    assert report.recall == pytest.approx(0.6)
    assert report.f1 == pytest.approx(2 * 0.45 / 1.35)


def test_report_perfect_predictions():
    true = np.array([1, -1, 1, -1])
    scores = np.array([2.0, -2.0, 3.0, -1.0])
    report = classification_report(true, true, scores)
    assert (report.accuracy, report.precision, report.recall, report.f1, report.auc) == (
        1.0, 1.0, 1.0, 1.0, 1.0,
    )


def test_report_all_negative_predictor():
    # 2:1 negative:positive, degenerate predictor
    true = np.array([1, 1, -1, -1, -1, -1])
    pred = -np.ones(6, dtype=int)
    report = classification_report(true, pred, np.zeros(6))
    assert report.recall == 0.0
    assert report.precision == 0.0              # TP + FP = 0 convention
    assert report.f1 == 0.0
    assert report.accuracy == pytest.approx(4 / 6)


def test_counts_identity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        true = np.where(rng.random(n) < 0.5, 1, -1)
        pred = np.where(rng.random(n) < 0.5, 1, -1)
        c = confusion_counts(true, pred)
        assert c.total == n
        assert (c.tp + c.tn) / n == pytest.approx(np.mean(true == pred))


def test_report_serialization():
    true = np.array([1, -1, 1, -1])
    scores = np.array([0.9, 0.1, 0.8, 0.4])
    report = classification_report(true, np.where(scores > 0.5, 1, -1), scores)
    obj = report_to_dict(report)
    assert list(obj) == ["accuracy", "precision", "recall", "f1", "auc", "tp", "fp", "tn", "fn"]
    row = report_csv_row(report)
    assert REPORT_CSV_HEADER == "accuracy,precision,recall,f1,auc,tp,fp,tn,fn"
    assert REPORT_CSV_HEADER.split(",") == list(obj)
    fields = row.split(",")
    assert len(fields) == 9
    assert float(fields[0]) == report.accuracy
    assert int(fields[5]) == report.counts.tp


def test_report_errors():
    with pytest.raises(ValueError):
        classification_report([], [], [])
    with pytest.raises(ValueError, match="length"):
        classification_report([1, -1], [1], [0.5, 0.2])
