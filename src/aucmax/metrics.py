"""Imbalance-aware evaluation: confusion counts, threshold metrics, and
rank-statistic ROC-AUC with half credit for tied scores.  One in-package
rank-sum kernel scores a matrix of score columns at the cost of one column
sort, resolving tied scores to mean ranks only in the columns that hold
them; ``roc_auc`` is its one-column call."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

__all__ = [
    "ConfusionCounts",
    "MetricsReport",
    "confusion_counts",
    "roc_auc",
    "roc_auc_columns",
    "classification_report",
    "REPORT_CSV_HEADER",
    "report_csv_row",
    "report_to_dict",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    counts: ConfusionCounts


# A report's fields, in the order of its records: the rates, then the counts.
REPORT_CSV_HEADER = ",".join([f.name for f in fields(MetricsReport) if f.name != "counts"]
                             + [f.name for f in fields(ConfusionCounts)])


def _check_labels(values, name):
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty vector")
    if not ((arr == 1) | (arr == -1)).all():
        raise ValueError(f"{name} must contain only +1 and -1")
    return arr.astype(int)


def confusion_counts(true_labels, predicted_labels) -> ConfusionCounts:
    t = _check_labels(true_labels, "true_labels")
    p = _check_labels(predicted_labels, "predicted_labels")
    if t.size != p.size:
        raise ValueError("length mismatch between true and predicted labels")
    return ConfusionCounts(
        tp=int(np.count_nonzero((t == 1) & (p == 1))),
        fp=int(np.count_nonzero((t == -1) & (p == 1))),
        tn=int(np.count_nonzero((t == -1) & (p == -1))),
        fn=int(np.count_nonzero((t == 1) & (p == -1))),
    )


def roc_auc(scores, labels) -> float:
    """Wilcoxon-Mann-Whitney statistic: P(score+ > score-) with ties at 1/2.

    Computed from average ranks in O(N log N); exactly equals pairwise
    counting.
    """
    s = np.asarray(scores, dtype=float)
    l = _check_labels(labels, "labels")
    if s.shape != l.shape:
        raise ValueError("scores and labels must have the same length")
    return float(roc_auc_columns(s[:, None], l)[0])


def _mean_rank_sums(ranked: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Per column of the sorted scores ``ranked``, the sum of the mean ranks
    of the rows where ``positive`` (in the same sorted order) holds: a tie
    group occupying sorted positions ``start .. end - 1`` gets rank
    ``(start + end + 1) / 2``."""
    n = ranked.shape[0]
    new_value = np.ones(ranked.shape, dtype=bool)     # a tie group starts here
    np.not_equal(ranked[1:], ranked[:-1], out=new_value[1:])
    position = np.arange(n)[:, None]
    start = np.maximum.accumulate(np.where(new_value, position, 0), axis=0)
    last = np.ones(ranked.shape, dtype=bool)          # a tie group ends here
    last[:-1] = new_value[1:]
    end = np.minimum.accumulate(np.where(last, position + 1, n)[::-1], axis=0)[::-1]
    return ((start + end + 1) / 2.0 * positive).sum(axis=0)


def _positive_rank_sums(s: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Per column of ``s``, the sum of the average ranks (1-based, ties
    sharing the mean of their ranks) of the rows where ``positive`` holds.

    One column sort for all columns.  Every column's sum is first taken over
    positional ranks ``1 .. n``, one product with the sorted labels; only
    the columns whose sorted values hold an adjacent equal pair are summed
    again over mean ranks.  Every rank is a multiple of 1/2 and every sum is
    far below 2**53, so each sum is exact in any order."""
    order = np.argsort(s, axis=0)
    ranked = np.take_along_axis(s, order, axis=0)
    in_order = positive[order]
    sums = np.arange(1.0, s.shape[0] + 1) @ in_order
    tied = np.flatnonzero((ranked[1:] == ranked[:-1]).any(axis=0))
    if tied.size:
        sums[tied] = _mean_rank_sums(ranked[:, tied], in_order[:, tied])
    return sums


def roc_auc_columns(scores, labels) -> np.ndarray:
    """``roc_auc`` of each column of the N x k matrix ``scores``, from one
    sort of all columns (mean ranks only where a column holds a tie); each
    entry is bit-equal to ``roc_auc`` of its column, because average ranks
    are multiples of 1/2 far below 2**53 and every rank sum is exact."""
    s = np.asarray(scores, dtype=float)
    l = _check_labels(labels, "labels")
    if s.ndim != 2 or s.shape[0] != l.size:
        raise ValueError("scores must be a matrix with one row per label")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    n_pos = int(np.count_nonzero(l == 1))
    n_neg = l.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("single-class labels")
    rank_sum_pos = _positive_rank_sums(s, l == 1)
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def classification_report(true_labels, predicted_labels, scores) -> MetricsReport:
    """Accuracy/precision/recall/F1 from the confusion counts plus ROC-AUC.

    Zero-denominator conventions: precision = 0 when TP+FP = 0, recall = 0
    when TP+FN = 0, F1 = 0 when P+R = 0.
    """
    counts = confusion_counts(true_labels, predicted_labels)
    accuracy = (counts.tp + counts.tn) / counts.total
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    auc = roc_auc(scores, true_labels)
    return MetricsReport(
        accuracy=float(accuracy), precision=float(precision), recall=float(recall),
        f1=float(f1), auc=float(auc), counts=counts,
    )


def report_to_dict(report: MetricsReport) -> dict:
    """The report as one flat record, keyed as ``REPORT_CSV_HEADER``."""
    record = asdict(report)
    counts = record.pop("counts")
    return {**record, **counts}


def report_csv_row(report: MetricsReport) -> str:
    """The record's values under ``REPORT_CSV_HEADER``; ``.17g`` prints a count as that integer."""
    return ",".join(f"{value:.17g}" for value in report_to_dict(report).values())
