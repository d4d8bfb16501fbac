"""Confusion-matrix machinery and per-class precision/recall/F1 reporting.

Per-class scores use the one-vs-rest reduction: TP is the diagonal cell,
FP the rest of the prediction column, FN the rest of the truth row.
Accuracy is trace/total; the weighted aggregates weight classes by support
(which makes weighted recall algebraically equal to accuracy), the macro
aggregates average classes uniformly.  0/0 rates are defined as 0 so empty
classes report zeros instead of poisoning the aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class ClassReport:
    """Per-class and aggregate classification metrics."""

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    n_samples: int


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int],
                     n_classes: int) -> np.ndarray:
    """C x C int64 counts; rows are ground truth, columns are predictions."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(
            f"label vectors must be 1-D and equal length, got {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size and (min(y_true.min(), y_pred.min()) < 0
                        or max(y_true.max(), y_pred.max()) >= n_classes):
        raise IndexError(f"label index out of range for {n_classes} classes")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return counts


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    nz = den != 0
    out[nz] = num[nz] / den[nz]
    return out


def classification_metrics(counts: np.ndarray) -> ClassReport:
    """Scores of a `confusion_matrix` counts array."""
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(counts).astype(np.float64)
    support = counts.sum(axis=1).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)
    precision = _safe_div(tp, predicted)
    recall = _safe_div(tp, support)
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    weights = support / total
    return ClassReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=support.astype(np.int64),
        accuracy=float(tp.sum() / total),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        weighted_precision=float((weights * precision).sum()),
        weighted_recall=float((weights * recall).sum()),
        weighted_f1=float((weights * f1).sum()),
        n_samples=int(total),
    )


def per_class_report(report: ClassReport, class_names: Sequence[str]) -> str:
    """Fixed 3-decimal text table: one row per class plus aggregate footers."""
    n = len(report.support)
    if len(class_names) != n:
        raise ValueError(f"need {n} class names, got {len(class_names)}")
    name_w = max(12, max((len(str(c)) for c in class_names), default=0) + 2)
    header = f"{'':<{name_w}}{'precision':>10}{'recall':>10}{'f1-score':>10}{'support':>10}"
    lines = [header, ""]
    for i, name in enumerate(class_names):
        lines.append(
            f"{name:<{name_w}}{report.precision[i]:>10.3f}{report.recall[i]:>10.3f}"
            f"{report.f1[i]:>10.3f}{report.support[i]:>10d}"
        )
    lines.append("")
    lines.append(f"{'accuracy':<{name_w}}{'':>10}{'':>10}{report.accuracy:>10.3f}"
                 f"{report.n_samples:>10d}")
    lines.append(
        f"{'macro avg':<{name_w}}{report.macro_precision:>10.3f}{report.macro_recall:>10.3f}"
        f"{report.macro_f1:>10.3f}{report.n_samples:>10d}"
    )
    lines.append(
        f"{'weighted avg':<{name_w}}{report.weighted_precision:>10.3f}"
        f"{report.weighted_recall:>10.3f}{report.weighted_f1:>10.3f}{report.n_samples:>10d}"
    )
    if (report.support == 0).any():
        empty = [str(class_names[i]) for i in np.flatnonzero(report.support == 0)]
        lines.append("")
        lines.append(f"note: 0/0 rates reported as 0 for zero-support classes: "
                     f"{', '.join(empty)}")
    return "\n".join(lines)


def report_to_dict(report: ClassReport, class_names: Sequence[str]) -> dict:
    """Machine-readable form of the report, one document per evaluation."""
    return {
        "accuracy": report.accuracy,
        "n_samples": report.n_samples,
        "macro": {
            "precision": report.macro_precision,
            "recall": report.macro_recall,
            "f1": report.macro_f1,
        },
        "weighted": {
            "precision": report.weighted_precision,
            "recall": report.weighted_recall,
            "f1": report.weighted_f1,
        },
        "per_class": [
            {
                "name": str(name),
                "precision": float(report.precision[i]),
                "recall": float(report.recall[i]),
                "f1": float(report.f1[i]),
                "support": int(report.support[i]),
            }
            for i, name in enumerate(class_names)
        ],
    }
