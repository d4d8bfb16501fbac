import numpy as np
import pytest

from tdntc.metrics import (
    classification_metrics,
    confusion_matrix,
    per_class_report,
    report_to_dict,
)


def brute_force_metrics(y_true, y_pred, n_classes):
    """Pair-scan oracle: per-class TP/FP/FN by direct counting, no numpy."""
    y_true, y_pred = list(y_true), list(y_pred)
    total = len(y_true)
    per_class = []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        support = sum(1 for t in y_true if t == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class.append((precision, recall, f1, support))
    accuracy = sum(1 for t, p in zip(y_true, y_pred) if t == p) / total
    macro = tuple(sum(row[k] for row in per_class) / n_classes for k in range(3))
    weighted = tuple(sum(row[k] * row[3] for row in per_class) / total
                     for k in range(3))
    return per_class, accuracy, macro, weighted


class TestConfusionMatrix:
    def test_perfect_prediction(self):
        assert confusion_matrix([0, 1], [0, 1], 2).tolist() == [[1, 0], [0, 1]]

    def test_all_wrong(self):
        counts = confusion_matrix([0, 0], [1, 1], 2)
        assert counts[0, 1] == 2
        assert counts.sum() == 2

    def test_conservation(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 5, size=100)
        y_pred = rng.integers(0, 5, size=100)
        assert confusion_matrix(y_true, y_pred, 5).sum() == 100

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            confusion_matrix([0, 3], [0, 1], 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)


class TestClassificationMetrics:
    def test_perfect_two_class(self):
        report = classification_metrics(confusion_matrix([0, 1, 0], [0, 1, 0], 2))
        assert report.accuracy == 1.0
        assert (report.precision == 1.0).all()
        assert (report.recall == 1.0).all()
        assert (report.f1 == 1.0).all()

    def test_half_precision_full_recall(self):
        # class 0: TP=1, FP=1, FN=0
        report = classification_metrics(confusion_matrix([0, 1], [0, 0], 2))
        assert report.precision[0] == 0.5
        assert report.recall[0] == 1.0
        assert report.f1[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_empty_class_reports_zeros(self):
        # class 2 never occurs in truth or prediction
        report = classification_metrics(confusion_matrix([0, 1], [0, 1], 3))
        assert report.precision[2] == report.recall[2] == report.f1[2] == 0.0
        assert report.support[2] == 0
        # and it still participates in the macro average
        assert report.macro_recall == pytest.approx(2 / 3, abs=1e-15)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n_classes = int(rng.integers(2, 11))
            n = int(rng.integers(1, 1001))
            y_true = rng.integers(0, n_classes, size=n)
            y_pred = rng.integers(0, n_classes, size=n)
            report = classification_metrics(
                confusion_matrix(y_true, y_pred, n_classes))
            per_class, accuracy, macro, weighted = brute_force_metrics(
                y_true, y_pred, n_classes)
            for c, (precision, recall, f1, support) in enumerate(per_class):
                assert report.precision[c] == precision
                assert report.recall[c] == recall
                assert report.f1[c] == pytest.approx(f1, abs=1e-15)
                assert report.support[c] == support
            assert report.accuracy == accuracy
            assert report.weighted_recall == pytest.approx(weighted[1], abs=1e-12)
            assert report.weighted_precision == pytest.approx(weighted[0], abs=1e-12)
            assert report.weighted_f1 == pytest.approx(weighted[2], abs=1e-12)
            assert report.macro_precision == pytest.approx(macro[0], abs=1e-12)

    def test_weighted_recall_equals_accuracy(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n_classes = int(rng.integers(2, 8))
            y_true = rng.integers(0, n_classes, size=200)
            y_pred = rng.integers(0, n_classes, size=200)
            report = classification_metrics(
                confusion_matrix(y_true, y_pred, n_classes))
            assert abs(report.weighted_recall - report.accuracy) <= 1e-12

    def test_accuracy_invariant_under_label_permutation(self):
        rng = np.random.default_rng(31)
        y_true = rng.integers(0, 4, size=150)
        y_pred = rng.integers(0, 4, size=150)
        base = classification_metrics(confusion_matrix(y_true, y_pred, 4)).accuracy
        perm = rng.permutation(4)
        permuted = classification_metrics(
            confusion_matrix(perm[y_true], perm[y_pred], 4)).accuracy
        assert base == permuted


class TestReportRendering:
    def test_perfect_report_rows(self):
        report = classification_metrics(confusion_matrix([0, 1], [0, 1], 2))
        text = per_class_report(report, ["chat", "video"])
        assert "chat" in text and "video" in text
        assert text.count("1.000") >= 8
        assert "accuracy" in text
        assert "macro avg" in text
        assert "weighted avg" in text

    def test_empty_class_row_is_flagged(self):
        report = classification_metrics(confusion_matrix([0, 1], [0, 1], 3))
        text = per_class_report(report, ["a", "b", "empty"])
        row = [line for line in text.splitlines() if line.startswith("empty")][0]
        assert "0.000" in row
        assert row.rstrip().endswith("0")
        assert "zero-support" in text and text.rstrip().endswith("empty")

    def test_name_count_mismatch(self):
        report = classification_metrics(confusion_matrix([0, 1], [0, 1], 2))
        with pytest.raises(ValueError):
            per_class_report(report, ["only-one"])

    def test_rows_follow_encoder_order(self):
        report = classification_metrics(confusion_matrix([0, 1, 2], [0, 1, 2], 3))
        text = per_class_report(report, ["b", "a", "c"])
        lines = [l.split()[0] for l in text.splitlines()[2:5]]
        assert lines == ["b", "a", "c"]

    def test_json_document(self):
        import json

        report = classification_metrics(confusion_matrix([0, 1], [0, 1], 2))
        doc = report_to_dict(report, ["a", "b"])
        # Plain JSON types only: the document survives a dump and a load as is.
        assert json.loads(json.dumps(doc, indent=2, sort_keys=True)) == doc
        assert doc["accuracy"] == 1.0
        assert doc["per_class"][0]["name"] == "a"
        assert doc["weighted"]["recall"] == 1.0
        assert doc["n_samples"] == 2
