"""Confusion-matrix accumulation and the precision/recall/F1 stack.

The published per-class rates this suite anchors to are
(P,R,F1) = (0.87,0.83,0.85), (0.81,0.89,0.85), (0.96,0.90,0.93) with
supports (205,205,189); their aggregates round to weighted F1 0.88,
macro F1 0.88, and accuracy 0.87.
"""

from fractions import Fraction

import numpy as np
import pytest

from bcnn.errors import ConfigError, ConsistencyError, DimensionError
from bcnn.metrics import (
    ClassMetrics,
    ConfusionMatrix,
    aggregate_report,
    f1_score,
    format_report,
    report_from_matrix,
    round_display,
    write_report_csv,
)

REFERENCE_ROWS = [
    ClassMetrics("fatigue", 0.87, 0.83, 0.85, 205),
    ClassMetrics("linear", 0.81, 0.89, 0.85, 205),
    ClassMetrics("potholes", 0.96, 0.90, 0.93, 189),
]


def matrix_from(counts, names=("a", "b", "c")):
    cm = ConfusionMatrix(names[:len(counts)])
    cm.matrix = np.array(counts, dtype=np.int64)
    return cm


def random_matrix(rng, k=3, high=60):
    counts = rng.integers(0, high, size=(k, k))
    counts[np.arange(k), np.arange(k)] += 1  # keep every support positive
    return matrix_from(counts, names=tuple(f"c{i}" for i in range(k)))


# ---------------------------------------------------------------------------
# accumulation


def test_accumulate_perfect_predictions():
    cm = ConfusionMatrix(["a", "b", "c"])
    cm.accumulate(np.array([0, 0, 1, 1, 1, 2]), np.array([0, 0, 1, 1, 1, 2]))
    assert np.array_equal(cm.matrix, np.diag([2, 3, 1]))
    assert cm.matrix.sum(axis=1).tolist() == [2, 3, 1]
    assert cm.matrix.sum() == 6


def test_accumulate_direct_counting():
    cm = ConfusionMatrix(["a", "b"])
    cm.accumulate(np.array([0, 0, 1]), np.array([0, 1, 1]))
    assert np.array_equal(cm.matrix, np.array([[1, 1], [0, 1]]))


def test_accumulate_is_associative():
    rng = np.random.default_rng(0)
    t = rng.integers(0, 3, size=40)
    p = rng.integers(0, 3, size=40)
    whole = ConfusionMatrix(["a", "b", "c"])
    whole.accumulate(t, p)
    halves = ConfusionMatrix(["a", "b", "c"])
    halves.accumulate(t[:17], p[:17])
    halves.accumulate(t[17:], p[17:])
    assert np.array_equal(whole.matrix, halves.matrix)


def test_accumulate_validation():
    cm = ConfusionMatrix(["a", "b"])
    with pytest.raises(ConsistencyError):
        cm.accumulate(np.array([0, 2]), np.array([0, 0]))
    with pytest.raises(ConsistencyError):
        cm.accumulate(np.array([0, 0]), np.array([-1, 0]))
    with pytest.raises(DimensionError):
        cm.accumulate(np.array([0, 1]), np.array([0]))
    with pytest.raises(DimensionError):
        cm.accumulate(np.array([0.0, 1.0]), np.array([0, 1]))
    with pytest.raises(ConfigError):
        ConfusionMatrix(["only"])
    with pytest.raises(ConfigError):
        ConfusionMatrix(["a", "a"])


# ---------------------------------------------------------------------------
# per-class metrics


def test_f1_from_published_rate_pairs():
    assert round_display(f1_score(0.87, 0.83)) == 0.85
    assert round_display(f1_score(0.81, 0.89)) == 0.85
    assert round_display(f1_score(0.96, 0.90)) == 0.93
    assert f1_score(0.0, 0.0) == 0.0
    with pytest.raises(ConfigError):
        f1_score(-0.1, 0.5)


def test_class_report_perfect_matrix():
    rows = report_from_matrix(matrix_from(np.diag([4, 5, 6]))).per_class
    for row in rows:
        assert row.precision == 1.0 and row.recall == 1.0 and row.f1 == 1.0
    assert [r.support for r in rows] == [4, 5, 6]


def test_class_report_direct_counting():
    rows = report_from_matrix(matrix_from([[5, 1, 0], [1, 4, 0], [0, 0, 6]])).per_class
    assert rows[0].precision == 5 / 6
    assert rows[0].recall == 5 / 6
    assert rows[1].precision == 4 / 5
    assert rows[1].recall == 4 / 5
    assert rows[2].precision == 1.0


def test_class_report_zero_column_convention():
    # nothing predicted as class 1 and nothing truly class 2: 0/0 -> 0
    rows = report_from_matrix(matrix_from([[3, 0, 1], [2, 0, 0], [0, 0, 0]])).per_class
    assert rows[1].precision == 0.0 and rows[1].recall == 0.0 and rows[1].f1 == 0.0
    assert rows[2].recall == 0.0


# ---------------------------------------------------------------------------
# aggregates


def test_aggregate_published_rows():
    agg = aggregate_report(REFERENCE_ROWS)
    # weighted F1 = (205*0.85 + 205*0.85 + 189*0.93)/599 = 0.87524...
    assert round_display(agg.weighted_f1) == 0.88
    # macro F1 = (0.85 + 0.85 + 0.93)/3 = 0.87666...
    assert round_display(agg.macro_f1) == 0.88
    # accuracy = weighted recall = (205*0.83 + 205*0.89 + 189*0.90)/599 = 0.87262...
    assert round_display(agg.accuracy) == 0.87


def test_aggregate_equal_supports_macro_equals_weighted():
    rng = np.random.default_rng(1)
    for _ in range(10):
        counts = rng.integers(0, 20, size=(3, 3))
        counts -= np.diag(np.diag(counts))
        row_sums = counts.sum(axis=1)
        counts[np.arange(3), np.arange(3)] = row_sums.max() + 5 - row_sums
        report = report_from_matrix(matrix_from(counts))
        agg = report.aggregates
        assert agg.macro_precision == agg.weighted_precision
        assert agg.macro_recall == agg.weighted_recall
        assert agg.macro_f1 == agg.weighted_f1


def test_weighted_recall_is_trace_over_total_exactly():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cm = random_matrix(rng)
        report = report_from_matrix(cm)
        want = float(Fraction(int(np.trace(cm.matrix)), int(cm.matrix.sum())))
        assert report.aggregates.accuracy == want
        assert report.aggregates.weighted_recall == want


def test_permuting_classes_permutes_rows_and_keeps_aggregates():
    rng = np.random.default_rng(3)
    cm = random_matrix(rng)
    perm = [2, 0, 1]
    permuted = matrix_from(cm.matrix[np.ix_(perm, perm)],
                           names=tuple(cm.class_names[i] for i in perm))
    base = report_from_matrix(cm)
    other = report_from_matrix(permuted)
    for i, j in enumerate(perm):
        assert other.per_class[i] == base.per_class[j]
    assert other.aggregates == base.aggregates


def test_rates_bounded_and_f1_inequalities():
    rng = np.random.default_rng(4)
    for _ in range(20):
        report = report_from_matrix(random_matrix(rng))
        for row in report.per_class:
            for value in (row.precision, row.recall, row.f1):
                assert 0.0 <= value <= 1.0
            assert row.f1 <= (row.precision + row.recall) / 2 + 1e-12
            assert row.f1 <= 2 * min(row.precision, row.recall) + 1e-12


def test_aggregate_rejects_empty_and_zero_support():
    with pytest.raises(ConfigError):
        aggregate_report([])
    with pytest.raises(ConfigError):
        report_from_matrix(matrix_from(np.zeros((2, 2), dtype=int), names=("a", "b")))


# ---------------------------------------------------------------------------
# display


def test_round_display_half_away_from_zero():
    assert round_display(0.125) == 0.13  # 0.125 is exact in binary
    assert round_display(-0.125) == -0.13
    assert round_display(0.875) == 0.88
    assert round_display(-0.875) == -0.88
    assert round_display(0.874) == 0.87
    assert round_display(0.8766666) == 0.88


def test_report_csv_layout(tmp_path):
    cm = matrix_from([[5, 1, 0], [1, 4, 0], [0, 0, 6]])
    report = report_from_matrix(cm)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "class,precision,recall,f1,support"
    assert len(lines) == 3 + 3 + 1
    assert lines[1] == "a,0.8333,0.8333,0.8333,6"
    assert lines[4].startswith("macro,") and lines[4].endswith(",17")
    assert lines[5].startswith("weighted,")
    accuracy = float(Fraction(15, 17))
    assert lines[6] == f"accuracy,,,,{accuracy:.4f}"


def test_format_report_two_decimal_table():
    report = report_from_matrix(matrix_from([[5, 1, 0], [1, 4, 0], [0, 0, 6]]))
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0].split() == ["class", "precision", "recall", "f1", "support"]
    assert "0.83" in lines[1]
    assert lines[-1] == "accuracy: 0.88"  # 15/17 = 0.88235...
