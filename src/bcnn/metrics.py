"""Confusion-matrix bookkeeping and per-class / aggregate metrics.

Metrics derived from a confusion matrix are computed in exact rational
arithmetic and converted to float once at the end, so identities that
hold algebraically (weighted recall equals accuracy, for instance) also
hold bitwise.  The 0/0 cases (no predictions for a class, no support,
P + R = 0) are all defined as 0.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .atomic import write_csv
from .errors import ConfigError, ConsistencyError, DimensionError

__all__ = [
    "ConfusionMatrix",
    "ClassMetrics",
    "AggregateMetrics",
    "MetricsReport",
    "aggregate_report",
    "report_from_matrix",
    "write_report_csv",
    "format_report",
    "round_display",
]


class ConfusionMatrix:
    """Counts of (true class, predicted class) pairs.

    ``matrix[i][j]`` counts items whose true class is ``i`` and predicted
    class is ``j``; row sums are therefore class supports.
    """

    def __init__(self, class_names):
        names = list(class_names)
        if len(names) < 2:
            raise ConfigError(f"need at least two classes, got {len(names)}")
        if len(set(names)) != len(names):
            raise ConfigError(f"class names must be unique, got {names}")
        self.class_names = names
        self.matrix = np.zeros((len(names), len(names)), dtype=np.int64)

    def accumulate(self, true_labels, pred_labels):
        """Adds a batch of (true, predicted) label pairs."""
        t = np.asarray(true_labels)
        p = np.asarray(pred_labels)
        if t.shape != p.shape or t.ndim != 1:
            raise DimensionError(
                f"label arrays must be 1-D and equal length, got {t.shape} and {p.shape}")
        if t.size and not (np.issubdtype(t.dtype, np.integer)
                           and np.issubdtype(p.dtype, np.integer)):
            raise DimensionError(
                f"labels must be integers, got dtypes {t.dtype} and {p.dtype}")
        k = len(self.class_names)
        for arr, kind in ((t, "true"), (p, "predicted")):
            if arr.size and (arr.min() < 0 or arr.max() >= k):
                bad = int(arr[(arr < 0) | (arr >= k)][0])
                raise ConsistencyError(f"{kind} label {bad} outside [0, {k})")
        np.add.at(self.matrix, (t, p), 1)


@dataclass(frozen=True)
class ClassMetrics:
    """Precision, recall, F1, and support for one class."""

    name: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class AggregateMetrics:
    """Macro (unweighted) and support-weighted averages, plus accuracy."""

    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float


@dataclass(frozen=True)
class MetricsReport:
    per_class: tuple
    aggregates: AggregateMetrics


def _f1(p, r):
    if p + r == 0:
        return Fraction(0)
    return 2 * p * r / (p + r)


def f1_score(precision, recall):
    """Harmonic mean of precision and recall; 0.0 when both are 0."""
    if precision < 0 or recall < 0:
        raise ConfigError("precision and recall must be non-negative")
    return float(_f1(Fraction(precision), Fraction(recall)))


def _rational_rows(cm):
    """Per-class (name, precision, recall, f1, support) as Fractions."""
    m = cm.matrix
    rows = []
    for i, name in enumerate(cm.class_names):
        tp = int(m[i, i])
        col = int(m[:, i].sum())
        row = int(m[i].sum())
        p = Fraction(tp, col) if col else Fraction(0)
        r = Fraction(tp, row) if row else Fraction(0)
        rows.append((name, p, r, _f1(p, r), row))
    return rows


def _aggregate(rows):
    """Aggregates (name, P, R, F1, support) rows; values may be Fractions
    or floats, and exactness survives whenever the inputs are exact."""
    if not rows:
        raise ConfigError("cannot aggregate an empty report")
    k = len(rows)
    total = sum(r[4] for r in rows)
    if total == 0:
        raise ConfigError("cannot aggregate a report with zero total support")
    macro = [sum(r[i] for r in rows) / k for i in (1, 2, 3)]
    weighted = [sum(r[i] * r[4] for r in rows) / total for i in (1, 2, 3)]
    return AggregateMetrics(
        accuracy=float(weighted[1]),
        macro_precision=float(macro[0]),
        macro_recall=float(macro[1]),
        macro_f1=float(macro[2]),
        weighted_precision=float(weighted[0]),
        weighted_recall=float(weighted[1]),
        weighted_f1=float(weighted[2]),
    )


def aggregate_report(rows):
    """Aggregates a list of :class:`ClassMetrics`.

    Accuracy is reported as the weighted recall, which equals
    trace/total when the rows came from a confusion matrix.
    """
    return _aggregate([(r.name, r.precision, r.recall, r.f1, r.support) for r in rows])


def report_from_matrix(cm):
    """Full report for a confusion matrix.

    Both levels are computed from the same exact rationals, which makes
    ``aggregates.accuracy`` equal ``trace/total`` bit for bit.
    """
    rational = _rational_rows(cm)
    per_class = tuple(ClassMetrics(name, float(p), float(r), float(f), s)
                      for name, p, r, f, s in rational)
    return MetricsReport(per_class=per_class, aggregates=_aggregate(rational))


def round_display(x):
    """Rounds half away from zero to two decimal places."""
    return math.copysign(math.floor(abs(x) * 100 + 0.5), x) / 100


def _rows(report):
    """(label, precision, recall, f1, support) for each class, then the
    ``macro`` and ``weighted`` averages with the total support."""
    agg = report.aggregates
    total = sum(r.support for r in report.per_class)
    return [(r.name, r.precision, r.recall, r.f1, r.support) for r in report.per_class] + [
        ("macro", agg.macro_precision, agg.macro_recall, agg.macro_f1, total),
        ("weighted", agg.weighted_precision, agg.weighted_recall, agg.weighted_f1, total)]


def write_report_csv(report, path):
    """Writes the report as CSV with 4-decimal values.

    Layout: header ``class,precision,recall,f1,support``; one row per
    class; ``macro`` and ``weighted`` rows carrying their averages with
    total support; a final ``accuracy,,,,<value>`` row.
    """
    rows = [("class", "precision", "recall", "f1", "support")]
    rows += [(name, f"{p:.4f}", f"{r:.4f}", f"{f1:.4f}", str(n))
             for name, p, r, f1, n in _rows(report)]
    rows.append(("accuracy", "", "", "", f"{report.aggregates.accuracy:.4f}"))
    write_csv(path, rows)


def format_report(report):
    """Two-decimal terminal table (half-away-from-zero rounding)."""
    rows = _rows(report)
    width = max(len(row[0]) for row in rows)
    fmt = f"{{:<{width}}}  {{:>9}}  {{:>6}}  {{:>6}}  {{:>7}}"
    out = [fmt.format("class", "precision", "recall", "f1", "support")]
    out += [fmt.format(name, *(f"{round_display(v):.2f}" for v in (p, r, f1)), n)
            for name, p, r, f1, n in rows]
    out.append(f"accuracy: {round_display(report.aggregates.accuracy):.2f}")
    return "\n".join(out)
