"""Confusion-matrix statistics and rank-based AUC.

AUC is the Mann-Whitney statistic: the fraction of (positive, negative) pairs
ranked correctly, ties counting one half, computed here via midranks so it
equals brute-force pair counting exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from ethikit.errors import EmptyInput, LengthMismatch, NonFiniteScore, SingleClass


class DegenerateMetricWarning(UserWarning):
    """A metric is undefined on its input and is reported as a stand-in.

    A zero denominator reports 0; labels of one value report an AUC of NaN.
    """


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class EvalReport:
    confusion: ConfusionMatrix
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    n: int
    scores: np.ndarray = field(repr=False, compare=False)  # one per example, as given


def _check_pair(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise LengthMismatch(f"{a.shape} vs {b.shape}")
    if a.size == 0:
        raise EmptyInput("no samples")
    return a, b


def check_finite(scores: np.ndarray) -> None:
    """Raise NonFiniteScore if any score is NaN or infinite."""
    bad = ~np.isfinite(scores.astype(np.float64))
    if bad.any():
        raise NonFiniteScore(
            f"{int(bad.sum())} of {scores.size} scores are NaN or infinite "
            f"(first at index {int(np.argmax(bad))})"
        )


def confusion(preds, labels) -> ConfusionMatrix:
    """Count the four joint outcomes of binary predictions vs labels."""
    preds, labels = _check_pair(preds, labels)
    preds = preds.astype(bool)
    labels = labels.astype(bool)
    return ConfusionMatrix(
        tp=int(np.sum(preds & labels)),
        fp=int(np.sum(preds & ~labels)),
        fn=int(np.sum(~preds & labels)),
        tn=int(np.sum(~preds & ~labels)),
    )


def _safe_div(num: float, den: float, name: str) -> float:
    if den == 0:
        warnings.warn(f"{name} undefined (zero denominator); reporting 0",
                      DegenerateMetricWarning, stacklevel=3)
        return 0.0
    return num / den


def scalar_metrics(cm: ConfusionMatrix) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1); degenerate denominators give 0."""
    if cm.total < 1:
        raise EmptyInput("empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = _safe_div(cm.tp, cm.tp + cm.fp, "precision")
    recall = _safe_div(cm.tp, cm.tp + cm.fn, "recall")
    f1 = _safe_div(2 * precision * recall, precision + recall, "f1")
    return accuracy, precision, recall, f1


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties half.

    Midrank formulation of the Mann-Whitney U statistic; exact for float
    scores because tied groups contribute integer-plus-half ranks. Raises
    NonFiniteScore if any score is NaN or infinite, since such a score has
    no place in the ranking.
    """
    scores, labels = _check_pair(scores, labels)
    check_finite(scores)
    labels = labels.astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUC needs both label values")

    # 1-based midrank of each distinct value: its last rank less half the ties.
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]

    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def round_half_up(value: float, digits: int = 2) -> float:
    """Round with ties away from zero, matching table formatting conventions."""
    q = Decimal(10) ** -digits
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


THRESHOLD = 0.5  # a score at or above it predicts the positive class


def build_report(scores, labels) -> EvalReport:
    """Threshold scores at ``THRESHOLD``, then assemble the confusion matrix and metrics.

    Raises NonFiniteScore if any score is NaN or infinite. Labels of one
    value, as a hard split can hold, leave AUC undefined; it is reported as
    NaN with a DegenerateMetricWarning.
    """
    scores, labels = _check_pair(scores, labels)
    check_finite(scores)
    preds = (np.asarray(scores, dtype=np.float64) >= THRESHOLD).astype(np.int64)
    cm = confusion(preds, labels)
    accuracy, precision, recall, f1 = scalar_metrics(cm)
    try:
        auc_value = auc(scores, labels)
    except SingleClass:
        warnings.warn("auc undefined (one label value); reporting nan",
                      DegenerateMetricWarning, stacklevel=2)
        auc_value = math.nan
    return EvalReport(
        confusion=cm,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        auc=auc_value,
        n=cm.total,
        scores=scores,
    )


REPORT_CSV_HEADER = "domain,accuracy,precision,recall,f1,auc"


def report_csv_row(domain: str, report: EvalReport) -> str:
    """One CSV row per domain in table column order, full precision."""
    vals = (report.accuracy, report.precision, report.recall, report.f1, report.auc)
    return ",".join([domain] + [repr(v) for v in vals])


def render_confusion(cm: ConfusionMatrix) -> str:
    """Small ASCII confusion matrix for terminal output."""
    w = max(len(str(v)) for v in (cm.tp, cm.fp, cm.fn, cm.tn))
    w = max(w, 6)
    lines = [
        f"{'':>8} {'pred 0':>{w}} {'pred 1':>{w}}",
        f"{'true 0':>8} {cm.tn:>{w}} {cm.fp:>{w}}",
        f"{'true 1':>8} {cm.fn:>{w}} {cm.tp:>{w}}",
    ]
    return "\n".join(lines)
