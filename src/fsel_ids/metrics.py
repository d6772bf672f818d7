"""Hold-out evaluation metrics: accuracy, detection rate, false alarm rate.

The positive class is always attack (label 1). Detection rate is recall on
attacks; false alarm rate is the fraction of normal rows flagged as
attacks. All three metrics are percentages in [0, 100].
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    """Raised for empty or inconsistent metric inputs."""


REPORT_FORMAT = "fsel-ids/report"
REPORT_VERSION = 1


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with attack as the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise MetricsError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(predicted, truth) -> ConfusionMatrix:
    """Exact counts from aligned prediction and truth vectors (1 = attack)."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise MetricsError(
            f"length mismatch: {predicted.shape} predictions vs {truth.shape} truths"
        )
    if predicted.size == 0:
        raise MetricsError("cannot build a confusion matrix from zero rows")
    pred_attack = predicted == 1
    true_attack = truth == 1
    return ConfusionMatrix(
        tp=int(np.count_nonzero(pred_attack & true_attack)),
        tn=int(np.count_nonzero(~pred_attack & ~true_attack)),
        fp=int(np.count_nonzero(pred_attack & ~true_attack)),
        fn=int(np.count_nonzero(~pred_attack & true_attack)),
    )


def accuracy(cm: ConfusionMatrix) -> float:
    """100 * (tp + tn) / total."""
    if cm.total == 0:
        raise MetricsError("empty confusion matrix")
    return 100.0 * (cm.tp + cm.tn) / cm.total


def detection_rate(cm: ConfusionMatrix) -> float:
    """100 * tp / (tp + fn): share of actual attacks caught."""
    if cm.tp + cm.fn == 0:
        raise MetricsError("no positive truth rows; detection rate undefined")
    return 100.0 * cm.tp / (cm.tp + cm.fn)


def false_alarm_rate(cm: ConfusionMatrix) -> float:
    """100 * fp / (fp + tn): share of normal rows flagged as attacks."""
    if cm.fp + cm.tn == 0:
        raise MetricsError("no negative truth rows; false alarm rate undefined")
    return 100.0 * cm.fp / (cm.fp + cm.tn)


@dataclass(frozen=True)
class EvaluationReport:
    """One experiment cell: what ran, the confusion counts, timings, and the
    three metrics computed from the counts.

    fs_seconds covers selection scoring or search only; train_seconds
    covers transform fitting plus model training; eval_seconds covers
    transform replay plus prediction. A report on a saved model
    (``evaluate --model``) carries the model's own fit time as
    train_seconds, without plan fitting, and an fs_seconds of 0.
    """

    dataset: str
    fs_method: str
    selected_count: int
    algorithm: str
    cm: ConfusionMatrix
    fs_seconds: float
    train_seconds: float
    eval_seconds: float

    def __post_init__(self):
        self.dr, self.far  # noqa: B018 -- counts that leave a rate undefined fail here
        for name in ("fs_seconds", "train_seconds", "eval_seconds"):
            if getattr(self, name) < 0:
                raise MetricsError(f"{name} must be >= 0")

    @property
    def acc(self) -> float:
        return accuracy(self.cm)

    @property
    def dr(self) -> float:
        return detection_rate(self.cm)

    @property
    def far(self) -> float:
        return false_alarm_rate(self.cm)

    @property
    def blended_train_seconds(self) -> float:
        """Selection plus training time, the commonly quoted blended figure."""
        return self.fs_seconds + self.train_seconds


# The name perfbench/selftest.py builds its reports by; the package calls
# ``EvaluationReport`` itself.
build_report = EvaluationReport


def report_to_json(report: EvaluationReport) -> str:
    doc = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "dataset": report.dataset,
        "fs_method": report.fs_method,
        "selected_count": report.selected_count,
        "algorithm": report.algorithm,
        "confusion": {"tp": report.cm.tp, "tn": report.cm.tn,
                      "fp": report.cm.fp, "fn": report.cm.fn},
        "acc": report.acc,
        "dr": report.dr,
        "far": report.far,
        "timings": {
            "fs_seconds": report.fs_seconds,
            "train_seconds": report.train_seconds,
            "eval_seconds": report.eval_seconds,
            "blended_train_seconds": report.blended_train_seconds,
        },
    }
    return json.dumps(doc, indent=2)


MARKDOWN_HEADER = "| FS Method | Algorithm | ACC | DR | FAR |"
MARKDOWN_RULE = "|---|---|---|---|---|"


def markdown_row(report: EvaluationReport) -> str:
    """One table row in the FS-method x algorithm layout."""
    return (
        f"| {report.fs_method} | {report.algorithm} "
        f"| {report.acc:.2f} | {report.dr:.2f} | {report.far:.2f} |"
    )


def markdown_table(reports) -> str:
    lines = [MARKDOWN_HEADER, MARKDOWN_RULE]
    lines.extend(markdown_row(r) for r in reports)
    return "\n".join(lines) + "\n"
