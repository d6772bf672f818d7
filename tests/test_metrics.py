import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsel_ids.metrics import (
    ConfusionMatrix,
    EvaluationReport,
    MetricsError,
    accuracy,
    build_report,
    confusion,
    detection_rate,
    false_alarm_rate,
    markdown_row,
    markdown_table,
    report_to_json,
)


def test_known_confusion_values():
    cm = ConfusionMatrix(tp=45, tn=45, fp=5, fn=5)
    assert accuracy(cm) == 90.0
    assert detection_rate(cm) == 90.0
    assert false_alarm_rate(cm) == 10.0


def test_perfect_and_worst_cases():
    perfect = ConfusionMatrix(tp=10, tn=10, fp=0, fn=0)
    assert accuracy(perfect) == 100.0
    assert detection_rate(perfect) == 100.0
    assert false_alarm_rate(perfect) == 0.0
    worst = ConfusionMatrix(tp=0, tn=0, fp=10, fn=10)
    assert accuracy(worst) == 0.0
    assert detection_rate(worst) == 0.0
    assert false_alarm_rate(worst) == 100.0


def test_confusion_counts_against_loop_oracle():
    rng = np.random.default_rng(1)
    predicted = rng.integers(0, 2, 100)
    truth = rng.integers(0, 2, 100)
    cm = confusion(predicted, truth)
    pairs = list(zip(predicted.tolist(), truth.tolist()))
    assert cm.tp == sum(1 for p, t in pairs if p == 1 and t == 1)
    assert cm.tn == sum(1 for p, t in pairs if p == 0 and t == 0)
    assert cm.fp == sum(1 for p, t in pairs if p == 1 and t == 0)
    assert cm.fn == sum(1 for p, t in pairs if p == 0 and t == 1)
    assert cm.total == 100


def test_confusion_input_errors():
    with pytest.raises(MetricsError, match="mismatch"):
        confusion([1, 0], [1])
    with pytest.raises(MetricsError, match="zero rows"):
        confusion([], [])


def test_metric_domain_errors():
    with pytest.raises(MetricsError, match="detection"):
        detection_rate(ConfusionMatrix(tp=0, tn=5, fp=5, fn=0))
    with pytest.raises(MetricsError, match="false alarm"):
        false_alarm_rate(ConfusionMatrix(tp=5, tn=0, fp=0, fn=5))
    with pytest.raises(MetricsError, match="non-negative"):
        ConfusionMatrix(tp=-1, tn=0, fp=0, fn=0)


counts = st.integers(min_value=0, max_value=10_000)


@given(tp=counts, tn=counts, fp=counts, fn=counts)
def test_accuracy_identity_with_rates(tp, tn, fp, fn):
    # ACC recoverable from DR, FAR and the class sizes
    if tp + fn == 0 or fp + tn == 0:
        return
    cm = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
    p = tp + fn
    n = fp + tn
    dr = detection_rate(cm)
    far = false_alarm_rate(cm)
    recombined = (dr * p + (100.0 - far) * n) / (p + n)
    assert accuracy(cm) == pytest.approx(recombined, abs=1e-9)


def sample_report(**overrides):
    fields = dict(
        dataset="toy",
        fs_method="infogain",
        selected_count=4,
        algorithm="tree",
        cm=ConfusionMatrix(tp=40, tn=45, fp=5, fn=10),
        fs_seconds=0.5,
        train_seconds=1.5,
        eval_seconds=0.25,
    )
    fields.update(overrides)
    return EvaluationReport(**fields)


def test_build_report_computes_metrics():
    assert build_report is EvaluationReport  # the name the benchmark's self-test imports
    report = sample_report()
    assert report.acc == 85.0
    assert report.dr == 80.0
    assert report.far == 10.0
    assert report.blended_train_seconds == 2.0


def test_report_json_round_trip():
    report = sample_report()
    text = report_to_json(report)
    assert json.loads(text) == {
        "format": "fsel-ids/report", "version": 1, "dataset": report.dataset,
        "fs_method": report.fs_method, "selected_count": report.selected_count,
        "algorithm": report.algorithm, "confusion": {"tp": 40, "tn": 45, "fp": 5, "fn": 10},
        "acc": 85.0, "dr": 80.0, "far": 10.0,
        "timings": {"fs_seconds": 0.5, "train_seconds": 1.5, "eval_seconds": 0.25,
                    "blended_train_seconds": 2.0},
    }


def test_report_validation():
    with pytest.raises(MetricsError, match="detection rate undefined"):
        sample_report(cm=ConfusionMatrix(tp=0, tn=5, fp=5, fn=0))
    with pytest.raises(MetricsError, match=">= 0"):
        sample_report(fs_seconds=-1.0)


def test_markdown_formatting():
    report = sample_report()
    row = markdown_row(report)
    assert row == "| infogain | tree | 85.00 | 80.00 | 10.00 |"
    table = markdown_table([report, report])
    lines = table.strip().split("\n")
    assert lines[0] == "| FS Method | Algorithm | ACC | DR | FAR |"
    assert lines[1].startswith("|---")
    assert len(lines) == 4
