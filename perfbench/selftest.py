#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Each check must accept a correct output of the program and reject the
same output with one thing corrupted. Runs in a few seconds on small
inputs:

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

from fsel_ids.dataset import Column, Dataset  # noqa: E402
from fsel_ids.filters import score_features  # noqa: E402
from fsel_ids.metrics import build_report, confusion  # noqa: E402
from fsel_ids.models import fit_model, params_from_dict, predict_model  # noqa: E402
from fsel_ids.wrapper import best_first_search  # noqa: E402

failures: list[str] = []


def expect(name: str, fn, reject: bool) -> None:
    try:
        fn()
        ok = not reject
    except CheckFailed:
        ok = reject
    print(f"{'ok  ' if ok else 'FAIL'} {'rejects' if reject else 'accepts'} {name}")
    if not ok:
        failures.append(name)


def small_dataset(rng, n=300) -> Dataset:
    labels = (rng.random(n) < 0.6).astype(np.uint8)
    planted = np.where(labels == 1, rng.choice([254.0, 62.0], n, p=[0.85, 0.15]),
                       rng.choice([31.0, 62.0], n, p=[0.85, 0.15]))
    cols = (
        Column("planted", "numeric", planted),
        Column("runs", "numeric", rng.poisson(0.4, n).astype(np.float64)),
        Column("noise", "numeric", rng.normal(size=n)),
        Column("copy", "numeric", rng.normal(size=n).round(1)),
        Column("proto", "nominal", rng.integers(0, 4, n).astype(np.int32),
               ("tcp", "udp", "arp", "ospf")),
    )
    return Dataset(cols, labels)


def main() -> int:
    rng = np.random.default_rng(7)

    truth = (rng.random(200) < 0.55).astype(np.uint8)
    predicted = np.where(rng.random(200) < 0.8, truth, 1 - truth).astype(np.uint8)
    report = build_report(dataset="t", fs_method="none", selected_count=1, algorithm="tree",
                          cm=confusion(predicted, truth), fs_seconds=0.0, train_seconds=0.0,
                          eval_seconds=0.0)
    doc = checks.report_fields(report)
    rows, attack = len(truth), int(truth.sum())
    expect("report", lambda: checks.check_report(doc, rows, attack, "t"), False)
    bad = {**doc, "confusion": {**doc["confusion"], "tn": doc["confusion"]["tn"] + 1}}
    expect("report whose matrix misses the test rows",
           lambda: checks.check_report(bad, rows, attack, "t"), True)
    cm = doc["confusion"]
    bad = {**doc, "confusion": {**cm, "tp": cm["tp"] + 1, "fp": cm["fp"] - 1}}
    expect("report with a wrong attack count",
           lambda: checks.check_report(bad, rows, attack, "t"), True)
    expect("report with a wrong DR",
           lambda: checks.check_report({**doc, "dr": doc["dr"] + 1e-6}, rows, attack, "t"), True)

    ds = small_dataset(rng)
    columns, labels = checks.dataset_columns(ds)
    oracle = dict(zip(("infogain", "gainratio"), checks.oracle_entropy_scores(columns, labels)))
    for method in ("infogain", "gainratio"):
        scores = score_features(ds, method)
        expect(f"{method} scores",
               lambda: checks.check_scores(scores.scores, oracle[method], method), False)
        nudged = scores.scores.copy()
        nudged[0] += 1e-6
        expect(f"{method} scores with one nudged",
               lambda: checks.check_scores(nudged, oracle[method], method), True)
        top = scores.top(3)
        expect(f"{method} top-3", lambda: checks.check_selection(top, oracle[method], 3, method),
               False)
        swapped = (top[1], top[0], top[2])
        expect(f"{method} top-3 out of order",
               lambda: checks.check_selection(swapped, oracle[method], 3, method), True)
    tied = [0.5, 0.2, 0.2, 0.1]
    expect("tie in index order", lambda: checks.check_selection([0, 1, 2], tied, 3, "t"), False)
    expect("tie out of index order",
           lambda: checks.check_selection([0, 2, 1], tied, 3, "t"), True)
    expect("selection missing a top feature",
           lambda: checks.check_selection([0, 1, 3], tied, 3, "t"), True)

    train_x = rng.random((150, 4))
    train_y = (train_x[:, 0] + 0.3 * rng.random(150) > 0.6).astype(np.uint8)
    train = Dataset(tuple(Column(f"x{i}", "numeric", train_x[:, i].copy()) for i in range(4)),
                    train_y)
    queries = Dataset(tuple(Column(f"x{i}", "numeric", rng.random(20)) for i in range(4)),
                      np.zeros(20, dtype=np.uint8))
    model = fit_model(train, params_from_dict("knn", {}))
    knn_pred = predict_model(model, queries)
    q = queries.as_matrix()
    expect("knn predictions",
           lambda: checks.check_knn(train_x, train_y, q, knn_pred, model.params.k, "t"), False)
    flipped = knn_pred.copy()
    flipped[0] = 1 - flipped[0]
    expect("knn with one flipped prediction",
           lambda: checks.check_knn(train_x, train_y, q, flipped, model.params.k, "t"), True)

    _, trace = best_first_search(ds, folds=3, stop_after=1, epsilon=1.0, seed=1)
    d, planted = len(ds.columns), {0}
    expect("wrapper trace",
           lambda: checks.check_wrapper_trace(trace, d, 1, 1.0, planted), False)
    steps = list(trace.steps)
    repeat = dataclasses.replace(trace, steps=tuple(steps[:-1] + [steps[0]]))
    expect("wrapper trace with a repeated subset",
           lambda: checks.check_wrapper_trace(repeat, d, 1, 1.0, planted), True)
    last = steps[-1]
    stray = SimpleNamespace(subset=(last.subset[-1],) + last.subset[:-1], merit=last.merit)
    moved = dataclasses.replace(trace, steps=tuple(steps[:-1] + [stray]))
    expect("wrapper trace with a child that extends no expanded subset",
           lambda: checks.check_wrapper_trace(moved, d, 1, 1.0, planted), True)
    expect("wrapper trace with a wrong best_merit",
           lambda: checks.check_wrapper_trace(
               dataclasses.replace(trace, best_merit=trace.best_merit - 0.01), d, 1, 1.0,
               planted), True)
    cut = sum(trace.expansion_sizes[:-1])
    early = dataclasses.replace(trace, steps=trace.steps[:cut],
                                expansion_sizes=trace.expansion_sizes[:-1])
    expect("wrapper trace that stopped before the stop rule held",
           lambda: checks.check_wrapper_trace(early, d, 1, 1.0, planted), True)
    expect("wrapper trace whose best subset has no planted column",
           lambda: checks.check_wrapper_trace(trace, d, 1, 1.0, {d + 1}), True)

    scratch = HERE.parent / ".bench_data" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / "split.csv"
    path.write_text("id,label\n1,1\n2,0\n3,1\n", encoding="utf-8")
    split = Dataset((Column("id", "numeric", np.arange(3.0)),),
                    np.asarray([1, 0, 1], dtype=np.uint8))
    expect("split counts", lambda: checks.check_split(split, path, 3, 2), False)
    expect("split with a wrong attack count", lambda: checks.check_split(split, path, 3, 1), True)
    short = Dataset((Column("id", "numeric", np.arange(2.0)),), np.asarray([1, 0], np.uint8))
    expect("split that lost a row", lambda: checks.check_split(short, path, 3, 2), True)
    path.unlink()

    print(f"{len(failures)} check(s) misbehaved" if failures else "every check behaves")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
