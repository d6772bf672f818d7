"""Output checks made apart from the program under test.

Each check raises ``CheckFailed`` with a message naming what was wrong.
None of them compares against a stored copy of earlier output: they
recompute from the inputs (CSV label counts, entropy scores, brute-force
neighbours) or test a property the method must have (the replayed rules
of best-first search).
"""

from __future__ import annotations

import csv
import heapq
import math
from bisect import bisect_left

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def csv_label_counts(path) -> tuple[int, int]:
    """(rows, attack rows) of a CSV, read with the csv module alone."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        col = next(reader).index("label")
        rows = attack = 0
        for row in reader:
            rows += 1
            attack += row[col] == "1"
    return rows, attack


def report_fields(report) -> dict:
    """The checked fields of an EvaluationReport, in report.json's layout."""
    cm = report.cm
    return {"confusion": {"tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn},
            "acc": report.acc, "dr": report.dr, "far": report.far}


def check_report(doc: dict, test_rows: int, test_attack: int, where: str) -> None:
    """Confusion counts cover the test file; ACC, DR and FAR follow from them."""
    cm = doc["confusion"]
    tp, tn, fp, fn = cm["tp"], cm["tn"], cm["fp"], cm["fn"]
    require(tp + tn + fp + fn == test_rows,
            f"{where}: confusion sums to {tp + tn + fp + fn}, test file has {test_rows} rows")
    require(tp + fn == test_attack,
            f"{where}: {tp + fn} attack rows in the confusion matrix, test file has {test_attack}")
    want = {"acc": 100.0 * (tp + tn) / test_rows,
            "dr": 100.0 * tp / (tp + fn),
            "far": 100.0 * fp / (fp + tn)}
    for name, value in want.items():
        require(close(doc[name], value), f"{where}: {name} {doc[name]} != {value} from the counts")


def check_split(ds, path, rows: int, attack: int) -> None:
    """Loaded and CSV row and attack counts equal the official split's."""
    loaded = (ds.row_count, int(ds.labels.sum()))
    require(loaded == (rows, attack),
            f"{path.name}: loaded {loaded[0]} rows, {loaded[1]} attack; want {rows}, {attack}")
    counted = csv_label_counts(path)
    require(counted == (rows, attack),
            f"{path.name}: CSV has {counted[0]} rows, {counted[1]} attack; want {rows}, {attack}")


def _entropy(counts, n: int) -> float:
    return -sum(c / n * math.log2(c / n) for c in counts if c)


def _cells(kind: str, values: list, labels: list, bins: int) -> list[tuple[int, int]]:
    """(rows, attack rows) per bin under the documented binning.

    Nominal ids are their own bins. A numeric column is cut at the
    midpoint between sorted positions round(b*n/bins)-1 and round(b*n/bins)
    for b = 1..bins-1; cuts inside a run of equal values are dropped, and
    a value equal to a cut falls in the upper bin.
    """
    if kind == "nominal":
        counts: dict = {}
        for v, y in zip(values, labels):
            cell = counts.setdefault(v, [0, 0])
            cell[0] += 1
            cell[1] += y
        return [tuple(c) for c in counts.values()]
    n = len(values)
    ordered = sorted(values)
    attack = sorted(v for v, y in zip(values, labels) if y)
    edges: list[float] = []
    for b in range(1, bins):
        k = int(round(b * n / bins))
        if 0 < k < n and ordered[k] > ordered[k - 1]:
            edge = (ordered[k - 1] + ordered[k]) / 2.0
            if not edges or edge > edges[-1]:
                edges.append(edge)
    cells, prev_n, prev_a = [], 0, 0
    for edge in edges:
        below_n, below_a = bisect_left(ordered, edge), bisect_left(attack, edge)
        cells.append((below_n - prev_n, below_a - prev_a))
        prev_n, prev_a = below_n, below_a
    cells.append((n - prev_n, len(attack) - prev_a))
    return cells


def oracle_entropy_scores(columns, labels, bins: int = 10) -> tuple[list[float], list[float]]:
    """Information gain and gain ratio per column, in plain Python.

    ``columns`` is a list of (kind, values) with values as Python lists;
    ``labels`` holds 0/1 ints.
    """
    n = len(labels)
    attack = sum(labels)
    h_class = _entropy((n - attack, attack), n)
    gains, ratios = [], []
    for kind, values in columns:
        cells = _cells(kind, values, labels, bins)
        cond = sum(c / n * _entropy((c - a, a), c) for c, a in cells if c)
        gain = max(h_class - cond, 0.0)
        h_feature = _entropy([c for c, _ in cells], n)
        gains.append(gain)
        ratios.append(0.0 if h_feature == 0.0 else min(max(gain / h_feature, 0.0), 1.0))
    return gains, ratios


def dataset_columns(ds) -> tuple[list, list]:
    """(kind, values) lists and labels of a Dataset as plain Python lists."""
    return [(c.kind, c.values.tolist()) for c in ds.columns], ds.labels.tolist()


def check_scores(scores, oracle: list[float], where: str) -> None:
    require(len(scores) == len(oracle), f"{where}: {len(scores)} scores for {len(oracle)} features")
    for i, (got, want) in enumerate(zip(scores, oracle)):
        require(close(float(got), want), f"{where}: feature {i} scored {got}, oracle {want}")


def check_selection(selected, oracle: list[float], k: int, where: str) -> None:
    """``selected`` is the oracle's top-k in rank order, ties to the lower index.

    Positions may differ only between features whose oracle scores agree
    to rounding; exactly equal scores must appear in index order.
    """
    selected = [int(i) for i in selected]
    expected = sorted(range(len(oracle)), key=lambda i: (-oracle[i], i))[:k]
    require(len(selected) == k, f"{where}: {len(selected)} features selected, want {k}")
    for pos, (got, want) in enumerate(zip(selected, expected)):
        require(got == want or close(oracle[got], oracle[want]),
                f"{where}: rank {pos} is feature {got}, oracle top-{k} has {want}")
    for a, b in zip(selected, selected[1:]):
        require(oracle[a] != oracle[b] or a < b, f"{where}: tie between {a} and {b} out of index order")


def check_knn(train_x: np.ndarray, train_y: np.ndarray, queries: np.ndarray,
              predicted, k: int, where: str) -> None:
    """Predictions equal the majority of brute-force nearest neighbours.

    Distances are summed squared differences. Rows at the k-th distance
    (within rounding) may fill the last places either way, so a
    prediction passes if some such choice yields it; ties in votes go to
    attack.
    """
    for q, got in zip(queries, predicted):
        dist = ((train_x - q) ** 2).sum(axis=1)
        kth = np.sort(dist)[k - 1]
        tol = 1e-9 * max(1.0, kth)
        inside = dist < kth - tol
        pool = np.abs(dist - kth) <= tol
        need = k - int(inside.sum())
        votes = int(train_y[inside].sum())
        pool_attack = int(train_y[pool].sum())
        pool_normal = int(pool.sum()) - pool_attack
        lo = votes + max(0, need - pool_normal)
        hi = votes + min(need, pool_attack)
        allowed = {int(2 * v >= k) for v in range(lo, hi + 1)}
        require(int(got) in allowed, f"{where}: predicted {got}, brute-force votes {lo}..{hi} of {k}")


def check_wrapper_trace(trace, d: int, stop_after, epsilon: float, planted: set[int]) -> None:
    """Replay best-first search on the trace's own merits.

    Each expansion pops the best evaluated, unexpanded subset (earlier
    evaluation wins ties) and evaluates, in ascending feature order, every
    one-feature extension not seen before. The search stops after
    ``stop_after`` expansions in a row without a merit above the best so
    far plus ``epsilon``. The best subset must hold a planted column.
    """
    steps = trace.steps
    open_list = [(-0.0, 0, ())]
    seen: set = set()
    counter, pos, non_improving = 1, 0, 0
    best, best_subset = -math.inf, ()
    sizes = trace.expansion_sizes
    for e, size in enumerate(sizes):
        require(bool(open_list), f"expansion {e} with an empty open list")
        _, _, parent = heapq.heappop(open_list)
        group = steps[pos:pos + size]
        pos += size
        want = [parent + (f,) for f in range(d)
                if f not in parent and frozenset(parent + (f,)) not in seen]
        got = [tuple(s.subset) for s in group]
        require(got == want, f"expansion {e}: children {got[:3]}... do not extend "
                             f"best open subset {parent} by each unseen feature")
        improved = False
        for s in group:
            key = frozenset(s.subset)
            require(key not in seen, f"subset {s.subset} evaluated twice")
            seen.add(key)
            heapq.heappush(open_list, (-s.merit, counter, tuple(s.subset)))
            counter += 1
            improved = improved or s.merit > best + epsilon
            if s.merit > best:
                best, best_subset = s.merit, tuple(s.subset)
        non_improving = 0 if improved else non_improving + 1
        if stop_after is not None and non_improving >= stop_after:
            require(e == len(sizes) - 1, f"stop rule held after expansion {e} but search went on")
            require(trace.stop_reason == "stop_rule", f"stop reason {trace.stop_reason!r}")
    require(pos == len(steps), f"{len(steps) - pos} steps outside any expansion")
    if trace.stop_reason == "stop_rule":
        require(stop_after is not None and non_improving >= stop_after,
                "stopped before the stop rule held")
    else:
        require(not open_list, "reported exhausted with subsets left to expand")
    require(trace.best_merit == best, f"best_merit {trace.best_merit} != max step merit {best}")
    require(tuple(trace.best_subset) == best_subset,
            f"best_subset {trace.best_subset} != first subset reaching {best}")
    require(bool(set(trace.best_subset) & planted),
            f"best subset {trace.best_subset} holds no planted column {sorted(planted)}")
