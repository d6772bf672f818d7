"""Wrapper feature selection: tree-evaluated best-first forward search.

A candidate subset's merit is the mean stratified cross-validation
accuracy of an unpruned decision tree trained on just those features, on
training data only. The search grows subsets one feature at a time from
the empty set, always expanding the best-merit frontier subset, and stops
after a fixed run of non-improving expansions (or when the frontier is
exhausted with the stop rule disabled).
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass

import numpy as np

from . import tree as tree_mod
from .dataset import Dataset, DatasetError


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Deal each class's shuffled rows round-robin into ``folds`` buckets.

    Both classes deal from bucket 0, so every bucket gets a row exactly when
    ``folds`` is at most the larger class's row count, and every bucket's
    complement holds both classes exactly when each class has 2 rows or more;
    otherwise this raises.
    """
    if folds < 2:
        raise DatasetError(f"folds must be >= 2, got {folds}")
    counts = [int(np.count_nonzero(labels == cls)) for cls in (0, 1)]
    if folds > max(counts):
        raise DatasetError(f"folds={folds} would leave folds empty: the classes have "
                           f"{counts[0]} and {counts[1]} rows")
    if min(counts) < 2:
        raise DatasetError(f"degenerate folds: the classes have {counts[0]} and {counts[1]} "
                           f"rows, so a fold's training part would be single-class")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(folds)]
    for cls in (0, 1):
        rows = np.flatnonzero(labels == cls)
        rng.shuffle(rows)
        for pos, row in enumerate(rows):
            buckets[pos % folds].append(int(row))
    return [np.sort(np.asarray(b, dtype=np.int64)) for b in buckets]


def _merits(
    train: Dataset,
    subsets: list[tuple[int, ...]],
    fold_rows: list[np.ndarray],
    min_leaf: int,
):
    """Yield the merit of each of ``subsets`` in order: the mean accuracy of
    an unpruned tree on the subset, each of ``stratified_folds``'s
    ``fold_rows`` held out in turn; the merit the search ranks subsets by.

    Every (subset, fold) tree grows in one ``tree.grow_many`` call, which
    counts each tree's correct held-out rows as it grows, builds no tree,
    and yields the counts in task order. A fold's accuracy is that count
    over the fold's size, and a merit is yielded once its folds are scored.
    """
    everything = np.arange(train.row_count)
    fit_rows = [np.delete(everything, held_out) for held_out in fold_rows]
    counts = tree_mod.grow_many(
        train, ((subset, fit, None, None, held) for subset in subsets
                for fit, held in zip(fit_rows, fold_rows)), min_leaf=min_leaf)
    for _ in subsets:
        # An exact count over the fold size, correctly rounded: the same
        # float as the mean of the fold's per-row hits.
        yield float(np.mean([next(counts) / len(held) for held in fold_rows]))


@dataclass(frozen=True, slots=True)
class SearchStep:
    """One merit evaluation: the subset in discovery order, score, wall time."""

    subset: tuple[int, ...]
    merit: float
    timestamp: float


@dataclass(frozen=True)
class SearchTrace:
    """Complete evaluation log of one best-first run."""

    steps: tuple[SearchStep, ...]
    expansion_sizes: tuple[int, ...]  # children evaluated per expansion
    stop_reason: str  # "stop_rule" or "exhausted"
    best_subset: tuple[int, ...]
    best_merit: float

    @property
    def expansions(self) -> int:
        return len(self.expansion_sizes)


def best_first_search(
    train: Dataset,
    folds: int = 5,
    stop_after: int | None = 5,
    epsilon: float = 1e-5,
    seed: int = 0,
    *,
    min_leaf: int = 2,
) -> tuple[tuple[int, ...], SearchTrace]:
    """Forward best-first subset search under the wrapper merit.

    The open list holds evaluated subsets keyed by merit; each round pops
    the best unexpanded one and evaluates every single-feature extension
    (in ascending feature order, skipping subsets already seen), all of
    them in one ``_merits`` call. A child
    improves the search when its merit exceeds the best so far by more
    than ``epsilon``; after ``stop_after`` consecutive expansions without
    an improvement the search stops. ``stop_after=None`` disables the stop
    rule, which makes the search exhaust every subset.
    """
    d = len(train.columns)
    if d == 0:
        raise DatasetError("no candidate features to search")
    if train.row_count == 0:
        raise DatasetError("cannot search an empty dataset")
    if epsilon < 0:
        raise DatasetError(f"epsilon must be >= 0, got {epsilon}")
    if stop_after is not None and stop_after < 1:
        raise DatasetError(f"stop_after must be >= 1 or None, got {stop_after}")

    fold_rows = stratified_folds(train.labels, folds, seed)
    steps: list[SearchStep] = []
    expansion_sizes: list[int] = []
    visited: set[frozenset[int]] = set()
    best_merit = float("-inf")
    best_subset: tuple[int, ...] = ()
    # heap entries: (-merit, insertion counter, subset)
    heap: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, ())]
    counter = 1
    non_improving = 0
    stop_reason = "exhausted"

    while heap:
        _, _, parent = heapq.heappop(heap)
        children = []
        for f in range(d):
            child = parent + (f,)
            if f not in parent and frozenset(child) not in visited:
                visited.add(frozenset(child))
                children.append(child)
        improved = False
        # Steps are recorded in child order, each as its merit arrives.
        for child, merit in zip(children, _merits(train, children, fold_rows, min_leaf)):
            steps.append(SearchStep(child, merit, time.time()))
            heapq.heappush(heap, (-merit, counter, child))
            counter += 1
            if merit > best_merit + epsilon:
                improved = True
            if merit > best_merit:
                best_merit = merit
                best_subset = child
        expansion_sizes.append(len(children))
        if improved:
            non_improving = 0
        else:
            non_improving += 1
        if stop_after is not None and non_improving >= stop_after:
            stop_reason = "stop_rule"
            break

    trace = SearchTrace(
        tuple(steps), tuple(expansion_sizes), stop_reason, best_subset, best_merit
    )
    return best_subset, trace


def subset_names(train: Dataset, subset) -> tuple[str, ...]:
    """Feature names of a subset, preserving the subset's own order."""
    return tuple(train.columns[int(f)].name for f in subset)


def trace_to_jsonl(trace: SearchTrace, feature_names) -> str:
    """One evaluation per line: subset (names), merit, timestamp.

    A final summary line carries the expansion count, stop reason and best
    subset so a log is self-contained.
    """
    names = tuple(feature_names)
    lines = []
    for step in trace.steps:
        lines.append(json.dumps({
            "subset": [names[f] for f in step.subset],
            "merit": step.merit,
            "timestamp": step.timestamp,
        }))
    lines.append(json.dumps({
        "expansions": trace.expansions,
        "stop_reason": trace.stop_reason,
        "best_subset": [names[f] for f in trace.best_subset],
        "best_merit": trace.best_merit,
    }))
    return "\n".join(lines) + "\n"
