import itertools
import json

import numpy as np
import pytest

from fsel_ids import tree as tree_mod
from fsel_ids.dataset import DatasetError
from fsel_ids.wrapper import (
    _merit_on_folds,
    best_first_search,
    stratified_folds,
    subset_names,
    trace_to_jsonl,
)

from conftest import make_dataset, random_mixed_dataset


def wrapper_merit(ds, subset, folds=5, seed=0):
    """The search's own merit of ``subset``, on the folds the search deals."""
    return _merit_on_folds(ds, tuple(subset), stratified_folds(ds.labels, folds, seed), 2)


def test_folds_partition_the_rows():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 53)
    folds = stratified_folds(labels, 5, seed=1)
    combined = np.concatenate(folds)
    assert len(combined) == 53
    np.testing.assert_array_equal(np.sort(combined), np.arange(53))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1


def test_folds_are_stratified():
    labels = np.asarray([0] * 40 + [1] * 10, dtype=np.uint8)
    folds = stratified_folds(labels, 5, seed=2)
    for f in folds:
        assert int(labels[f].sum()) == 2  # 10 attacks dealt evenly over 5 folds


def test_folds_deterministic_and_seed_sensitive():
    labels = np.random.default_rng(3).integers(0, 2, 40)
    a = stratified_folds(labels, 4, seed=9)
    b = stratified_folds(labels, 4, seed=9)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)
    with pytest.raises(DatasetError, match="folds"):
        stratified_folds(labels, 1, seed=0)


def test_folds_reject_an_empty_fold():
    labels = np.asarray([0] * 6 + [1] * 3, dtype=np.uint8)
    assert all(f.size for f in stratified_folds(labels, 6, seed=0))
    with pytest.raises(DatasetError, match="folds=7 would leave folds empty: "
                                           "the classes have 6 and 3 rows"):
        stratified_folds(labels, 7, seed=0)


@pytest.mark.parametrize("counts", [(19, 1), (1, 19), (20, 0), (0, 20)])
def test_folds_reject_a_class_of_fewer_than_two_rows(counts):
    labels = np.asarray([0] * counts[0] + [1] * counts[1], dtype=np.uint8)
    with pytest.raises(DatasetError, match=f"degenerate folds: the classes have "
                                           f"{counts[0]} and {counts[1]} rows"):
        stratified_folds(labels, 2, seed=0)


@pytest.mark.parametrize("counts", [(18, 2), (2, 18)])
def test_folds_of_two_rows_a_class_train_on_both_classes(counts):
    labels = np.asarray([0] * counts[0] + [1] * counts[1], dtype=np.uint8)
    for folds in range(2, 19):
        for held_out in stratified_folds(labels, folds, seed=folds):
            assert set(np.delete(labels, held_out).tolist()) == {0, 1}


def test_merit_of_perfect_feature_is_one():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 2, 60)
    signal = labels * 10.0 + rng.normal(0, 0.1, 60)
    ds = make_dataset(
        [
            ("signal", "numeric", signal),
            ("noise", "numeric", rng.normal(0, 1, 60)),
        ],
        labels,
    )
    assert wrapper_merit(ds, (0,)) == 1.0


def test_merit_of_noise_is_near_chance():
    rng = np.random.default_rng(5)
    labels = np.asarray([0, 1] * 100)
    ds = make_dataset([("noise", "numeric", rng.normal(0, 1, 200))], labels)
    merit = wrapper_merit(ds, (0,))
    assert 0.3 <= merit <= 0.7


def test_merit_matches_manual_fold_loop():
    rng = np.random.default_rng(6)
    ds = random_mixed_dataset(rng, 50, 4)
    subset = (1, 3)
    folds = 4
    seed = 7
    got = wrapper_merit(ds, subset, folds=folds, seed=seed)

    sub = ds.select(subset)
    accs = []
    for held_out in stratified_folds(ds.labels, folds, seed):
        fit_rows = np.setdiff1d(np.arange(ds.row_count), held_out)
        root = tree_mod.grow(sub.take_rows(fit_rows), min_leaf=2)
        predicted = tree_mod.predict(root, sub.take_rows(held_out))
        accs.append(float(np.mean(predicted == ds.labels[held_out])))
    assert got == float(np.mean(accs))


def test_merit_rejects_degenerate_folds():
    labels = [0] * 19 + [1]  # lone attack row starves its training split
    ds = make_dataset(
        [("x", "numeric", list(np.linspace(0, 1, 20)))], labels
    )
    with pytest.raises(DatasetError, match="degenerate"):
        wrapper_merit(ds, (0,), folds=2)


def search_dataset(seed=8, rows=60, features=3):
    rng = np.random.default_rng(seed)
    return random_mixed_dataset(rng, rows, features)


def test_search_evaluates_singletons_first():
    ds = search_dataset()
    _, trace = best_first_search(ds, folds=3)
    d = len(ds.columns)
    assert [s.subset for s in trace.steps[:d]] == [(f,) for f in range(d)]
    assert trace.expansion_sizes[0] == d


def test_search_finds_perfect_feature():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 2, 60)
    ds = make_dataset(
        [
            ("noise1", "numeric", rng.normal(0, 1, 60)),
            ("signal", "numeric", labels * 8.0 + rng.normal(0, 0.1, 60)),
            ("noise2", "numeric", rng.normal(0, 1, 60)),
        ],
        labels,
    )
    best, trace = best_first_search(ds, folds=3)
    assert 1 in best
    assert trace.best_merit == 1.0


def test_search_without_stop_rule_is_exhaustive():
    ds = search_dataset(seed=10, features=3)
    best, trace = best_first_search(ds, folds=3, stop_after=None)
    assert trace.stop_reason == "exhausted"
    seen = {s.subset for s in trace.steps}
    assert len(seen) == len(trace.steps) == 7  # every non-empty subset of 3


def test_exhaustive_search_attains_enumerated_maximum():
    ds = search_dataset(seed=11, rows=50, features=4)
    folds, seed = 3, 2
    best, trace = best_first_search(ds, folds=folds, stop_after=None, seed=seed)
    merits = {}
    for r in range(1, 5):
        for subset in itertools.combinations(range(4), r):
            merits[subset] = wrapper_merit(ds, subset, folds=folds, seed=seed)
    top = max(merits.values())
    assert trace.best_merit == top
    assert merits[tuple(sorted(best))] == top
    assert len(trace.steps) == len(merits)


def replay_improvements(trace, epsilon):
    """Recompute per-expansion improvement flags from the raw step log."""
    flags = []
    best = float("-inf")
    pos = 0
    for size in trace.expansion_sizes:
        improved = False
        for step in trace.steps[pos:pos + size]:
            if step.merit > best + epsilon:
                improved = True
            if step.merit > best:
                best = step.merit
        flags.append(improved)
        pos += size
    return flags


def test_stop_rule_trailing_run_matches_stop_after():
    ds = search_dataset(seed=12, rows=60, features=5)
    stop_after = 3
    epsilon = 1e-5
    best, trace = best_first_search(
        ds, folds=3, stop_after=stop_after, epsilon=epsilon
    )
    assert trace.stop_reason == "stop_rule"
    flags = replay_improvements(trace, epsilon)
    trailing = 0
    for improved in reversed(flags):
        if improved:
            break
        trailing += 1
    assert trailing == stop_after
    assert sum(trace.expansion_sizes) == len(trace.steps)


def test_trace_invariants():
    ds = search_dataset(seed=13)
    best, trace = best_first_search(ds, folds=3)
    merits = [s.merit for s in trace.steps]
    assert trace.best_merit == max(merits)
    assert trace.best_subset in {s.subset for s in trace.steps}
    assert best == trace.best_subset
    times = [s.timestamp for s in trace.steps]
    assert all(a <= b for a, b in zip(times, times[1:]))
    subsets = [frozenset(s.subset) for s in trace.steps]
    assert len(set(subsets)) == len(subsets)  # no subset scored twice


def test_search_deterministic():
    ds = search_dataset(seed=14)
    a_best, a_trace = best_first_search(ds, folds=3, seed=5)
    b_best, b_trace = best_first_search(ds, folds=3, seed=5)
    assert a_best == b_best
    assert [(s.subset, s.merit) for s in a_trace.steps] == [
        (s.subset, s.merit) for s in b_trace.steps
    ]


def test_search_argument_errors():
    ds = search_dataset(seed=15)
    with pytest.raises(DatasetError, match="stop_after"):
        best_first_search(ds, stop_after=0)
    with pytest.raises(DatasetError, match="epsilon"):
        best_first_search(ds, epsilon=-1.0)


def test_subset_names_preserves_order():
    ds = search_dataset(seed=16)
    names = subset_names(ds, (2, 0))
    assert names == (ds.columns[2].name, ds.columns[0].name)


def test_trace_jsonl_round_trip():
    ds = search_dataset(seed=17)
    _, trace = best_first_search(ds, folds=3)
    text = trace_to_jsonl(trace, ds.feature_names)
    lines = [json.loads(line) for line in text.strip().split("\n")]
    assert len(lines) == len(trace.steps) + 1
    for doc, step in zip(lines, trace.steps):
        assert doc["subset"] == [ds.feature_names[f] for f in step.subset]
        assert doc["merit"] == step.merit
    summary = lines[-1]
    assert summary["stop_reason"] == trace.stop_reason
    assert summary["expansions"] == trace.expansions
    assert summary["best_merit"] == trace.best_merit
