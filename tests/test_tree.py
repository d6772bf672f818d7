import json
import math
import signal
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from fsel_ids import tree as tree_mod
from fsel_ids.dataset import Dataset, DatasetError
from fsel_ids.models import (
    fit_model,
    model_from_json,
    model_to_json,
    params_from_dict,
    predict_model,
)
from fsel_ids.preprocess import apply_preprocess, fit_preprocess
from fsel_ids.tree import (
    MIN_GAIN,
    Tree,
    cut_threshold,
    depth,
    grow,
    node_count,
    pessimistic_errors,
    predict,
    prune,
)

from conftest import make_dataset, random_mixed_dataset


def leaf_count(tree: Tree) -> int:
    return sum("children" not in node for node in tree["nodes"])


def grow_task(ds, rows=None, *, min_leaf=2, rng=None, feature_sample=None) -> Tree:
    """The tree of one ``grow_many`` task on every feature of ``ds``."""
    (tree,) = tree_mod.grow_many(ds, [(range(len(ds.columns)), rows, rng, feature_sample)],
                                 min_leaf=min_leaf)
    return tree


def test_pure_labels_give_single_leaf():
    ds = make_dataset([("x", "numeric", [1.0, 2.0, 3.0])], [1, 1, 1])
    tree = grow(ds)
    assert tree == {"nodes": [{"counts": [0, 3]}]}
    np.testing.assert_array_equal(predict(tree, ds), [1, 1, 1])


def test_perfect_nominal_feature_splits_once():
    labels = [0, 0, 0, 1, 1, 1]
    ds = make_dataset(
        [("flag", "nominal", labels, ("off", "on"))], labels
    )
    tree = grow(ds)
    assert tree == {"nodes": [
        {"counts": [3, 3], "feature": 0, "children": [1, 2], "codes": [0, 1], "default_child": 0},
        {"counts": [3, 0]},
        {"counts": [0, 3]},
    ]}
    assert depth(tree) == 1
    np.testing.assert_array_equal(predict(tree, ds), labels)


def test_hand_traced_numeric_tree():
    ds = make_dataset(
        [("x", "numeric", [1.0, 2.0, 3.0, 4.0, 5.0])], [0, 0, 1, 1, 1]
    )
    tree = grow(ds, min_leaf=1)
    assert tree == {"nodes": [
        {"counts": [2, 3], "feature": 0, "children": [1, 2], "threshold": 2.5},
        {"counts": [2, 0]},
        {"counts": [0, 3]},
    ]}
    assert node_count(tree) == 3
    assert leaf_count(tree) == 2
    np.testing.assert_array_equal(predict(tree, ds), [0, 0, 1, 1, 1])
    # boundary value routes into the <= branch
    probe = make_dataset([("x", "numeric", [2.5, 2.500001])], [0, 0])
    np.testing.assert_array_equal(predict(tree, probe), [0, 1])


def test_leaf_tie_predicts_attack():
    ds = make_dataset([("x", "numeric", [0.0])], [0])
    for counts in ([1, 1], [0, 0]):
        np.testing.assert_array_equal(predict({"nodes": [{"counts": counts}]}, ds), [1])


def oracle_entropy(attack, total):
    if total == 0:
        return 0.0
    acc = 0.0
    for c in (attack, total - attack):
        if c > 0:
            p = c / total
            acc -= p * math.log2(p)
    return acc


def oracle_candidates(ds, min_leaf):
    """Every admissible root split by brute force, as (feature, threshold,
    gain, score). A nominal split (threshold nan) scores its gain ratio. A
    numeric cut is admissible when each side keeps ``min_leaf`` rows, and
    scores what C4.5 Release 8 would give its feature were it the feature's
    cut: its gain less log2(the feature's admissible cuts) / n, over its
    split info. Splits scoring a gain of at most MIN_GAIN are left out."""
    y = ds.labels.tolist()
    n = len(y)
    parent = oracle_entropy(sum(y), n)
    found = []
    for f, col in enumerate(ds.columns):
        if col.kind == "nominal":
            groups = {}
            for v, lab in zip(col.values.tolist(), y):
                t, a = groups.get(v, (0, 0))
                groups[v] = (t + 1, a + lab)
            if len(groups) < 2:
                continue
            cond = sum(t * oracle_entropy(a, t) for t, a in groups.values()) / n
            gain = parent - cond
            if gain <= MIN_GAIN:
                continue
            info = -sum((t / n) * math.log2(t / n) for t, _ in groups.values())
            found.append((f, math.nan, gain, gain / info))
        else:
            vals = sorted(set(col.values.tolist()))
            cuts = []
            for lo, hi in zip(vals, vals[1:]):
                thr = (lo + hi) / 2.0
                left = [lab for v, lab in zip(col.values.tolist(), y) if v <= thr]
                right = [lab for v, lab in zip(col.values.tolist(), y) if v > thr]
                if min(len(left), len(right)) < min_leaf:
                    continue
                cond = (
                    len(left) * oracle_entropy(sum(left), len(left))
                    + len(right) * oracle_entropy(sum(right), len(right))
                ) / n
                cuts.append((thr, parent - cond, oracle_entropy(len(left), n)))
            for thr, gain, info in cuts:
                penalised = gain - math.log2(len(cuts)) / n
                if penalised > MIN_GAIN:
                    found.append((f, thr, gain, penalised / info))
    return found


def assert_best_split(node, ds, min_leaf):
    """``node``, grown on all of ``ds``, splits as the oracle's best candidate
    says, or is a leaf that may not split or has no candidate."""
    candidates = oracle_candidates(ds, min_leaf)
    if "children" not in node:
        normal, attack = node["counts"]
        assert not candidates or 0 in (normal, attack) or normal + attack < min_leaf
        return
    assert candidates, "oracle found no admissible split"
    # A numeric feature competes with its highest-gain cuts only.
    top = {}
    for f, _, gain, _ in candidates:
        top[f] = max(top.get(f, -math.inf), gain)
    competing = [(f, thr, r) for f, thr, gain, r in candidates if gain >= top[f] - 1e-12]
    best_ratio = max(r for _, _, r in competing)
    if "codes" not in node:
        mine = [
            r
            for f, thr, r in competing
            if f == node["feature"] and thr == pytest.approx(node["threshold"], abs=1e-12)
        ]
    else:
        mine = [r for f, thr, r in competing if f == node["feature"] and math.isnan(thr)]
    assert len(mine) == 1
    assert mine[0] == pytest.approx(best_ratio, abs=1e-9)


@pytest.mark.parametrize("rows", [16, 50])
@pytest.mark.parametrize("min_leaf", [1, 2, 5])
@pytest.mark.parametrize("seed", range(6))
def test_root_split_attains_best_gain_ratio(seed, min_leaf, rows):
    rng = np.random.default_rng(seed)
    ds = random_mixed_dataset(rng, rows, 3)
    root = grow(ds, min_leaf=min_leaf)["nodes"][0]
    assert "children" in root
    assert_best_split(root, ds, min_leaf)


@pytest.mark.parametrize("min_leaf", [1, 2, 5])
@pytest.mark.parametrize("seed", range(4))
def test_every_node_attains_the_best_gain_ratio_of_its_rows(seed, min_leaf):
    ds = random_mixed_dataset(np.random.default_rng(seed), 60, 3)
    tree = grow(ds, min_leaf=min_leaf)
    stack = [(0, np.arange(ds.row_count))]  # (node, the rows that reach it)
    while stack:
        i, rows = stack.pop()
        node = tree["nodes"][i]
        assert_best_split(node, ds.take_rows(rows), min_leaf)
        if "children" in node:
            values = ds.columns[node["feature"]].values[rows]
            masks = ([values == code for code in node["codes"]] if "codes" in node
                     else [values <= node["threshold"], values > node["threshold"]])
            stack.extend((c, rows[mask]) for c, mask in zip(node["children"], masks))


def test_distinct_numeric_values_reproduce_training_labels():
    # Shuffled distinct values whose labels alternate in runs of 10 along
    # the sorted order: every run boundary is a cut the penalty admits.
    rng = np.random.default_rng(17)
    values = rng.permutation(np.linspace(0.0, 1.0, 400))
    labels = (np.argsort(np.argsort(values)) // 10 % 2).tolist()
    ds = make_dataset([("x", "numeric", values)], labels)
    tree = grow(ds, min_leaf=1)
    assert leaf_count(tree) == 40
    np.testing.assert_array_equal(predict(tree, ds), labels)


def test_min_leaf_larger_than_dataset_gives_leaf():
    ds = make_dataset([("x", "numeric", [1.0, 2.0, 3.0, 4.0])], [0, 1, 0, 1])
    assert grow(ds, min_leaf=5) == {"nodes": [{"counts": [2, 2]}]}


def test_unseen_category_routes_to_largest_child():
    cats = ("a", "b", "c", "d")
    codes = [0] * 6 + [1] * 3 + [2] * 2
    labels = [0] * 6 + [1] * 3 + [1] * 2
    train = make_dataset([("proto", "nominal", codes, cats)], labels)
    tree = grow(train)
    # six rows went down the first branch
    assert tree["nodes"][0] == {"counts": [6, 5], "feature": 0, "children": [1, 2, 3],
                                "codes": [0, 1, 2], "default_child": 0}
    probe = make_dataset([("proto", "nominal", [3, 1], cats)], [0, 0])
    np.testing.assert_array_equal(predict(tree, probe), [0, 1])


@pytest.mark.parametrize("seed", [301, 302, 304, 306])
def test_a_task_on_rows_grows_the_tree_of_the_taken_rows(seed):
    rng = np.random.default_rng(seed)
    ds = random_mixed_dataset(rng, 160, 6)
    n = ds.row_count
    subset = np.sort(rng.choice(n, size=n // 2, replace=False))
    draw = rng.integers(0, n, size=n)
    assert np.unique(draw).size < n  # a bootstrap draw repeats rows
    for rows in (subset, draw):
        taken = ds.take_rows(rows)
        for min_leaf, sample in ((2, None), (1, 3)):
            mine_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            tree = grow_task(ds, rows, min_leaf=min_leaf, rng=mine_rng, feature_sample=sample)
            assert tree == grow_task(taken, min_leaf=min_leaf, rng=ref_rng,
                                     feature_sample=sample)
            assert mine_rng.bit_generator.state == ref_rng.bit_generator.state
            assert {"codes" in node for node in tree["nodes"] if "children" in node} == {
                True, False}
            for probe in (rows, draw, np.arange(n)[::-1]):
                np.testing.assert_array_equal(predict(tree, ds)[probe],
                                              predict(tree, ds.take_rows(probe)))


def test_rows_of_a_category_unseen_at_a_node_take_its_default_child():
    # Rows 0-9 fall at x <= 0.5 and are normal; above it proto decides,
    # and the tree is grown without proto "d" (rows 20-22).
    codes = [0, 1] * 5 + [0] * 3 + [1] * 4 + [2] * 3 + [3] * 3
    labels = [0] * 10 + [0] * 3 + [1] * 4 + [1] * 3 + [0] * 3
    x = [0.0] * 10 + [1.0] * 13
    ds = make_dataset([("x", "numeric", x), ("proto", "nominal", codes, "abcd")], labels)
    fit_rows = np.arange(20)
    tree = grow_task(ds, fit_rows, min_leaf=1)
    assert tree == grow(ds.take_rows(fit_rows), min_leaf=1)
    nominal = [node for node in tree["nodes"] if "codes" in node]
    assert "threshold" in tree["nodes"][0]
    assert [(node["codes"], node["default_child"]) for node in nominal] == [([0, 1, 2], 1)]
    probe = np.array([22, 15, 20, 3, 12, 22])
    np.testing.assert_array_equal(predict(tree, ds)[probe], predict(tree, ds.take_rows(probe)))
    # "d" goes to the largest branch, proto "b"'s four attack rows
    np.testing.assert_array_equal(predict(tree, ds.take_rows(probe)), [1, 1, 1, 0, 0, 1])


def test_grow_argument_errors():
    ds = make_dataset([("x", "numeric", [1.0, 2.0])], [0, 1])
    with pytest.raises(DatasetError, match="min_leaf"):
        grow(ds, min_leaf=0)
    with pytest.raises(DatasetError, match="rng"):
        grow_task(ds, feature_sample=1)
    empty = make_dataset([("x", "numeric", [])], [])
    with pytest.raises(DatasetError, match="empty"):
        grow(empty)


def test_feature_sampling_is_deterministic_per_rng():
    rng_data = np.random.default_rng(2)
    ds = random_mixed_dataset(rng_data, 60, 5)
    a = grow_task(ds, min_leaf=2, rng=np.random.default_rng(7), feature_sample=2)
    b = grow_task(ds, min_leaf=2, rng=np.random.default_rng(7), feature_sample=2)
    assert a == b


def test_pessimistic_errors_zero_case_and_monotonicity():
    n = 12
    assert pessimistic_errors(0, n, 0.25) == pytest.approx(
        n * (1.0 - 0.25 ** (1.0 / n)), abs=1e-12
    )
    estimates = [pessimistic_errors(e, n, 0.25) for e in range(0, 6)]
    assert all(a < b for a, b in zip(estimates, estimates[1:]))
    assert pessimistic_errors(12, 12, 0.25) == 12.0
    assert pessimistic_errors(0, 0, 0.25) == 0.0


def test_pessimistic_errors_exceed_observed():
    for e in range(0, 9):
        assert pessimistic_errors(e, 10, 0.25) > e


@pytest.mark.parametrize("seed", range(5))
def test_pruning_never_grows_the_tree(seed):
    rng = np.random.default_rng(seed)
    ds = random_mixed_dataset(rng, 80, 4)
    tree = grow(ds, min_leaf=1)
    pruned = prune(tree)
    assert node_count(pruned) <= node_count(tree)
    assert pruned["nodes"][0]["counts"] == tree["nodes"][0]["counts"]
    # pruned tree still routes every row somewhere
    assert predict(pruned, ds).shape == (80,)


def test_pruning_collapses_label_noise():
    # Labels follow x's sign with a tenth of them flipped, and a nominal
    # column of noise: the tree splits on x, then on the noise below it,
    # which pruning collapses, keeping the split on x.
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 120)
    labels = (x > 0) ^ (rng.random(120) < 0.1)
    noise = rng.integers(0, 4, size=120)
    ds = make_dataset([("x", "numeric", x), ("noise", "nominal", noise, "abcd")], labels)
    full = grow(ds, min_leaf=1)
    assert any("codes" in node for node in full["nodes"])
    pruned = prune(full)
    assert node_count(pruned) < node_count(full)
    assert node_count(pruned) == 3 and pruned["nodes"][0]["feature"] == 0


def test_prune_leaf_is_identity():
    leaf = {"nodes": [{"counts": [4, 1]}]}
    assert prune(leaf) == leaf


def test_prune_rejects_bad_confidence():
    with pytest.raises(DatasetError, match="confidence"):
        prune({"nodes": [{"counts": [1, 1]}]}, confidence=0.0)


# Reference implementation: a recursive grower that scores each node alone,
# numeric cuts by a plain-Python loop over every admissible cut under C4.5
# Release 8's rule, so that the lock-step vectorised one can be checked
# against it for equal trees, floats and rng draws included. Its
# ``k * log2(k)`` terms and its penalty's log2 are numpy's, as the grower's
# are, and each formula keeps the grower's operation order, so equal trees
# mean equal floats. It builds nested nodes, which ``_flatten`` turns into a
# tree document.

@dataclass(frozen=True, eq=False)
class _RefNode:
    counts: tuple[int, int]
    feature: int = -1
    threshold: float = math.nan
    codes: tuple[int, ...] = ()
    children: tuple["_RefNode", ...] = ()
    default_child: int = 0


def _flatten(root: _RefNode) -> Tree:
    """The pre-order tree document of a nested reference tree."""
    nodes: list[dict] = []
    stack = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        if parent >= 0:
            nodes[parent]["children"].append(len(nodes))
        stack.extend((child, len(nodes)) for child in reversed(node.children))
        doc = {"counts": list(node.counts)}
        if node.children:
            doc.update(feature=node.feature, children=[])
            doc.update({"codes": list(node.codes), "default_child": node.default_child}
                       if node.codes else {"threshold": node.threshold})
        nodes.append(doc)
    return {"nodes": nodes}


def _xlog2x(v: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape, dtype=np.float64)
    nz = v > 0
    out[nz] = v[nz] * np.log2(v[nz])
    return out


def _entropy_counts(attack: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Binary entropy in bits from attack counts and totals (total > 0)."""
    normal = total - attack
    return (_xlog2x(total) - _xlog2x(attack) - _xlog2x(normal)) / total


@dataclass(frozen=True)
class _Candidate:
    feature: int
    gain: float
    ratio: float
    threshold: float = math.nan


def _best_numeric_split(values, labels, parent_entropy, min_leaf, xl) -> _Candidate | None:
    """C4.5 Release 8's cut of one numeric feature at a node, by an exhaustive
    loop: the first highest gain among the cuts that leave ``min_leaf`` rows
    on each side, less log2(those cuts) / n, over that cut's split info."""
    rows = sorted(zip(values.tolist(), labels.tolist()))
    n = len(rows)
    total_attack = sum(lab for _, lab in rows)
    admissible, best = 0, None  # best: (gain, rows left of the cut, threshold)
    n_left = a_left = 0
    for (v, lab), (upper, _) in zip(rows, rows[1:]):
        n_left += 1
        a_left += lab
        n_right = n - n_left
        if v == upper or n_left < min_leaf or n_right < min_leaf:
            continue
        admissible += 1
        a_right = total_attack - a_left
        cond = ((xl[n_left] - xl[a_left] - xl[n_left - a_left]) / n_left * n_left
                + (xl[n_right] - xl[a_right] - xl[n_right - a_right]) / n_right * n_right) / n
        gain = parent_entropy - cond
        if best is None or gain > best[0]:
            best = (gain, n_left, (v + upper) / 2.0)
    if best is None:
        return None
    gain, n_left, threshold = best
    gain -= float(np.log2(admissible)) / n
    if gain <= MIN_GAIN:
        return None
    split_info = (xl[n] - xl[n_left] - xl[n - n_left]) / n
    return _Candidate(-1, gain, gain / split_info, threshold)


def _nominal_split(codes, labels, parent_entropy) -> _Candidate | None:
    n = codes.size
    totals = np.bincount(codes)
    attacks = np.bincount(codes, weights=labels).astype(np.float64)
    present = totals > 0
    if int(present.sum()) < 2:
        return None
    t = totals[present].astype(np.float64)
    a = attacks[present]
    cond = float(np.sum(t * _entropy_counts(a, t))) / n
    gain = parent_entropy - cond
    if gain <= MIN_GAIN:
        return None
    split_info = (float(n) * math.log2(n) - float(_xlog2x(t).sum())) / n
    return _Candidate(-1, gain, gain / split_info)


class _Grower:
    def __init__(self, ds: Dataset, min_leaf: int, rng, feature_sample: int | None):
        self.ds = ds
        self.labels = ds.labels
        self.min_leaf = min_leaf
        self.rng = rng
        self.feature_sample = feature_sample
        self.xl = _xlog2x(np.arange(ds.row_count + 1, dtype=np.float64)).tolist()

    def _candidate_features(self) -> np.ndarray:
        d = len(self.ds.columns)
        if self.feature_sample is None or self.feature_sample >= d:
            return np.arange(d)
        drawn = self.rng.choice(d, size=self.feature_sample, replace=False)
        return np.sort(drawn)

    def grow(self, rows: np.ndarray) -> _RefNode:
        y = self.labels[rows]
        attack = int(np.count_nonzero(y))
        counts = (len(rows) - attack, attack)
        if attack == 0 or attack == len(rows) or len(rows) < self.min_leaf:
            return _RefNode(counts)
        parent_entropy = float(
            _entropy_counts(np.asarray([float(attack)]), np.asarray([float(len(rows))]))[0]
        )
        best: _Candidate | None = None
        for f in self._candidate_features():
            col = self.ds.columns[int(f)]
            values = col.values[rows]
            if col.kind == "numeric":
                cand = _best_numeric_split(values, y, parent_entropy, self.min_leaf, self.xl)
            else:
                cand = _nominal_split(values, y, parent_entropy)
            if cand is None:
                continue
            cand = _Candidate(int(f), cand.gain, cand.ratio, cand.threshold)
            if best is None or cand.ratio > best.ratio:
                best = cand
        if best is None:
            return _RefNode(counts)
        col = self.ds.columns[best.feature]
        if col.kind == "numeric":
            mask = col.values[rows] <= best.threshold
            left = self.grow(rows[mask])
            right = self.grow(rows[~mask])
            return _RefNode(counts, best.feature, best.threshold, (), (left, right))
        values = col.values[rows]
        present = np.unique(values)
        children = tuple(self.grow(rows[values == code]) for code in present)
        masses = [sum(c.counts) for c in children]
        default = int(np.argmax(masses))
        return _RefNode(
            counts,
            best.feature,
            math.nan,
            tuple(int(c) for c in present),
            children,
            default,
        )


def _reference_grow(ds, *, min_leaf=2, rng=None, feature_sample=None) -> _RefNode:
    return _Grower(ds, min_leaf, rng, feature_sample).grow(np.arange(ds.row_count))


def _with_ties(ds):
    """Round every numeric column to one decimal so that values repeat."""
    columns = []
    for col in ds.columns:
        if col.kind == "numeric":
            columns.append((col.name, "numeric", np.round(col.values, 1)))
        else:
            columns.append((col.name, "nominal", col.values, col.categories))
    return make_dataset(columns, ds.labels)


def _all_nominal(ds):
    """Bin every numeric column into four categories at its quartiles."""
    columns = []
    for col in ds.columns:
        if col.kind == "numeric":
            edges = np.quantile(col.values, [0.25, 0.5, 0.75])
            codes = np.searchsorted(edges, col.values)
            columns.append((col.name, "nominal", codes, ("q1", "q2", "q3", "q4")))
        else:
            columns.append((col.name, "nominal", col.values, col.categories))
    return make_dataset(columns, ds.labels)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("min_leaf", [1, 2, 5])
def test_grow_matches_recursive_reference(seed, min_leaf):
    rng = np.random.default_rng(100 + seed)
    raw = random_mixed_dataset(rng, 150, 6)
    for ds in (raw, _with_ties(raw), _all_nominal(raw)):
        assert grow(ds, min_leaf=min_leaf) == _flatten(_reference_grow(ds, min_leaf=min_leaf))
        for sample in (2, 3):
            mine_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            mine = grow_task(ds, min_leaf=min_leaf, rng=mine_rng, feature_sample=sample)
            ref = _reference_grow(ds, min_leaf=min_leaf, rng=ref_rng, feature_sample=sample)
            assert mine == _flatten(ref)
            assert mine_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(3))
def test_forest_roots_match_recursive_reference(seed):
    raw = random_mixed_dataset(np.random.default_rng(200 + seed), 120, 7)
    params = params_from_dict("forest", {"n_trees": 4, "min_leaf": 1}, seed=seed)
    for ds in (apply_preprocess(fit_preprocess(d), d) for d in (raw, _all_nominal(raw))):
        n, sample = ds.row_count, math.ceil(math.sqrt(len(ds.columns)))
        reference = []
        for t in range(params.n_trees):  # each tree's rng draws its bootstrap, then its features
            rng = np.random.default_rng(seed + t)
            rows = rng.integers(0, n, size=n)
            reference.append(_flatten(_reference_grow(ds.take_rows(rows), min_leaf=1, rng=rng,
                                                      feature_sample=sample)))
        assert fit_model(ds, params).payload == tuple(reference)


def _mixed_tasks(ds, seed):
    """Grow tasks over ``ds`` that differ in features, rows and sampling:
    all rows, a bootstrap draw with repeats, a sorted half, and every row
    twice (more rows than ``ds`` has), each with and without a feature
    sample from the task's own rng."""
    draw = np.random.default_rng(seed)
    d, n = len(ds.columns), ds.row_count
    tasks = []
    for t in range(12):
        width = int(draw.integers(1, d + 1))
        features = sorted(draw.choice(d, size=width, replace=False).tolist())
        rows = (None, draw.integers(0, n, size=n),
                np.sort(draw.choice(n, size=n // 2, replace=False)),
                np.tile(np.arange(n), 2))[t % 4]
        sample = (None, 1, 2)[t // 4]
        tasks.append((features, rows, np.random.default_rng(1000 * seed + t), sample))
    return tasks


def _reference_task(ds, task, min_leaf):
    """``_reference_grow`` of one task, with a fresh copy of its rng: (tree, rng)."""
    features, rows, rng, sample = task
    sub = ds.select(features)
    ref_rng = np.random.default_rng()
    ref_rng.bit_generator.state = rng.bit_generator.state
    ref = _reference_grow(sub if rows is None else sub.take_rows(rows), min_leaf=min_leaf,
                          rng=ref_rng, feature_sample=sample)
    return _flatten(ref), ref_rng


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("min_leaf", [1, 2, 5])
def test_grow_many_matches_the_recursive_reference_per_task(seed, min_leaf):
    raw = random_mixed_dataset(np.random.default_rng(400 + seed), 120, 6)
    for ds in (raw, _with_ties(raw), _all_nominal(raw)):
        tasks = _mixed_tasks(ds, seed)
        references = [_reference_task(ds, task, min_leaf) for task in tasks]
        grown = list(tree_mod.grow_many(ds, tasks, min_leaf=min_leaf))
        assert len(grown) == len(tasks)
        for i, (tree, ref_rng) in enumerate(references):
            assert grown[i] == tree
            assert tasks[i][2].bit_generator.state == ref_rng.bit_generator.state


def test_grow_many_splits_a_step_over_the_element_and_row_caps(monkeypatch):
    ds = random_mixed_dataset(np.random.default_rng(9), 150, 6)
    tasks = _mixed_tasks(ds, 3)
    references = [_reference_task(ds, task, 2) for task in tasks]
    scans = []
    scan = tree_mod._scan

    def recorded(values, y, m, *args, **kwargs):
        scans.append(m.copy())
        return scan(values, y, m, *args, **kwargs)

    monkeypatch.setattr(tree_mod, "_scan", recorded)
    monkeypatch.setattr(tree_mod, "MAX_SCAN_ELEMENTS", 40)
    monkeypatch.setattr(tree_mod, "MAX_ROWS_IN_FLIGHT", 200)
    grown = list(tree_mod.grow_many(ds, tasks))
    assert grown == [tree for tree, _ in references]
    assert any(m.size == 1 and m[0] > 40 for m in scans)  # a pair above the cap, alone
    assert any(m.size > 1 for m in scans)
    assert all(m.size == 1 or m.sum() <= 40 for m in scans)


def _held_out_tasks(ds, seed):
    """Tasks that count their held-out hits, over ``ds``: fit rows drawn
    with repeats, or every row but those of category 0 and most of category
    1 in one nominal column, which is then in the task's features (alone in
    some), so that a split on it sends its held-out category-0 rows to a
    default branch other than the first; held-out rows drawn with repeats,
    and one task with none."""
    draw = np.random.default_rng(seed)
    d, n = len(ds.columns), ds.row_count
    nominal = [f for f, col in enumerate(ds.columns) if col.kind == "nominal"]
    tasks = []
    for t in range(9):
        features = sorted(draw.choice(d, size=int(draw.integers(1, d + 1)),
                                      replace=False).tolist())
        fit, held = draw.integers(0, n, size=n), draw.integers(0, n, size=n // 3)
        if t % 2 and nominal:
            f = nominal[t % len(nominal)]
            features = [f] if t % 4 == 1 else sorted({*features, f})
            values = ds.columns[f].values
            fit = np.flatnonzero((values != 0) & ((values != 1) | (draw.random(n) < 0.3)))
            held = np.concatenate((held, np.flatnonzero(values == 0)))
        tasks.append((features, fit, None, None, held if t < 8 else []))
    return tasks


def _held_out_hits(ds, task, min_leaf):
    """(held-out rows that ``predict`` labels right, tree) of one task, by
    ``grow`` and ``predict`` on the taken rows."""
    features, fit, _, _, held = task
    sub = ds.select(features)
    tree = grow(sub.take_rows(fit), min_leaf=min_leaf)
    held = np.asarray(held, dtype=np.intp)
    return int(np.count_nonzero(predict(tree, sub.take_rows(held)) == ds.labels[held])), tree


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("min_leaf", [1, 2, 5])
@pytest.mark.parametrize("small_caps", [False, True])
def test_grow_many_counts_the_held_out_rows_predict_gets_right(seed, min_leaf, small_caps,
                                                               monkeypatch):
    if small_caps:
        monkeypatch.setattr(tree_mod, "MAX_SCAN_ELEMENTS", 40)
        monkeypatch.setattr(tree_mod, "MAX_ROWS_IN_FLIGHT", 200)
    raw = random_mixed_dataset(np.random.default_rng(500 + seed), 120, 6)
    unseen = 0  # held-out rows sent to a root's default branch, not its first
    for ds in (raw, _with_ties(raw), _all_nominal(raw)):
        scoring = _held_out_tasks(ds, seed)
        expected = [_held_out_hits(ds, task, min_leaf) for task in scoring]
        plain = [(f, rows, None, None) for f, rows, _, _ in _mixed_tasks(ds, seed)[:4]]
        got = list(tree_mod.grow_many(ds, scoring + plain, min_leaf=min_leaf))
        assert got[:len(scoring)] == [hits for hits, _ in expected]
        assert got[len(scoring):] == [
            grow_task(ds.select(f), rows, min_leaf=min_leaf) for f, rows, _, _ in plain]
        for (features, _, _, _, held), (_, tree) in zip(scoring, expected):
            root = tree["nodes"][0]
            if "codes" in root and 0 not in root["codes"] and root["default_child"] > 0:
                unseen += np.count_nonzero(
                    ds.columns[features[root["feature"]]].values[held] == 0)
    assert unseen > 0


def test_grow_many_sends_an_unseen_category_to_the_first_largest_branch():
    # The fit rows show categories 1, 2 and 3 in 2, 6 and 6 rows, so held-out
    # rows of category 0 go to category 2's branch, which predicts attack.
    codes = [1] * 2 + [2] * 6 + [3] * 6 + [0] * 3
    labels = [0, 0] + [1, 1, 1, 1, 1, 0] + [0] * 6 + [1, 1, 0]
    ds = make_dataset([("x", "nominal", codes, ("c0", "c1", "c2", "c3"))], labels)
    fit, held = np.arange(14), np.arange(14, 17)
    tree = grow(ds.take_rows(fit))
    assert tree["nodes"][0] == {"counts": [9, 5], "feature": 0, "children": [1, 2, 3],
                                "codes": [1, 2, 3], "default_child": 1}
    assert predict(tree, ds.take_rows(held)).tolist() == [1, 1, 1]
    assert list(tree_mod.grow_many(ds, [([0], fit, None, None, held)])) == [2]


def test_grow_many_yields_in_task_order_when_a_later_task_finishes_first(monkeypatch):
    ds = random_mixed_dataset(np.random.default_rng(5), 200, 4)
    pure = np.flatnonzero(ds.labels == 1)[:3]
    steps, finished = [], {}  # growing tasks per step; the step each task finished in
    step = tree_mod._step

    def counted(growing, *args):
        steps.append(len(growing))
        step(growing, *args)
        finished.update((g.index, len(steps)) for g in growing
                         if not g.stack and g.index not in finished)

    monkeypatch.setattr(tree_mod, "_step", counted)
    got = list(tree_mod.grow_many(ds, [(range(4), None, None, None), ([0], pure, None, None)]))
    assert finished[1] == 1 < finished[0] == len(steps)  # the pure one: its root is a leaf
    assert got == [grow(ds), {"nodes": [{"counts": [0, 3]}]}]
    assert list(tree_mod.grow_many(ds, [])) == []


def test_grow_many_takes_a_lazy_task_only_as_its_tree_can_start(monkeypatch):
    monkeypatch.setattr(tree_mod, "MAX_ROWS_IN_FLIGHT", 300)
    ds = random_mixed_dataset(np.random.default_rng(6), 200, 4)
    taken = []

    def tasks():
        for t in range(6):
            taken.append(t)
            yield range(4), None, np.random.default_rng(t), 2

    results = tree_mod.grow_many(ds, tasks())
    first = next(results)
    assert taken == [0, 1]  # tree 0 grows alone: 200 + 200 rows pass the bound
    assert [first, *results] == [grow_task(ds, rng=np.random.default_rng(t), feature_sample=2)
                                 for t in range(6)]
    assert taken == list(range(6))


@pytest.mark.parametrize("task, min_leaf, match", [
    (((), None, None, None), 2, "no features"),
    (([0], np.array([], dtype=np.int64), None, None), 2, "empty"),
    (([0], None, None, 1), 2, "rng"),
    (([0, 4], None, None, None), 2, "feature index out of range"),
    (([-1], None, None, None), 2, "feature index out of range"),
    (([0], None, None, None), 0, "min_leaf"),
    (([0, 1], [-1, 0], None, None), 2, r"task 1: fit row -1 is outside \[0, 2\)"),
    (([0, 1], [0, 2], None, None), 2, r"task 1: fit row 2 is outside"),
    (([0, 1], None, None, None, [1, -1]), 2, r"task 1: held-out row -1 is outside"),
    (([0, 1], [0, 1], None, None, [2]), 2, r"task 1: held-out row 2 is outside"),
    (([0, 1], [True, False], None, None), 2, r"task 1: fit rows are bool, not row indices"),
    (([0, 1], [0, 1], None, None, [0.5]), 2, r"task 1: held-out rows are float64"),
])
def test_grow_many_argument_errors(task, min_leaf, match):
    ds = make_dataset([("x", "numeric", [1.0, 2.0]), ("y", "numeric", [2.0, 1.0])], [0, 1])
    fine = ([0, 1], None, None, None)
    with pytest.raises(DatasetError, match=match):
        list(tree_mod.grow_many(ds, [fine, task], min_leaf=min_leaf))


def test_deep_chain_tree_needs_no_recursion():
    # Sorted distinct values labelled in alternating runs of 300, 299, ...,
    # 1 rows: each split peels the longest run off the low end, so the tree
    # is a chain of 299 splits, deeper than the recursion limit set here.
    runs = 300
    labels = np.repeat(np.arange(runs) % 2, np.arange(runs, 0, -1))
    n = labels.size
    ds = make_dataset([("x", "numeric", np.arange(n, dtype=np.float64))], labels)
    frames, frame = 0, sys._getframe()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 100)
    try:
        assert runs - 1 > sys.getrecursionlimit()
        tree = grow(ds, min_leaf=1)
        assert depth(tree) == runs - 1
        assert node_count(tree) == 2 * runs - 1
        assert leaf_count(tree) == runs
        np.testing.assert_array_equal(predict(tree, ds), labels)
        assert node_count(prune(tree)) <= node_count(tree)
        assert tree == grow(ds, min_leaf=1)
        assert tree["nodes"][:2] == [
            {"counts": [22650, 22500], "feature": 0, "children": [1, 2], "threshold": 299.5},
            {"counts": [300, 0]},
        ]

        model = fit_model(ds, params_from_dict("tree", {"min_leaf": 1, "prune": False}))
        assert repr(model).startswith("TrainedModel(")
        _, again = model_from_json(model_to_json(fit_preprocess(ds), model))
        assert again.payload == model.payload
        np.testing.assert_array_equal(predict_model(again, ds), predict_model(model, ds))
        np.testing.assert_array_equal(predict_model(again, ds), labels)
    finally:
        sys.setrecursionlimit(limit)


def test_tree_document_is_flat_preorder():
    ds = make_dataset([("x", "numeric", [1.0, 2.0, 3.0, 4.0, 5.0])], [0, 0, 1, 1, 1])
    tree = grow(ds, min_leaf=1)
    doc = json.loads(json.dumps(tree))
    assert json.dumps(tree) == json.dumps(_split_doc())
    assert tree_mod.from_doc(doc, 1) == tree
    doc["nodes"][0]["children"] = [1, 0]
    with pytest.raises(DatasetError, match="child index"):
        tree_mod.from_doc(doc, 1)


def _split_doc(**root):
    """A one-split tree document with ``root``'s keys replaced."""
    doc = {"nodes": [
        {"counts": [2, 3], "feature": 0, "children": [1, 2], "threshold": 2.5},
        {"counts": [2, 0]},
        {"counts": [0, 3]},
    ]}
    doc["nodes"][0].update(root)
    return doc


@pytest.mark.parametrize("doc, match", [
    # a nominal split: models are fitted on the plan's numeric output
    (_split_doc(codes=[0, 1], default_child=0), "node 0 has codes"),
    ({"nodes": [{"counts": [2, 3], "feature": 0, "children": [1, 2]},
                {"counts": [2, 0]}, {"counts": [0, 3]}]},
     "node 0 has codes or no threshold"),
    (_split_doc(feature=-1), "node 0 splits on feature -1"),
    ({"nodes": [{"counts": [2, 3], "feature": 0, "children": [1], "threshold": 2.5},
                {"counts": [2, 3]}]},
     "numeric node 0 has 1 children"),
    # a node with a key that its form does not have
    ({"nodes": [{"counts": [2, 3], "threshold": 2.5}]}, "node 0 has .* other keys"),
    (_split_doc(default_child=0), "node 0 has .* other keys"),
    ({"nodes": [{"counts": [2, 3], "feature": 0, "children": [1, 2, 3], "threshold": 2.5},
                {"counts": [2, 0]}, {"counts": [0, 3]}, {"counts": [0, 0]}]},
     "numeric node 0 has 3 children"),
    # node 2 listed by two parents
    ({"nodes": [{"counts": [2, 3], "feature": 0, "children": [1, 2], "threshold": 2.5},
                {"counts": [2, 1], "feature": 0, "children": [2, 3], "threshold": 1.5},
                {"counts": [2, 0]}, {"counts": [0, 3]}]},
     "node 1 has child index 2"),
    # node 3 is nobody's child
    ({"nodes": [{"counts": [2, 3], "feature": 0, "children": [1, 2], "threshold": 2.5},
                {"counts": [2, 0]}, {"counts": [0, 3]}, {"counts": [0, 0]}]},
     "node 3 has no parent"),
    (_split_doc(feature=1), "node 0 splits on feature 1, but the model has 1 features"),
    (_split_doc(threshold=math.nan), "node 0 has threshold nan"),
    (_split_doc(threshold=-math.inf), "node 0 has threshold -inf"),
])
def test_tree_document_rejects_malformed_trees(doc, match):
    with pytest.raises(DatasetError, match=match):
        tree_mod.from_doc(doc, 1)



# Neighbouring values whose midpoint is not below the upper one: it rounds to
# the upper value, or the sum overflows to inf.
MIDPOINT_REPROS = [(1.0000000000000002, 1.0000000000000004), (1e308, 1.7e308)]


@pytest.mark.parametrize("lower, upper", [(1.0, 2.0), *MIDPOINT_REPROS, (-1.7e308, -1e308)])
def test_numeric_split_threshold_lies_in_lower_upper(lower, upper):
    ds = make_dataset([("x", "numeric", [lower, upper] * 5)], [0, 1] * 5)
    threshold = grow(ds, min_leaf=1)["nodes"][0]["threshold"]
    mid = (lower + upper) / 2.0
    assert threshold == cut_threshold(lower, upper) == (mid if lower <= mid < upper else lower)
    assert lower <= threshold < upper


def _alarm(signum, frame):
    raise TimeoutError("grow did not finish")


@pytest.mark.parametrize("lower, upper", MIDPOINT_REPROS)
def test_grow_splits_neighbouring_values_whose_midpoint_rounds_up(lower, upper):
    ds = make_dataset([("x", "numeric", [lower, upper] * 5)], [0, 1] * 5)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        tree = grow(ds, min_leaf=1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert node_count(tree) == 3
    assert tree["nodes"][0]["threshold"] == lower
    np.testing.assert_array_equal(predict(tree, ds), ds.labels)
