"""Decision-tree induction over mixed nominal/numeric features.

Grown trees split nominal features multiway over their observed categories
and numeric features on midpoint thresholds, choosing the candidate with
the highest gain ratio among those with positive information gain. Nodes
stop splitting when pure, smaller than min_leaf, or gainless. Optional
pessimistic-error pruning replaces subtrees whose estimated error is no
better than a leaf's.

Labels are binary: 0 = normal, 1 = attack. Leaf prediction is the majority
class with ties going to attack.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, DatasetError

# Gains at or below this are treated as zero; keeps float noise from
# splitting on useless features.
MIN_GAIN = 1e-12


@dataclass(frozen=True)
class TreeNode:
    """Leaf (no children) or split node over one feature.

    counts is the training (normal, attack) mass that reached the node. A
    numeric split sends value <= threshold to children[0]; a nominal split
    has one child per observed category id in ``codes`` and routes unseen
    ids to ``children[default_child]`` (the largest training branch).
    """

    counts: tuple[int, int]
    feature: int = -1
    threshold: float = math.nan
    codes: tuple[int, ...] = ()
    children: tuple["TreeNode", ...] = field(default=())
    default_child: int = 0

    def __post_init__(self):
        if self.children and len(self.children) < 2:
            raise DatasetError("split nodes need at least 2 children")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_numeric_split(self) -> bool:
        return bool(self.children) and not self.codes

    @property
    def prediction(self) -> int:
        normal, attack = self.counts
        return 1 if attack >= normal else 0


def node_to_dict(node: TreeNode) -> dict:
    """JSON-ready nested document of a tree, children in branch order."""
    doc: dict = {"counts": list(node.counts)}
    if node.is_leaf:
        return doc
    doc["feature"] = node.feature
    doc["children"] = [node_to_dict(c) for c in node.children]
    if node.is_numeric_split:
        doc["threshold"] = node.threshold
    else:
        doc["codes"] = list(node.codes)
        doc["default_child"] = node.default_child
    return doc


def node_from_dict(doc: dict) -> TreeNode:
    """Inverse of ``node_to_dict``."""
    counts = (int(doc["counts"][0]), int(doc["counts"][1]))
    if "children" not in doc:
        return TreeNode(counts)
    children = tuple(node_from_dict(c) for c in doc["children"])
    if "threshold" in doc:
        return TreeNode(counts, int(doc["feature"]), float(doc["threshold"]), (), children)
    return TreeNode(
        counts,
        int(doc["feature"]),
        math.nan,
        tuple(int(c) for c in doc["codes"]),
        children,
        int(doc["default_child"]),
    )


def node_count(root: TreeNode) -> int:
    return 1 + sum(node_count(c) for c in root.children)


def leaf_count(root: TreeNode) -> int:
    if root.is_leaf:
        return 1
    return sum(leaf_count(c) for c in root.children)


def depth(root: TreeNode) -> int:
    if root.is_leaf:
        return 0
    return 1 + max(depth(c) for c in root.children)


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


def _best_numeric_split(values, labels, parent_entropy) -> _Candidate | None:
    n = values.size
    order = np.argsort(values, kind="stable")
    vs = values[order]
    ys = labels[order].astype(np.int64)
    cuts = np.flatnonzero(vs[:-1] < vs[1:])
    if cuts.size == 0:
        return None
    attack_prefix = np.cumsum(ys)
    total_attack = int(attack_prefix[-1])
    n_left = (cuts + 1).astype(np.float64)
    a_left = attack_prefix[cuts].astype(np.float64)
    n_right = n - n_left
    a_right = total_attack - a_left
    cond = (n_left * _entropy_counts(a_left, n_left)
            + n_right * _entropy_counts(a_right, n_right)) / n
    gains = parent_entropy - cond
    split_info = _entropy_counts(n_left, np.full_like(n_left, float(n)))
    usable = gains > MIN_GAIN
    if not usable.any():
        return None
    ratios = np.where(usable, gains / split_info, -np.inf)
    best = int(np.argmax(ratios))  # argmax keeps the lowest threshold on ties
    threshold = (vs[cuts[best]] + vs[cuts[best] + 1]) / 2.0
    return _Candidate(-1, float(gains[best]), float(ratios[best]), float(threshold))


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

    def _candidate_features(self) -> np.ndarray:
        d = len(self.ds.columns)
        if self.feature_sample is None or self.feature_sample >= d:
            return np.arange(d)
        drawn = self.rng.choice(d, size=self.feature_sample, replace=False)
        return np.sort(drawn)

    def grow(self, rows: np.ndarray) -> TreeNode:
        y = self.labels[rows]
        attack = int(np.count_nonzero(y))
        counts = (len(rows) - attack, attack)
        if attack == 0 or attack == len(rows) or len(rows) < self.min_leaf:
            return TreeNode(counts)
        parent_entropy = float(
            _entropy_counts(np.asarray([float(attack)]), np.asarray([float(len(rows))]))[0]
        )
        best: _Candidate | None = None
        for f in self._candidate_features():
            col = self.ds.columns[int(f)]
            values = col.values[rows]
            if col.kind == "numeric":
                cand = _best_numeric_split(values, y, parent_entropy)
            else:
                cand = _nominal_split(values, y, parent_entropy)
            if cand is None:
                continue
            cand = _Candidate(int(f), cand.gain, cand.ratio, cand.threshold)
            if best is None or cand.ratio > best.ratio:
                best = cand
        if best is None:
            return TreeNode(counts)
        col = self.ds.columns[best.feature]
        if col.kind == "numeric":
            mask = col.values[rows] <= best.threshold
            left = self.grow(rows[mask])
            right = self.grow(rows[~mask])
            return TreeNode(counts, best.feature, best.threshold, (), (left, right))
        values = col.values[rows]
        present = np.unique(values)
        children = tuple(self.grow(rows[values == code]) for code in present)
        masses = [sum(c.counts) for c in children]
        default = int(np.argmax(masses))
        return TreeNode(
            counts,
            best.feature,
            math.nan,
            tuple(int(c) for c in present),
            children,
            default,
        )


def grow(
    ds: Dataset,
    *,
    min_leaf: int = 2,
    rng: np.random.Generator | None = None,
    feature_sample: int | None = None,
) -> TreeNode:
    """Induce an unpruned tree on every row of ``ds``.

    ``feature_sample`` restricts each node to a random feature subset drawn
    from ``rng``; both default to using all features deterministically.
    """
    if ds.row_count == 0:
        raise DatasetError("cannot grow a tree on an empty dataset")
    if not ds.columns:
        raise DatasetError("cannot grow a tree with no features")
    if min_leaf < 1:
        raise DatasetError(f"min_leaf must be >= 1, got {min_leaf}")
    if feature_sample is not None and rng is None:
        raise DatasetError("feature sampling needs an rng")
    grower = _Grower(ds, min_leaf, rng, feature_sample)
    return grower.grow(np.arange(ds.row_count))


def pessimistic_errors(errors: int, n: int, confidence: float) -> float:
    """Upper confidence bound on the error count of a leaf with n rows.

    Normal-approximation upper limit of the binomial error rate at the
    given one-sided confidence, with continuity correction. The zero-error
    case uses the exact bound n(1 - confidence^(1/n)).
    """
    if n <= 0:
        return 0.0
    if errors == 0:
        return n * (1.0 - confidence ** (1.0 / n))
    if errors + 0.5 >= n:
        return float(n)
    z = statistics.NormalDist().inv_cdf(1.0 - confidence)
    f = (errors + 0.5) / n
    bound = (f + z * z / (2 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n)))
    return n * bound / (1.0 + z * z / n)


def _leaf_errors(node: TreeNode) -> int:
    normal, attack = node.counts
    return min(normal, attack)


def prune(root: TreeNode, confidence: float = 0.25) -> TreeNode:
    """Bottom-up subtree replacement under the pessimistic error estimate.

    A subtree collapses to a leaf when the leaf's estimated errors do not
    exceed the sum of its leaves' estimates. Returns a new tree; the input
    is never mutated.
    """
    if not (0.0 < confidence <= 0.5):
        raise DatasetError(f"confidence must be in (0, 0.5], got {confidence}")

    def walk(node: TreeNode) -> tuple[TreeNode, float]:
        n = sum(node.counts)
        as_leaf = pessimistic_errors(_leaf_errors(node), n, confidence)
        if node.is_leaf:
            return node, as_leaf
        pruned_children: list[TreeNode] = []
        subtree_estimate = 0.0
        for child in node.children:
            pc, err = walk(child)
            pruned_children.append(pc)
            subtree_estimate += err
        if as_leaf <= subtree_estimate + 1e-9:
            return TreeNode(node.counts), as_leaf
        kept = TreeNode(
            node.counts,
            node.feature,
            node.threshold,
            node.codes,
            tuple(pruned_children),
            node.default_child,
        )
        return kept, subtree_estimate

    new_root, _ = walk(root)
    return new_root


def predict(root: TreeNode, ds: Dataset) -> np.ndarray:
    """Route every row to a leaf and return its majority class."""
    out = np.empty(ds.row_count, dtype=np.uint8)

    def route(node: TreeNode, rows: np.ndarray):
        if rows.size == 0:
            return
        if node.is_leaf:
            out[rows] = node.prediction
            return
        col = ds.columns[node.feature]
        values = col.values[rows]
        if node.is_numeric_split:
            mask = values <= node.threshold
            route(node.children[0], rows[mask])
            route(node.children[1], rows[~mask])
            return
        assigned = np.full(rows.size, node.default_child, dtype=np.int64)
        for pos, code in enumerate(node.codes):
            assigned[values == code] = pos
        for pos, child in enumerate(node.children):
            route(child, rows[assigned == pos])

    route(root, np.arange(ds.row_count))
    return out
