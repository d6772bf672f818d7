"""Decision-tree induction over mixed nominal/numeric features.

Grown trees split nominal features multiway over their observed categories
and numeric features on midpoint thresholds, choosing the candidate with
the highest gain ratio among those with positive information gain. Nodes
stop splitting when pure, smaller than min_leaf, or gainless. Optional
pessimistic-error pruning replaces subtrees whose estimated error is no
better than a leaf's.

Labels are binary: 0 = normal, 1 = attack. Leaf prediction is the majority
class with ties going to attack.

Every count that enters an entropy or split-info term is an integer from 0
to the row count n, so ``grow`` computes ``k * log2(k)`` for k = 0..n once
and each node gathers its terms from that table; the formulas keep their
operation order, so the gain ratios are the same floats bit for bit as
evaluating ``k * log2(k)`` per node. Nodes are grown from an explicit
work stack in pre-order, first branch first, which is also the order in
which a forest's per-node feature draws consume its rng; the ``TreeNode``
graph is then assembled bottom-up from that pre-order list.
Nothing in this module recurses, so tree depth is bounded by memory, not
by the interpreter's recursion limit. The JSON document of a tree is a
flat pre-order node list with child indices, for the same reason.
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


def _preorder(root: TreeNode) -> list[TreeNode]:
    """Every node of the tree, parents before children, branches in order."""
    out: list[TreeNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


def node_to_dict(root: TreeNode) -> dict:
    """JSON-ready flat document of a tree.

    ``nodes`` lists every node in pre-order (the root first); a split
    node's ``children`` holds the list indices of its children in branch
    order.
    """
    nodes: list[dict] = []
    stack: list[tuple[TreeNode, dict | None]] = [(root, None)]
    while stack:
        node, parent = stack.pop()
        if parent is not None:
            parent["children"].append(len(nodes))
        doc: dict = {"counts": list(node.counts)}
        nodes.append(doc)
        if node.is_leaf:
            continue
        doc["feature"] = node.feature
        doc["children"] = []
        if node.is_numeric_split:
            doc["threshold"] = node.threshold
        else:
            doc["codes"] = list(node.codes)
            doc["default_child"] = node.default_child
        stack.extend((child, doc) for child in reversed(node.children))
    return {"nodes": nodes}


def node_from_dict(doc: dict) -> TreeNode:
    """Inverse of ``node_to_dict``."""
    nodes = doc["nodes"]
    if not nodes:
        raise DatasetError("tree document has no nodes")
    built: list[TreeNode | None] = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        entry = nodes[i]
        counts = (int(entry["counts"][0]), int(entry["counts"][1]))
        if "children" not in entry:
            built[i] = TreeNode(counts)
            continue
        for c in entry["children"]:
            if not i < c < len(nodes):
                raise DatasetError(f"tree document: node {i} has child index {c}")
        children = tuple(built[c] for c in entry["children"])
        if "threshold" in entry:
            built[i] = TreeNode(counts, int(entry["feature"]), float(entry["threshold"]),
                                (), children)
        else:
            built[i] = TreeNode(
                counts,
                int(entry["feature"]),
                math.nan,
                tuple(int(c) for c in entry["codes"]),
                children,
                int(entry["default_child"]),
            )
    return built[0]


def node_count(root: TreeNode) -> int:
    return len(_preorder(root))


def depth(root: TreeNode) -> int:
    deepest = 0
    stack = [(root, 0)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in node.children)
    return deepest


def _xlog2x(v: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape, dtype=np.float64)
    nz = v > 0
    out[nz] = v[nz] * np.log2(v[nz])
    return out


def _numeric_split(values, y, attack, parent_entropy, xl):
    """Best (gain ratio, threshold) of a cut on ``values``; (-inf, nan) if none.

    ``xl[k]`` is k*log2(k). Cuts fall between neighbouring distinct sorted
    values and are admissible where the gain is positive.
    """
    m = values.size
    order = np.argsort(values, kind="stable")
    vs = values[order]
    cuts = np.flatnonzero(vs[:-1] < vs[1:])
    if cuts.size == 0:
        return -math.inf, math.nan
    n_left = cuts + 1
    n_right = m - n_left
    a_left = np.cumsum(y[order])[cuts]
    a_right = attack - a_left
    f_left = n_left.astype(np.float64)
    f_right = m - f_left
    xl_left, xl_right = xl[n_left], xl[n_right]
    cond = (f_left * ((xl_left - xl[a_left] - xl[n_left - a_left]) / f_left)
            + f_right * ((xl_right - xl[a_right] - xl[n_right - a_right]) / f_right)) / m
    gains = parent_entropy - cond
    split_info = (xl[m] - xl_left - xl_right) / m
    ratios = np.where(gains > MIN_GAIN, gains / split_info, -np.inf)
    best = int(ratios.argmax())  # the lowest threshold wins ties
    if ratios[best] == -np.inf:
        return -math.inf, math.nan
    cut = cuts[best]
    return float(ratios[best]), float((vs[cut] + vs[cut + 1]) / 2.0)


def _nominal_ratio(codes, y, parent_entropy, xl, m) -> float:
    """Gain ratio of a multiway split on ``codes``; -inf when inadmissible."""
    totals = np.bincount(codes)
    present = totals > 0
    if int(present.sum()) < 2:
        return -math.inf
    t = totals[present]
    a = np.bincount(codes, weights=y)[present].astype(np.int64)
    cond = float(np.sum(t * ((xl[t] - xl[a] - xl[t - a]) / t))) / m
    gain = parent_entropy - cond
    if gain <= MIN_GAIN:
        return -math.inf
    split_info = (float(m) * math.log2(m) - float(xl[t].sum())) / m
    return gain / split_info


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
    n, d = ds.row_count, len(ds.columns)
    labels = ds.labels.astype(np.int64)
    xl = _xlog2x(np.arange(n + 1, dtype=np.float64))
    sampling = feature_sample is not None and feature_sample < d

    # Pre-order node records: (counts, feature, threshold, codes, default, arity).
    records: list[tuple] = []
    stack = [np.arange(n)]
    while stack:
        rows = stack.pop()
        m = rows.size
        y = labels[rows]
        attack = int(np.count_nonzero(y))
        node_counts = (m - attack, attack)
        if attack == 0 or attack == m or m < min_leaf:
            records.append((node_counts, -1, math.nan, (), 0, 0))
            continue
        parent_entropy = float((xl[m] - xl[attack] - xl[m - attack]) / m)
        features = (np.sort(rng.choice(d, size=feature_sample, replace=False)).tolist()
                    if sampling else range(d))
        # The highest ratio wins; features go in increasing order, so the
        # lowest index wins ties.
        best_ratio, feature, threshold = -math.inf, -1, math.nan
        for f in features:
            col = ds.columns[f]
            if col.kind == "numeric":
                ratio, split_at = _numeric_split(col.values[rows], y, attack, parent_entropy, xl)
            else:
                ratio, split_at = _nominal_ratio(col.values[rows], y, parent_entropy, xl, m), math.nan
            if ratio > best_ratio:
                best_ratio, feature, threshold = ratio, f, split_at
        if best_ratio == -math.inf:
            records.append((node_counts, -1, math.nan, (), 0, 0))
            continue
        values = ds.columns[feature].values[rows]
        if ds.columns[feature].kind == "numeric":
            mask = values <= threshold
            records.append((node_counts, feature, threshold, (), 0, 2))
            stack.append(rows[~mask])
            stack.append(rows[mask])
            continue
        present = np.flatnonzero(np.bincount(values))
        branches = [rows[values == code] for code in present]
        default = int(np.argmax([b.size for b in branches]))
        records.append((node_counts, feature, math.nan,
                        tuple(int(c) for c in present), default, len(branches)))
        stack.extend(reversed(branches))

    # Reverse pre-order puts each node's subtrees on ``built`` just before
    # the node itself, first child on top.
    built: list[TreeNode] = []
    for node_counts, feature, threshold, codes, default, arity in reversed(records):
        if arity == 0:
            built.append(TreeNode(node_counts))
            continue
        children = tuple(built.pop() for _ in range(arity))
        built.append(TreeNode(node_counts, feature, threshold, codes, children, default))
    return built[0]


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
    # Reverse pre-order visits children before parents; each node leaves
    # one (pruned node, estimate) pair on ``done``, first child on top.
    done: list[tuple[TreeNode, float]] = []
    for node in reversed(_preorder(root)):
        as_leaf = pessimistic_errors(_leaf_errors(node), sum(node.counts), confidence)
        if node.is_leaf:
            done.append((node, as_leaf))
            continue
        pruned_children: list[TreeNode] = []
        subtree_estimate = 0.0
        for _ in node.children:
            child, err = done.pop()
            pruned_children.append(child)
            subtree_estimate += err
        if as_leaf <= subtree_estimate + 1e-9:
            done.append((TreeNode(node.counts), as_leaf))
            continue
        kept = TreeNode(
            node.counts,
            node.feature,
            node.threshold,
            node.codes,
            tuple(pruned_children),
            node.default_child,
        )
        done.append((kept, subtree_estimate))
    return done[0][0]


def predict(root: TreeNode, ds: Dataset) -> np.ndarray:
    """Route every row to a leaf and return its majority class."""
    out = np.empty(ds.row_count, dtype=np.uint8)
    stack = [(root, np.arange(ds.row_count))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            out[rows] = node.prediction
            continue
        values = ds.columns[node.feature].values[rows]
        if node.is_numeric_split:
            mask = values <= node.threshold
            stack.append((node.children[0], rows[mask]))
            stack.append((node.children[1], rows[~mask]))
            continue
        assigned = np.full(rows.size, node.default_child, dtype=np.int64)
        for pos, code in enumerate(node.codes):
            assigned[values == code] = pos
        stack.extend((child, rows[assigned == pos]) for pos, child in enumerate(node.children))
    return out
