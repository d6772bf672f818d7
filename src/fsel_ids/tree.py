"""Decision-tree induction over mixed nominal/numeric features.

Grown trees split nominal features multiway over their observed categories
and numeric features on midpoint thresholds, choosing the candidate with
the highest gain ratio among those with positive information gain. Nodes
stop splitting when pure, smaller than min_leaf, or gainless. Optional
pessimistic-error pruning replaces subtrees whose estimated error is no
better than a leaf's.

Labels are binary: 0 = normal, 1 = attack. Leaf prediction is the majority
class with ties going to attack.

A ``Tree`` is a tuple of ``TreeNode`` in pre-order, the root at index 0,
first branch first; a split node's ``children`` are indices into that
tuple, so no node holds another and comparing, hashing or printing a tree
never recurses. The JSON document of a tree (``to_doc``/``from_doc``) is
the same list, one entry per node: a leaf holds its ``counts``, a split
node also its ``feature``, two ``children`` and numeric ``threshold``.
Models are fitted on the preprocessing plan's all-numeric output, so a
saved tree has no nominal split; those are grown only in memory, by the
wrapper's merit trees on raw columns. Nodes are grown from an explicit work
stack in that order, which is also the order in which a forest's per-node
feature draws consume its rng. Nothing in this module recurses, so tree
depth is bounded by memory, not by the interpreter's recursion limit.
``grow`` and ``predict`` take row indices into one dataset, and ``_route``
sends them down a split for both.

Every count that enters an entropy or split-info term is an integer from 0
to the row count n, so ``grow`` computes ``k * log2(k)`` for k = 0..n once
(``xlog2x_table``) and each node gathers its terms from that table; the
formulas keep their operation order, so the gain ratios are the same floats
bit for bit as evaluating ``k * log2(k)`` per node. ``partition_gain``, the
gain and split info of a multiway split, is also what the information-gain
and gain-ratio filters score a feature with.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DatasetError, is_finite_number

# Gains at or below this are treated as zero; keeps float noise from
# splitting on useless features.
MIN_GAIN = 1e-12


@dataclass(frozen=True)
class TreeNode:
    """Leaf (no children) or split node over one feature.

    counts is the training (normal, attack) mass that reached the node.
    ``children`` holds the tree indices of the branches in order. A numeric
    split sends value <= threshold to children[0]; a nominal split has one
    child per observed category id in ``codes`` and routes unseen ids to
    ``children[default_child]`` (the largest training branch).
    """

    counts: tuple[int, int]
    feature: int = -1
    threshold: float = math.nan
    codes: tuple[int, ...] = ()
    children: tuple[int, ...] = ()
    default_child: int = 0

    def __post_init__(self):
        if self.children and len(self.children) < 2:
            raise DatasetError("split nodes need at least 2 children")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def prediction(self) -> int:
        normal, attack = self.counts
        return 1 if attack >= normal else 0


Tree = tuple[TreeNode, ...]


def _link(records: list[tuple]) -> Tree:
    """Tree of pre-order (parent, counts, feature, threshold, codes, default) records."""
    children: list[list[int]] = [[] for _ in records]
    for i in range(1, len(records)):
        children[records[i][0]].append(i)
    return tuple(TreeNode(counts, feature, threshold, codes, tuple(kids), default)
                 for (_, counts, feature, threshold, codes, default), kids
                 in zip(records, children))


def to_doc(tree: Tree) -> dict:
    """JSON-ready document of a tree of numeric splits: ``{"nodes": [...]}``,
    one entry per node."""
    nodes: list[dict] = []
    for node in tree:
        doc: dict = {"counts": list(node.counts)}
        nodes.append(doc)
        if not node.is_leaf:
            doc.update(feature=node.feature, children=list(node.children),
                       threshold=node.threshold)
    return {"nodes": nodes}


def from_doc(doc: dict, width: int) -> Tree:
    """Inverse of ``to_doc`` for a tree over ``width`` features; rejects a
    document that is not a well-formed tree of finite thresholds on them."""
    nodes = doc["nodes"]
    if not nodes:
        raise DatasetError("tree document has no nodes")
    has_parent = [False] * len(nodes)
    tree: list[TreeNode] = []
    for i, entry in enumerate(nodes):
        counts = entry["counts"]
        if len(counts) != 2 or not all(type(c) is int and c >= 0 for c in counts):
            raise DatasetError(f"tree document: node {i} has counts {counts!r},"
                               " not two non-negative integers")
        counts = tuple(counts)
        if "children" not in entry:
            tree.append(TreeNode(counts))
            continue
        children = tuple(entry["children"])
        for c in children:
            if type(c) is not int or not i < c < len(nodes) or has_parent[c]:
                raise DatasetError(f"tree document: node {i} has child index {c!r}")
            has_parent[c] = True
        feature = entry["feature"]
        if type(feature) is not int or not 0 <= feature < width:
            raise DatasetError(
                f"tree node {i} splits on feature {feature!r}, but the model has {width} features")
        if "codes" in entry or "threshold" not in entry:
            raise DatasetError(f"tree document: node {i} has codes or no threshold;"
                               " a saved tree splits on numeric thresholds only")
        threshold = entry["threshold"]
        if not is_finite_number(threshold):
            raise DatasetError(f"tree document: node {i} has threshold {threshold!r}")
        if len(children) != 2:
            raise DatasetError(
                f"tree document: numeric node {i} has {len(children)} children, not 2")
        tree.append(TreeNode(counts, feature, float(threshold), (), children))
    if not all(has_parent[1:]):
        raise DatasetError(f"tree document: node {has_parent.index(False, 1)} has no parent")
    return tuple(tree)


def node_count(tree: Tree) -> int:
    return len(tree)


def depth(tree: Tree) -> int:
    # Children follow their parent, so one forward pass sees every parent first.
    levels = [0] * len(tree)
    for i, node in enumerate(tree):
        for c in node.children:
            levels[c] = levels[i] + 1
    return max(levels)


def xlog2x_table(n: int) -> np.ndarray:
    """``k * log2(k)`` for k = 0..n, with 0 at k = 0."""
    k = np.arange(n + 1, dtype=np.float64)
    out = np.zeros(n + 1, dtype=np.float64)
    out[1:] = k[1:] * np.log2(k[1:])
    return out


def cut_threshold(lower: float, upper: float) -> float:
    """Where a numeric cut between neighbouring values ``lower < upper`` falls.

    The midpoint, or ``lower`` where rounding or overflow puts the midpoint
    outside [lower, upper). A value at or below it goes to the lower side,
    so both sides keep rows. Tree splits and the filters' bins share it.
    """
    mid = (lower + upper) / 2.0
    return mid if lower <= mid < upper else lower


def _numeric_split(values, y, attack, parent_entropy, xl):
    """Best (gain ratio, threshold) of a cut on ``values``; (-inf, nan) if none.

    ``xl[k]`` is k*log2(k). Cuts fall between neighbouring distinct sorted
    values and are admissible where the gain is positive; ``cut_threshold``
    places the chosen one.
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
    return float(ratios[best]), cut_threshold(float(vs[cuts[best]]), float(vs[cuts[best] + 1]))


def partition_gain(codes, y, parent_entropy, xl) -> tuple[float, float, int]:
    """(information gain, split info, branch count) of splitting by ``codes``.

    ``y`` holds the 0/1 labels and ``parent_entropy`` their entropy; ``xl``
    is ``xlog2x_table`` of at least ``codes.size``. With fewer than 2
    branches there is no split and both measures are exactly 0.
    """
    totals = np.bincount(codes)
    present = totals > 0
    t = totals[present]
    if t.size < 2:
        return 0.0, 0.0, int(t.size)
    m = codes.size
    a = np.bincount(codes, weights=y)[present].astype(np.int64)
    cond = float(np.sum(t * ((xl[t] - xl[a] - xl[t - a]) / t))) / m
    split_info = (float(m) * math.log2(m) - float(xl[t].sum())) / m
    return parent_entropy - cond, split_info, int(t.size)


def _nominal_ratio(codes, y, parent_entropy, xl) -> float:
    """Gain ratio of a multiway split on ``codes``; -inf when inadmissible."""
    gain, split_info, _ = partition_gain(codes, y, parent_entropy, xl)
    return gain / split_info if gain > MIN_GAIN else -math.inf


def _route(values, items, threshold, codes=(), default=0) -> list[np.ndarray]:
    """``items`` (one per value) split by branch, each kept in order: at or
    below ``threshold``, then above; or with ``codes``, one branch per code,
    a code not in ``codes`` going to branch ``default``."""
    if not codes:
        low = values <= threshold
        return [items[low], items[~low]]
    branch_of = np.full(max(int(values.max(initial=0)), max(codes)) + 1, default)
    branch_of[list(codes)] = np.arange(len(codes))
    branch = branch_of[values]
    return [items[branch == b] for b in range(len(codes))]


def grow(
    ds: Dataset,
    rows: np.ndarray | None = None,
    *,
    min_leaf: int = 2,
    rng: np.random.Generator | None = None,
    feature_sample: int | None = None,
) -> Tree:
    """Induce an unpruned tree on ``rows`` of ``ds``, every row by default.

    A row listed twice counts twice: the tree is ``grow(ds.take_rows(rows))``.
    ``feature_sample`` restricts each node to a random feature subset drawn
    from ``rng``; both default to using all features deterministically.
    """
    rows = np.arange(ds.row_count) if rows is None else np.asarray(rows)
    if rows.size == 0:
        raise DatasetError("cannot grow a tree on an empty dataset")
    if not ds.columns:
        raise DatasetError("cannot grow a tree with no features")
    if min_leaf < 1:
        raise DatasetError(f"min_leaf must be >= 1, got {min_leaf}")
    if feature_sample is not None and rng is None:
        raise DatasetError("feature sampling needs an rng")
    d = len(ds.columns)
    labels = ds.labels.astype(np.int64)
    xl = xlog2x_table(rows.size)
    sampling = feature_sample is not None and feature_sample < d

    # Pre-order node records for ``_link``; the stack holds (rows, parent).
    records: list[tuple] = []
    stack = [(rows, -1)]
    while stack:
        rows, parent = stack.pop()
        here = len(records)
        m = rows.size
        y = labels[rows]
        attack = int(np.count_nonzero(y))
        node_counts = (m - attack, attack)
        if attack == 0 or attack == m or m < min_leaf:
            records.append((parent, node_counts, -1, math.nan, (), 0))
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
                ratio, split_at = _nominal_ratio(col.values[rows], y, parent_entropy, xl), math.nan
            if ratio > best_ratio:
                best_ratio, feature, threshold = ratio, f, split_at
        if best_ratio == -math.inf:
            records.append((parent, node_counts, -1, math.nan, (), 0))
            continue
        values = ds.columns[feature].values[rows]
        codes = (tuple(np.flatnonzero(np.bincount(values)).tolist())
                 if ds.columns[feature].kind == "nominal" else ())
        branches = _route(values, rows, threshold, codes)
        default = int(np.argmax([b.size for b in branches])) if codes else 0
        records.append((parent, node_counts, feature, threshold, codes, default))
        stack.extend((b, here) for b in reversed(branches))
    return _link(records)


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


def prune(tree: Tree, confidence: float = 0.25) -> Tree:
    """Bottom-up subtree replacement under the pessimistic error estimate.

    A subtree collapses to a leaf when the leaf's estimated errors do not
    exceed the sum of its leaves' estimates. Returns a new tree; the input
    is never mutated.
    """
    if not (0.0 < confidence <= 0.5):
        raise DatasetError(f"confidence must be in (0, 0.5], got {confidence}")
    # Children follow their parent, so a reverse scan sees every child's
    # estimate before its parent's.
    estimate = [0.0] * len(tree)
    collapse = [False] * len(tree)
    for i in range(len(tree) - 1, -1, -1):
        node = tree[i]
        as_leaf = pessimistic_errors(min(node.counts), sum(node.counts), confidence)
        # A plain loop, not sum(): sum() of floats is compensated from
        # Python 3.12 and would change the estimates.
        subtree = 0.0
        for c in node.children:
            subtree += estimate[c]
        collapse[i] = node.is_leaf or as_leaf <= subtree + 1e-9
        estimate[i] = as_leaf if collapse[i] else subtree
    records: list[tuple] = []
    stack = [(0, -1)]
    while stack:
        i, parent = stack.pop()
        node = tree[i]
        if collapse[i]:
            records.append((parent, node.counts, -1, math.nan, (), 0))
            continue
        here = len(records)
        records.append((parent, node.counts, node.feature, node.threshold, node.codes,
                        node.default_child))
        stack.extend((c, here) for c in reversed(node.children))
    return _link(records)


def predict(tree: Tree, ds: Dataset, rows: np.ndarray | None = None) -> np.ndarray:
    """The majority class of the leaf each of ``rows`` reaches, in ``rows``
    order; every row of ``ds`` by default.

    The tree must split only on features of ``ds``: ``grow`` fits its
    dataset, and ``from_doc`` checks a saved tree against the model's width.
    """
    rows = np.arange(ds.row_count) if rows is None else np.asarray(rows)
    out = np.empty(rows.size, dtype=np.uint8)
    stack = [(0, np.arange(rows.size))]  # (node, positions in rows)
    while stack:
        i, at = stack.pop()
        if at.size == 0:
            continue
        node = tree[i]
        if node.is_leaf:
            out[at] = node.prediction
            continue
        values = ds.columns[node.feature].values[rows[at]]
        branches = _route(values, at, node.threshold, node.codes, node.default_child)
        stack.extend(zip(node.children, branches))
    return out
