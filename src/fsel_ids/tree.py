"""Decision-tree induction over mixed nominal/numeric features.

Grown trees split nominal features multiway over their observed categories
and numeric features on midpoint thresholds, choosing the candidate with
the highest gain ratio among those with positive information gain. Nodes
stop splitting when pure, smaller than min_leaf, or gainless. Optional
pessimistic-error pruning replaces subtrees whose estimated error is no
better than a leaf's.

Labels are binary: 0 = normal, 1 = attack. Leaf prediction is the majority
class with ties going to attack.

A tree is its JSON document, ``{"nodes": [...]}``: one dict per node in
pre-order, the root at index 0, first branch first. A leaf is ``{"counts":
[normal, attack]}``, the training mass that reached it. A numeric split
adds ``feature``, two ``children`` (node indices) and ``threshold``, in
that key order, and sends a value <= threshold to its first child. A
nominal split holds ``codes`` and ``default_child`` in place of
``threshold``: one child per category id in ``codes``, an id not in them
going to ``children[default_child]``, the first largest training branch.
No node holds another, so comparing or printing a tree never recurses.
Models are fitted on the preprocessing plan's all-numeric output, so a
saved tree has no nominal split, and ``from_doc`` refuses one; those are
grown only in memory, by the wrapper's merit trees on raw columns. Nothing
in this module recurses, so tree depth is bounded by memory, not by the
interpreter's recursion limit. ``grow`` and ``predict`` take whole
datasets; a row subset, an rng or a feature sample is a ``grow_many``
task's, and ``_branch`` sends rows down a split for growing and
predicting alike.

``grow_many`` grows many independent trees in lock-step: a wrapper
expansion's (subset, fold) trees, or a forest's trees. Each tree keeps its
own pre-order work stack, and a forest tree draws each node's feature
sample from its own rng as the node comes off that stack, so every tree,
and every rng's final state, is the one the tree would get grown alone;
``grow`` is the one-tree case. Each step takes the next node that may
split from every tree in flight and scores all their (node, numeric
feature) pairs in one vectorised scan (``_scan``), sorted per pair by one
float argsort and one stable sort on the pair id; nominal pairs keep
``partition_gain``. The split nodes' rows then move into their branches by
one stable sort, which keeps each branch's rows in their order: a tree's
rows start in the order of its first numeric column's values, so its
pairs on that column are scanned with no sort at all. Two bounds keep the
memory flat however many trees are asked for and however wide they are:
the trees in flight hold at most ``MAX_ROWS_IN_FLIGHT`` rows, held-out
rows included, and one scan covers at most ``MAX_SCAN_ELEMENTS`` (row,
feature) elements; a single tree, or a single pair, may exceed its bound
alone.

A wrapper merit needs of each fold tree only its count of correctly
labelled held-out rows, so a ``grow_many`` task may carry held-out rows
and yield that count in place of its tree. They ride behind the fit rows
in each node's range of the buffer, unread by the scores, and move into
their branches in the step's one stable sort, keyed by ``2 * branch id +
held``; each leaf adds those of its majority class to the count. Such a
tree keeps no nodes and is never predicted.

Every count that enters an entropy or split-info term is an integer from 0
to the row count n, so ``grow_many`` computes ``k * log2(k)`` for k = 0..n
once (``xlog2x_table``) and each scan gathers its terms from that table;
the formulas keep their operation order, so the gain ratios are the same
floats bit for bit as evaluating ``k * log2(k)`` for one node alone.
``partition_gain``, the gain and split info of a multiway split, is also
what the information-gain and gain-ratio filters score a feature with.
"""

from __future__ import annotations

import bisect
import math
import statistics

import numpy as np

from .dataset import Dataset, DatasetError, is_finite_number, shown

# Gains at or below this are treated as zero; keeps float noise from
# splitting on useless features.
MIN_GAIN = 1e-12

# Lock-step growth bounds: the rows of the trees grown at once, held-out
# rows included, and the (row, feature) elements that one vectorised scan
# scores. A single tree, or a single (node, feature) pair, may exceed its
# bound alone. A scan has a fixed cost of tens of microseconds, and most of
# a wrapper search's scans need no sort, so they take 8,192 elements.
MAX_ROWS_IN_FLIGHT = 1 << 15
MAX_SCAN_ELEMENTS = 1 << 13


Tree = dict  # {"nodes": [...]}, in pre-order


def from_doc(doc: dict, width: int) -> Tree:
    """The tree of a saved document over ``width`` features; rejects a
    document that is not a well-formed tree of finite thresholds on them."""
    nodes = doc["nodes"]
    if not nodes:
        raise DatasetError("tree document has no nodes")
    has_parent = [False] * len(nodes)
    for i, entry in enumerate(nodes):
        counts = entry["counts"]
        if len(counts) != 2 or not all(type(c) is int and c >= 0 for c in counts):
            raise DatasetError(f"tree document: node {i} has counts {shown(counts)},"
                               " not two non-negative integers")
        if len(entry) == 1:  # counts alone: a leaf
            continue
        if entry.keys() != {"counts", "feature", "children", "threshold"}:
            raise DatasetError(f"tree document: node {i} has codes or no threshold or other"
                               f" keys: {shown(list(entry))}; a saved split is numeric")
        children = entry["children"]
        for c in children:
            if type(c) is not int or not i < c < len(nodes) or has_parent[c]:
                raise DatasetError(f"tree document: node {i} has child index {shown(c)}")
            has_parent[c] = True
        feature = entry["feature"]
        if type(feature) is not int or not 0 <= feature < width:
            raise DatasetError(
                f"tree node {i} splits on feature {shown(feature)}, but the model has {width}"
                " features")
        threshold = entry["threshold"]
        if not is_finite_number(threshold):
            raise DatasetError(f"tree document: node {i} has threshold {shown(threshold)}")
        if len(children) != 2:
            raise DatasetError(
                f"tree document: numeric node {i} has {len(children)} children, not 2")
    if not all(has_parent[1:]):
        raise DatasetError(f"tree document: node {has_parent.index(False, 1)} has no parent")
    return {"nodes": nodes}


def node_count(tree: Tree) -> int:
    return len(tree["nodes"])


def depth(tree: Tree) -> int:
    # Children follow their parent, so one forward pass sees every parent first.
    levels = [0] * node_count(tree)
    for i, node in enumerate(tree["nodes"]):
        for c in node.get("children", ()):
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


def _first_max(values: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """``(maximum, index of its first occurrence)`` of each group of
    ``values``, taken in order, groups of ``sizes`` (each at least 1)."""
    first = np.cumsum(sizes) - sizes
    top = np.maximum.reduceat(values, first)
    hits = np.flatnonzero(values == np.repeat(top, sizes))
    return top, hits[np.searchsorted(hits, first)]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(start, start + length)`` for each pair."""
    ends = np.cumsum(lengths)
    return np.repeat(starts + lengths - ends, lengths) + np.arange(ends[-1] if ends.size else 0)


def _scan(values, y, m, attack, entropy, xl, presorted=False):
    """The best cut of each segment of ``values``: ``(ratio, lower, upper)``,
    one entry per segment, with ratio -inf where no cut is admissible.

    ``values`` and ``y`` (its 0/1 labels) hold segments of ``m`` rows each,
    one after another; a segment has ``attack`` attack rows and label entropy
    ``entropy``, and ``xl[k]`` is k*log2(k). Unless ``presorted``, each
    segment is sorted on its own, by a float argsort and then a stable sort
    on the segment id (a radix sort on small ids); how equal values are
    ordered does not matter, since a cut falls only between distinct ones.
    Cuts are admissible where the gain is positive; each cut's gain and
    split info are computed in one pass, with the operation order of
    evaluating one segment alone (``f_left * (x / f_left) + f_right * (z /
    f_right)``, each product commuted). A segment's best cut is its first
    highest gain ratio, the lowest threshold; ``cut_threshold(lower,
    upper)`` places it.
    """
    if presorted:
        vs = values
    else:
        seg = np.repeat(np.arange(m.size, dtype=np.min_scalar_type(m.size)), m)
        order = np.argsort(values)
        order = order[np.argsort(seg[order], kind="stable")]  # seg[order] is seg again
        vs, y = values[order], y[order]
    end = np.cumsum(m)
    rise = vs[:-1] < vs[1:]
    rise[end[:-1] - 1] = False  # no cut between two segments
    cuts = np.flatnonzero(rise)
    ratio = np.full(m.size, -np.inf)
    lower, upper = np.zeros(m.size), np.zeros(m.size)
    if cuts.size == 0:
        return ratio, lower, upper
    # Per cut: its segment's values repeated, and the counts left and right
    # of it. In-place steps keep each formula's operations and their order.
    prefix = np.cumsum(y, dtype=np.intp)
    per = np.searchsorted(cuts, end)
    per[1:] -= per[:-1].copy()  # cuts per segment
    start = end - m
    n = np.repeat(m, per)
    n_left = cuts - np.repeat(start - 1, per)
    a_left = prefix[cuts]
    a_left -= np.repeat(prefix[start] - y[start], per)
    n_right = n - n_left
    a_right = np.repeat(attack, per) - a_left
    f_left = n_left.astype(np.float64)
    f_right = n - f_left
    xl_left, xl_right = xl[n_left], xl[n_right]
    cond = xl_left - xl[a_left]
    n_left -= a_left
    cond -= xl[n_left]
    cond /= f_left
    cond *= f_left
    right = xl_right - xl[a_right]
    n_right -= a_right
    right -= xl[n_right]
    right /= f_right
    right *= f_right
    cond += right
    cond /= n
    gains = np.repeat(entropy, per)
    gains -= cond
    split_info = np.repeat(xl[m], per)
    split_info -= xl_left
    split_info -= xl_right
    split_info /= n
    ratios = np.divide(gains, split_info, out=split_info)
    ratios[~(gains > MIN_GAIN)] = -np.inf
    has = per > 0
    ratio[has], best = _first_max(ratios, per[has])
    lower[has], upper[has] = vs[cuts[best]], vs[cuts[best] + 1]
    return ratio, lower, upper


def _branch(values, node: dict) -> np.ndarray:
    """The branch of each of ``values`` at split ``node``: 1 above its
    ``threshold``, else 0; or at a nominal split, the position of its code
    in ``codes``, a code not in them going to branch ``default_child``."""
    codes = node.get("codes")
    if codes is None:
        return values > node["threshold"]
    branch_of = np.full(max(int(values.max(initial=0)), max(codes)) + 1, node["default_child"])
    branch_of[codes] = np.arange(len(codes))
    return branch_of[values]


def _task_rows(ds: Dataset, index: int, rows, part: str) -> np.ndarray:
    """``rows`` as an index array, checked to hold integers in ``[0,
    ds.row_count)``: a float would be truncated, and a boolean mask read as
    rows 0 and 1."""
    rows = np.asarray(rows)
    if rows.size and rows.dtype.kind not in "iu":
        raise DatasetError(f"task {index}: {part} rows are {rows.dtype}, not row indices")
    rows = rows.astype(np.intp, copy=False)
    outside = (rows < 0) | (rows >= ds.row_count)
    if outside.any():
        raise DatasetError(f"task {index}: {part} row {int(rows[outside][0])} is outside"
                           f" [0, {ds.row_count})")
    return rows


class _Growing:
    """The tree of ``grow_many``'s task ``index``, in flight: its columns,
    rng and feature sample (None when it samples nothing), a buffer of its
    rows that each split reorders in place, the pre-order stack of
    ``(lo, mid, hi, attack, held_attack, parent)`` buffer ranges still to
    grow, and its node documents in pre-order, or None when it counts its
    ``correct`` held-out rows instead.

    A node's fit rows are ``[lo, mid)``, ``attack`` of them attack rows,
    and its held-out rows ``[mid, hi)``. The fit rows start in the order of
    the first numeric column's values (``key``), and each split keeps each
    branch's rows in their order, so every node's fit rows stay in that
    order and its scans on ``key`` need no sort.
    """

    __slots__ = ("index", "columns", "rng", "sample", "key", "rows", "stack", "nodes",
                 "correct")

    def __init__(self, ds: Dataset, index: int, task):
        features, rows, rng, sample, held_out = (*task, None) if len(task) == 4 else task
        features = sorted(set(int(f) for f in features))
        if not features:
            raise DatasetError("cannot grow a tree with no features")
        if features[0] < 0 or features[-1] >= len(ds.columns):
            raise DatasetError(f"feature index out of range: {features}")
        rows = np.arange(ds.row_count) if rows is None else _task_rows(ds, index, rows, "fit")
        if rows.size == 0:
            raise DatasetError("cannot grow a tree on an empty dataset")
        held = (np.empty(0, dtype=np.intp) if held_out is None
                else _task_rows(ds, index, held_out, "held-out"))
        if sample is not None and rng is None:
            raise DatasetError("feature sampling needs an rng")
        self.index, self.rng = index, rng
        self.columns = tuple(ds.columns[f] for f in features)
        self.sample = sample if sample is not None and sample < len(features) else None
        self.key = next((f for f, col in enumerate(self.columns) if col.kind == "numeric"), -1)
        if self.key >= 0:
            rows = rows[np.argsort(self.columns[self.key].values[rows])]
        self.rows = np.concatenate((rows, held))
        self.stack = [(0, rows.size, self.rows.size, int(np.count_nonzero(ds.labels[rows])),
                       int(np.count_nonzero(ds.labels[held])), -1)]
        self.nodes: list[dict] | None = [] if held_out is None else None
        self.correct = 0

    def leaf(self, lo, mid, hi, attack, held_attack, parent) -> None:
        """Add a leaf, or count its held-out rows that its majority,
        attack when attack >= normal, labels correctly."""
        m = mid - lo
        if self.nodes is None:
            self.correct += held_attack if 2 * attack >= m else hi - mid - held_attack
        else:
            self.add(parent, {"counts": [m - attack, attack]})

    def add(self, parent: int, node: dict) -> int:
        """Append ``node`` as the next child of node ``parent`` (-1 at the
        root); its index."""
        if parent >= 0:
            self.nodes[parent]["children"].append(len(self.nodes))
        self.nodes.append(node)
        return len(self.nodes) - 1


def grow_many(ds: Dataset, tasks, *, min_leaf: int = 2):
    """Grow one unpruned tree per task of ``tasks``, many in lock-step, and
    yield each task's tree in task order, as soon as it and every earlier
    task's are complete; a result that is complete early waits until then.

    A task is ``(features, rows, rng, feature_sample)``. Its tree is grown
    on ``ds.select(features).take_rows(rows)`` (every row when ``rows`` is
    None), a node's ``feature`` being its position among the sorted
    ``features``; with a ``feature_sample``, each node splits on that many
    features drawn from ``rng``. ``tasks`` may be any iterable; a task is
    taken, and checked, when its tree starts, so a lazy one can draw each
    tree's rows from its rng just in time.

    A task may carry a fifth element, ``held_out`` rows (None is none).
    Such a task yields ``correct`` in place of its tree: the number of
    held-out rows that ``predict`` on the tree would label correctly. Its
    buffer holds the fit rows, then the held-out rows, and each step's one
    stable sort, keyed by ``2 * (node's first branch id + branch) + held``,
    moves both into their branches, each branch's fit rows first. A nominal
    split's default branch, the first largest by fit rows, takes a category
    its fit rows never showed. Each leaf adds its held-out rows of its
    majority class to the count, and the tree keeps no nodes. A row listed
    twice, fit or held out, counts twice; a row outside ``[0,
    ds.row_count)`` is refused. Held-out rows count toward
    ``MAX_ROWS_IN_FLIGHT``, as the buffer holds them.
    """
    if min_leaf < 1:
        raise DatasetError(f"min_leaf must be >= 1, got {min_leaf}")
    xl = xlog2x_table(ds.row_count)  # enlarged for a task that lists more rows
    started = (_Growing(ds, i, task) for i, task in enumerate(tasks))
    waiting = next(started, None)
    growing: list[_Growing] = []
    in_flight = 0
    done, yielded = {}, 0  # finished tasks' results by index; the results yielded
    while waiting is not None or growing:
        while waiting is not None and (
                not growing or in_flight + waiting.rows.size <= MAX_ROWS_IN_FLIGHT):
            growing.append(waiting)
            in_flight += waiting.rows.size
            if waiting.rows.size >= xl.size:
                xl = xlog2x_table(waiting.rows.size)
            waiting = next(started, None)
        _step(growing, ds.labels, xl, min_leaf)
        for g in growing:
            if not g.stack:
                in_flight -= g.rows.size
                done[g.index] = g.correct if g.nodes is None else {"nodes": g.nodes}
        growing = [g for g in growing if g.stack]
        while yielded in done:
            yield done.pop(yielded)
            yielded += 1


def _step(growing: list[_Growing], labels, xl, min_leaf: int) -> None:
    """Advance each tree to its next node that may split, score every
    (node, feature) pair of those nodes together, and split them.

    A node's features are drawn from its tree's rng as it comes off its
    tree's stack, so every tree takes its draws in its own pre-order.
    Numeric pairs are scanned in runs of at most ``MAX_SCAN_ELEMENTS``
    (row, feature) elements, a single pair exceeding it alone, those on
    their tree's ``key`` column in runs of their own that need no sort; nominal
    pairs are scored one by one with ``partition_gain``. Scores read only a
    node's fit rows. A node splits on its first pair of the highest ratio,
    so the lowest feature wins ties, and the split nodes' rows, held-out
    ones too, are reordered into their branches at once.
    """
    nodes, pairs = [], []  # (tree, lo, mid, hi, attack, held_attack, parent); (node, feature)
    widths = []  # features per node
    for g in growing:
        while g.stack:
            node = g.stack.pop()
            lo, mid, _, attack, _, _ = node
            m = mid - lo
            features = () if attack == 0 or attack == m or m < min_leaf else (
                np.sort(g.rng.choice(len(g.columns), size=g.sample, replace=False)).tolist()
                if g.sample is not None else range(len(g.columns)))
            if not features:
                g.leaf(*node)
                continue
            pairs.extend((len(nodes), f) for f in features)
            widths.append(len(features))
            nodes.append((g, *node))
            break
    if not nodes:
        return
    m = np.array([mid - lo for _, lo, mid, *_ in nodes])  # fit rows per node
    size = np.array([hi - lo for _, lo, _, hi, *_ in nodes])  # fit and held-out rows
    attack = np.array([node[4] for node in nodes])
    entropy = (xl[m] - xl[attack] - xl[m - attack]) / m
    rows = [g.rows[lo:hi] for g, lo, _, hi, *_ in nodes]
    fit = [r[:k] for r, k in zip(rows, m.tolist())]
    offset = np.cumsum(size) - size
    node_rows = np.concatenate(rows)
    y = labels[node_rows]
    columns = [nodes[k][0].columns[f] for k, f in pairs]
    ratio = np.full(len(pairs), -np.inf)
    lower, upper = np.zeros(len(pairs)), np.zeros(len(pairs))
    numeric = ([], [])  # numeric pairs to sort, and those on their tree's key
    for p, (k, f) in enumerate(pairs):
        if columns[p].kind == "numeric":
            numeric[f == nodes[k][0].key].append(p)
        else:
            ratio[p] = _nominal_ratio(columns[p].values[fit[k]],
                                      y[offset[k]:offset[k] + m[k]], float(entropy[k]), xl)
    for presorted, scanned in enumerate(numeric):
        ends = np.cumsum(m[[pairs[p][0] for p in scanned]]).tolist()
        i = 0
        while i < len(scanned):
            start = ends[i - 1] if i else 0
            j = max(i + 1, bisect.bisect_right(ends, start + MAX_SCAN_ELEMENTS))
            run = scanned[i:j]
            k = np.array([pairs[p][0] for p in run])
            values = np.concatenate([columns[p].values[fit[pairs[p][0]]] for p in run])
            ratio[run], lower[run], upper[run] = _scan(
                values, y[_ranges(offset[k], m[k])], m[k], attack[k], entropy[k], xl,
                presorted=bool(presorted))
            i = j

    # Each node's split, its document but for counts, and the branch of each
    # of its rows; a node with no admissible split is a leaf.
    _, best = _first_max(ratio, widths)
    ratio, lower, upper = ratio.tolist(), lower.tolist(), upper.tolist()
    splits, branches = [], []
    for k, p in enumerate(best.tolist()):
        if ratio[p] == -math.inf:
            splits.append(None)
            branches.append(np.zeros(size[k], dtype=np.intp))
            continue
        values = columns[p].values[rows[k]]
        split = {"feature": pairs[p][1], "children": []}
        if columns[p].kind == "numeric":
            split["threshold"] = cut_threshold(lower[p], upper[p])
        else:
            seen = np.bincount(values[:m[k]])
            present = np.flatnonzero(seen)
            split.update(codes=present.tolist(), default_child=int(np.argmax(seen[present])))
        splits.append(split)
        branches.append(_branch(values, split))
    # One stable sort by 2 * (node's first branch id + branch) + held moves
    # every node's rows into its branches: each branch's fit rows, kept in
    # row order, then its held-out rows.
    counts = [1 if s is None else max(len(s.get("codes", ())), 2) for s in splits]
    first = np.cumsum(counts) - counts
    ids = 2 * sum(counts)
    parts = np.repeat(2 * first, 2)
    parts[1::2] += 1
    key = np.repeat(parts.astype(np.min_scalar_type(ids)), np.column_stack((m, size - m)).ravel())
    branch = np.concatenate(branches).astype(key.dtype)  # small ids sort by radix
    key += branch
    key += branch
    moved = node_rows[np.argsort(key, kind="stable")]
    sizes = np.bincount(key, minlength=ids).tolist()
    attacks = np.bincount(key, weights=y, minlength=ids).astype(np.int64).tolist()
    for node, split, count, b, at in zip(nodes, splits, counts, first.tolist(),
                                         offset.tolist()):
        g, lo, mid, hi, a, _, parent = node
        if split is None:
            g.leaf(*node[1:])
            continue
        g.rows[lo:hi] = moved[at:at + hi - lo]
        here = -1 if g.nodes is None else g.add(parent, {"counts": [mid - lo - a, a], **split})
        for c in reversed(range(2 * b, 2 * (b + count), 2)):  # the first branch pops first
            mid = hi - sizes[c + 1]
            g.stack.append((mid - sizes[c], mid, hi, attacks[c], attacks[c + 1], here))
            hi = mid - sizes[c]


def grow(ds: Dataset, *, min_leaf: int = 2) -> Tree:
    """Induce an unpruned tree on every row and feature of ``ds``:
    ``grow_many``'s one-task case."""
    (tree,) = grow_many(ds, [(range(len(ds.columns)), None, None, None)], min_leaf=min_leaf)
    return tree


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
    exceed the sum of its leaves' estimates. Returns a new tree of new
    nodes; the input is never mutated.
    """
    if not (0.0 < confidence <= 0.5):
        raise DatasetError(f"confidence must be in (0, 0.5], got {confidence}")
    nodes = tree["nodes"]
    # Children follow their parent, so a reverse scan sees every child's
    # estimate before its parent's.
    estimate = [0.0] * len(nodes)
    collapse = [False] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        counts, children = nodes[i]["counts"], nodes[i].get("children", ())
        as_leaf = pessimistic_errors(min(counts), sum(counts), confidence)
        # A plain loop, not sum(): sum() of floats is compensated from
        # Python 3.12 and would change the estimates.
        subtree = 0.0
        for c in children:
            subtree += estimate[c]
        collapse[i] = not children or as_leaf <= subtree + 1e-9
        estimate[i] = as_leaf if collapse[i] else subtree
    pruned: list[dict] = []
    stack = [(0, -1)]
    while stack:
        i, parent = stack.pop()
        if parent >= 0:
            pruned[parent]["children"].append(len(pruned))
        node = nodes[i]
        if collapse[i]:
            pruned.append({"counts": list(node["counts"])})
            continue
        stack.extend((c, len(pruned)) for c in reversed(node["children"]))
        pruned.append({**node, "counts": list(node["counts"]), "children": []})
    return {"nodes": pruned}


def predict(tree: Tree, ds: Dataset) -> np.ndarray:
    """The majority class of the leaf each row of ``ds`` reaches.

    The tree must split only on features of ``ds``: ``grow`` fits its
    dataset, and ``from_doc`` checks a saved tree against the model's width.
    """
    out = np.empty(ds.row_count, dtype=np.uint8)
    stack = [(0, np.arange(ds.row_count))]  # (node, its rows)
    while stack:
        i, at = stack.pop()
        if at.size == 0:
            continue
        node = tree["nodes"][i]
        if "children" not in node:
            normal, attack = node["counts"]
            out[at] = 1 if attack >= normal else 0
            continue
        branch = _branch(ds.columns[node["feature"]].values[at], node)
        codes = node.get("codes")
        branches = ([at[branch == b] for b in range(len(codes))] if codes
                    else (at[~branch], at[branch]))
        stack.extend(zip(node["children"], branches))
    return out
