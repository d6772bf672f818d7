"""Filter-style feature scoring: entropy ranking and relief weighting.

Three scorers share one interface: each maps a dataset to a per-feature
score vector, higher is better. The scorers reuse the learners' kernels.
Information gain and gain ratio are the gain and split info of
``tree.partition_gain``, the measure the tree evaluates at a nominal node;
numeric features are seen through an equal-frequency binning whose cuts
fall where a tree split's would. The relief weigher works on raw values
with range-normalized differences and picks its neighbours with
``models.nearest``, kNN's rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Column, Dataset, DatasetError
from .models import nearest
from .tree import cut_threshold, partition_gain, xlog2x_table

FILTER_METHODS = ("infogain", "gainratio", "relief")


def feature_codes(ds: Dataset, index: int, bins: int = 10) -> np.ndarray:
    """Integer view of one feature for the entropy scorers.

    Nominal columns use their dictionary ids. A numeric column is cut into
    ``bins`` near-equal bins fitted on itself: cut b falls between sorted
    positions round(b*n/bins)-1 and round(b*n/bins), at ``cut_threshold``
    of those two values, and a value at or below a cut goes to the lower
    bin, as it goes left at a tree split. A cut inside a run of equal values
    is dropped, so a constant column has one bin.
    """
    col = ds.columns[index]
    if col.kind == "nominal":
        return col.values.astype(np.int64)
    if bins < 2:
        raise DatasetError(f"bins must be >= 2, got {bins}")
    v = np.sort(col.values)
    n = v.size
    bins = min(bins, n)  # more bins cut at the same positions 1..n-1 as n do
    # two cuts at one position give one edge
    edges = [cut_threshold(float(v[k - 1]), float(v[k]))
             for k in sorted({round(b * n / bins) for b in range(1, bins)})
             if 0 < k < n and v[k - 1] < v[k]]
    return np.searchsorted(np.asarray(edges, np.float64), col.values, side="left").astype(np.int64)


def _differences(col: Column, span: float, i: int, rows) -> np.ndarray:
    """Relief differences between row ``i`` and ``rows`` on one column: 0/1
    for a nominal column, the absolute difference over ``span`` for a
    numeric one."""
    if col.kind == "nominal":
        return (col.values[rows] != col.values[i]).astype(np.float64)
    return np.abs(col.values[rows] - col.values[i]) / span


def relief_weights(
    ds: Dataset,
    *,
    neighbors: int = 10,
    sample_count: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Relief feature weights in [-1, 1], higher meaning more relevant.

    For each sampled row the nearest ``neighbors`` same-class rows (hits)
    and nearest ``neighbors`` other-class rows (misses) are found under the
    summed per-feature difference. Hit differences push a weight down,
    miss differences push it up; every contribution is divided by the
    number of sampled rows times ``neighbors``. Nominal features differ
    0/1; numeric differences are scaled by the feature's full-data range
    (a constant feature never differs). Ties in distance break toward the
    lower row index. Each class must have at least ``neighbors`` + 1 rows
    so full hit and miss sets always exist.

    Sampling: when ``sample_count`` is None or >= the row count, every row
    is visited in order; otherwise ``sample_count`` distinct rows are drawn
    by numpy's default_rng(seed).choice without replacement.
    """
    if neighbors < 1:
        raise DatasetError(f"neighbors must be >= 1, got {neighbors}")
    n = ds.row_count
    d = len(ds.columns)
    if d == 0:
        return np.zeros(d, dtype=np.float64)
    labels = ds.labels
    for cls in (0, 1):
        have = int(np.count_nonzero(labels == cls))
        if have < neighbors + 1:
            raise DatasetError(
                f"class {cls} has {have} rows, need at least {neighbors + 1} "
                f"for {neighbors} neighbors"
            )

    # A constant column gets span 1.0: its differences are all 0 either way.
    columns = []
    for col in ds.columns:
        span = float(col.values.max()) - float(col.values.min()) if col.kind == "numeric" else 1.0
        columns.append((col, span if span > 0.0 else 1.0))

    if sample_count is None or sample_count >= n:
        sampled = np.arange(n)
    else:
        if sample_count < 1:
            raise DatasetError(f"sample_count must be >= 1, got {sample_count}")
        sampled = np.random.default_rng(seed).choice(n, size=sample_count, replace=False)
    m = len(sampled)

    weights = np.zeros(d, dtype=np.float64)
    # Hits push a weight down and misses up; negating a share is exact, so
    # adding -1.0 * share equals subtracting it.
    signs = np.repeat([-1.0, 1.0], neighbors)
    for i in sampled:
        dist = np.zeros(n, dtype=np.float64)
        for col, span in columns:
            dist += _differences(col, span, i, slice(None))
        same = labels == labels[i]
        chosen = []
        for same_class in (True, False):
            # Hits or misses only: the other class and the row itself are never nearest.
            masked = np.where(same == same_class, dist, np.inf)
            masked[i] = np.inf
            chosen += sorted(np.flatnonzero(nearest(masked, neighbors)), key=dist.__getitem__)
        block = np.array([_differences(col, span, i, chosen) for col, span in columns])
        block /= m * neighbors
        block *= signs
        for share in block.T:
            weights += share
    np.clip(weights, -1.0, 1.0, out=weights)
    return weights


@dataclass(frozen=True)
class FilterScores:
    """Per-feature scores plus the full ranking they induce."""

    method: str
    feature_names: tuple[str, ...]
    scores: np.ndarray
    ranked: tuple[int, ...]  # every feature index, best first

    def __post_init__(self):
        self.scores.flags.writeable = False

    def top(self, k: int) -> tuple[int, ...]:
        """Indices of the k best features; a prefix of the full ranking."""
        if not (0 < k <= len(self.ranked)):
            raise DatasetError(f"k must be in 1..{len(self.ranked)}, got {k}")
        return self.ranked[:k]


def rank_by_score(scores: np.ndarray) -> tuple[int, ...]:
    """All indices ordered by descending score, ties toward the lower index."""
    return tuple(sorted(range(len(scores)), key=lambda i: -scores[i]))


def score_features(
    ds: Dataset,
    method: str,
    *,
    bins: int = 10,
    neighbors: int = 10,
    sample_count: int | None = None,
    seed: int = 0,
) -> FilterScores:
    """Run one filter scorer over every input feature."""
    if method not in FILTER_METHODS:
        raise DatasetError(f"unknown filter method {method!r}; pick from {FILTER_METHODS}")
    if ds.row_count == 0:
        raise DatasetError("cannot score the features of an empty dataset")
    if method == "relief":
        scores = relief_weights(
            ds, neighbors=neighbors, sample_count=sample_count, seed=seed
        )
    else:
        n, y = ds.row_count, ds.labels.astype(np.int64)
        attack = int(np.count_nonzero(y))
        xl = xlog2x_table(n)
        h_class = float((xl[n] - xl[attack] - xl[n - attack]) / n)
        values = []
        for f in range(len(ds.columns)):
            gain, split_info, branches = partition_gain(feature_codes(ds, f, bins), y, h_class, xl)
            # One observed value is no split; with no split info it scores 0.
            if branches < 2:
                values.append(0.0)
            elif method == "infogain":  # at most the class entropy, whose rounding can pass 1 bit
                values.append(min(max(gain, 0.0), h_class, 1.0))
            else:
                values.append(min(max(gain / split_info, 0.0), 1.0))
        scores = np.asarray(values, dtype=np.float64)
    return FilterScores(method, ds.feature_names, scores, rank_by_score(scores))
