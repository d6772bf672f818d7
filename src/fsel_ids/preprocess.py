"""Fitted, replayable feature transforms, and equal-frequency binning.

Every transform is split into a fit step (training data only) and a pure
apply step that maps a dataset to a new dataset. The full chain runs in a
fixed order: select features, min-max scale the numeric ones, one-hot
encode the nominal ones. Out-of-range numeric values clamp into [0, 1] and
categories never seen during fitting encode as an all-zero block. The
entropy filters bin numeric columns with ``equal_frequency_edges`` and
``bin_codes``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import Column, Dataset, DatasetError

PLAN_FORMAT = "fsel-ids/preprocess-plan"
PLAN_VERSION = 1


def minmax_scale(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Scale into [0, 1] with clamping. A constant fitted range maps to 0."""
    if hi <= lo:
        return np.zeros(len(values), dtype=np.float64)
    return np.clip((values - lo) / (hi - lo), 0.0, 1.0)


def equal_frequency_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Interior cut points splitting a numeric column into near-equal bins.

    Cut b falls between sorted positions round(b*n/bins)-1 and
    round(b*n/bins); the edge is the midpoint of those two values. Cuts
    landing inside a run of duplicates are dropped, so heavily repeated
    values yield fewer effective bins (a constant column yields one).
    """
    if bins < 2:
        raise DatasetError(f"bins must be >= 2, got {bins}")
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    edges: list[float] = []
    for b in range(1, bins):
        k = int(round(b * n / bins))
        if k <= 0 or k >= n:
            continue
        lo, hi = float(v[k - 1]), float(v[k])
        if hi > lo:
            e = (lo + hi) / 2.0
            if not edges or e > edges[-1]:
                edges.append(e)
    return np.asarray(edges, dtype=np.float64)


def bin_codes(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin ids in 0..len(edges); values beyond the fitted range hit the end bins."""
    return np.searchsorted(edges, values, side="right").astype(np.int32)


@dataclass(frozen=True)
class MinMaxParams:
    """Per-feature (min, max) fitted on training data, keyed by column name."""

    ranges: tuple[tuple[str, float, float], ...]

    def __post_init__(self):
        for name, lo, hi in self.ranges:
            if lo > hi:
                raise DatasetError(f"column {name!r}: fitted min {lo} > max {hi}")


@dataclass(frozen=True)
class OneHotPlan:
    """Per-feature category lists in training dictionary order."""

    dictionaries: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        for name, cats in self.dictionaries:
            if not cats:
                raise DatasetError(f"column {name!r}: empty category list")

    @property
    def output_width(self) -> int:
        return sum(len(cats) for _, cats in self.dictionaries)


def _check_features(ds: Dataset, features, want_kind: str) -> list[int]:
    idx = sorted(set(int(i) for i in features))
    for i in idx:
        if i < 0 or i >= len(ds.columns):
            raise DatasetError(f"feature index {i} out of range")
        col = ds.columns[i]
        if col.kind != want_kind:
            raise DatasetError(f"column {col.name!r} is {col.kind}, expected {want_kind}")
    return idx


def fit_minmax(train: Dataset, features=None) -> MinMaxParams:
    """Observed min/max of each requested numeric column (default: all)."""
    if features is None:
        features = [i for i, c in enumerate(train.columns) if c.kind == "numeric"]
    idx = _check_features(train, features, "numeric")
    ranges = []
    for i in idx:
        col = train.columns[i]
        if col.values.size == 0:
            raise DatasetError(f"column {col.name!r}: cannot fit scaler on empty column")
        ranges.append((col.name, float(col.values.min()), float(col.values.max())))
    return MinMaxParams(tuple(ranges))


def apply_minmax(ds: Dataset, params: MinMaxParams) -> Dataset:
    """Rescale the planned columns into [0, 1]; other columns pass through."""
    fitted = dict((name, (lo, hi)) for name, lo, hi in params.ranges)
    columns = []
    for col in ds.columns:
        if col.name in fitted:
            if col.kind != "numeric":
                raise DatasetError(f"column {col.name!r} is nominal, scaler expects numeric")
            lo, hi = fitted.pop(col.name)
            columns.append(Column(col.name, "numeric", minmax_scale(col.values, lo, hi)))
        else:
            columns.append(col)
    if fitted:
        raise DatasetError(f"scaler columns missing from dataset: {sorted(fitted)}")
    return Dataset(tuple(columns), ds.labels, ds.label_name)


def fit_onehot(train: Dataset, features=None) -> OneHotPlan:
    """Freeze the training dictionaries of the requested nominal columns."""
    if features is None:
        features = [i for i, c in enumerate(train.columns) if c.kind == "nominal"]
    idx = _check_features(train, features, "nominal")
    dicts = []
    for i in idx:
        col = train.columns[i]
        if not col.categories:
            raise DatasetError(f"column {col.name!r}: no categories observed")
        dicts.append((col.name, col.categories))
    return OneHotPlan(tuple(dicts))


def apply_onehot(ds: Dataset, plan: OneHotPlan) -> Dataset:
    """Replace each planned nominal column with indicator columns.

    Indicator columns are named ``feature=category`` and sit where the
    source column did. A category id beyond the fitted dictionary (a value
    first seen outside training) leaves the whole block zero. The fitted
    dictionary must be a prefix of the column's, which load-time
    vocabulary reuse guarantees.
    """
    planned = dict(plan.dictionaries)
    columns: list[Column] = []
    for col in ds.columns:
        if col.name not in planned:
            columns.append(col)
            continue
        if col.kind != "nominal":
            raise DatasetError(f"column {col.name!r} is numeric, encoder expects nominal")
        cats = planned.pop(col.name)
        if col.categories[: len(cats)] != cats:
            raise DatasetError(
                f"column {col.name!r}: dictionary does not extend the fitted one"
            )
        block = np.zeros((len(col.values), len(cats)), dtype=np.float64)
        seen = col.values < len(cats)
        block[np.flatnonzero(seen), col.values[seen]] = 1.0
        for j, cat in enumerate(cats):
            columns.append(Column(f"{col.name}={cat}", "numeric", block[:, j].copy()))
    if planned:
        raise DatasetError(f"encoder columns missing from dataset: {sorted(planned)}")
    return Dataset(tuple(columns), ds.labels, ds.label_name)


@dataclass(frozen=True)
class PreprocessPlan:
    """Fitted chain: keep ``selected`` features, scale, then encode."""

    selected: tuple[str, ...]
    minmax: MinMaxParams
    onehot: OneHotPlan

    def __post_init__(self):
        names = set(self.selected)
        for name, _, _ in self.minmax.ranges:
            if name not in names:
                raise DatasetError(f"scaler references unselected column {name!r}")
        for name, _ in self.onehot.dictionaries:
            if name not in names:
                raise DatasetError(f"encoder references unselected column {name!r}")

    @property
    def output_width(self) -> int:
        return len(self.minmax.ranges) + self.onehot.output_width


def fit_preprocess(train: Dataset, selected=None) -> PreprocessPlan:
    """Fit the select/scale/encode chain on training data.

    ``selected`` gives feature indices into ``train``; None keeps all.
    """
    if selected is None:
        selected = range(len(train.columns))
    idx = sorted(set(int(i) for i in selected))
    sub = train.select(idx)
    return PreprocessPlan(
        selected=sub.feature_names,
        minmax=fit_minmax(sub),
        onehot=fit_onehot(sub),
    )


def apply_preprocess(plan: PreprocessPlan, ds: Dataset) -> Dataset:
    """Replay a fitted plan: select by name, scale, encode."""
    idx = [ds.index_of(name) for name in plan.selected]
    sub = ds.select(idx)
    if sub.feature_names != plan.selected:
        raise DatasetError("selected features are not in dataset column order")
    return apply_onehot(apply_minmax(sub, plan.minmax), plan.onehot)


def plan_to_json(plan: PreprocessPlan) -> str:
    doc = {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        "selected": list(plan.selected),
        "minmax": [[name, lo, hi] for name, lo, hi in plan.minmax.ranges],
        "onehot": [[name, list(cats)] for name, cats in plan.onehot.dictionaries],
    }
    return json.dumps(doc, indent=2)


def plan_from_json(text: str) -> PreprocessPlan:
    doc = json.loads(text)
    if doc.get("format") != PLAN_FORMAT:
        raise DatasetError(f"not a preprocess plan document: {doc.get('format')!r}")
    if doc.get("version") != PLAN_VERSION:
        raise DatasetError(f"unsupported plan version {doc.get('version')!r}")
    return PreprocessPlan(
        selected=tuple(doc["selected"]),
        minmax=MinMaxParams(tuple((n, float(lo), float(hi)) for n, lo, hi in doc["minmax"])),
        onehot=OneHotPlan(tuple((n, tuple(cats)) for n, cats in doc["onehot"])),
    )
