"""Replayable feature preprocessing.

A ``PreprocessPlan`` is fitted on training data only and replayed on any
split: keep the selected features, min-max scale the numeric ones, one-hot
encode the nominal ones. ``apply_preprocess`` writes the whole encoded
table into one zeroed C-order (rows x width) float64 array, and each output
column is a view of it, so the models that read rows (kNN, MLP, SVM) take
that array as it is, with no second copy. The plan's category names are
the only bridge between files: a nominal value is encoded by its
category's name, so each file may number its categories in its own order.
Out-of-range numeric values clamp into [0, 1], a constant fitted range maps
to 0, and a category never seen during fitting encodes as an all-zero
block.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DatasetError, is_finite_number, shown


@dataclass(frozen=True)
class PreprocessPlan:
    """Fitted chain: keep ``selected`` features, scale, then encode.

    ``minmax`` holds ``(name, lo, hi)`` per numeric feature and ``onehot``
    ``(name, categories)`` per nominal one. Names and categories are
    strings and ranges finite numbers. A name is selected once and fitted
    once, and no column lists a category twice.
    """

    selected: tuple[str, ...]
    minmax: tuple[tuple[str, float, float], ...]
    onehot: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        for name, lo, hi in self.minmax:
            if not (is_finite_number(lo) and is_finite_number(hi) and lo <= hi):
                raise DatasetError(f"column {shown(name)}: fitted min {shown(lo)} and max"
                                   f" {shown(hi)} are not finite numbers with min <= max")
        for name, cats in self.onehot:
            if not cats:
                raise DatasetError(f"column {shown(name)}: empty category list")
            if not all(isinstance(cat, str) for cat in cats):
                raise DatasetError(f"column {shown(name)}: categories {shown(list(cats))}"
                                   " are not all strings")
            twice = [cat for cat, k in Counter(cats).items() if k > 1]
            if twice:
                raise DatasetError(f"column {shown(name)}: category {shown(twice[0])}"
                                   " is listed twice")
        if not all(isinstance(name, str) for name in self.selected):
            raise DatasetError(f"selected names {shown(list(self.selected))} are not all strings")
        twice = [name for name, k in Counter(self.selected).items() if k > 1]
        if twice:
            raise DatasetError(f"column {shown(twice[0])} is selected twice")
        fitted = Counter(entry[0] for entry in self.minmax + self.onehot)
        fitted.subtract(self.selected)
        if any(fitted.values()):
            wrong = sorted(name for name, extra in fitted.items() if extra)
            raise DatasetError(f"plan must fit each selected column exactly once: {shown(wrong)}")

    @property
    def output_names(self) -> tuple[str, ...]:
        """The encoded columns in selected order: a numeric feature's own name,
        and ``feature=category`` for each fitted category of a nominal one."""
        cats = dict(self.onehot)
        return tuple(out for name in self.selected for out in (
            [f"{name}={cat}" for cat in cats[name]] if name in cats else [name]))

    @property
    def output_width(self) -> int:
        return len(self.output_names)


def fit_preprocess(train: Dataset, selected=None) -> PreprocessPlan:
    """Fit the chain on training data; ``selected`` indexes ``train``, None keeps all."""
    sub = train.select(range(len(train.columns)) if selected is None else selected)
    minmax, onehot = [], []
    for col in sub.columns:
        if col.kind == "numeric":
            if col.values.size == 0:
                raise DatasetError(f"column {col.name!r}: cannot fit scaler on empty column")
            minmax.append((col.name, float(col.values.min()), float(col.values.max())))
        elif col.categories:
            onehot.append((col.name, col.categories))
        else:
            raise DatasetError(f"column {col.name!r}: no categories observed")
    return PreprocessPlan(sub.feature_names, tuple(minmax), tuple(onehot))


def apply_preprocess(plan: PreprocessPlan, ds: Dataset) -> Dataset:
    """Replay a fitted plan on ``ds``, finding its columns by name.

    The output is ``Dataset.from_matrix`` over one zeroed C-order
    (rows x ``plan.output_width``) float64 array with the columns
    ``plan.output_names``: each scaled numeric feature is written into its
    column, and the one-hot ones in one scatter. A nominal feature becomes
    one indicator column per fitted category. Each value is looked up
    by its category's name in the fitted dictionary, whatever id ``ds``
    gives it; a name the plan never saw leaves the block zero.
    """
    idx = [ds.index_of(name) for name in plan.selected]
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise DatasetError("selected features are not in dataset column order")
    ranges = {name: (lo, hi) for name, lo, hi in plan.minmax}
    positions = {name: {cat: j for j, cat in enumerate(cats)} for name, cats in plan.onehot}
    names = plan.output_names
    x = np.zeros((ds.row_count, len(names)))
    at = 0  # the output column of ds's next feature
    hot_rows, hot_cols = [], []
    for col in (ds.columns[i] for i in idx):
        want = "numeric" if col.name in ranges else "nominal"
        if col.kind != want:
            raise DatasetError(f"column {col.name!r} is {col.kind}, the plan expects {want}")
        if want == "numeric":
            lo, hi = ranges[col.name]
            if hi > lo:
                v = col.values
                # a range wider than the largest float is scaled in halves
                scaled = ((v - lo) / (hi - lo) if np.isfinite(hi - lo)
                          else (v / 2 - lo / 2) / (hi / 2 - lo / 2))
                x[:, at] = np.clip(scaled, 0.0, 1.0)
            at += 1
            continue
        fitted = positions[col.name]
        # the fitted position of each of ds's category ids, -1 for unseen names
        slots = np.array([fitted.get(cat, -1) for cat in col.categories], np.intp)[col.values]
        seen = np.flatnonzero(slots >= 0)
        hot_rows.append(seen)
        hot_cols.append(at + slots[seen])
        at += len(fitted)
    if hot_rows:
        x[np.concatenate(hot_rows), np.concatenate(hot_cols)] = 1.0
    return Dataset.from_matrix(names, x, ds.labels)


def plan_to_doc(plan: PreprocessPlan) -> dict:
    """The ``plan`` field of a model document."""
    return {
        "selected": list(plan.selected),
        "minmax": [[name, lo, hi] for name, lo, hi in plan.minmax],
        "onehot": [[name, list(cats)] for name, cats in plan.onehot],
    }


def _entries(doc: dict, key: str, width: int) -> list:
    """``doc[key]``, refused by its name and value unless it is a list of
    lists of ``width`` items, each led by a name string."""
    entries = doc[key]
    if not isinstance(entries, list):
        raise DatasetError(f"plan.{key} is {shown(entries)}, not a list")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == width and isinstance(entry[0], str)):
            raise DatasetError(f"plan.{key}[{i}] is {shown(entry)}, not a name and"
                               f" {width - 1} more in a list")
    return entries


def plan_from_doc(doc: dict) -> PreprocessPlan:
    """Read a ``plan`` field back, with every check of ``PreprocessPlan``.

    Each field's shape is checked before it is read, so an error names the
    field and its value: ``selected`` is a list, ``minmax`` a list of
    ``[name, lo, hi]`` and ``onehot`` of ``[name, [category, ...]]``.
    """
    if not isinstance(doc, dict):
        raise DatasetError(f"plan is {shown(doc)}, not an object")
    selected = doc["selected"]
    if not isinstance(selected, list):
        raise DatasetError(f"plan.selected is {shown(selected)}, not a list")
    onehot = _entries(doc, "onehot", 2)
    for i, (_, cats) in enumerate(onehot):
        if not isinstance(cats, list):
            raise DatasetError(f"plan.onehot[{i}][1] is {shown(cats)}, not a list")
    return PreprocessPlan(
        selected=tuple(selected),
        minmax=tuple(tuple(entry) for entry in _entries(doc, "minmax", 3)),
        onehot=tuple((name, tuple(cats)) for name, cats in onehot),
    )
