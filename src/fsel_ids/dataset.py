"""Columnar dataset: typed CSV loading, class counts, stratified subsampling.

A Dataset stores one numpy array per input feature plus a binary label
vector (1 = attack, 0 = normal). Nominal features are dictionary-encoded:
the column keeps integer category ids and an ordered tuple of category
strings built in first-occurrence order. Datasets are immutable after
construction (all arrays are marked read-only) and safe to share.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .schema import FeatureSchema, SchemaError

ATTACK = 1
NORMAL = 0


class DatasetError(ValueError):
    """Raised for malformed data files or invalid dataset operations."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Column:
    """One feature column: float64 values, or int32 category ids + dictionary."""

    name: str
    kind: str  # "numeric" | "nominal"
    values: np.ndarray
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("numeric", "nominal"):
            raise DatasetError(f"column {self.name!r}: bad kind {self.kind!r}")
        if self.kind == "numeric":
            if self.values.size and not np.all(np.isfinite(self.values)):
                raise DatasetError(f"column {self.name!r}: non-finite values")
        else:
            if self.values.size and int(self.values.max(initial=-1)) >= len(self.categories):
                raise DatasetError(f"column {self.name!r}: category id out of range")
        _frozen(self.values)

    def decode(self) -> list[str]:
        """Map every id back to its category string."""
        return [self.categories[i] for i in self.values]


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar table with a binary label vector."""

    columns: tuple[Column, ...]
    labels: np.ndarray  # uint8, 1 = attack
    label_name: str = "label"

    def __post_init__(self):
        _frozen(self.labels)
        n = len(self.labels)
        for col in self.columns:
            if len(col.values) != n:
                raise DatasetError(
                    f"column {col.name!r} has {len(col.values)} rows, labels have {n}"
                )

    @property
    def row_count(self) -> int:
        return len(self.labels)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def schema(self) -> FeatureSchema:
        """Schema describing the live columns plus the label."""
        entries = tuple((c.name, c.kind) for c in self.columns)
        return FeatureSchema(entries + ((self.label_name, "class"),))

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise DatasetError(f"no column named {name!r}")

    def vocabulary(self) -> dict[str, tuple[str, ...]]:
        """Nominal dictionaries, for replaying on another file."""
        return {c.name: c.categories for c in self.columns if c.kind == "nominal"}

    def select(self, indices) -> "Dataset":
        """New dataset restricted to the given feature indices.

        Columns keep their original relative order so that downstream
        learners see the same layout regardless of how the subset was
        discovered.
        """
        idx = sorted(set(int(i) for i in indices))
        if idx and (idx[0] < 0 or idx[-1] >= len(self.columns)):
            raise DatasetError(f"feature index out of range: {idx}")
        return Dataset(tuple(self.columns[i] for i in idx), self.labels, self.label_name)

    def take_rows(self, rows: np.ndarray) -> "Dataset":
        cols = tuple(
            Column(c.name, c.kind, c.values[rows].copy(), c.categories) for c in self.columns
        )
        return Dataset(cols, self.labels[rows].copy(), self.label_name)

    def as_matrix(self) -> np.ndarray:
        """Stack all columns into an (n, d) float64 matrix. Numeric columns only."""
        for c in self.columns:
            if c.kind != "numeric":
                raise DatasetError(f"column {c.name!r} is nominal; encode it first")
        if not self.columns:
            return np.zeros((self.row_count, 0))
        return np.column_stack([c.values for c in self.columns])


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class row counts with percentages (sums to 100 within 0.01)."""

    attack: int
    normal: int
    attack_pct: float = field(init=False)
    normal_pct: float = field(init=False)

    def __post_init__(self):
        total = self.attack + self.normal
        if total == 0:
            raise DatasetError("empty dataset has no class distribution")
        object.__setattr__(self, "attack_pct", 100.0 * self.attack / total)
        object.__setattr__(self, "normal_pct", 100.0 * self.normal / total)

    @property
    def total(self) -> int:
        return self.attack + self.normal


def load_csv(
    path,
    schema: FeatureSchema,
    *,
    positive_label: str = "1",
    vocab: dict[str, tuple[str, ...]] | None = None,
) -> Dataset:
    """Load a header-bearing CSV file under a schema.

    Columns with kind=drop are discarded. Nominal dictionaries are built in
    first-occurrence order; pass ``vocab`` (from the training dataset) to
    reuse fitted dictionaries, in which case unseen categories get fresh ids
    appended after the fitted ones. The label column maps to attack when the
    cell equals ``positive_label`` and to normal otherwise; more than one
    distinct non-positive label value is an error, as are missing cells.
    """
    names = schema.names
    kinds = [k for _, k in schema.entries]
    keep = [i for i, k in enumerate(kinds) if k in ("numeric", "nominal")]
    class_idx = kinds.index("class")

    numeric_data: dict[int, list[float]] = {i: [] for i in keep if kinds[i] == "numeric"}
    nominal_data: dict[int, list[int]] = {i: [] for i in keep if kinds[i] == "nominal"}
    dicts: dict[int, dict[str, int]] = {}
    for i in nominal_data:
        seed = vocab.get(names[i], ()) if vocab else ()
        dicts[i] = {cat: j for j, cat in enumerate(seed)}

    labels: list[int] = []
    negatives: set[str] = set()

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != names:
            raise DatasetError(
                f"{path}: header does not match schema "
                f"(expected {len(names)} columns starting {names[:3]}, got {tuple(header[:3])})"
            )
        for rowno, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise DatasetError(
                    f"{path}:{rowno}: expected {len(names)} columns, got {len(row)}"
                )
            for i in numeric_data:
                cell = row[i]
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise DatasetError(
                        f"{path}:{rowno}: column {names[i]!r}: "
                        f"cannot parse numeric cell {cell!r}"
                    )
                numeric_data[i].append(value)
            for i in nominal_data:
                cell = row[i]
                if cell == "":
                    raise DatasetError(f"{path}:{rowno}: column {names[i]!r}: missing cell")
                d = dicts[i]
                code = d.get(cell)
                if code is None:
                    code = len(d)
                    d[cell] = code
                nominal_data[i].append(code)
            cell = row[class_idx]
            if cell == "":
                raise DatasetError(f"{path}:{rowno}: missing label")
            if cell == positive_label:
                labels.append(ATTACK)
            else:
                negatives.add(cell)
                if len(negatives) > 1:
                    raise DatasetError(
                        f"{path}:{rowno}: unknown label value {cell!r} "
                        f"(positive is {positive_label!r}, negative already {sorted(negatives)})"
                    )
                labels.append(NORMAL)

    columns = []
    for i in keep:
        name = names[i]
        if kinds[i] == "numeric":
            columns.append(Column(name, "numeric", np.asarray(numeric_data[i], dtype=np.float64)))
        else:
            cats = tuple(sorted(dicts[i], key=dicts[i].get))
            columns.append(
                Column(name, "nominal", np.asarray(nominal_data[i], dtype=np.int32), cats)
            )
    return Dataset(tuple(columns), np.asarray(labels, dtype=np.uint8), names[class_idx])


def class_distribution(ds: Dataset) -> ClassDistribution:
    """Exact per-class row counts."""
    if ds.row_count == 0:
        raise DatasetError("empty dataset")
    attack = int(np.count_nonzero(ds.labels == ATTACK))
    return ClassDistribution(attack=attack, normal=ds.row_count - attack)


def stratified_subsample(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Deterministic per-class subsample preserving proportions within 1 row.

    Each class contributes round(fraction * class_count) rows, drawn without
    replacement by numpy's default_rng(seed). Selected rows keep their
    original order.
    """
    if not (0.0 < fraction <= 1.0):
        raise DatasetError(f"fraction must be in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    chosen = []
    for cls in (NORMAL, ATTACK):
        rows = np.flatnonzero(ds.labels == cls)
        if rows.size == 0:
            continue
        if fraction * rows.size < 2:
            raise DatasetError(
                f"class {cls} has {rows.size} rows; fraction {fraction} keeps fewer than 2"
            )
        target = int(round(fraction * rows.size))
        chosen.append(rng.choice(rows, size=target, replace=False))
    picked = np.sort(np.concatenate(chosen))
    return ds.take_rows(picked)
