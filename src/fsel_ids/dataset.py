"""Columnar dataset: typed CSV loading and stratified subsampling.

A Dataset stores one numpy array per input feature plus a binary label
vector (1 = attack, 0 = normal). Nominal features are dictionary-encoded:
the column keeps integer category ids and an ordered tuple of category
strings built in the file's own first-occurrence order, so an id means
nothing outside its file; a fitted ``PreprocessPlan`` matches categories
across files by name. Datasets are immutable after construction (all
arrays are marked read-only) and safe to share. ``Dataset.from_matrix``
builds the preprocessing plan's output, whose columns are views of one
(rows x width) array that ``as_matrix`` hands to models without a copy.

``load_csv`` parses a file's rows in one ``np.loadtxt`` pass into a
structured array built from the schema (float64 numeric fields, object
nominal and label fields). Checks then run on the arrays; when one fails,
numpy raises, or a blank line went missing, a ``csv.reader`` walk over the
file names the first bad row. Numeric cells follow numpy's parser, which
unlike ``float()`` rejects digit-group underscores and non-ASCII digits.
"""

from __future__ import annotations

import csv
import itertools
import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .schema import FeatureSchema

ATTACK = 1
NORMAL = 0


class DatasetError(ValueError):
    """Raised for malformed data files or invalid dataset operations."""


# Outside input quoted in an error message is shown through this, so that a
# long string, list or number cannot make the message long.
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel, _SHOWN.maxstring, _SHOWN.maxlong, _SHOWN.maxother = 3, 80, 40, 80


def shown(value) -> str:
    """``repr(value)`` for an error message, cut short: a long string, list
    or number shows its first and last parts only."""
    return _SHOWN.repr(value)


def is_finite_number(value) -> bool:
    """Whether a document's ``value`` is a finite int or float, not a bool
    (an int too large for a float raises OverflowError)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar table with a binary label vector."""

    columns: tuple[Column, ...]
    labels: np.ndarray  # uint8, 1 = attack
    matrix: np.ndarray | None = field(default=None, repr=False)  # set by from_matrix

    def __post_init__(self):
        _frozen(self.labels)
        n = len(self.labels)
        for col in self.columns:
            if len(col.values) != n:
                raise DatasetError(
                    f"column {col.name!r} has {len(col.values)} rows, labels have {n}"
                )

    @classmethod
    def from_matrix(cls, names, matrix: np.ndarray, labels) -> "Dataset":
        """Numeric dataset over an (n, d) float64 array: column j is the view
        ``matrix[:, j]``, and ``as_matrix`` returns ``matrix`` itself."""
        if matrix.shape[1:] != (len(names),):
            raise DatasetError(f"{len(names)} column names for a matrix of shape {matrix.shape}")
        _frozen(matrix)
        # One scan checks every column: a NaN or inf makes the min or the max
        # non-finite. Column's own check then names the first bad column.
        if matrix.size and not (math.isfinite(matrix.min()) and math.isfinite(matrix.max())):
            for j, name in enumerate(names):
                Column(name, "numeric", matrix[:, j])
        columns = []
        for j, name in enumerate(names):  # checked Columns, made without a scan per view
            col = object.__new__(Column)
            col.__dict__.update(name=name, kind="numeric", values=matrix[:, j], categories=())
            columns.append(col)
        return cls(tuple(columns), labels, matrix)

    @property
    def row_count(self) -> int:
        return len(self.labels)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise DatasetError(f"no column named {name!r}")

    def select(self, indices) -> "Dataset":
        """New dataset restricted to the given feature indices.

        Columns keep their original relative order so that downstream
        learners see the same layout regardless of how the subset was
        discovered.
        """
        idx = sorted(set(int(i) for i in indices))
        if idx and (idx[0] < 0 or idx[-1] >= len(self.columns)):
            raise DatasetError(f"feature index out of range: {idx}")
        return Dataset(tuple(self.columns[i] for i in idx), self.labels)

    def take_rows(self, rows: np.ndarray) -> "Dataset":
        cols = tuple(Column(c.name, c.kind, c.values[rows], c.categories) for c in self.columns)
        return Dataset(cols, self.labels[rows])

    def as_matrix(self) -> np.ndarray:
        """The (n, d) float64 matrix of all columns.

        A dataset built by ``from_matrix`` (the preprocessing plan's output)
        returns its read-only C-order array, with no copy. Any other dataset
        stacks a new one, in which a nominal column gives its category ids;
        models reject a nominal column before they read the matrix.
        """
        if self.matrix is not None:
            return self.matrix
        if not self.columns:
            return np.zeros((self.row_count, 0))
        return np.column_stack([c.values for c in self.columns])


# Field types of the one structured parse: drop columns keep one character.
_FIELD_DTYPES = {"numeric": "f8", "nominal": "O", "class": "O", "drop": "U1"}
_BLANK_LINES = ("\n", "\r\n", "\r")


def _loadtxt(lines, dtype) -> np.ndarray:
    """numpy's C reader over CSV lines; every row must have dtype's width."""
    return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                      comments=None, ndmin=1)


def load_csv(path, schema: FeatureSchema, *, positive_label: str = "1") -> Dataset:
    """Load a header-bearing CSV file under a schema.

    Columns with kind=drop are discarded. Each nominal dictionary is built
    in this file's first-occurrence order; no other file seeds it. The
    label column maps to attack when the cell equals ``positive_label`` and
    to normal otherwise; more than one distinct non-positive label value is
    an error, as are missing cells.

    The rows are parsed in one ``np.loadtxt`` pass. When that pass raises,
    skips a blank line, or yields a value that a check rejects,
    ``_first_fault`` walks the file with ``csv.reader`` to name the first
    bad row. Quoted line breaks alone never start that walk.
    """
    names = schema.names
    kinds = [k for _, k in schema.entries]
    class_idx = kinds.index("class")
    dtype = np.dtype([(f"c{i}", _FIELD_DTYPES[k]) for i, k in enumerate(kinds)])

    blank_seen = False
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        if tuple(h.strip() for h in header) != names:
            raise DatasetError(
                f"{path}: header does not match schema "
                f"(expected {len(names)} columns starting {names[:3]}, got {tuple(header[:3])})"
            )

        def data_lines():
            nonlocal blank_seen
            for line in fh:
                # the only lines loadtxt skips
                blank_seen = blank_seen or line in _BLANK_LINES
                yield line

        lines = data_lines()
        first = next(lines, None)
        try:
            if first is None:
                table = np.empty(0, dtype)
            elif first in _BLANK_LINES:
                # loadtxt would skip it, and warn if no row followed
                raise ValueError("blank line after the header")
            else:
                table = _loadtxt(itertools.chain([first], lines), dtype)
        except ValueError as exc:
            raise _first_fault(path, schema, positive_label) or DatasetError(
                f"{path}: {exc}"
            ) from exc

    # A skipped blank line is a record with no cells, which the walk names.
    suspect = blank_seen
    columns = []  # (name, kind, values, categories), checked before Column sees them
    for i, kind in enumerate(kinds):
        cells = table[f"c{i}"]
        if kind == "numeric":
            values = np.ascontiguousarray(cells)
            suspect = suspect or not np.isfinite(values).all()
            columns.append((names[i], kind, values, ()))
        elif kind == "nominal":
            codes = {cat: j for j, cat in enumerate(dict.fromkeys(cells))}
            suspect = suspect or "" in codes
            values = np.fromiter(map(codes.__getitem__, cells), np.int32, count=len(cells))
            columns.append((names[i], kind, values, tuple(codes)))
    label_cells = table[f"c{class_idx}"]
    attack = label_cells == positive_label
    negatives = set(label_cells[~attack])
    suspect = suspect or "" in negatives or len(negatives) > 1

    if suspect and (fault := _first_fault(path, schema, positive_label)) is not None:
        raise fault
    columns = tuple(Column(*c) for c in columns)
    return Dataset(columns, attack.astype(np.uint8))


def _finite_numbers(cells: list[str]) -> bool:
    """Whether numpy's parser, as ``load_csv`` runs it, reads finite floats."""
    line = ",".join('"' + c.replace('"', '""') + '"' for c in cells)
    try:
        values = _loadtxt([line], np.float64)
    except ValueError:
        return False
    return bool(np.isfinite(values).all())


def _first_fault(path, schema: FeatureSchema, positive_label: str) -> DatasetError | None:
    """The error for the first bad data row as ``csv.reader`` reads it, if any."""
    names = schema.names
    kinds = [k for _, k in schema.entries]
    numeric = [i for i, k in enumerate(kinds) if k == "numeric"]
    nominal = [i for i, k in enumerate(kinds) if k == "nominal"]
    class_idx = kinds.index("class")
    negatives: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rowno, row in enumerate(reader, start=2):
            if len(row) != len(names):
                return DatasetError(
                    f"{path}:{rowno}: expected {len(names)} columns, got {len(row)}"
                )
            if numeric and not _finite_numbers([row[i] for i in numeric]):
                i = next(i for i in numeric if not _finite_numbers([row[i]]))
                return DatasetError(
                    f"{path}:{rowno}: column {names[i]!r}: "
                    f"cannot parse numeric cell {row[i]!r}"
                )
            for i in nominal:
                if row[i] == "":
                    return DatasetError(f"{path}:{rowno}: column {names[i]!r}: missing cell")
            cell = row[class_idx]
            if cell == "":
                return DatasetError(f"{path}:{rowno}: missing label")
            if cell != positive_label:
                negatives.add(cell)
                if len(negatives) > 1:
                    return DatasetError(
                        f"{path}:{rowno}: unknown label value {cell!r} "
                        f"(positive is {positive_label!r}, negative already {sorted(negatives)})"
                    )
    return None


def stratified_subsample(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Deterministic per-class subsample preserving proportions within 1 row.

    Each class contributes round(fraction * class_count) rows, drawn without
    replacement by numpy's default_rng(seed). Selected rows keep their
    original order.
    """
    if not (0.0 < fraction <= 1.0):
        raise DatasetError(f"fraction must be in (0, 1], got {fraction}")
    if ds.row_count == 0:
        raise DatasetError("cannot subsample an empty dataset")
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
    return ds.take_rows(np.sort(np.concatenate(chosen)))
