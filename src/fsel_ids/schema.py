"""Typed column schemas that drive CSV ingestion.

A schema file is plain text with one ``name,kind`` entry per line. Kinds:

* ``numeric``  real-valued input feature
* ``nominal``  string-valued categorical input feature
* ``class``    the binary label column (exactly one per schema)
* ``drop``     present in the file but discarded at load time

Lines starting with ``#`` are comments; an optional ``name,kind`` header
line is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

KINDS = ("numeric", "nominal", "class", "drop")


class SchemaError(ValueError):
    """Raised for malformed or inconsistent schema definitions."""


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered description of every column of a CSV file."""

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        if any(not n for n in names):
            raise SchemaError("empty column name")
        for name, kind in self.entries:
            if kind not in KINDS:
                raise SchemaError(f"unknown kind {kind!r} for column {name!r}")
        n_class = sum(1 for _, kind in self.entries if kind == "class")
        if n_class != 1:
            raise SchemaError(f"schema must have exactly one class column, found {n_class}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)



def parse_schema(text: str) -> FeatureSchema:
    """Parse schema-file contents into a FeatureSchema.

    Declaration order is preserved and must match the CSV column order.
    """
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise SchemaError(f"line {lineno}: expected 'name,kind', got {raw!r}")
        name, kind = parts
        if not entries and (name.lower(), kind.lower()) == ("name", "kind"):
            continue  # optional header
        entries.append((name, kind))
    if not entries:
        raise SchemaError("schema file contains no entries")
    return FeatureSchema(tuple(entries))
