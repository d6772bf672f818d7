"""Shared dataset builders for the test suite."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from fsel_ids.dataset import Column, Dataset


def make_dataset(columns, labels) -> Dataset:
    """Build a Dataset from (name, kind, values[, categories]) tuples.

    Numeric values become float64 arrays, nominal ones int32 code arrays.
    """
    built = []
    for entry in columns:
        if entry[1] == "numeric":
            name, _, values = entry
            built.append(Column(name, "numeric", np.asarray(values, dtype=np.float64)))
        else:
            name, _, values, cats = entry
            built.append(
                Column(name, "nominal", np.asarray(values, dtype=np.int32), tuple(cats))
            )
    return Dataset(tuple(built), np.asarray(labels, dtype=np.uint8))


def random_mixed_dataset(
    rng: np.random.Generator,
    n_rows: int,
    n_features: int,
    *,
    informative: bool = True,
) -> Dataset:
    """Random dataset mixing numeric and nominal columns with binary labels.

    Labels are balanced-ish; when ``informative`` some columns correlate
    with the label so trees and filters have signal to find.
    """
    labels = (rng.random(n_rows) < 0.5).astype(np.uint8)
    if labels.min() == labels.max():
        labels[: n_rows // 2] = 1 - labels[0]
    columns = []
    for f in range(n_features):
        name = f"f{f}"
        style = rng.integers(0, 3)
        if style == 0:
            width = int(rng.integers(2, 5))
            codes = rng.integers(0, width, n_rows).astype(np.int32)
            if informative and f % 3 == 0:
                flip = rng.random(n_rows) < 0.6
                codes[flip] = labels[flip] % width
            cats = tuple(f"c{j}" for j in range(width))
            columns.append((name, "nominal", codes, cats))
        else:
            values = rng.normal(0.0, 1.0, n_rows)
            if informative and f % 3 == 0:
                values = values + labels * rng.uniform(0.5, 2.0)
            columns.append((name, "numeric", values))
    return make_dataset(columns, labels)


def separable_dataset(rng: np.random.Generator, n_rows: int, noise_features: int = 2):
    """Linearly separable data: one strong numeric signal plus noise."""
    labels = (rng.random(n_rows) < 0.5).astype(np.uint8)
    if labels.min() == labels.max():
        labels[: n_rows // 2] = 1 - labels[0]
    signal = labels * 4.0 + rng.normal(0.0, 0.5, n_rows)
    columns = [("signal", "numeric", signal)]
    for f in range(noise_features):
        columns.append((f"noise{f}", "numeric", rng.normal(0.0, 1.0, n_rows)))
    return make_dataset(columns, labels)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_toy_split(directory):
    """Small separable train/test CSV pair plus a schema file, in ``directory``."""

    def rows(n, seed):
        r = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            attack = r.random() < 0.55
            f1 = r.normal(2.5 if attack else -2.5, 1.0)
            f2 = r.normal(0.0, 1.0)
            proto = r.choice(["tcp", "udp", "icmp"])
            out.append([f"{f1:.6f}", f"{f2:.6f}", proto, "1" if attack else "0"])
        return out

    train = directory / "train.csv"
    test = directory / "test.csv"
    schema = directory / "schema.txt"
    write_csv(train, ["f1", "f2", "proto", "label"], rows(240, 1))
    write_csv(test, ["f1", "f2", "proto", "label"], rows(120, 2))
    schema.write_text("f1,numeric\nf2,numeric\nproto,nominal\nlabel,class\n",
                      encoding="utf-8")
    return train, test, schema


@pytest.fixture
def toy_split(tmp_path):
    return write_toy_split(tmp_path)
