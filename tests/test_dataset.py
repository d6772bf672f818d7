import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsel_ids import dataset as dataset_mod
from fsel_ids.dataset import (
    ATTACK,
    NORMAL,
    Column,
    Dataset,
    DatasetError,
    load_csv,
    stratified_subsample,
)
from fsel_ids.schema import FeatureSchema, parse_schema

from conftest import make_dataset, write_csv

SCHEMA = parse_schema(
    "rowid,drop\namount,numeric\nproto,nominal\nnote,drop\nlabel,class\n"
)
HEADER = ["rowid", "amount", "proto", "note", "label"]


def write_sample(path, rows):
    write_csv(path, HEADER, rows)


def test_load_drops_and_types(tmp_path):
    p = tmp_path / "d.csv"
    write_sample(p, [
        ["1", "3.5", "tcp", "x", "1"],
        ["2", "-1.0", "udp", "y", "0"],
        ["3", "0.25", "tcp", "z", "1"],
    ])
    ds = load_csv(p, SCHEMA)
    assert ds.feature_names == ("amount", "proto")
    assert ds.row_count == 3
    assert ds.columns[0].kind == "numeric"
    np.testing.assert_array_equal(ds.columns[0].values, [3.5, -1.0, 0.25])
    assert ds.columns[1].categories == ("tcp", "udp")  # first-occurrence order
    np.testing.assert_array_equal(ds.labels, [1, 0, 1])


def test_dictionary_roundtrip_matches_raw_cells(tmp_path):
    # oracle: the raw strings read back line by line
    rng = np.random.default_rng(0)
    cats = ["tcp", "udp", "icmp", "sctp"]
    raw = [str(rng.choice(cats)) for _ in range(50)]
    rows = [[str(i), "1.0", c, "n", str(i % 2)] for i, c in enumerate(raw)]
    p = tmp_path / "d.csv"
    write_sample(p, rows)
    ds = load_csv(p, SCHEMA)
    col = ds.columns[1]
    assert [col.categories[i] for i in col.values] == raw


def test_header_mismatch_rejected(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["a", "b"], [["1", "2"]])
    with pytest.raises(DatasetError, match="header"):
        load_csv(p, SCHEMA)


def test_bad_numeric_cell_rejected(tmp_path):
    p = tmp_path / "d.csv"
    write_sample(p, [["1", "oops", "tcp", "x", "1"]])
    with pytest.raises(DatasetError, match="amount"):
        load_csv(p, SCHEMA)


def test_missing_cells_are_hard_errors(tmp_path):
    p = tmp_path / "d.csv"
    write_sample(p, [["1", "1.0", "", "x", "1"]])
    with pytest.raises(DatasetError, match="missing"):
        load_csv(p, SCHEMA)
    write_sample(p, [["1", "1.0", "tcp", "x", ""]])
    with pytest.raises(DatasetError, match="label"):
        load_csv(p, SCHEMA)


def test_short_row_rejected(tmp_path):
    p = tmp_path / "d.csv"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(",".join(HEADER) + "\n1,2.0,tcp,x\n")
    with pytest.raises(DatasetError, match="columns"):
        load_csv(p, SCHEMA)


def test_two_distinct_negative_labels_rejected(tmp_path):
    p = tmp_path / "d.csv"
    write_sample(p, [
        ["1", "1.0", "tcp", "x", "0"],
        ["2", "1.0", "tcp", "x", "normal"],
    ])
    with pytest.raises(DatasetError, match="label"):
        load_csv(p, SCHEMA)


def test_subsample_identity_at_full_fraction():
    ds = make_dataset([("a", "numeric", range(20))], [i % 2 for i in range(20)])
    out = stratified_subsample(ds, 1.0, seed=3)
    np.testing.assert_array_equal(out.columns[0].values, ds.columns[0].values)
    np.testing.assert_array_equal(out.labels, ds.labels)


def test_subsample_exact_stratification():
    ds = make_dataset([("a", "numeric", range(100))], [i % 2 for i in range(100)])
    out = stratified_subsample(ds, 0.1, seed=0)
    assert out.row_count == 10
    assert int(out.labels.sum()) == 5


def test_subsample_deterministic_and_proportional():
    rng = np.random.default_rng(7)
    labels = (rng.random(400) < 0.7).astype(int)
    ds = make_dataset([("a", "numeric", rng.normal(size=400))], labels)
    a = stratified_subsample(ds, 0.25, seed=11)
    b = stratified_subsample(ds, 0.25, seed=11)
    np.testing.assert_array_equal(a.columns[0].values, b.columns[0].values)
    np.testing.assert_array_equal(a.labels, b.labels)
    want_attack = round(0.25 * labels.sum())
    assert int(a.labels.sum()) == want_attack


def test_subsample_rejects_tiny_classes():
    ds = make_dataset([("a", "numeric", range(10))], [0] * 9 + [1])
    with pytest.raises(DatasetError, match="fewer than 2"):
        stratified_subsample(ds, 0.5, seed=0)
    with pytest.raises(DatasetError, match="fraction"):
        stratified_subsample(ds, 0.0, seed=0)


def test_select_keeps_column_order():
    ds = make_dataset(
        [("a", "numeric", [1]), ("b", "numeric", [2]), ("c", "numeric", [3])], [1]
    )
    sub = ds.select((2, 0))
    assert sub.feature_names == ("a", "c")


def test_select_rejects_bad_index():
    ds = make_dataset([("a", "numeric", [1])], [1])
    with pytest.raises(DatasetError):
        ds.select([5])


def test_columns_are_read_only():
    ds = make_dataset([("a", "numeric", [1.0, 2.0])], [0, 1])
    with pytest.raises(ValueError):
        ds.columns[0].values[0] = 9.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


# Reference implementation: the row-by-row loader that ``load_csv``
# replaced, kept unchanged so that the one-pass loader can be checked
# against it for equal Datasets and equal error messages.

def _reference_load_csv(
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
    return Dataset(tuple(columns), np.asarray(labels, dtype=np.uint8))


def assert_same_dataset(got, want):
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert [(c.name, c.kind, c.categories) for c in got.columns] == [
        (c.name, c.kind, c.categories) for c in want.columns
    ]
    for a, b in zip(got.columns, want.columns):
        assert a.values.dtype == b.values.dtype
        assert a.values.tobytes() == b.values.tobytes()


def load_outcome(loader, path, schema):
    """The Dataset, or the DatasetError message."""
    try:
        return loader(path, schema)
    except DatasetError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, Dataset) and isinstance(got, Dataset):
        assert_same_dataset(got, want)
    else:
        assert got == want


_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(' ,"\n\r\tab'), st.characters(blacklist_categories=("Cs",))),
    max_size=6,
)
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.6f}"),
).flatmap(lambda s: st.sampled_from([s, f" {s}", f"{s}  ", f"\t{s} "]))


@st.composite
def csv_pairs(draw):
    """A schema and train/test CSV texts that the reference loader accepts."""
    kinds = draw(st.lists(st.sampled_from(("numeric", "nominal", "drop")), max_size=5))
    kinds.insert(draw(st.integers(0, len(kinds))), "class")
    schema = FeatureSchema(tuple((f"c{i}", kind) for i, kind in enumerate(kinds)))
    pool = draw(st.lists(_TEXT.filter(bool), min_size=1, max_size=5, unique=True))
    negative = draw(_TEXT.filter(lambda c: c not in ("", "1")))
    cells = {
        "numeric": _NUMBER,
        "nominal": st.sampled_from(pool),
        "drop": _TEXT,
        "class": st.sampled_from(["1", negative]),
    }
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    texts = []
    for _ in range(2):
        rows = draw(st.lists(st.tuples(*(cells[k] for k in kinds)), max_size=10))
        out = io.StringIO()
        writer = csv.writer(out, lineterminator=ending)
        writer.writerow(schema.names)
        writer.writerows(rows)
        text = out.getvalue()
        texts.append(text if draw(st.booleans()) else text[: -len(ending)])
    return schema, texts[0], texts[1]


@settings(max_examples=300, deadline=None)
@given(csv_pairs())
def test_load_matches_reference_loader(tmp_path_factory, case):
    schema, train_text, test_text = case
    d = tmp_path_factory.mktemp("csv")
    train_p, test_p = d / "train.csv", d / "test.csv"
    train_p.write_text(train_text, encoding="utf-8", newline="")
    test_p.write_text(test_text, encoding="utf-8", newline="")
    want = load_outcome(_reference_load_csv, train_p, schema)
    got = load_outcome(load_csv, train_p, schema)
    assert_same_outcome(got, want)
    assert_same_outcome(load_outcome(load_csv, test_p, schema),
                        load_outcome(_reference_load_csv, test_p, schema))


H = ",".join(HEADER)
EDGE_CASES = {
    "blank line in the middle": f"{H}\n1,1.0,tcp,x,1\n\n2,2.0,udp,y,0\n",
    "blank line at the end": f"{H}\n1,1.0,tcp,x,1\n2,2.0,udp,y,0\n\n",
    "blank line after the header": f"{H}\n\n1,1.0,tcp,x,1\n",
    "header only": f"{H}\n",
    "header only, no newline": H,
    "empty file": "",
    "no trailing newline": f"{H}\n1,1.0,tcp,x,1\n2,2.0,udp,y,0",
    "CRLF line endings": f"{H}\r\n1,1.0,tcp,x,1\r\n2,2.0,udp,y,0\r\n",
    "CR line endings": f"{H}\r1,1.0,tcp,x,1\r2,2.0,udp,y,0\r",
    "short row": f"{H}\n1,1.0,tcp,x,1\n2,2.0,udp,y\n",
    "long row": f"{H}\n1,1.0,tcp,x,1\n2,2.0,udp,y,0,9\n",
    "trailing comma": f"{H}\n1,1.0,tcp,x,1,\n",
    "quoted comma": f'{H}\n1,1.0,"tcp,udp",x,1\n',
    "doubled quote": f'{H}\n1,1.0,"t""cp",x,1\n',
    "embedded newline": f'{H}\n1,1.0,"tc\np",x,1\n2,2.0,udp,"y\r\nz",0\n',
    "quote in the middle of a field": f'{H}\n1,1.0,tc"p,x,1\n2,2.0,"ud"p,y,0\n',
    "quoted numeric cell": f'{H}\n1,"1.5",tcp,x,1\n',
    "padded cells": f"{H}\n1, 1.5 , tcp ,x,1\n2,\t2.0,tcp ,y,0\n",
    "nan": f"{H}\n1,1.0,tcp,x,1\n2,nan,udp,y,0\n",
    "inf": f"{H}\n1,-inf,tcp,x,1\n",
    "empty numeric cell": f"{H}\n1,1.0,tcp,x,1\n2,,udp,y,0\n",
    "unparsable numeric cell": f"{H}\n1,1.0,tcp,x,1\n2,1.0.0,udp,y,0\n",
    "empty nominal cell": f"{H}\n1,1.0,tcp,x,1\n2,2.0,,y,0\n",
    "empty label": f"{H}\n1,1.0,tcp,x,1\n2,2.0,udp,y,\n",
    "two distinct negative labels": f"{H}\n1,1.0,tcp,x,0\n2,2.0,udp,y,1\n3,2.0,udp,y,normal\n",
    "header mismatch": "rowid,amount,proto\n1,1.0,tcp\n",
    "first fault wins": f"{H}\n1,1.0,tcp,x,1\n2,2.0,,y,0\n3,oops,udp,y,0\n",
}


@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_cases_match_reference_loader(tmp_path, text):
    p = tmp_path / "d.csv"
    p.write_text(text, encoding="utf-8", newline="")
    assert_same_outcome(load_outcome(load_csv, p, SCHEMA),
                        load_outcome(_reference_load_csv, p, SCHEMA))


@pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662"])
def test_numeric_cells_numpy_cannot_parse_are_rejected(tmp_path, cell):
    # float() reads underscores and non-ASCII digits; numpy's parser does not
    assert math.isfinite(float(cell))
    p = tmp_path / "d.csv"
    write_sample(p, [["1", "2.0", "tcp", "x", "1"], ["2", cell, "tcp", "x", "0"]])
    message = f"{p}:3: column 'amount': cannot parse numeric cell {cell!r}"
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_csv(p, SCHEMA)


def test_quoted_line_breaks_are_read_in_one_pass(tmp_path, monkeypatch):
    p = tmp_path / "d.csv"
    p.write_text(EDGE_CASES["embedded newline"], encoding="utf-8", newline="")

    def walk(*args):
        raise AssertionError("the file was read a second time")

    monkeypatch.setattr(dataset_mod, "_first_fault", walk)
    ds = load_csv(p, SCHEMA)
    assert ds.columns[1].categories == ("tc\np", "udp")
    np.testing.assert_array_equal(ds.labels, [1, 0])
