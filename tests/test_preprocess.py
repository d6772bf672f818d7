import json
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsel_ids.dataset import Column, Dataset, DatasetError, load_csv
from fsel_ids.models import ModelError, fit_model, model_from_json, model_to_json, params_from_dict
from fsel_ids.preprocess import (
    PreprocessPlan,
    apply_preprocess,
    fit_preprocess,
    plan_from_doc,
    plan_to_doc,
)
from fsel_ids.schema import parse_schema

from conftest import make_dataset, write_csv

finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


def numeric_ds(values):
    return make_dataset([("x", "numeric", values)], [i % 2 for i in range(len(values))])


def encode(ds):
    """Fit a plan on ``ds`` over all its columns and replay it on ``ds``."""
    return apply_preprocess(fit_preprocess(ds), ds)


def test_minmax_fit_and_bounds():
    ds = numeric_ds([2.0, 4.0, 6.0])
    plan = fit_preprocess(ds)
    assert plan.minmax == (("x", 2.0, 6.0),)
    out = apply_preprocess(plan, ds)
    np.testing.assert_allclose(out.columns[0].values, [0.0, 0.5, 1.0])


def test_minmax_constant_maps_to_zero():
    out = encode(numeric_ds([5.0, 5.0, 5.0]))
    np.testing.assert_array_equal(out.columns[0].values, [0.0, 0.0, 0.0])


def test_minmax_clamps_out_of_range():
    plan = fit_preprocess(numeric_ds([2.0, 6.0]))
    out = apply_preprocess(plan, numeric_ds([8.0, 1.0, 4.0]))
    np.testing.assert_allclose(out.columns[0].values, [1.0, 0.0, 0.5])


def test_minmax_scales_a_range_wider_than_the_largest_float():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = encode(numeric_ds([-1e308, 1e308, 0.0, 5.0]))
    np.testing.assert_array_equal(out.columns[0].values, [0.0, 1.0, 0.5, 0.5])


def test_minmax_does_not_mutate_input():
    ds = numeric_ds([1.0, 3.0])
    encode(ds)
    np.testing.assert_array_equal(ds.columns[0].values, [1.0, 3.0])


@given(st.lists(finite_floats, min_size=1, max_size=40))
def test_minmax_range_property(values):
    v = encode(numeric_ds(values)).columns[0].values
    assert v.min() >= 0.0 and v.max() <= 1.0


@given(st.lists(finite_floats, min_size=2, max_size=40))
def test_minmax_idempotence_property(values):
    # refitting on already-scaled data and reapplying changes nothing
    once = encode(numeric_ds(values))
    twice = encode(once)
    np.testing.assert_array_equal(once.columns[0].values, twice.columns[0].values)


def nominal_ds(codes, cats):
    return make_dataset(
        [("proto", "nominal", codes, cats)], [i % 2 for i in range(len(codes))]
    )


def test_onehot_basic_indicators():
    out = encode(nominal_ds([0, 1, 2, 0], ("udp", "tcp", "icmp")))
    assert out.feature_names == ("proto=udp", "proto=tcp", "proto=icmp")
    got = np.column_stack([c.values for c in out.columns])
    np.testing.assert_array_equal(
        got, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]
    )


def test_onehot_unseen_category_encodes_all_zero():
    plan = fit_preprocess(nominal_ds([0, 1], ("udp", "tcp")))
    out = apply_preprocess(plan, nominal_ds([0, 2, 1], ("udp", "tcp", "sctp")))
    got = np.column_stack([c.values for c in out.columns])
    np.testing.assert_array_equal(got, [[1, 0], [0, 0], [0, 1]])


def test_onehot_single_category_column():
    out = encode(nominal_ds([0, 0, 0], ("only",)))
    np.testing.assert_array_equal(out.columns[0].values, [1.0, 1.0, 1.0])


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=50))
def test_onehot_row_sum_property(codes):
    width = max(codes) + 1
    cats = tuple(f"c{i}" for i in range(width))
    out = encode(nominal_ds(codes, cats))
    got = np.column_stack([c.values for c in out.columns])
    np.testing.assert_array_equal(got.sum(axis=1), np.ones(len(codes)))


def test_onehot_width_arithmetic():
    ds = make_dataset(
        [
            ("n1", "numeric", [1.0, 2.0]),
            ("c1", "nominal", [0, 1], ("a", "b")),
            ("c2", "nominal", [0, 0], ("x",)),
        ],
        [0, 1],
    )
    plan = fit_preprocess(ds)
    assert plan.output_width == 1 + 2 + 1
    out = apply_preprocess(plan, ds)
    assert len(out.columns) == 4


def test_onehot_encodes_a_file_by_category_name(tmp_path):
    schema = parse_schema("x,numeric\nproto,nominal\nlabel,class\n")
    train_p, test_p = tmp_path / "train.csv", tmp_path / "test.csv"
    header = ["x", "proto", "label"]
    write_csv(train_p, header, [["1", "udp", "1"], ["2", "tcp", "0"], ["3", "icmp", "1"]])
    # tcp first, icmp before udp, and sctp unseen during fitting
    write_csv(test_p, header, [["2", "tcp", "0"], ["2", "sctp", "1"], ["2", "icmp", "1"],
                               ["2", "udp", "0"], ["2", "tcp", "1"]])
    plan = fit_preprocess(load_csv(train_p, schema))
    out = apply_preprocess(plan, load_csv(test_p, schema))
    assert out.feature_names == ("x", "proto=udp", "proto=tcp", "proto=icmp")
    got = np.column_stack([c.values for c in out.columns])
    np.testing.assert_array_equal(got, [[0.5, 0, 1, 0], [0.5, 0, 0, 0], [0.5, 0, 0, 1],
                                        [0.5, 1, 0, 0], [0.5, 0, 1, 0]])


def mixed_ds():
    """Two numeric columns around a nominal one, 7 rows."""
    return make_dataset(
        [
            ("a", "numeric", [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]),
            ("proto", "nominal", [0, 1, 2, 1, 0, 2, 2], ("tcp", "udp", "icmp")),
            ("b", "numeric", [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0]),
        ],
        [1, 0, 1, 0, 1, 1, 0],
    )


def test_output_names_are_the_encoded_column_names():
    # the test file numbers proto's categories in its own order and adds sctp,
    # a category the plan never saw
    test = make_dataset([("a", "numeric", [1.0, 2.0, 6.0]),
                         ("proto", "nominal", [0, 1, 3], ("sctp", "icmp", "tcp", "udp")),
                         ("b", "numeric", [3.0, 3.0, 3.0])], [0, 1, 1])
    for selected, names in ((None, ("a", "proto=tcp", "proto=udp", "proto=icmp", "b")),
                            ([1, 2], ("proto=tcp", "proto=udp", "proto=icmp", "b")),
                            ([0, 2], ("a", "b"))):
        plan = fit_preprocess(mixed_ds(), selected)
        assert plan.output_names == names
        assert plan.output_width == len(names)
        assert apply_preprocess(plan, test).feature_names == names


def test_plan_output_is_one_c_order_matrix():
    out = encode(mixed_ds())
    x = out.as_matrix()
    assert x.shape == (7, 5)
    assert x.flags.c_contiguous and not x.flags.writeable
    assert out.as_matrix() is x
    for j, col in enumerate(out.columns):
        assert np.shares_memory(col.values, x)
        np.testing.assert_array_equal(col.values, x[:, j])
    np.testing.assert_array_equal(x[:, 1:4], np.eye(3)[[0, 1, 2, 1, 0, 2, 2]])


def test_from_matrix_needs_one_name_per_column():
    for names in (["a", "b"], ["a", "b", "c", "d"]):
        with pytest.raises(DatasetError, match="column names for a matrix of shape"):
            Dataset.from_matrix(names, np.zeros((4, 3)), np.zeros(4, np.uint8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_matrix_rejects_a_non_finite_value_and_names_its_column(bad):
    x = np.zeros((5, 4))
    x[3, 2] = bad
    with pytest.raises(DatasetError, match="^column 'c': non-finite values$"):
        Dataset.from_matrix(["a", "b", "c", "d"], x, np.zeros(5, np.uint8))


def test_from_matrix_takes_finite_values_at_the_float_limits():
    # the largest floats of both signs, whose sum would overflow
    x = np.full((3, 2), np.finfo(np.float64).max)
    x[1] *= -1
    out = Dataset.from_matrix(["a", "b"], x, np.zeros(3, np.uint8))
    assert [(c.name, c.kind, c.categories) for c in out.columns] == [
        ("a", "numeric", ()), ("b", "numeric", ())]
    for j, col in enumerate(out.columns):
        assert col.values.base is x and not col.values.flags.writeable
        np.testing.assert_array_equal(col.values, x[:, j])
    empty = Dataset.from_matrix(["a"], np.zeros((0, 1)), np.zeros(0, np.uint8))
    assert empty.row_count == 0


def test_select_and_take_rows_of_the_plan_output_are_plain_datasets():
    out = encode(mixed_ds())
    for part in (out.select([0, 3]), out.take_rows(np.array([4, 0, 6]))):
        assert part.matrix is None
        np.testing.assert_array_equal(part.as_matrix(),
                                      np.column_stack([c.values for c in part.columns]))
    taken = out.take_rows(np.array([4, 0, 6]))
    pairs = [(c.values, out.matrix) for c in taken.columns] + [(taken.labels, out.labels)]
    for got, source in pairs:  # taken rows are read-only copies
        assert not got.flags.writeable and not np.shares_memory(got, source)


def test_apply_preprocess_rejects_kind_mismatch():
    scale_a = PreprocessPlan(("a",), (("a", 0.0, 1.0),), ())
    with pytest.raises(DatasetError, match="nominal"):
        apply_preprocess(scale_a, make_dataset([("a", "nominal", [0, 1], ("p", "q"))], [0, 1]))
    encode_a = PreprocessPlan(("a",), (), (("a", ("p", "q")),))
    with pytest.raises(DatasetError, match="numeric"):
        apply_preprocess(encode_a, make_dataset([("a", "numeric", [0.0, 1.0])], [0, 1]))


def test_preprocess_chain_and_roundtrip(tmp_path):
    ds = make_dataset(
        [
            ("keep", "numeric", [1.0, 5.0, 3.0]),
            ("dropme", "numeric", [9.0, 9.0, 9.0]),
            ("proto", "nominal", [0, 1, 0], ("tcp", "udp")),
        ],
        [1, 0, 1],
    )
    plan = fit_preprocess(ds, selected=[0, 2])
    assert plan.selected == ("keep", "proto")
    out = apply_preprocess(plan, ds)
    assert out.feature_names == ("keep", "proto=tcp", "proto=udp")
    again = plan_from_doc(json.loads(json.dumps(plan_to_doc(plan))))
    assert again == plan
    out2 = apply_preprocess(again, ds)
    for a, b in zip(out.columns, out2.columns):
        np.testing.assert_array_equal(a.values, b.values)


def test_apply_preprocess_rejects_missing_column():
    ds = make_dataset([("a", "numeric", [1.0, 2.0])], [0, 1])
    other = make_dataset([("b", "numeric", [1.0, 2.0])], [0, 1])
    plan = fit_preprocess(ds)
    with pytest.raises(DatasetError):
        apply_preprocess(plan, other)


def test_apply_preprocess_rejects_columns_out_of_dataset_order():
    ds = make_dataset([("a", "numeric", [1.0, 2.0]), ("b", "numeric", [3.0, 4.0])], [0, 1])
    plan = PreprocessPlan(("b", "a"), (("a", 1.0, 2.0), ("b", 3.0, 4.0)), ())
    with pytest.raises(DatasetError, match="column order"):
        apply_preprocess(plan, ds)


@pytest.mark.parametrize("minmax, onehot, match", [
    ((("a", 0.0, 1.0),), (), r"exactly once: \['b'\]"),
    ((("a", 0.0, 1.0), ("b", 0.0, 1.0), ("b", 2.0, 3.0)), (), r"exactly once: \['b'\]"),
    ((("a", 0.0, 1.0),), (("b", ("x",)), ("a", ("y",))), r"exactly once: \['a'\]"),
    ((("a", 0.0, 1.0), ("b", 0.0, 1.0), ("c", 0.0, 1.0)), (), r"exactly once: \['c'\]"),
    ((("a", 2.0, 1.0), ("b", 0.0, 1.0)), (), "fitted min"),
    ((("a", float("nan"), 1.0), ("b", 0.0, 1.0)), (), "fitted min"),
    ((("a", 0.0, 1.0),), (("b", ()),), "empty category list"),
])
def test_plan_fits_each_selected_column_exactly_once(minmax, onehot, match):
    with pytest.raises(DatasetError, match=match):
        PreprocessPlan(("a", "b"), minmax, onehot)


MALFORMED = "malformed model document"


def saved_model_doc() -> dict:
    """The model.json document of a naive Bayes model over a plan of a numeric
    ``keep`` and a nominal ``proto``."""
    ds = make_dataset([("keep", "numeric", [1.0, 5.0]),
                       ("proto", "nominal", [0, 1], ("tcp", "udp"))], [1, 0])
    plan = fit_preprocess(ds)
    model = fit_model(apply_preprocess(plan, ds), params_from_dict("naive_bayes"))
    return json.loads(model_to_json(plan, model))


@pytest.mark.parametrize("edit, match", [
    (lambda doc: doc.pop("selected"), MALFORMED),
    (lambda doc: doc.update(minmax=5), MALFORMED),
    (lambda doc: doc.update(onehot=[["proto"]]), MALFORMED),
    (lambda doc: doc.update(selected=[["keep"]]), MALFORMED),
    # a hand-written plan that leaves a selected column unfitted; such a
    # plan used to pass the column through unscaled
    (lambda doc: doc.update(onehot=[]), r"exactly once: \['proto'\]"),
    # a repeated category or selected name would shift the encoding
    (lambda doc: doc["onehot"][0][1].append("tcp"), "category 'tcp' is listed twice"),
    (lambda doc: doc.update(selected=["keep", "keep", "proto"],
                            minmax=doc["minmax"] * 2), "column 'keep' is selected twice"),
])
def test_model_document_rejects_a_malformed_plan(edit, match):
    doc = saved_model_doc()
    edit(doc["plan"])
    with pytest.raises(ModelError, match=match) as info:
        model_from_json(json.dumps(doc))
    assert str(info.value).startswith(MALFORMED)


@pytest.mark.parametrize("plan", [{"format": "fsel-ids/preprocess-plan"}, [1, 2], "plan"])
def test_model_document_rejects_a_plan_that_is_not_one(plan):
    doc = saved_model_doc()
    doc["plan"] = plan
    with pytest.raises(ModelError, match=MALFORMED):
        model_from_json(json.dumps(doc))


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=5, max_value=60))
def test_scaled_training_data_never_leaves_unit_interval(bins, n):
    rng = np.random.default_rng(bins * 100 + n)
    v = encode(numeric_ds(rng.normal(0, 3, n))).columns[0].values
    assert v.min() >= 0.0 and v.max() <= 1.0


# Reference implementation: the four sub-transforms (scale, then encode) that
# ``fit_preprocess``/``apply_preprocess`` replaced, kept unchanged so that the
# one-pass apply can be checked against them for equal datasets and plans.

def minmax_scale(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Scale into [0, 1] with clamping. A constant fitted range maps to 0."""
    if hi <= lo:
        return np.zeros(len(values), dtype=np.float64)
    return np.clip((values - lo) / (hi - lo), 0.0, 1.0)


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
    return Dataset(tuple(columns), ds.labels)


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
    return Dataset(tuple(columns), ds.labels)


def _reference_preprocess(train: Dataset, selected, datasets):
    """The replaced chain: its plan document and each dataset encoded."""
    sub = train.select(selected)
    minmax, onehot = fit_minmax(sub), fit_onehot(sub)
    doc = {
        "selected": list(sub.feature_names),
        "minmax": [[name, lo, hi] for name, lo, hi in minmax.ranges],
        "onehot": [[name, list(cats)] for name, cats in onehot.dictionaries],
    }
    encoded = [apply_onehot(apply_minmax(ds.select([ds.index_of(n) for n in sub.feature_names]),
                                         minmax), onehot)
               for ds in datasets]
    return doc, encoded


def random_split_pair(rng):
    """Mixed train/test pair: constant columns, test values beyond the training
    range, and test vocabularies that extend the training ones with ids the
    training file never saw."""
    n_train, n_test = int(rng.integers(1, 30)), int(rng.integers(0, 30))
    train_cols, test_cols = [], []
    for f in range(int(rng.integers(1, 7))):
        name = f"f{f}"
        if rng.random() < 0.5:
            spread = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.1, 100.0))
            centre = float(rng.normal(0.0, 10.0))
            train_cols.append((name, "numeric", centre + spread * rng.normal(size=n_train)))
            test_cols.append((name, "numeric", centre + 3 * (spread + 1) * rng.normal(size=n_test)))
        else:
            width = int(rng.integers(1, 5))
            cats = tuple(f"c{j}" for j in range(width))
            unseen = tuple(f"u{j}" for j in range(int(rng.integers(0, 3))))
            train_cols.append((name, "nominal", rng.integers(0, width, n_train), cats))
            test_cols.append((name, "nominal", rng.integers(0, width + len(unseen), n_test),
                              cats + unseen))
    return (make_dataset(train_cols, rng.integers(0, 2, n_train)),
            make_dataset(test_cols, rng.integers(0, 2, n_test)))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_apply_preprocess_matches_reference(seed):
    rng = np.random.default_rng(seed)
    train, test = random_split_pair(rng)
    d = len(train.columns)
    selected = sorted(rng.choice(d, int(rng.integers(0, d + 1)), replace=False).tolist())
    want_doc, want = _reference_preprocess(train, selected, [train, test])
    plan = fit_preprocess(train, selected)
    assert json.dumps(plan_to_doc(plan)) == json.dumps(want_doc)
    for ds, ref in zip((train, test), want):
        got = apply_preprocess(plan, ds)
        assert got.feature_names == ref.feature_names == plan.output_names
        assert [c.kind for c in got.columns] == [c.kind for c in ref.columns]
        for a, b in zip(got.columns, ref.columns):
            assert a.values.dtype == b.values.dtype
            assert a.values.tobytes() == b.values.tobytes()
        assert got.labels.tobytes() == ds.labels.tobytes()
