import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsel_ids.dataset import DatasetError
from fsel_ids.preprocess import (
    apply_minmax,
    apply_onehot,
    apply_preprocess,
    bin_codes,
    equal_frequency_edges,
    fit_minmax,
    fit_onehot,
    fit_preprocess,
    plan_from_json,
    plan_to_json,
)

from conftest import make_dataset

finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


def numeric_ds(values):
    return make_dataset([("x", "numeric", values)], [i % 2 for i in range(len(values))])


def test_minmax_fit_and_bounds():
    ds = numeric_ds([2.0, 4.0, 6.0])
    params = fit_minmax(ds)
    assert params.ranges == (("x", 2.0, 6.0),)
    out = apply_minmax(ds, params)
    np.testing.assert_allclose(out.columns[0].values, [0.0, 0.5, 1.0])


def test_minmax_constant_maps_to_zero():
    ds = numeric_ds([5.0, 5.0, 5.0])
    out = apply_minmax(ds, fit_minmax(ds))
    np.testing.assert_array_equal(out.columns[0].values, [0.0, 0.0, 0.0])


def test_minmax_clamps_out_of_range():
    train = numeric_ds([2.0, 6.0])
    params = fit_minmax(train)
    test = numeric_ds([8.0, 1.0, 4.0])
    out = apply_minmax(test, params)
    np.testing.assert_allclose(out.columns[0].values, [1.0, 0.0, 0.5])


def test_minmax_does_not_mutate_input():
    ds = numeric_ds([1.0, 3.0])
    apply_minmax(ds, fit_minmax(ds))
    np.testing.assert_array_equal(ds.columns[0].values, [1.0, 3.0])


@given(st.lists(finite_floats, min_size=1, max_size=40))
def test_minmax_range_property(values):
    ds = numeric_ds(values)
    out = apply_minmax(ds, fit_minmax(ds))
    v = out.columns[0].values
    assert v.min() >= 0.0 and v.max() <= 1.0


@given(st.lists(finite_floats, min_size=2, max_size=40))
def test_minmax_idempotence_property(values):
    # refitting on already-scaled data and reapplying changes nothing
    ds = numeric_ds(values)
    once = apply_minmax(ds, fit_minmax(ds))
    twice = apply_minmax(once, fit_minmax(once))
    np.testing.assert_array_equal(once.columns[0].values, twice.columns[0].values)


def nominal_ds(codes, cats):
    return make_dataset(
        [("proto", "nominal", codes, cats)], [i % 2 for i in range(len(codes))]
    )


def test_onehot_basic_indicators():
    ds = nominal_ds([0, 1, 2, 0], ("udp", "tcp", "icmp"))
    plan = fit_onehot(ds)
    out = apply_onehot(ds, plan)
    assert out.feature_names == ("proto=udp", "proto=tcp", "proto=icmp")
    got = np.column_stack([c.values for c in out.columns])
    np.testing.assert_array_equal(
        got, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]
    )


def test_onehot_unseen_category_encodes_all_zero():
    train = nominal_ds([0, 1], ("udp", "tcp"))
    plan = fit_onehot(train)
    test = nominal_ds([0, 2, 1], ("udp", "tcp", "sctp"))
    out = apply_onehot(test, plan)
    got = np.column_stack([c.values for c in out.columns])
    np.testing.assert_array_equal(got, [[1, 0], [0, 0], [0, 1]])


def test_onehot_single_category_column():
    ds = nominal_ds([0, 0, 0], ("only",))
    out = apply_onehot(ds, fit_onehot(ds))
    np.testing.assert_array_equal(out.columns[0].values, [1.0, 1.0, 1.0])


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=50))
def test_onehot_row_sum_property(codes):
    width = max(codes) + 1
    cats = tuple(f"c{i}" for i in range(width))
    ds = nominal_ds(codes, cats)
    out = apply_onehot(ds, fit_onehot(ds))
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


def test_equal_frequency_even_occupancy():
    values = np.arange(1.0, 101.0)
    edges = equal_frequency_edges(values, 10)
    assert len(edges) == 9
    codes = bin_codes(values, edges)
    counts = np.bincount(codes)
    assert counts.tolist() == [10] * 10


def test_discretizer_constant_column_single_bin():
    values = np.full(12, 7.0)
    edges = equal_frequency_edges(values, 10)
    assert edges.size == 0
    assert set(bin_codes(values, edges).tolist()) == {0}


def test_discretizer_occupancy_within_one_on_distinct_values():
    rng = np.random.default_rng(3)
    values = rng.permutation(np.linspace(-5, 5, 97))
    codes = bin_codes(values, equal_frequency_edges(values, 10))
    counts = np.bincount(codes, minlength=10)
    target = 97 / 10
    assert all(abs(c - target) <= 1.0 for c in counts)


def test_discretizer_matches_sort_and_split_oracle():
    rng = np.random.default_rng(11)
    values = rng.normal(0, 2, 120)
    edges = equal_frequency_edges(values, 8)
    codes = bin_codes(values, edges)
    # oracle: count how many edges each value strictly exceeds... edges are
    # midpoints so equality cannot occur for observed values
    for v, c in zip(values, codes):
        assert c == sum(1 for e in edges if v > e)


def test_discretizer_out_of_range_hits_end_bins():
    edges = np.asarray([0.0, 1.0, 2.0])
    np.testing.assert_array_equal(
        bin_codes(np.asarray([-5.0, 9.0]), edges), [0, 3]
    )


def test_discretizer_edges_strictly_increasing():
    rng = np.random.default_rng(5)
    values = np.round(rng.normal(0, 1, 200), 1)  # many duplicates
    edges = equal_frequency_edges(values, 10)
    assert all(b > a for a, b in zip(edges, edges[1:]))


def test_equal_frequency_edges_rejects_small_bins():
    with pytest.raises(DatasetError, match="bins"):
        equal_frequency_edges(np.asarray([1.0, 2.0]), 1)


def test_fit_minmax_rejects_nominal_feature():
    ds = nominal_ds([0, 1], ("a", "b"))
    with pytest.raises(DatasetError, match="nominal"):
        fit_minmax(ds, [0])


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
    again = plan_from_json(plan_to_json(plan))
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


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=5, max_value=60))
def test_scaled_training_data_never_leaves_unit_interval(bins, n):
    rng = np.random.default_rng(bins * 100 + n)
    ds = numeric_ds(rng.normal(0, 3, n))
    out = apply_minmax(ds, fit_minmax(ds))
    v = out.columns[0].values
    assert v.min() >= 0.0 and v.max() <= 1.0
