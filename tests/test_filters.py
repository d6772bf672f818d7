import math
import signal
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsel_ids.dataset import DatasetError
from fsel_ids.filters import (
    FILTER_METHODS,
    feature_codes,
    rank_by_score,
    relief_weights,
    score_features,
)
from fsel_ids.tree import cut_threshold

from conftest import make_dataset, random_mixed_dataset


def codes(*xs):
    return np.asarray(xs, dtype=np.int64)


def one_column(f, c):
    """A dataset whose one nominal column holds the codes ``f``, labelled ``c``."""
    width = int(max(f, default=0)) + 1
    return make_dataset([("f", "nominal", f, tuple(f"v{i}" for i in range(width)))], c)


def info_gain(f, c):
    return float(score_features(one_column(f, c), "infogain").scores[0])


def gain_ratio(f, c):
    return float(score_features(one_column(f, c), "gainratio").scores[0])


def test_entropy_trivial_values():
    # The entropy of labels is the gain of a feature that copies them, and
    # a feature's own entropy is its gain ratio's denominator.
    with pytest.raises(DatasetError, match="cannot score the features of an empty dataset"):
        info_gain(codes(), codes())
    assert info_gain(codes(1, 1, 1), codes(1, 1, 1)) == 0.0
    assert info_gain(codes(0, 1), codes(0, 1)) == 1.0
    assert gain_ratio(codes(0, 0, 1, 2), codes(0, 0, 1, 1)) == pytest.approx(1 / 1.5, abs=1e-12)


def test_info_gain_perfect_feature_equals_class_entropy():
    c = codes(0, 0, 1, 1, 1)
    assert info_gain(c, c) == pytest.approx(oracle_entropy(Counter(c.tolist())), abs=1e-12)


def test_info_gain_constant_feature_is_zero():
    assert info_gain(codes(7, 7, 7, 7), codes(0, 1, 0, 1)) == 0.0


def test_info_gain_length_mismatch():
    with pytest.raises(DatasetError, match="rows"):
        one_column(codes(0, 1), codes(0, 1, 0))


@pytest.mark.parametrize("method", ["infogain", "gainratio"])
def test_single_valued_columns_score_exactly_zero(method):
    labels = [0, 1, 1, 0, 1, 0, 0, 1, 1]
    ds = make_dataset(
        [("one_category", "nominal", [2] * 9, ("a", "b", "c")),
         ("constant", "numeric", [0.1] * 9),
         ("mirror", "nominal", labels, ("neg", "pos"))],
        labels,
    )
    scores = score_features(ds, method).scores
    assert scores[0] == 0.0 and scores[1] == 0.0
    assert scores[2] > 0.9  # the label copy still scores


def oracle_entropy(counter):
    total = sum(counter.values())
    acc = 0.0
    for c in counter.values():
        if c:
            p = c / total
            acc -= p * math.log2(p)
    return acc


def oracle_info_gain(f_codes, c_codes):
    # independent contingency-table computation
    n = len(f_codes)
    by_value = defaultdict(Counter)
    for f, c in zip(f_codes, c_codes):
        by_value[f][c] += 1
    cond = 0.0
    for sub in by_value.values():
        cond += (sum(sub.values()) / n) * oracle_entropy(sub)
    return max(oracle_entropy(Counter(c_codes)) - cond, 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_info_gain_matches_contingency_oracle(seed):
    rng = np.random.default_rng(seed)
    f = rng.integers(0, 4, size=60)
    c = rng.integers(0, 2, size=60)
    got = info_gain(f, c)
    want = oracle_info_gain(f.tolist(), c.tolist())
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_gain_ratio_matches_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    f = rng.integers(0, 5, size=80)
    c = rng.integers(0, 2, size=80)
    h_f = oracle_entropy(Counter(f.tolist()))
    want = oracle_info_gain(f.tolist(), c.tolist()) / h_f if h_f else 0.0
    assert gain_ratio(f, c) == pytest.approx(want, abs=1e-9)


def test_gain_ratio_perfect_binary_split_is_one():
    c = codes(0, 0, 1, 1)
    assert gain_ratio(c, c) == pytest.approx(1.0, abs=1e-12)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 1)), min_size=1, max_size=60
    )
)
def test_gain_ratio_stays_in_unit_interval(pairs):
    f = np.asarray([p[0] for p in pairs], dtype=np.int64)
    c = np.asarray([p[1] for p in pairs], dtype=np.int64)
    assert 0.0 <= gain_ratio(f, c) <= 1.0


def test_feature_codes_nominal_passthrough_and_numeric_binning():
    ds = make_dataset(
        [("p", "nominal", [0, 2, 1], ("a", "b", "c"))], [0, 1, 0]
    )
    np.testing.assert_array_equal(feature_codes(ds, 0), [0, 2, 1])
    ds2 = make_dataset(
        [("x", "numeric", [float(v) for v in range(1, 101)])],
        [i % 2 for i in range(100)],
    )
    binned = feature_codes(ds2, 0, bins=10)
    assert np.bincount(binned).tolist() == [10] * 10


def numeric_column(values):
    return make_dataset([("x", "numeric", list(values))], [i % 2 for i in range(len(values))])


def test_feature_codes_constant_column_single_bin():
    assert set(feature_codes(numeric_column([7.0] * 12), 0).tolist()) == {0}


def test_feature_codes_occupancy_within_one_on_distinct_values():
    rng = np.random.default_rng(3)
    values = rng.permutation(np.linspace(-5, 5, 97))
    counts = np.bincount(feature_codes(numeric_column(values), 0), minlength=10)
    assert len(counts) == 10
    assert all(abs(c - 97 / 10) <= 1.0 for c in counts)


def oracle_bins(values, bins):
    """The documented binning in plain Python: cut b between sorted positions
    round(b*n/bins)-1 and round(b*n/bins) unless they hold equal values,
    placed by ``cut_threshold``; a value at or below a cut goes below it."""
    v = sorted(values)
    n = len(v)
    cuts = []
    for b in range(1, bins):
        k = round(b * n / bins)
        if 0 < k < n and v[k - 1] < v[k]:
            cut = cut_threshold(v[k - 1], v[k])
            if cut not in cuts:
                cuts.append(cut)
    return [sum(1 for cut in cuts if value > cut) for value in values]


@pytest.mark.parametrize("bins", range(2, 13))
def test_feature_codes_matches_sort_and_split_oracle(bins):
    rng = np.random.default_rng(11 + bins)
    for n in (1, 2, 7, 40, 121):
        for values in (rng.normal(0, 2, n), np.round(rng.normal(0, 1, n), 1),
                       rng.integers(0, 4, n).astype(np.float64)):
            got = feature_codes(numeric_column(values), 0, bins=bins)
            assert got.tolist() == oracle_bins(values.tolist(), bins)


def test_feature_codes_are_monotone_without_empty_bins():
    rng = np.random.default_rng(5)
    values = np.round(rng.normal(0, 1, 200), 1)  # many duplicates
    codes = feature_codes(numeric_column(values), 0)
    by_value = codes[np.argsort(values, kind="stable")]
    assert np.all(np.diff(by_value) >= 0)
    assert set(codes.tolist()) == set(range(codes.max() + 1))


def _alarm(signum, frame):
    raise TimeoutError("feature_codes did not finish")


def test_feature_codes_with_more_bins_than_rows_cut_between_every_row():
    rng = np.random.default_rng(8)
    for values in (rng.normal(0, 1, 50), np.round(rng.normal(0, 1, 50), 1)):
        column = numeric_column(values)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(10)
        try:
            huge = feature_codes(column, 0, bins=10**12)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert huge.tolist() == feature_codes(column, 0, bins=values.size).tolist()


def test_feature_codes_rejects_small_bins():
    with pytest.raises(DatasetError, match="bins"):
        feature_codes(numeric_column([1.0, 2.0]), 0, bins=1)


# Two values that split the classes, where the cut's midpoint rounds down to
# the lower value or overflows to inf or -inf.
FLOAT_LIMIT_PAIRS = [(1.0, 1.0000000000000002), (1e308, 1.7e308), (-1.7e308, -1e308)]


def split_pair(lower, upper):
    return make_dataset([("x", "numeric", [lower] * 5 + [upper] * 5)], [0] * 5 + [1] * 5)


@pytest.mark.parametrize("lower, upper", FLOAT_LIMIT_PAIRS)
def test_feature_codes_split_neighbours_at_the_float_limits(lower, upper):
    np.testing.assert_array_equal(feature_codes(split_pair(lower, upper), 0, bins=2),
                                  [0] * 5 + [1] * 5)


@pytest.mark.parametrize("method", ["infogain", "gainratio"])
@pytest.mark.parametrize("values", [[lower] * 5 + [upper] * 5 for lower, upper in FLOAT_LIMIT_PAIRS]
                         + [list(range(10))])
def test_entropy_filters_score_a_separating_column_at_the_float_limits(values, method):
    # both classes' entropy, 1 bit, which float rounding must not exceed
    ds = make_dataset([("x", "numeric", values)], [0] * 5 + [1] * 5)
    assert score_features(ds, method, bins=2).scores.tolist() == [1.0]


def naive_relief(ds, neighbors, sample_count=None, seed=0):
    """Straight-line relief reimplementation used only as a test oracle."""
    n = ds.row_count
    cols = ds.columns
    d = len(cols)
    labels = ds.labels
    spans = []
    for col in cols:
        if col.kind == "numeric":
            spans.append(float(col.values.max()) - float(col.values.min()))
        else:
            spans.append(0.0)
    if sample_count is None or sample_count >= n:
        sampled = list(range(n))
    else:
        sampled = [
            int(j)
            for j in np.random.default_rng(seed).choice(
                n, size=sample_count, replace=False
            )
        ]
    m = len(sampled)
    weights = [0.0] * d
    for i in sampled:
        diff = [[0.0] * n for _ in range(d)]
        dist = [0.0] * n
        for f, col in enumerate(cols):
            for j in range(n):
                if col.kind == "nominal":
                    dv = 0.0 if col.values[j] == col.values[i] else 1.0
                elif spans[f] > 0.0:
                    dv = abs(float(col.values[j]) - float(col.values[i])) / spans[f]
                else:
                    dv = 0.0
                diff[f][j] = dv
                dist[j] += dv
        for same in (True, False):
            cand = [j for j in range(n) if (labels[j] == labels[i]) == same and j != i]
            cand.sort(key=lambda j: dist[j])  # stable: ties keep the lower index
            for j in cand[:neighbors]:
                for f in range(d):
                    share = diff[f][j] / (m * neighbors)
                    if same:
                        weights[f] -= share
                    else:
                        weights[f] += share
    return [min(max(w, -1.0), 1.0) for w in weights]


RELIEF_CASES = [
    # seed, rows, features, neighbors, sample_count, numeric values in {0, 1, 2}
    (3, 30, 4, 1, None, False),
    (4, 30, 4, 3, None, False),
    (5, 24, 5, 2, None, False),
    (6, 25, 3, 2, 10, False),
    (7, 40, 4, 5, 16, False),
    (8, 40, 4, 5, None, True),
]


@pytest.mark.parametrize(
    "seed,n_rows,n_features,neighbors,sample_count,grid",
    RELIEF_CASES,
    ids=["-".join(map(str, case[:5])) + ("-grid" if case[5] else "") for case in RELIEF_CASES],
)
def test_relief_matches_naive_oracle_exactly(
    seed, n_rows, n_features, neighbors, sample_count, grid
):
    rng = np.random.default_rng(seed)
    ds = random_mixed_dataset(rng, n_rows, n_features)
    if grid:  # many rows tie at the k-th distance
        ds = make_dataset(
            [(c.name, "numeric", rng.integers(0, 3, n_rows)) if c.kind == "numeric"
             else (c.name, c.kind, c.values, c.categories) for c in ds.columns],
            ds.labels,
        )
    got = relief_weights(
        ds, neighbors=neighbors, sample_count=sample_count, seed=seed
    )
    want = naive_relief(ds, neighbors, sample_count=sample_count, seed=seed)
    np.testing.assert_array_equal(got, np.asarray(want))


def test_relief_perfect_feature_scores_one():
    n = 32
    labels = [i % 2 for i in range(n)]
    ds = make_dataset(
        [
            ("mirror", "nominal", labels, ("neg", "pos")),
            ("flat", "numeric", [4.0] * n),
        ],
        labels,
    )
    w = relief_weights(ds, neighbors=1)
    assert w[0] == 1.0
    assert w[1] == 0.0


def test_relief_scale_invariant_for_power_of_two():
    rng = np.random.default_rng(9)
    values = rng.normal(0, 1, 24)
    labels = [i % 2 for i in range(24)]
    base = make_dataset(
        [("x", "numeric", values), ("y", "numeric", rng.normal(5, 2, 24))],
        labels,
    )
    scaled = make_dataset(
        [
            ("x", "numeric", base.columns[0].values * 128.0),
            ("y", "numeric", base.columns[1].values * 128.0),
        ],
        labels,
    )
    np.testing.assert_array_equal(
        relief_weights(base, neighbors=3), relief_weights(scaled, neighbors=3)
    )


def test_relief_rejects_small_class():
    ds = make_dataset(
        [("x", "numeric", [1.0, 2.0, 3.0, 4.0])], [0, 1, 1, 1]
    )
    with pytest.raises(DatasetError, match="need at least"):
        relief_weights(ds, neighbors=2)


def test_relief_rejects_bad_arguments():
    ds = make_dataset([("x", "numeric", [1.0, 2.0, 3.0, 4.0])], [0, 0, 1, 1])
    with pytest.raises(DatasetError, match="neighbors"):
        relief_weights(ds, neighbors=0)
    with pytest.raises(DatasetError, match="sample_count"):
        relief_weights(ds, neighbors=1, sample_count=0)


def test_relief_deterministic_under_subsampling():
    rng = np.random.default_rng(21)
    ds = random_mixed_dataset(rng, 36, 4)
    a = relief_weights(ds, neighbors=2, sample_count=12, seed=5)
    b = relief_weights(ds, neighbors=2, sample_count=12, seed=5)
    np.testing.assert_array_equal(a, b)


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=10_000))
@example(688)  # a draw with 2 normal rows
def test_relief_weights_bounded(seed):
    rng = np.random.default_rng(seed)
    ds = random_mixed_dataset(rng, 20, 3)
    if min(np.bincount(ds.labels, minlength=2)) < 3:
        with pytest.raises(DatasetError, match="need at least 3"):
            relief_weights(ds, neighbors=2)
        return
    w = relief_weights(ds, neighbors=2)
    assert w.min() >= -1.0 and w.max() <= 1.0


def test_rank_by_score_orders_and_breaks_ties_low_index():
    assert rank_by_score(np.asarray([0.5, 0.9, 0.5])) == (1, 0, 2)
    assert rank_by_score(np.asarray([1.0, 1.0, 1.0])) == (0, 1, 2)


def test_score_features_ranking_and_top():
    rng = np.random.default_rng(13)
    ds = random_mixed_dataset(rng, 60, 6)
    for method in FILTER_METHODS:
        fs = score_features(ds, method, neighbors=2)
        assert fs.method == method
        assert len(fs.ranked) == 6
        assert sorted(fs.ranked) == list(range(6))
        assert fs.top(3) == fs.ranked[:3]
        ordered = fs.scores[list(fs.ranked)]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))
        with pytest.raises(DatasetError):
            fs.top(0)
        with pytest.raises(DatasetError):
            fs.top(7)


def test_score_features_unknown_method():
    ds = make_dataset([("x", "numeric", [1.0, 2.0])], [0, 1])
    with pytest.raises(DatasetError, match="unknown filter"):
        score_features(ds, "chi2")


def test_scores_are_read_only():
    ds = make_dataset(
        [("x", "numeric", [1.0, 2.0, 3.0, 4.0])], [0, 0, 1, 1]
    )
    fs = score_features(ds, "infogain")
    with pytest.raises(ValueError):
        fs.scores[0] = 99.0
