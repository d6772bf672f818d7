"""Acceptance gate: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. The three integration criteria need the benchmark CSV pair
and skip cleanly when FSEL_IDS_DATA_DIR is unset.
"""

import itertools
import math
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from fsel_ids.dataset import ATTACK, load_csv, stratified_subsample
from fsel_ids.filters import feature_codes, relief_weights, score_features
from fsel_ids.metrics import (
    ConfusionMatrix,
    accuracy,
    EvaluationReport,
    confusion,
    detection_rate,
    false_alarm_rate,
)
from fsel_ids.models import (
    fit_model,
    mlp_grads,
    mlp_init,
    mlp_loss,
    params_from_dict,
    predict_model,
)
from fsel_ids.pipeline import RunConfig, load_splits, run_pipeline, select_features
from fsel_ids.preprocess import apply_preprocess, fit_preprocess
from fsel_ids.unsw import (
    DATA_DIR_ENV,
    REFERENCE_SUBSETS,
    TEST_ATTACK,
    TEST_FILE,
    TEST_NORMAL,
    TEST_ROWS,
    TRAIN_ATTACK,
    TRAIN_FILE,
    TRAIN_NORMAL,
    TRAIN_ROWS,
    UNSW_SCHEMA,
)
from fsel_ids.wrapper import _merits, best_first_search, stratified_folds

from conftest import make_dataset, random_mixed_dataset, write_csv


def _benchmark_available() -> bool:
    root = os.environ.get(DATA_DIR_ENV)
    if not root:
        return False
    return (Path(root) / TRAIN_FILE).exists() and (Path(root) / TEST_FILE).exists()


needs_benchmark = pytest.mark.skipif(
    not _benchmark_available(),
    reason=f"benchmark CSVs not found; set {DATA_DIR_ENV}",
)


@pytest.fixture(scope="module")
def benchmark_splits():
    root = Path(os.environ[DATA_DIR_ENV])
    return load_csv(root / TRAIN_FILE, UNSW_SCHEMA), load_csv(root / TEST_FILE, UNSW_SCHEMA)


# --- independent oracles ---------------------------------------------------


def _oracle_entropy(counter):
    total = sum(counter.values())
    acc = 0.0
    for c in counter.values():
        if c:
            p = c / total
            acc -= p * math.log2(p)
    return acc


def _oracle_info_gain(f_codes, c_codes):
    n = len(f_codes)
    by_value = defaultdict(Counter)
    for f, c in zip(f_codes, c_codes):
        by_value[f][c] += 1
    cond = sum(
        (sum(sub.values()) / n) * _oracle_entropy(sub) for sub in by_value.values()
    )
    return max(_oracle_entropy(Counter(c_codes)) - cond, 0.0)


def _oracle_gain_ratio(f_codes, c_codes):
    h_f = _oracle_entropy(Counter(f_codes))
    if h_f == 0.0:
        return 0.0
    return min(max(_oracle_info_gain(f_codes, c_codes) / h_f, 0.0), 1.0)


def _oracle_relief(ds, neighbors):
    n = ds.row_count
    cols = ds.columns
    d = len(cols)
    labels = ds.labels
    spans = [
        float(c.values.max()) - float(c.values.min()) if c.kind == "numeric" else 0.0
        for c in cols
    ]
    weights = [0.0] * d
    for i in range(n):
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
            cand.sort(key=lambda j: dist[j])
            for j in cand[:neighbors]:
                for f in range(d):
                    share = diff[f][j] / (n * neighbors)
                    if same:
                        weights[f] -= share
                    else:
                        weights[f] += share
    return np.asarray([min(max(w, -1.0), 1.0) for w in weights])


# --- criterion: filter scorers against independent oracles ------------------


def test_filter_scores_match_independent_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    neighbors = 2
    for case in range(50):
        n_rows = int(rng.integers(30, 201))
        n_features = int(rng.integers(1, 9))
        ds = random_mixed_dataset(rng, n_rows, n_features)
        y = ds.labels.astype(np.int64)
        for f in range(n_features):
            codes = feature_codes(ds, f)
            one = ds.select((f,))
            assert score_features(one, "infogain").scores[0] == pytest.approx(
                _oracle_info_gain(codes.tolist(), y.tolist()), abs=1e-9
            ), f"case {case} feature {f}"
            assert score_features(one, "gainratio").scores[0] == pytest.approx(
                _oracle_gain_ratio(codes.tolist(), y.tolist()), abs=1e-9
            ), f"case {case} feature {f}"
        got = relief_weights(ds, neighbors=neighbors)
        np.testing.assert_array_equal(
            got, _oracle_relief(ds, neighbors), err_msg=f"case {case}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"filter oracle sweep took {elapsed:.1f}s"


# --- criterion: subset search against exhaustive enumeration ---------------


def test_subset_search_matches_exhaustive_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    folds = 3
    for case in range(20):
        n_rows = int(rng.integers(36, 61))
        n_features = int(rng.integers(2, 7))
        ds = random_mixed_dataset(rng, n_rows, n_features)
        seed = case
        fold_rows = stratified_folds(ds.labels, folds, seed)
        best_merit = max(_merits(ds, [
            subset
            for r in range(1, n_features + 1)
            for subset in itertools.combinations(range(n_features), r)
        ], fold_rows, 2))
        _, free = best_first_search(ds, folds=folds, stop_after=None, seed=seed)
        assert free.best_merit == best_merit, f"case {case}"
        _, stopped = best_first_search(ds, folds=folds, stop_after=5, seed=seed)
        assert stopped.best_merit >= 0.95 * best_merit, f"case {case}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"search oracle sweep took {elapsed:.1f}s"


# --- criterion: metric arithmetic and the rate identity --------------------


def test_metric_arithmetic_and_rate_identity():
    cm = ConfusionMatrix(tp=45, tn=45, fp=5, fn=5)
    assert accuracy(cm) == 90.0
    assert detection_rate(cm) == 90.0
    assert false_alarm_rate(cm) == 10.0

    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 500, size=4))
        if tp + fn == 0 or fp + tn == 0:
            continue
        report = EvaluationReport(
            dataset="synthetic",
            fs_method="none",
            selected_count=1,
            algorithm="tree",
            cm=ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn),
            fs_seconds=0.0,
            train_seconds=0.0,
            eval_seconds=0.0,
        )
        p = tp + fn
        n = fp + tn
        recombined = (report.dr * p + (100.0 - report.far) * n) / (p + n)
        assert abs(report.acc - recombined) <= 1e-9
        checked += 1


# --- criterion: benchmark split structure (integration) --------------------


@needs_benchmark
def test_benchmark_split_structure(benchmark_splits):
    started = time.perf_counter()
    train, test = benchmark_splits

    assert train.row_count == TRAIN_ROWS
    assert test.row_count == TEST_ROWS
    for split, attack, normal in ((train, TRAIN_ATTACK, TRAIN_NORMAL),
                                  (test, TEST_ATTACK, TEST_NORMAL)):
        attacks = int(np.count_nonzero(split.labels == ATTACK))
        assert (attacks, split.row_count - attacks) == (attack, normal)

    assert len(train.columns) == 42
    full = fit_preprocess(train)
    assert full.output_width == 194

    expected_widths = {"wrapper": 163, "gainratio": 27, "infogain": 19}
    for method, width in expected_widths.items():
        names = REFERENCE_SUBSETS[method]
        assert len(names) == 19
        indices = sorted(train.index_of(name) for name in names)
        plan = fit_preprocess(train, indices)
        assert plan.output_width == width, method
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"structure checks took {elapsed:.1f}s"


# --- criterion: forest band on the wrapper-selected subset (integration) ---


@needs_benchmark
def test_forest_band_on_reference_subset(benchmark_splits):
    started = time.perf_counter()
    train_full, test = benchmark_splits
    names = REFERENCE_SUBSETS["wrapper"]
    indices = sorted(train_full.index_of(name) for name in names)

    for seed in (0, 1, 2):
        train = stratified_subsample(train_full, 0.1, seed)
        plan = fit_preprocess(train, indices)
        encoded_train = apply_preprocess(plan, train)
        encoded_test = apply_preprocess(plan, test)
        model = fit_model(encoded_train, params_from_dict("forest", seed=seed))
        cm = confusion(predict_model(model, encoded_test), test.labels)
        acc = accuracy(cm)
        dr = detection_rate(cm)
        assert 81.0 <= acc <= 91.0, f"seed {seed}: acc {acc:.2f}"
        assert dr >= 94.0, f"seed {seed}: dr {dr:.2f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"forest band took {elapsed:.1f}s"


# --- criterion: naive Bayes stays low-alarm, low-detection (integration) ---


@needs_benchmark
def test_naive_bayes_band_on_full_features(benchmark_splits):
    train, test = benchmark_splits
    plan = fit_preprocess(train)
    model = fit_model(apply_preprocess(plan, train), params_from_dict("naive_bayes"))
    cm = confusion(predict_model(model, apply_preprocess(plan, test)), test.labels)
    assert detection_rate(cm) < 50.0
    assert false_alarm_rate(cm) < 5.0


# --- criterion: filters are cheaper than the wrapper ------------------------


def test_filter_selection_is_faster_than_wrapper(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    n_rows, n_features = 1200, 12
    ds = random_mixed_dataset(rng, n_rows, n_features)

    header = list(ds.feature_names) + ["label"]
    schema_lines = [f"{c.name},{c.kind}" for c in ds.columns] + ["label,class"]
    cells = [
        [c.categories[i] for i in c.values] if c.kind == "nominal"
        else [repr(float(v)) for v in c.values]
        for c in ds.columns
    ]
    rows = [
        [col[i] for col in cells] + [str(int(ds.labels[i]))]
        for i in range(n_rows)
    ]
    train_csv = tmp_path / "train.csv"
    write_csv(train_csv, header, rows)
    schema_path = tmp_path / "schema.txt"
    schema_path.write_text("\n".join(schema_lines) + "\n", encoding="utf-8")

    def timed_selection(fs):
        config = RunConfig(
            train_path=str(train_csv),
            test_path=str(train_csv),
            schema_path=str(schema_path),
            fs=fs,
            k=10,
        )
        train, _, _ = load_splits(config)
        assert train.row_count >= 1000 and len(train.columns) >= 10
        _, fs_seconds, _, _ = select_features(train, config)
        return fs_seconds

    wrapper_seconds = timed_selection("wrapper")
    for method in ("infogain", "gainratio", "relief"):
        filter_seconds = timed_selection(method)
        assert filter_seconds < wrapper_seconds, (
            f"{method} took {filter_seconds:.3f}s vs wrapper {wrapper_seconds:.3f}s"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"timing comparison took {elapsed:.1f}s"


# --- criterion: module invariants hold end to end ---------------------------


def test_module_invariants(toy_split):
    rng = np.random.default_rng(99)

    # min-max: outputs in [0,1]; rescaling scaled data changes nothing
    ds = random_mixed_dataset(rng, 60, 5)
    numeric = [i for i, c in enumerate(ds.columns) if c.kind == "numeric"]
    scaled = apply_preprocess(fit_preprocess(ds, numeric), ds)
    assert len(scaled.columns) == len(numeric)
    for i in range(len(numeric)):
        v = scaled.columns[i].values
        assert v.min() >= 0.0 and v.max() <= 1.0
        again = apply_preprocess(fit_preprocess(scaled), scaled)
        np.testing.assert_array_equal(again.columns[i].values, v)

    # one-hot: every training row activates exactly one indicator per column
    codes = rng.integers(0, 3, 40).astype(int).tolist()
    labels = rng.integers(0, 2, 40).tolist()
    nominal_ds = make_dataset(
        [
            ("proto", "nominal", codes, ("a", "b", "c")),
            ("state", "nominal", [c % 2 for c in codes], ("x", "y")),
        ],
        labels,
    )
    encoded = apply_preprocess(fit_preprocess(nominal_ds), nominal_ds)
    block = np.column_stack([col.values for col in encoded.columns])
    np.testing.assert_array_equal(block.sum(axis=1), np.full(40, 2.0))

    # gain ratio bounded
    f = rng.integers(0, 4, 100)
    c = rng.integers(0, 2, 100)
    one = make_dataset([("f", "nominal", f, ("a", "b", "c", "d"))], c)
    assert 0.0 <= score_features(one, "gainratio").scores[0] <= 1.0

    # relief bounded
    w = relief_weights(random_mixed_dataset(rng, 40, 4), neighbors=3)
    assert w.min() >= -1.0 and w.max() <= 1.0

    # ranking: top(k) is always a prefix of the full order
    scores = score_features(random_mixed_dataset(rng, 50, 6), "infogain")
    for k in range(1, 7):
        assert scores.top(k) == scores.ranked[:k]

    # a one-tree, no-bootstrap, all-features forest is exactly a tree
    raw2 = random_mixed_dataset(rng, 70, 4)
    ds2 = apply_preprocess(fit_preprocess(raw2), raw2)
    tree = fit_model(ds2, params_from_dict("tree", {"prune": False}))
    forest = fit_model(
        ds2,
        params_from_dict(
            "forest", {"n_trees": 1, "bootstrap": False, "feature_sample": len(ds2.columns)}
        ),
    )
    np.testing.assert_array_equal(
        predict_model(forest, ds2), predict_model(tree, ds2)
    )

    # analytic MLP gradients agree with central differences
    x = rng.normal(0, 1, (10, 3))
    y = rng.integers(0, 2, 10).astype(np.float64)
    weights = mlp_init(3, 3, seed=2)
    grads = mlp_grads(weights, x, y)
    eps = 1e-6
    for key in weights:
        flat = weights[key].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = mlp_loss(weights, x, y)
            flat[idx] = orig - eps
            down = mlp_loss(weights, x, y)
            flat[idx] = orig
            fd = (up - down) / (2 * eps)
            analytic = grads[key].reshape(-1)[idx]
            assert abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8) <= 1e-4

    # the whole pipeline is seed-deterministic
    train_csv, test_csv, schema = toy_split
    config = RunConfig(
        train_path=str(train_csv),
        test_path=str(test_csv),
        schema_path=str(schema),
        fs="infogain",
        k=2,
        folds=3,
        seed=7,
    )
    a = run_pipeline(config)
    b = run_pipeline(config)
    np.testing.assert_array_equal(a.predictions, b.predictions)
    assert a.report.cm == b.report.cm
    assert a.selected_names == b.selected_names
