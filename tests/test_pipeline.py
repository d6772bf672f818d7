import numpy as np
import pytest

from fsel_ids import pipeline
from fsel_ids.dataset import stratified_subsample
from fsel_ids.models import ModelError, predict_model
from fsel_ids.pipeline import (
    FS_METHODS,
    PipelineError,
    RunConfig,
    fit_for_config,
    load_splits,
    run_pipeline,
    select_features,
    subsample_and_select,
)
from fsel_ids.preprocess import apply_preprocess, fit_preprocess

from conftest import write_csv


def toy_config(toy_split, **overrides):
    train, test, schema = toy_split
    fields = dict(
        train_path=str(train),
        test_path=str(test),
        schema_path=str(schema),
        folds=3,
    )
    fields.update(overrides)
    return RunConfig(**fields)


def predictions(result, test):
    """The test rows' predictions of a run's model, replayed from its plan."""
    return predict_model(result.model, apply_preprocess(result.plan, test))


def test_fs_method_registry():
    assert FS_METHODS == ("none", "wrapper", "infogain", "gainratio", "relief")


def test_config_validation_and_name(toy_split):
    with pytest.raises(ValueError, match="unknown fs"):
        toy_config(toy_split, fs="pca")
    with pytest.raises(ValueError, match="k must"):
        toy_config(toy_split, k=0)
    with pytest.raises(ValueError, match="subsample"):
        toy_config(toy_split, subsample=0.0)
    with pytest.raises(ValueError, match="config field 'folds' must be int"):
        toy_config(toy_split, folds="3")
    with pytest.raises(ValueError, match="config field 'relief_sample'"):
        toy_config(toy_split, relief_sample=True)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        toy_config(toy_split, seed=-1)
    assert toy_config(toy_split, subsample=1, relief_sample=None).subsample == 1
    assert toy_config(toy_split).name == "train"
    assert toy_config(toy_split, dataset_name="toy").name == "toy"


@pytest.mark.parametrize("field, value, message", [
    ("bins", 1, "bins must be >= 2, got 1"),
    ("relief_neighbors", 0, "relief_neighbors must be >= 1, got 0"),
    ("folds", 1, "folds must be >= 2, got 1"),
    ("stop_after", 0, "stop_after must be >= 1, got 0"),
    ("stop_after", -2, "stop_after must be >= 1, got -2"),
    ("epsilon", -1, "epsilon must be >= 0, got -1"),
    ("epsilon", float("nan"), "epsilon must be >= 0, got nan"),
])
def test_selection_settings_fail_when_the_config_is_built(toy_split, field, value, message):
    with pytest.raises(ValueError, match=message):
        toy_config(toy_split, **{field: value})


def test_selection_settings_accept_their_bounds(toy_split):
    config = toy_config(toy_split, bins=2, relief_neighbors=1, folds=2, stop_after=1, epsilon=0)
    assert (config.bins, config.folds, config.epsilon) == (2, 2, 0)
    assert toy_config(toy_split, stop_after=None).stop_after is None


def test_baseline_tree_learns_toy_data(toy_split):
    result = run_pipeline(toy_config(toy_split))
    report = result.report
    assert report.fs_method == "none"
    assert report.selected_count == 3
    assert report.fs_seconds == 0.0
    assert report.acc >= 95.0
    assert report.far <= 5.0
    assert report.cm.total == 120
    assert result.selected_names == ("f1", "f2", "proto")
    assert result.scores is None and result.trace is None


def test_infogain_with_all_features_matches_baseline(toy_split):
    base = run_pipeline(toy_config(toy_split))
    ranked = run_pipeline(toy_config(toy_split, fs="infogain", k=3))
    test = load_splits(toy_config(toy_split))[1]
    np.testing.assert_array_equal(predictions(base, test), predictions(ranked, test))
    assert base.report.cm == ranked.report.cm
    # same columns, different presentation order metadata
    assert sorted(ranked.selected_names) == sorted(base.selected_names)
    assert ranked.scores is not None


def test_filter_selection_reports_rank_order(toy_split):
    result = run_pipeline(toy_config(toy_split, fs="infogain", k=2))
    assert result.report.selected_count == 2
    names = result.scores.feature_names
    want = tuple(names[f] for f in result.scores.top(2))
    assert result.selected_names == want
    assert result.selected_names[0] == "f1"  # the planted signal wins


def test_k_is_capped_at_feature_count(toy_split):
    result = run_pipeline(toy_config(toy_split, fs="gainratio", k=50))
    assert result.report.selected_count == 3


def test_wrapper_selection_produces_trace(toy_split):
    result = run_pipeline(toy_config(toy_split, fs="wrapper", stop_after=2))
    assert result.trace is not None
    assert result.report.fs_method == "wrapper"
    assert result.report.fs_seconds > 0.0
    assert "f1" in result.selected_names
    assert result.report.acc >= 90.0


def test_relief_selection_runs(toy_split):
    result = run_pipeline(
        toy_config(toy_split, fs="relief", k=2, relief_neighbors=5)
    )
    assert result.report.selected_count == 2
    assert result.selected_names[0] == "f1"


def test_same_seed_reproduces_everything_but_timings(toy_split):
    a = run_pipeline(toy_config(toy_split, fs="infogain", k=2, seed=3))
    b = run_pipeline(toy_config(toy_split, fs="infogain", k=2, seed=3))
    test = load_splits(toy_config(toy_split))[1]
    np.testing.assert_array_equal(predictions(a, test), predictions(b, test))
    assert a.selected_names == b.selected_names
    assert a.report.cm == b.report.cm
    assert a.report.acc == b.report.acc


def test_subsample_shrinks_training_only(toy_split):
    full = run_pipeline(toy_config(toy_split))
    frac = run_pipeline(toy_config(toy_split, subsample=0.5, seed=1))
    assert frac.report.cm.total == full.report.cm.total == 120
    # the halved training set still solves this easy problem
    assert frac.report.acc >= 90.0


def test_a_given_selection_replaces_the_cells_own(toy_split):
    config = toy_config(toy_split, fs="infogain", k=2, subsample=0.5, seed=1)
    train, test, _ = load_splits(config)
    _, selection = subsample_and_select(train, config)
    shared = run_pipeline(config, (train, test), selection)
    own = run_pipeline(config)
    np.testing.assert_array_equal(predictions(shared, test), predictions(own, test))
    assert shared.selected_names == own.selected_names
    assert shared.report.cm == own.report.cm
    assert shared.report.fs_seconds == selection[1]


def test_a_selection_carries_the_subsample_rows_the_cell_fits_on(toy_split):
    config = toy_config(toy_split, fs="infogain", k=2, algorithm="naive_bayes",
                        subsample=0.5, seed=1)
    train, test, _ = load_splits(config)
    subsample, selection = subsample_and_select(train, config)
    want = stratified_subsample(train, 0.5, seed=1)
    assert subsample.row_count == want.row_count == train.row_count // 2
    np.testing.assert_array_equal(subsample.labels, want.labels)
    plan, model, _ = fit_for_config(want, selection[0], config)
    result = run_pipeline(config, (train, test), selection)
    assert result.plan == plan != fit_preprocess(train, sorted(selection[0]))
    assert result.model.payload.keys() == model.payload.keys()
    for key, array in model.payload.items():
        np.testing.assert_array_equal(result.model.payload[key], array)
    # A run that keeps every row gets the split itself and fits on all of it.
    whole = toy_config(toy_split, fs="infogain", k=2)
    assert subsample_and_select(train, whole)[0] is train


def test_load_stage_annotates_missing_file(toy_split):
    config = toy_config(toy_split, train_path="/nonexistent/train.csv")
    with pytest.raises(PipelineError, match=r"^\[load\]") as info:
        run_pipeline(config)
    assert info.value.stage == "load"
    # without a training path the run fails in [load] before any file opens
    with pytest.raises(PipelineError, match=r"^\[load\] a run that fits needs --train"):
        run_pipeline(toy_config(toy_split, train_path=None))


def test_train_stage_annotates_bad_algorithm(toy_split):
    # an unknown algorithm fails as the config is built, before any stage runs
    with pytest.raises(ModelError, match="unknown algorithm 'boosting'"):
        toy_config(toy_split, algorithm="boosting")
    config = toy_config(toy_split, algorithm="knn", params={"k": 1_000_000})
    with pytest.raises(PipelineError, match=r"^\[train\] k=1000000 exceeds training rows") as info:
        run_pipeline(config)
    assert info.value.stage == "train"


@pytest.mark.parametrize("params, min_leaf", [({}, 2), ({"min_leaf": 7}, 7)])
def test_select_features_hands_the_wrapper_the_runs_min_leaf(toy_split, monkeypatch,
                                                             params, min_leaf):
    seen = []
    search = pipeline.best_first_search

    def spy(*args, **kwargs):
        seen.append(kwargs["min_leaf"])
        return search(*args, **kwargs)

    monkeypatch.setattr(pipeline, "best_first_search", spy)
    config = toy_config(toy_split, fs="wrapper", stop_after=1, params=params)
    select_features(load_splits(config)[0], config)
    assert seen == [min_leaf]


def test_evaluate_stage_annotates_signature_drift(toy_split):
    # a test schema missing a training column fails inside [load]
    train, test, schema = toy_split
    bad_schema = schema.parent / "bad_schema.txt"
    bad_schema.write_text("f1,numeric\nf2,numeric\nlabel,class\n", encoding="utf-8")
    config = toy_config(toy_split, schema_path=str(bad_schema))
    with pytest.raises(PipelineError) as info:
        run_pipeline(config)
    assert info.value.stage == "load"


def test_load_splits_parses_the_schema_once(toy_split, monkeypatch):
    texts = []
    parse = pipeline.parse_schema
    monkeypatch.setattr(pipeline, "parse_schema", lambda text: texts.append(text) or parse(text))
    _, _, schema = load_splits(toy_config(toy_split))
    assert len(texts) == 1 and schema == parse(texts[0])
    # a schema that does not parse fails inside [load], before either file loads
    bad_schema = toy_split[2].parent / "bad_schema.txt"
    bad_schema.write_text("f1,numeric\nlabel,class,extra\n", encoding="utf-8")
    with pytest.raises(PipelineError, match=r"^\[load\] line 2: expected 'name,kind'"):
        load_splits(toy_config(toy_split, schema_path=str(bad_schema)))
    assert len(texts) == 2


def test_load_splits_test_split_encodes_by_name(toy_split):
    train_p, test_p, _ = toy_split
    header = ["f1", "f2", "proto", "label"]
    write_csv(train_p, header, [["0", "0", p, "1"] for p in ("tcp", "udp", "icmp")])
    write_csv(test_p, header, [["0", "0", p, "0"] for p in ("icmp", "tcp", "sctp", "udp")])
    train, test, _ = load_splits(toy_config(toy_split))
    # each file numbers its categories in its own first-occurrence order
    assert train.columns[2].categories == ("tcp", "udp", "icmp")
    assert test.columns[2].categories == ("icmp", "tcp", "sctp", "udp")
    encoded = apply_preprocess(fit_preprocess(train, [2]), test)
    assert encoded.feature_names == ("proto=tcp", "proto=udp", "proto=icmp")
    np.testing.assert_array_equal(np.column_stack([c.values for c in encoded.columns]),
                                  [[0, 0, 1], [1, 0, 0], [0, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("algorithm", ["naive_bayes", "knn", "linear_svm"])
def test_other_algorithms_run_end_to_end(toy_split, algorithm):
    config = toy_config(toy_split, algorithm=algorithm, params={"k": 3})
    if algorithm != "knn":
        config = toy_config(toy_split, algorithm=algorithm)
    result = run_pipeline(config)
    assert result.report.algorithm == algorithm
    assert result.report.acc >= 85.0
