import importlib.util
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsel_ids.models import (
    ALGORITHMS,
    ModelError,
    TrainedModel,
    TrainParams,
    fit_model,
    mlp_grads,
    mlp_init,
    mlp_logits,
    mlp_loss,
    model_from_json,
    model_to_json,
    params_from_dict,
    predict_model,
    svm_objective,
)
from fsel_ids import models
from fsel_ids.dataset import Column, Dataset, load_csv
from fsel_ids.preprocess import apply_preprocess, fit_preprocess
from fsel_ids.unsw import UNSW_SCHEMA

from conftest import make_dataset, random_mixed_dataset, separable_dataset


def numeric_ds(mat, labels):
    mat = np.asarray(mat, dtype=np.float64)
    cols = [(f"x{i}", "numeric", mat[:, i]) for i in range(mat.shape[1])]
    return make_dataset(cols, labels)


def nb_posterior(model, ds):
    """Class probabilities from the model's log joint, by softmax."""
    joint = models.nb_log_joint(model.payload, ds)
    p = np.exp(joint - joint.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def small_params(algorithm, **overrides):
    quick = {
        "n_trees": 5,
        "mlp_epochs": 5,
        "hidden_units": 4,
        "svm_epochs": 5,
        "k": 3,
    }
    quick.update(overrides)
    return params_from_dict(algorithm, quick)


def test_train_params_validation():
    with pytest.raises(ModelError, match="unknown algorithm"):
        TrainParams("boosting")
    with pytest.raises(ModelError, match="k must be positive"):
        TrainParams("knn", k=0)
    with pytest.raises(ModelError, match="confidence"):
        TrainParams("tree", confidence=0.9)
    with pytest.raises(ModelError, match="epoch"):
        TrainParams("mlp", mlp_epochs=-1)
    with pytest.raises(ModelError, match="seed must be >= 0"):
        TrainParams("tree", seed=-1)
    with pytest.raises(ModelError, match="hyperparameter 'prune' must be bool"):
        TrainParams("tree", prune="no")
    with pytest.raises(ModelError, match="hyperparameter 'k' must be int"):
        TrainParams("knn", k=True)
    assert TrainParams("mlp", mlp_learning_rate=1, feature_sample=None).mlp_learning_rate == 1


@pytest.mark.parametrize("name", ["mlp_learning_rate", "svm_lambda", "svm_learning_rate"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_train_params_rejects_a_rate_that_is_not_finite(name, value):
    with pytest.raises(ModelError, match=f"{name} must be positive and finite, got {value}"):
        TrainParams("tree", **{name: value})


def test_model_to_json_writes_no_bare_nan_token():
    # A tree payload is its document, written as it is: a NaN threshold put
    # in memory is refused, not written as a token strict readers reject.
    train = separable_dataset(np.random.default_rng(16), 40)
    model = fit_model(train, params_from_dict("tree", {"prune": False}))
    model.payload["nodes"][0]["threshold"] = math.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        model_to_json(fit_preprocess(train), model)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_saved_model_saves_again_byte_for_byte(algorithm):
    # Two nominal columns one-hot encoded by the plan and two scaled ones;
    # the tree is pruned.
    raw = random_mixed_dataset(np.random.default_rng(18), 120, 6)
    plan = fit_preprocess(raw, [0, 1, 3, 4])
    assert [name for name, _ in plan.onehot] == ["f0", "f3"]
    model = fit_model(apply_preprocess(plan, raw), small_params(algorithm))
    text = model_to_json(plan, model)
    assert model_to_json(*model_from_json(text)) == text
    json.loads(text, parse_constant=lambda token: pytest.fail(f"bare {token} token"))


def test_params_from_dict_rejects_unknown_keys():
    with pytest.raises(ModelError, match="unknown hyperparameters"):
        params_from_dict("tree", {"depth": 3})
    with pytest.raises(ModelError, match=r"\['algorithm'\]; set the algorithm with --algo"):
        params_from_dict("tree", {"algorithm": "knn"})
    p = params_from_dict("knn", {"k": 9}, seed=4)
    assert p.k == 9 and p.seed == 4


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fit_predict_deterministic(algorithm):
    rng = np.random.default_rng(1)
    ds = separable_dataset(rng, 60)
    runs = []
    for _ in range(2):
        model = fit_model(ds, small_params(algorithm))
        runs.append(predict_model(model, ds))
    np.testing.assert_array_equal(runs[0], runs[1])
    assert runs[0].dtype == np.uint8


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_separable_data_is_learnable(algorithm):
    rng = np.random.default_rng(2)
    train = separable_dataset(rng, 120)
    test = separable_dataset(rng, 60)
    model = fit_model(
        train,
        small_params(
            algorithm, mlp_epochs=30, mlp_learning_rate=0.1, svm_epochs=10
        ),
    )
    acc = float((predict_model(model, test) == test.labels).mean())
    assert acc >= 0.9, f"{algorithm} reached only {acc}"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fit_rejects_a_nominal_column(algorithm):
    ds = make_dataset([("x", "numeric", [0.0, 1.0, 2.0, 3.0]),
                       ("proto", "nominal", [0, 1, 2, 0], ("a", "b", "c"))], [0, 1, 0, 1])
    with pytest.raises(ModelError, match="column 'proto' is nominal"):
        fit_model(ds, small_params(algorithm))


def test_forest_with_one_full_tree_degenerates_to_tree():
    rng = np.random.default_rng(5)
    raw = random_mixed_dataset(rng, 80, 4)
    ds = apply_preprocess(fit_preprocess(raw), raw)
    tree = fit_model(ds, params_from_dict("tree", {"prune": False}))
    forest = fit_model(
        ds,
        params_from_dict(
            "forest", {"n_trees": 1, "bootstrap": False, "feature_sample": len(ds.columns)}
        ),
    )
    assert forest.payload == (tree.payload,)
    np.testing.assert_array_equal(
        predict_model(forest, ds), predict_model(tree, ds)
    )


def test_forest_vote_tie_goes_to_attack():
    always_normal = {"nodes": [{"counts": [5, 0]}]}
    always_attack = {"nodes": [{"counts": [0, 5]}]}
    model = TrainedModel(
        TrainParams("forest", n_trees=2),
        ("x0",),
        (always_normal, always_attack),
    )
    ds = numeric_ds([[0.0], [1.0]], [0, 0])
    np.testing.assert_array_equal(predict_model(model, ds), [1, 1])


def test_forest_default_feature_sample_is_sqrt(monkeypatch):
    grow_many, samples = models.tree_mod.grow_many, []

    def spy(ds, tasks, **kw):
        def recorded():
            for features, rows, rng, feature_sample in tasks:
                samples.append(feature_sample)
                yield features, rows, rng, feature_sample
        return grow_many(ds, recorded(), **kw)

    monkeypatch.setattr(models.tree_mod, "grow_many", spy)
    rng = np.random.default_rng(6)
    ds = separable_dataset(rng, 40, noise_features=8)
    fit_model(ds, params_from_dict("forest", {"n_trees": 2}))
    assert len(ds.columns) == 9 and samples == [3, 3]
    ds10 = separable_dataset(rng, 40, noise_features=9)
    fit_model(ds10, params_from_dict("forest", {"n_trees": 2}))
    assert len(ds10.columns) == 10 and samples == [3, 3, 4, 4]


def test_forest_tracks_tree_accuracy():
    scores = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        train = separable_dataset(rng, 100)
        test = separable_dataset(rng, 60)
        tree = fit_model(train, params_from_dict("tree"))
        forest = fit_model(train, params_from_dict("forest", {"n_trees": 15}))
        t = float((predict_model(tree, test) == test.labels).mean())
        f = float((predict_model(forest, test) == test.labels).mean())
        scores.append((t, f))
    assert all(f >= t - 0.02 for t, f in scores)


def test_nb_hand_computed_posterior():
    values = [1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0]
    labels = [0, 0, 0, 1, 1, 1, 1]
    ds = make_dataset([("x", "numeric", values)], labels)
    model = fit_model(ds, params_from_dict("naive_bayes"))

    def log_gauss(x, mean, var):
        return -0.5 * math.log(2 * math.pi * var) - (x - mean) ** 2 / (2 * var)

    # class 0: mean 2, population variance 2/3; class 1: mean 6.5, variance 1.25
    probe = make_dataset([("x", "numeric", [4.0])], [0])
    j0 = math.log(3 / 7) + log_gauss(4.0, 2.0, 2.0 / 3.0)
    j1 = math.log(4 / 7) + log_gauss(4.0, 6.5, 1.25)
    want = math.exp(j1) / (math.exp(j0) + math.exp(j1))
    got = nb_posterior(model, probe)
    assert got[0, 1] == pytest.approx(want, abs=1e-9)
    assert got[0, 0] == pytest.approx(1.0 - want, abs=1e-9)


def test_nb_gaussian_blobs_track_truth():
    rng = np.random.default_rng(8)
    n = 200
    x = np.vstack([rng.normal(-2, 0.7, (n // 2, 3)), rng.normal(2, 0.7, (n // 2, 3))])
    y = [0] * (n // 2) + [1] * (n // 2)
    ds = numeric_ds(x, y)
    model = fit_model(ds, params_from_dict("naive_bayes"))
    acc = float((predict_model(model, ds) == ds.labels).mean())
    assert acc > 0.95


def test_nb_requires_both_classes():
    ds = make_dataset([("x", "numeric", [1.0, 2.0])], [1, 1])
    with pytest.raises(ModelError, match="class 0"):
        fit_model(ds, params_from_dict("naive_bayes"))


def knn_oracle(train_mat, train_labels, queries, k):
    out = []
    for q in queries:
        dists = [
            (float(np.sum((q - t) ** 2)), i) for i, t in enumerate(train_mat)
        ]
        dists.sort()
        votes = sum(train_labels[i] for _, i in dists[:k])
        out.append(1 if 2 * votes >= k else 0)
    return out


@pytest.mark.parametrize("k", [1, 3, 7, 20])
def test_knn_matches_exhaustive_oracle(k):
    rng = np.random.default_rng(40 + k)
    train = rng.normal(0, 1, (20, 3))
    labels = rng.integers(0, 2, 20)
    queries = rng.normal(0, 1, (12, 3))
    ds = numeric_ds(train, labels)
    model = fit_model(ds, params_from_dict("knn", {"k": k}))
    probe = numeric_ds(queries, [0] * 12)
    want = knn_oracle(train, labels.tolist(), queries, k)
    np.testing.assert_array_equal(predict_model(model, probe), want)


def test_knn_k1_copies_nearest_label():
    train = numeric_ds([[0.0], [10.0]], [0, 1])
    model = fit_model(train, params_from_dict("knn", {"k": 1}))
    probe = numeric_ds([[1.0], [9.0]], [0, 0])
    np.testing.assert_array_equal(predict_model(model, probe), [0, 1])


def test_knn_k_equal_n_is_global_majority():
    train = numeric_ds([[0.0], [1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1, 1])
    model = fit_model(train, params_from_dict("knn", {"k": 5}))
    probe = numeric_ds([[-100.0], [100.0]], [0, 0])
    np.testing.assert_array_equal(predict_model(model, probe), [1, 1])


def test_knn_permutation_of_training_rows_is_irrelevant():
    rng = np.random.default_rng(44)
    train = rng.normal(0, 1, (30, 2))
    labels = rng.integers(0, 2, 30)
    queries = rng.normal(0, 1, (10, 2))
    perm = rng.permutation(30)
    a = fit_model(numeric_ds(train, labels), params_from_dict("knn", {"k": 5}))
    b = fit_model(
        numeric_ds(train[perm], labels[perm]), params_from_dict("knn", {"k": 5})
    )
    probe = numeric_ds(queries, [0] * 10)
    np.testing.assert_array_equal(predict_model(a, probe), predict_model(b, probe))


# Reference kernel: the full stable argsort that ``_knn_votes`` replaced,
# kept unchanged so that the partial sort can be checked against it.
def _reference_knn_votes(payload, queries, k):
    t = payload["matrix"]
    t_sq = np.sum(t * t, axis=1)
    votes = np.empty(len(queries), dtype=np.int64)
    chunk = max(1, int(2_000_000 // max(1, len(t))))
    for start in range(0, len(queries), chunk):
        q = queries[start:start + chunk]
        d2 = t_sq[None, :] - 2.0 * (q @ t.T) + np.sum(q * q, axis=1)[:, None]
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes[start:start + chunk] = payload["labels"][order].sum(axis=1)
    return votes


@pytest.mark.parametrize("seed", range(3))
def test_knn_votes_match_stable_argsort_on_ties(seed):
    # small integer grids tie most distances, and 20,000 training rows make
    # one block of _knn_votes hold 16 queries (its floor) and one chunk of the
    # reference hold 100, so 250 queries span 16 blocks and three chunks
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    train = rng.integers(0, 3, (20_000, d)).astype(np.float64)
    labels = rng.integers(0, 2, 20_000).astype(np.uint8)
    queries = rng.integers(-1, 4, (250, d)).astype(np.float64)
    payload = {"matrix": train, "labels": labels}
    for k in (1, 4, 101):
        np.testing.assert_array_equal(
            models._knn_votes(payload, queries, k),
            _reference_knn_votes(payload, queries, k),
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 3))
def test_knn_votes_match_stable_argsort_small(seed, n, top):
    rng = np.random.default_rng(seed)
    train = rng.integers(0, top + 1, (n, 2)).astype(np.float64)
    labels = rng.integers(0, 2, n).astype(np.uint8)
    queries = rng.integers(0, top + 1, (30, 2)).astype(np.float64)
    payload = {"matrix": train, "labels": labels}
    for k in range(1, n + 1):
        np.testing.assert_array_equal(
            models._knn_votes(payload, queries, k),
            _reference_knn_votes(payload, queries, k),
        )


def test_knn_rejects_k_beyond_rows():
    ds = numeric_ds([[0.0], [1.0]], [0, 1])
    with pytest.raises(ModelError, match="exceeds"):
        fit_model(ds, params_from_dict("knn", {"k": 3}))


def test_mlp_solves_xor():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    ys = np.array([0, 1, 1, 0])
    ds = numeric_ds(np.tile(pts, (16, 1)), np.tile(ys, 16).tolist())
    params = params_from_dict(
        "mlp",
        {
            "hidden_units": 8,
            "mlp_epochs": 300,
            "mlp_learning_rate": 0.5,
            "batch_size": 16,
        },
    )
    model = fit_model(ds, params)
    assert float((predict_model(model, ds) == ds.labels).mean()) == 1.0


def test_mlp_zero_epochs_is_the_random_init():
    rng = np.random.default_rng(3)
    ds = numeric_ds(rng.normal(0, 1, (50, 4)), rng.integers(0, 2, 50).tolist())
    model = fit_model(ds, params_from_dict("mlp", {"mlp_epochs": 0}))
    init = mlp_init(4, model.params.hidden_units, model.params.seed)
    np.testing.assert_array_equal(model.payload["w1"], init["w1"])
    np.testing.assert_array_equal(model.payload["w2"], init["w2"])


def test_mlp_gradients_match_central_differences():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, (12, 4))
    y = rng.integers(0, 2, 12).astype(np.float64)
    params = mlp_init(4, 3, seed=1)
    grads = mlp_grads(params, x, y)
    eps = 1e-6
    for key in params:
        flat = params[key].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = mlp_loss(params, x, y)
            flat[idx] = orig - eps
            down = mlp_loss(params, x, y)
            flat[idx] = orig
            fd = (up - down) / (2 * eps)
            analytic = grads[key].reshape(-1)[idx]
            scale = max(abs(fd), abs(analytic), 1e-8)
            assert abs(fd - analytic) / scale <= 1e-4, (key, idx, fd, analytic)


def test_svm_separates_clean_blobs():
    rng = np.random.default_rng(9)
    x = np.vstack([rng.normal(-2, 0.3, (30, 2)), rng.normal(2, 0.3, (30, 2))])
    y = [0] * 30 + [1] * 30
    ds = numeric_ds(x, y)
    model = fit_model(ds, params_from_dict("linear_svm", {"svm_epochs": 20}))
    assert float((predict_model(model, ds) == ds.labels).mean()) == 1.0
    trace = model.payload["objective_trace"]
    assert len(trace) == 21
    assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
    assert svm_objective(
        model.payload["w"], model.payload["b"], ds.as_matrix(),
        ds.labels.astype(np.float64) * 2 - 1, model.params.svm_lambda,
    ) == pytest.approx(trace[-1], abs=1e-12)


def test_svm_large_penalty_shrinks_weights():
    rng = np.random.default_rng(10)
    x = np.vstack([rng.normal(-2, 0.3, (30, 2)), rng.normal(2, 0.3, (30, 2))])
    y = [0] * 30 + [1] * 30
    ds = numeric_ds(x, y)
    loose = fit_model(ds, params_from_dict("linear_svm", {"svm_epochs": 10}))
    tight = fit_model(
        ds, params_from_dict("linear_svm", {"svm_epochs": 10, "svm_lambda": 4.0})
    )
    assert np.linalg.norm(tight.payload["w"]) < np.linalg.norm(loose.payload["w"])
    assert np.linalg.norm(tight.payload["w"]) < 0.5


def test_svm_divergence_is_reported():
    rng = np.random.default_rng(11)
    ds = numeric_ds(rng.normal(0, 1, (24, 3)), rng.integers(0, 2, 24).tolist())
    params = params_from_dict("linear_svm", {"svm_lambda": 1e6, "svm_epochs": 3})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ModelError, match="diverged"):
            fit_model(ds, params)


def diverging_data():
    rng = np.random.default_rng(0)
    return numeric_ds(rng.normal(0, 1, (64, 3)), rng.integers(0, 2, 64).tolist())


def test_mlp_divergence_is_reported():
    ds = diverging_data()
    with pytest.raises(ModelError, match=r"^mlp training diverged at epoch 0 \(loss inf\)$"):
        fit_model(ds, params_from_dict("mlp", {"mlp_learning_rate": 1e307, "mlp_epochs": 3}))
    model = fit_model(ds, params_from_dict("mlp", {"mlp_learning_rate": 1e306, "mlp_epochs": 3}))
    assert all(np.isfinite(w).all() for w in model.payload.values())


@pytest.mark.parametrize("algorithm, overrides", [
    ("mlp", {"mlp_learning_rate": 1e307, "mlp_epochs": 3}),
    ("linear_svm", {"svm_lambda": 1e6, "svm_epochs": 3}),
])
def test_a_diverged_fit_raises_without_a_warning(algorithm, overrides):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match="diverged"):
            fit_model(diverging_data(), params_from_dict(algorithm, overrides))


def masked_sigmoid(z):
    """The sigmoid as it was first written: each sign's branch over a mask."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_the_masked_formula_bit_for_bit():
    tiny, edges = 5e-324, [709.0, 710.0, 745.0, np.inf]
    special = [0.0, tiny] + edges
    z = np.concatenate([special, [-v for v in special], [np.nan],
                        np.random.default_rng(35).normal(0, 20, 1001)])
    with np.errstate(over="ignore"):
        want, got = masked_sigmoid(z), models.sigmoid(z)
    assert np.array_equal(got, want, equal_nan=True)
    # NaN carries no meaningful sign; every other value keeps the reference's
    number = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))
    assert got[[0, 1, 6, 7]].tolist() == [0.5] * 4  # +-0.0 and +-5e-324


def reference_fit_svm(x, labels, params, branches):
    """``_fit_svm`` as it was first written: a new w at every step.
    Returns the payload arrays, or the ModelError message, and adds to
    ``branches`` whether each step's margin was below 1."""
    s = labels.astype(np.float64) * 2.0 - 1.0
    n, d = x.shape
    w, b = np.zeros(d), 0.0
    rng = np.random.default_rng(params.seed)
    trace = [svm_objective(w, b, x, s, params.svm_lambda)]
    for epoch in range(params.svm_epochs):
        lr = params.svm_learning_rate / (1.0 + epoch)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in rng.permutation(n):
                margin = s[i] * (float(x[i] @ w) + b)
                branches.add(bool(margin < 1.0))
                if margin < 1.0:
                    w = w - lr * (2.0 * params.svm_lambda * w - s[i] * x[i])
                    b = b + lr * s[i]
                else:
                    w = w - lr * (2.0 * params.svm_lambda * w)
            value = svm_objective(w, b, x, s, params.svm_lambda)
        if not math.isfinite(value):
            return f"svm training diverged at epoch {epoch} (objective {value})"
        trace.append(value)
    return {"w": w, "b": np.asarray(b), "objective_trace": np.asarray(trace)}


def reference_fit_mlp(x, labels, params):
    """``_fit_mlp`` as it was first written, with the masked sigmoid,
    ``np.outer`` and a new array at every update."""
    def grads(weights, xb, yb):
        hidden = masked_sigmoid(xb @ weights["w1"] + weights["b1"])
        z = hidden @ weights["w2"] + weights["b2"][0]
        dz = (masked_sigmoid(z) - yb) / len(yb)
        d_hidden = np.outer(dz, weights["w2"]) * hidden * (1.0 - hidden)
        return {"w1": xb.T @ d_hidden, "b1": d_hidden.sum(axis=0),
                "w2": hidden.T @ dz, "b2": np.asarray([dz.sum()])}

    y = labels.astype(np.float64)
    weights = mlp_init(x.shape[1], params.hidden_units, params.seed)
    rng = np.random.default_rng(params.seed + 1)
    for epoch in range(params.mlp_epochs):
        order = rng.permutation(len(x))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(x), params.batch_size):
                batch = order[start:start + params.batch_size]
                g = grads(weights, x[batch], y[batch])
                for key in weights:
                    weights[key] = weights[key] - params.mlp_learning_rate * g[key]
            loss = mlp_loss(weights, x, y)
        if not math.isfinite(loss):
            return f"mlp training diverged at epoch {epoch} (loss {loss})"
    return weights


def sgd_split(seed, rows=301, width=13):
    """A width that is not a multiple of 8, rows not a multiple of the batch."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (rows, width))
    labels = (x[:, 0] + 0.5 * x[:, 1] + rng.normal(0, 0.8, rows) > 0).astype(np.uint8)
    return numeric_ds(x, labels.tolist())


def fitted_or_error(ds, params):
    try:
        return fit_model(ds, params).payload
    except ModelError as error:
        return str(error)


@pytest.mark.parametrize("overrides", [
    {"svm_epochs": 3}, {"svm_epochs": 2, "svm_lambda": 0.05, "svm_learning_rate": 0.7},
    {"svm_epochs": 4, "svm_lambda": 1e-7, "seed": 9}])
def test_svm_weights_match_the_first_loop_bit_for_bit(overrides):
    ds = sgd_split(36)
    params = params_from_dict("linear_svm", overrides)
    branches = set()
    want = reference_fit_svm(ds.as_matrix(), ds.labels, params, branches)
    assert branches == {True, False}  # both steps were taken
    got = fit_model(ds, params).payload
    assert list(got) == list(want)
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("overrides", [
    {"mlp_epochs": 3, "hidden_units": 5}, {"mlp_epochs": 2, "batch_size": 7, "mlp_learning_rate": 0.8},
    {"mlp_epochs": 2, "hidden_units": 32, "seed": 4}])
def test_mlp_weights_match_the_first_loop_bit_for_bit(overrides):
    ds = sgd_split(37)
    params = params_from_dict("mlp", overrides)
    want = reference_fit_mlp(ds.as_matrix(), ds.labels, params)
    got = fit_model(ds, params).payload
    assert list(got) == list(want)
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("algorithm, overrides, epoch", [
    ("linear_svm", {"svm_lambda": 1e6, "svm_epochs": 3}, 0),
    ("linear_svm", {"svm_lambda": 25.0, "svm_epochs": 3}, 1),
    ("mlp", {"mlp_learning_rate": 1e307, "mlp_epochs": 3}, 0),
])
def test_a_divergent_fit_fails_at_the_first_loops_epoch(algorithm, overrides, epoch):
    ds = sgd_split(38, rows=230)
    params = params_from_dict(algorithm, overrides)
    if algorithm == "linear_svm":
        want = reference_fit_svm(ds.as_matrix(), ds.labels, params, set())
    else:
        want = reference_fit_mlp(ds.as_matrix(), ds.labels, params)
    assert want.startswith(f"{algorithm.removeprefix('linear_')} training diverged at epoch {epoch} (")
    assert fitted_or_error(ds, params) == want


def one_shot_mlp_loss(params, x, y):
    """The mean cross-entropy over the whole matrix at once."""
    z = mlp_logits(params, x)
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def test_blocked_mlp_loss_matches_the_whole_matrix_loss():
    rng = np.random.default_rng(33)
    x = rng.normal(0, 1, (20_000, 4))
    y = rng.integers(0, 2, 20_000).astype(np.float64)
    params = mlp_init(4, 32, seed=2)
    assert len(models._row_blocks(len(x), 32)) == 3
    assert mlp_loss(params, x, y) == pytest.approx(one_shot_mlp_loss(params, x, y), rel=1e-12)
    huge = {key: value * 1e307 for key, value in params.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(mlp_loss(huge, x, y))
        assert not math.isfinite(one_shot_mlp_loss(huge, x, y))


@pytest.mark.parametrize("rows, width, sizes", [
    (0, 5, []), (15, 1, [15]), (100, 300_000, [16] * 6 + [4]), (20_000, 32, [7812, 7812, 4376])])
def test_row_blocks_cut_the_rows_in_order(rows, width, sizes):
    # kNN's blocks: max(16, 250_000 // width) rows each, the last one short
    starts = np.cumsum([0] + sizes).tolist()
    assert [range(rows)[b] for b in models._row_blocks(rows, width)] == [
        range(start, start + size) for start, size in zip(starts, sizes)]


def test_mlp_loss_holds_no_rows_by_hidden_array():
    rng = np.random.default_rng(34)
    x = rng.normal(0, 1, (100_000, 4))
    y = rng.integers(0, 2, 100_000).astype(np.float64)
    params = mlp_init(4, 32, seed=3)
    tracemalloc.start()
    try:
        mlp_loss(params, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000 * 32 * 8


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_model_json_round_trip(algorithm):
    rng = np.random.default_rng(12)
    train = separable_dataset(rng, 50)
    test = separable_dataset(rng, 30)
    model = fit_model(train, small_params(algorithm))
    # an all-numeric plan's output names are the raw names
    plan = fit_preprocess(train)
    assert plan.output_names == train.feature_names
    text = model_to_json(plan, model)
    doc = json.loads(text)
    assert doc["format"] == "fsel-ids/model"
    plan_again, again = model_from_json(text)
    assert plan_again == plan
    assert again.params == model.params
    assert again.feature_names == model.feature_names
    np.testing.assert_array_equal(
        predict_model(again, test), predict_model(model, test)
    )
    assert model_to_json(plan_again, again) == text
    if algorithm == "knn":
        assert not again.payload["matrix"].flags.writeable
        assert not again.payload["labels"].flags.writeable


def test_model_from_json_rejects_other_documents():
    with pytest.raises(ModelError, match="not a model"):
        model_from_json(json.dumps({"format": "something-else"}))


def test_model_to_json_needs_the_plan_the_model_was_fitted_on():
    train = separable_dataset(np.random.default_rng(15), 40)
    model = fit_model(train, params_from_dict("tree"))
    for selected in ([0, 1], [1, 2]):
        with pytest.raises(ModelError, match="not fitted on the plan's output"):
            model_to_json(fit_preprocess(train, selected), model)


def test_predict_rejects_signature_mismatch():
    rng = np.random.default_rng(13)
    train = separable_dataset(rng, 40)
    model = fit_model(train, params_from_dict("tree"))
    other = numeric_ds(rng.normal(0, 1, (5, 2)), [0, 1, 0, 1, 0])
    with pytest.raises(ModelError, match="signature"):
        predict_model(model, other)


def test_fit_rejects_empty_training_set():
    empty = make_dataset([("x", "numeric", [])], [])
    with pytest.raises(ModelError, match="empty"):
        fit_model(empty, params_from_dict("tree"))


def test_train_seconds_is_recorded():
    rng = np.random.default_rng(14)
    ds = separable_dataset(rng, 40)
    model = fit_model(ds, params_from_dict("tree"))
    assert model.train_seconds >= 0.0


def encoded_split(rng, rows, features):
    """A random mixed dataset's first ``rows`` rows and the rest, both
    replayed through a plan fitted on the first part."""
    raw = random_mixed_dataset(rng, rows + 100, features)
    train, test = raw.take_rows(np.arange(rows)), raw.take_rows(np.arange(rows, rows + 100))
    plan = fit_preprocess(train)
    return apply_preprocess(plan, train), apply_preprocess(plan, test)


def plain_copy(ds):
    """The same table as a plain Dataset over copies of its columns."""
    return Dataset(tuple(Column(c.name, c.kind, c.values.copy()) for c in ds.columns),
                   ds.labels)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fit_on_the_plan_output_matches_a_plain_dataset(algorithm):
    train, test = encoded_split(np.random.default_rng(31), 300, 12)
    plain_train = plain_copy(train)
    assert plain_train.matrix is None and train.matrix is not None
    params = small_params(algorithm)
    on_plan, on_plain = fit_model(train, params), fit_model(plain_train, params)
    plan = fit_preprocess(train)
    assert (model_to_json(plan, replace(on_plan, train_seconds=0.0))
            == model_to_json(plan, replace(on_plain, train_seconds=0.0)))
    assert (predict_model(on_plan, test).tobytes()
            == predict_model(on_plain, plain_copy(test)).tobytes())


def test_svm_fit_on_the_plan_output_makes_no_copy_of_it():
    rng = np.random.default_rng(32)
    n = 2000
    labels = (rng.random(n) < 0.5).astype(np.uint8)
    raw = make_dataset([("x", "numeric", rng.normal(size=n) + labels),
                        ("y", "numeric", rng.normal(size=n)),
                        ("service", "nominal", rng.integers(0, 40, n),
                         tuple(f"s{i}" for i in range(40)))], labels)
    train = apply_preprocess(fit_preprocess(raw), raw)
    size = train.as_matrix().nbytes
    assert size == n * 42 * 8
    tracemalloc.start()
    try:
        fit_model(train, params_from_dict("linear_svm", {"svm_epochs": 1}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 2


def test_forest_fit_holds_no_copy_of_the_training_matrix(tmp_path):
    # The benchmark's grid-scale training file for seed 1: 10,000 rows that
    # the plan encodes into 194 columns.
    path = Path(__file__).parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    raw = load_csv(gen.generate(tmp_path, 1, "grid")[0], UNSW_SCHEMA)
    train = apply_preprocess(fit_preprocess(raw), raw)
    size = train.as_matrix().nbytes
    assert size == 10_000 * 194 * 8
    tracemalloc.start()
    try:
        fit_model(train, params_from_dict("forest", {"n_trees": 2}, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 2
