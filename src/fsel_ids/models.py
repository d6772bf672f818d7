"""Classifier families behind a single train/predict contract.

Six algorithm tags: tree, forest, naive_bayes, knn, mlp, linear_svm. Every
fit is deterministic given (data, params, seed). Every family is fitted on,
and predicts from, the preprocessing plan's output, which is all numeric;
``fit_model`` and ``predict_model`` reject a nominal column. Prediction ties
always resolve to the attack class.

``ALGORITHM_TABLE`` is the one place that knows the families: it maps each
tag to an ``Algorithm`` entry holding its fit, predict and from-doc
functions. ``fit_model``, ``predict_model`` and ``model_from_json`` look the
tag up there, and ``ALGORITHMS`` lists the table's tags in order.

``model_to_json`` saves a model with the plan it was fitted on as one
``model.json`` document of ``format``, ``version``, ``params``, ``plan``,
``train_seconds`` and ``payload``, and the model that ``model_from_json``
reads back takes the plan's ``output_names`` as its feature signature.
Every payload is its document, with the same keys in the same order, and
is written as it is:

- tree: a ``tree.Tree``, the document ``{"nodes": [...]}``;
- forest: a tuple of tree documents, written as a list;
- naive_bayes: ``{"log_prior", "mean", "var"}``: two log priors, and a
  (feature x class) mean and variance;
- knn: ``{"matrix", "labels"}``;
- mlp: ``{"w1", "b1", "w2", "b2"}``;
- linear_svm: ``{"w", "b", "objective_trace"}``.

Numpy values are written by one ``json.dumps`` hook, and every payload
number but a tree's is read back by ``_arrays_from_doc`` as a read-only
array of the shape the model needs; a string or bool in it is refused,
not converted. A document is read against the model's feature count and
``params``: a forest needs ``n_trees`` trees, naive Bayes needs a mean and a
positive variance per feature and class, a kNN matrix one row per label
and one column per feature, an MLP a (width x ``hidden_units``) ``w1``,
``hidden_units``-long ``b1`` and ``w2`` and a one-long ``b2``, an SVM a
width-long ``w``, a scalar ``b`` and an ``svm_epochs`` + 1 long
``objective_trace``, and a tree split a feature index below that count.
Every number a model computes with must be finite. The document states
each fact once: the algorithm only in ``params``, and no forest feature
sample, which ``params`` and the feature count fix.

kNN, MLP and SVM read rows through ``Dataset.as_matrix``, which for the
plan's output is its one C-order array, so a fit holds no second copy of
the encoded split.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain

import numpy as np

from . import tree as tree_mod
from .dataset import Dataset, is_finite_number, shown
from .preprocess import PreprocessPlan, plan_from_doc, plan_to_doc
from .tree import Tree

MODEL_FORMAT = "fsel-ids/model"
MODEL_VERSION = 4  # 4: the preprocessing plan is the document's plan field

NB_VAR_FLOOR = 1e-9


class ModelError(ValueError):
    """Raised for invalid training parameters or prediction mismatches."""


# The Python types each dataclass field annotation admits.
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool, "dict": dict,
                "None": type(None)}


def check_field_types(obj, noun: str, error: type[Exception]) -> None:
    """Raise ``error`` naming the first field of dataclass ``obj`` whose value
    its annotation does not admit. A ``bool`` is admitted only by a ``bool``
    field, although it is an ``int``."""
    for f in fields(obj):
        value, kinds = getattr(obj, f.name), f.type.split(" | ")
        if (isinstance(value, bool) and "bool" not in kinds) or not isinstance(
                value, tuple(_FIELD_TYPES[k] for k in kinds)):
            raise error(f"{noun} {f.name!r} must be {f.type}, got {shown(value)}")


@dataclass(frozen=True)
class TrainParams:
    """Algorithm tag plus every tunable, with common defaults baked in."""

    algorithm: str
    seed: int = 0
    # tree
    min_leaf: int = 2
    prune: bool = True
    confidence: float = 0.25
    # forest
    n_trees: int = 100
    feature_sample: int | None = None  # None means ceil(sqrt(feature count))
    bootstrap: bool = True
    # knn
    k: int = 5
    # mlp
    hidden_units: int = 32
    mlp_epochs: int = 50
    mlp_learning_rate: float = 0.01
    batch_size: int = 32
    # linear svm
    svm_lambda: float = 1e-4
    svm_epochs: int = 20
    svm_learning_rate: float = 0.1

    def __post_init__(self):
        check_field_types(self, "hyperparameter", ModelError)
        if self.algorithm not in ALGORITHMS:
            raise ModelError(f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}")
        positive = {
            "min_leaf": self.min_leaf,
            "n_trees": self.n_trees,
            "k": self.k,
            "hidden_units": self.hidden_units,
            "mlp_learning_rate": self.mlp_learning_rate,
            "batch_size": self.batch_size,
            "svm_lambda": self.svm_lambda,
            "svm_learning_rate": self.svm_learning_rate,
        }
        for name, value in positive.items():
            if not 0 < value < math.inf:  # NaN fails both
                raise ModelError(f"{name} must be positive and finite, got {value}")
        if not (0.0 < self.confidence <= 0.5):
            raise ModelError(f"confidence must be in (0, 0.5], got {self.confidence}")
        if self.feature_sample is not None and self.feature_sample < 1:
            raise ModelError(f"feature_sample must be >= 1, got {self.feature_sample}")
        for name in ("seed", "mlp_epochs", "svm_epochs"):
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0, got {getattr(self, name)}")


def params_from_dict(algorithm: str, overrides: dict | None = None, seed: int = 0) -> TrainParams:
    """Build TrainParams from an override mapping; unknown keys and ``algorithm`` fail."""
    base = TrainParams(algorithm=algorithm, seed=seed)
    if not overrides:
        return base
    known = {f.name for f in fields(TrainParams)} - {"algorithm"}
    bad = sorted(set(overrides) - known)
    if bad:
        hint = "; set the algorithm with --algo" if "algorithm" in bad else ""
        raise ModelError(f"unknown hyperparameters: {shown(bad)}{hint}")
    return replace(base, **overrides)


@dataclass(frozen=True)
class TrainedModel:
    """Fitted classifier: tag, learned payload, feature signature, fit time."""

    params: TrainParams
    feature_names: tuple[str, ...]
    payload: object
    train_seconds: float = 0.0

    @property
    def algorithm(self) -> str:
        return self.params.algorithm

    def __post_init__(self):
        if not self.feature_names:
            raise ModelError("feature signature must be non-empty")


def _check_not_empty(train: Dataset):
    if train.row_count == 0:
        raise ModelError("cannot train on an empty dataset")
    if not train.columns:
        raise ModelError("cannot train with no features")


def _check_encoded(ds: Dataset):
    """Models take the preprocessing plan's output, which is all numeric."""
    for col in ds.columns:
        if col.kind != "numeric":
            raise ModelError(f"column {col.name!r} is nominal; models take the"
                             " preprocessing plan's encoded output")


def _check_numbers(key: str, value, ndim: int) -> None:
    """Refuse a string, a bool or any other non-number in ``value``, lists
    nested ``ndim`` deep; the types are gathered row by row at C level."""
    if isinstance(value, np.ndarray):  # a fit's own array
        return
    leaves = [value]
    for _ in range(ndim):
        leaves = chain.from_iterable(leaves)
    kinds = set(map(type, leaves))
    # a list left here is the shape check's to report
    bad = sorted(t.__name__ for t in kinds
                 if t is bool or not issubclass(t, (int, float, np.number, list)))
    if bad:
        raise ModelError(f"{key} holds {' and '.join(bad)} values, not only numbers")


def _arrays_from_doc(doc: dict, dtype=np.float64, **shapes) -> dict:
    """The entries of ``doc`` that ``shapes`` names, in that order, as
    read-only arrays of ``dtype`` with those shapes; every number finite."""
    payload = {}
    for key, shape in shapes.items():
        _check_numbers(key, doc[key], len(shape))
        array = np.asarray(doc[key], dtype=dtype)
        if array.shape != shape:
            raise ModelError(f"{key} has shape {array.shape}, the model needs {shape}")
        if not np.isfinite(array).all():
            where = np.argwhere(~np.isfinite(array))[0].tolist()
            raise ModelError(f"{key}{where or ''} is {array[tuple(where)]}, not finite")
        array.flags.writeable = False
        payload[key] = array
    return payload


def _to_builtin(value):
    """``json.dumps`` hook: numpy arrays and scalars as lists and Python numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _fit_tree(train: Dataset, params: TrainParams) -> Tree:
    tree = tree_mod.grow(train, min_leaf=params.min_leaf)
    if params.prune:
        tree = tree_mod.prune(tree, params.confidence)
    return tree


def _predict_tree(tree: Tree, ds: Dataset, params: TrainParams) -> np.ndarray:
    return tree_mod.predict(tree, ds)


def _fit_forest(train: Dataset, params: TrainParams) -> tuple[Tree, ...]:
    d = len(train.columns)
    sample = params.feature_sample
    if sample is None:
        sample = max(1, math.isqrt(d) + (0 if math.isqrt(d) ** 2 == d else 1))
    sample = min(sample, d)

    def task(t: int):  # taken as tree t starts, so its bootstrap is drawn just in time
        rng = np.random.default_rng(params.seed + t)
        rows = (rng.integers(0, train.row_count, size=train.row_count)
                if params.bootstrap else None)
        return range(d), rows, rng, sample

    return tuple(tree_mod.grow_many(train, map(task, range(params.n_trees)),
                                    min_leaf=params.min_leaf))


def _forest_from_doc(doc: list, width: int, params: TrainParams) -> tuple[Tree, ...]:
    if len(doc) != params.n_trees:
        raise ModelError(f"forest has {len(doc)} trees, params.n_trees is {params.n_trees}")
    return tuple(tree_mod.from_doc(t, width) for t in doc)


def _predict_forest(trees: tuple[Tree, ...], ds: Dataset, params: TrainParams) -> np.ndarray:
    votes = np.zeros(ds.row_count, dtype=np.int64)
    for tree in trees:
        votes += tree_mod.predict(tree, ds)
    return (2 * votes >= len(trees)).astype(np.uint8)


def _fit_naive_bayes(train: Dataset, params: TrainParams) -> dict:
    masks = [train.labels == c for c in (0, 1)]
    counts = [int(np.count_nonzero(mask)) for mask in masks]
    for c, have in enumerate(counts):
        if have == 0:
            raise ModelError(f"class {c} has no training rows")
    log_prior = [math.log(have / train.row_count) for have in counts]
    means, variances = [], []
    for col in train.columns:
        v = [col.values[mask] for mask in masks]
        means.append([float(vc.mean()) for vc in v])
        variances.append([max(float(vc.var()), NB_VAR_FLOOR) for vc in v])
    return _nb_from_doc({"log_prior": log_prior, "mean": means, "var": variances},
                        len(train.columns), params)


def nb_log_joint(payload: dict, ds: Dataset) -> np.ndarray:
    """Per-row (n, 2) array of log prior + summed log likelihoods."""
    n = ds.row_count
    out = np.zeros((n, 2), dtype=np.float64)
    out[:, 0] = payload["log_prior"][0]
    out[:, 1] = payload["log_prior"][1]
    for col, mean, var in zip(ds.columns, payload["mean"], payload["var"]):
        x = col.values
        for c in (0, 1):
            out[:, c] += -0.5 * np.log(2.0 * math.pi * var[c]) - (x - mean[c]) ** 2 / (2.0 * var[c])
    return out


def _predict_naive_bayes(p: dict, ds: Dataset, params: TrainParams) -> np.ndarray:
    joint = nb_log_joint(p, ds)
    return (joint[:, 1] >= joint[:, 0]).astype(np.uint8)


def _nb_from_doc(doc: dict, width: int, params: TrainParams) -> dict:
    """Two log priors and, per feature and class, a mean and a positive variance."""
    payload = _arrays_from_doc(doc, log_prior=(2,), mean=(width, 2), var=(width, 2))
    bad = np.argwhere(payload["var"] <= 0)
    if len(bad):
        raise ModelError(f"var{bad[0].tolist()} is {payload['var'][tuple(bad[0])]}, not positive")
    return payload


def _fit_knn(train: Dataset, params: TrainParams) -> dict:
    if params.k > train.row_count:
        raise ModelError(f"k={params.k} exceeds training rows {train.row_count}")
    return _knn_from_doc({"matrix": train.as_matrix(), "labels": train.labels.copy()},
                         len(train.columns), params)


def _knn_from_doc(doc: dict, width: int, params: TrainParams) -> dict:
    """A ``matrix`` of one row per 0/1 label and one column per feature."""
    if not np.isin(doc["labels"], (0, 1)).all():
        raise ModelError("knn labels must be 0 or 1")
    rows = len(doc["labels"])
    return {**_arrays_from_doc(doc, matrix=(rows, width)),
            **_arrays_from_doc(doc, np.uint8, labels=(rows,))}


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices of ``rows`` rows in blocks of about 250,000 (row x ``width``)
    values and at least 16 rows, so that a block's temporaries take a few MB."""
    step = max(16, 250_000 // width)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _knn_votes(payload: dict, queries: np.ndarray, k: int) -> np.ndarray:
    """Attack votes among the k nearest training rows (``nearest``), per query;
    queries go in ``_row_blocks`` of distances to every training row."""
    t = payload["matrix"]
    attack = payload["labels"] == 1
    t_sq = np.sum(t * t, axis=1)
    votes = np.empty(len(queries), dtype=np.int64)
    for block in _row_blocks(len(queries), len(t)):
        q = queries[block]
        d2 = q @ t.T
        d2 *= -2.0
        d2 += t_sq
        d2 += np.sum(q * q, axis=1)[:, None]
        votes[block] = np.count_nonzero(nearest(d2, k) & attack, axis=1)
    return votes


def nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k smallest entries along the last axis of ``dist``.

    Entries tied at the k-th distance fill the places left in index order,
    so the mask holds the first k of a stable sort of each distance row.
    """
    kth = np.partition(dist, k - 1, axis=-1)[..., [k - 1]]
    below = dist < kth
    tied = dist == kth
    places = k - np.count_nonzero(below, axis=-1)
    below |= tied & (np.cumsum(tied, axis=-1, dtype=np.int32) <= np.expand_dims(places, -1))
    return below


def _predict_knn(p: dict, ds: Dataset, params: TrainParams) -> np.ndarray:
    votes = _knn_votes(p, ds.as_matrix(), params.k)
    return (2 * votes >= params.k).astype(np.uint8)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere, so
    that no exp overflows: both are one division by 1 + e, e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def mlp_init(d: int, hidden: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "w1": rng.normal(0.0, 0.5, size=(d, hidden)),
        "b1": np.zeros(hidden),
        "w2": rng.normal(0.0, 0.5, size=hidden),
        "b2": np.zeros(1),
    }


def mlp_logits(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    hidden = sigmoid(x @ params["w1"] + params["b1"])
    return hidden @ params["w2"] + params["b2"][0]


def mlp_loss(params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy, computed from logits for stability, summed over
    ``_row_blocks`` of (row x hidden unit) values: no (rows x hidden) array is made."""
    total = 0.0
    for block in _row_blocks(len(x), params["w1"].shape[1]):
        z = mlp_logits(params, x[block])
        total += float(np.sum(np.logaddexp(0.0, z) - y[block] * z))
    return total / len(x)


def mlp_grads(params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic gradients of mlp_loss with respect to every parameter."""
    hidden = sigmoid(x @ params["w1"] + params["b1"])
    z = hidden @ params["w2"] + params["b2"][0]
    dz = (sigmoid(z) - y) / len(y)
    d_hidden = dz[:, None] * params["w2"]
    d_hidden *= hidden
    d_hidden *= 1.0 - hidden
    return {
        "w1": x.T @ d_hidden,
        "b1": d_hidden.sum(axis=0),
        "w2": hidden.T @ dz,
        "b2": np.asarray([dz.sum()]),
    }


def _fit_mlp(train: Dataset, params: TrainParams) -> dict[str, np.ndarray]:
    x = train.as_matrix()
    y = train.labels.astype(np.float64)
    weights = mlp_init(x.shape[1], params.hidden_units, params.seed)
    rng = np.random.default_rng(params.seed + 1)
    for epoch in range(params.mlp_epochs):
        order = rng.permutation(len(x))
        # An overflow or NaN leaves the loss non-finite, which the check below
        # reports as divergence; numpy's warnings would only print ahead of it.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(x), params.batch_size):
                batch = order[start:start + params.batch_size]
                for key, grad in mlp_grads(weights, x[batch], y[batch]).items():
                    grad *= params.mlp_learning_rate
                    weights[key] -= grad
            loss = mlp_loss(weights, x, y)
        if not math.isfinite(loss):
            raise ModelError(f"mlp training diverged at epoch {epoch} (loss {loss})")
    return _mlp_from_doc(weights, x.shape[1], params)


def _mlp_from_doc(doc: dict, width: int, params: TrainParams) -> dict[str, np.ndarray]:
    h = params.hidden_units
    return _arrays_from_doc(doc, w1=(width, h), b1=(h,), w2=(h,), b2=(1,))


def _predict_mlp(p: dict[str, np.ndarray], ds: Dataset, params: TrainParams) -> np.ndarray:
    return (mlp_logits(p, ds.as_matrix()) >= 0.0).astype(np.uint8)


def svm_objective(w: np.ndarray, b: float, x: np.ndarray, s: np.ndarray, lam: float) -> float:
    """Mean hinge loss plus L2 penalty; s holds labels in {-1, +1}."""
    margins = 1.0 - s * (x @ w + b)
    return float(np.mean(np.maximum(margins, 0.0)) + lam * float(w @ w))


def _fit_svm(train: Dataset, params: TrainParams) -> dict:
    x = train.as_matrix()
    s = train.labels.astype(np.float64) * 2.0 - 1.0
    signs = s.tolist()
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    rng = np.random.default_rng(params.seed)
    trace = [svm_objective(w, b, x, s, params.svm_lambda)]
    # A step is w - lr * (2 lambda w - s_i x_i) if the margin is below 1, else
    # w - lr * (2 lambda w), computed in place through t. Since s_i is +-1,
    # t - s_i x_i is t - x_i or t + x_i exactly, so every weight is the float
    # the expression gives. Scalars go in as 0-d arrays, which ufuncs take faster.
    twice_lambda = np.array(2.0 * params.svm_lambda)
    t = np.empty(d)
    add, multiply, subtract = np.add, np.multiply, np.subtract
    for epoch in range(params.svm_epochs):
        lr = params.svm_learning_rate / (1.0 + epoch)
        rate = np.array(lr)
        with np.errstate(over="ignore", invalid="ignore"):  # as in _fit_mlp
            for i in rng.permutation(n).tolist():
                xi, si = x[i], signs[i]
                multiply(w, twice_lambda, t)
                if si * (float(xi.dot(w)) + b) < 1.0:
                    (subtract if si > 0.0 else add)(t, xi, t)
                    b = b + lr * si
                multiply(t, rate, t)
                subtract(w, t, w)
            value = svm_objective(w, b, x, s, params.svm_lambda)
        if not math.isfinite(value):
            raise ModelError(f"svm training diverged at epoch {epoch} (objective {value})")
        trace.append(value)
    return _svm_from_doc({"w": w, "b": b, "objective_trace": trace}, d, params)


def _predict_svm(p: dict, ds: Dataset, params: TrainParams) -> np.ndarray:
    return (ds.as_matrix() @ p["w"] + p["b"] >= 0.0).astype(np.uint8)


def _svm_from_doc(doc: dict, width: int, params: TrainParams) -> dict:
    return _arrays_from_doc(doc, w=(width,), b=(), objective_trace=(params.svm_epochs + 1,))


@dataclass(frozen=True)
class Algorithm:
    """One classifier family's entry in ``ALGORITHM_TABLE``.

    ``fit(train, params)`` returns the payload and ``predict(payload, ds,
    params)`` the uint8 class ids; ``from_doc(doc, width, params)`` reads the
    payload of a model over ``width`` features back from its JSON document.
    Every payload is its own document, written as it is; the array families'
    fits return theirs through ``from_doc``, so a fitted payload is the one
    its document loads as.
    """

    fit: Callable[[Dataset, TrainParams], object]
    predict: Callable[[object, Dataset, TrainParams], np.ndarray]
    from_doc: Callable[[dict, int, TrainParams], object]


ALGORITHM_TABLE = {
    "tree": Algorithm(_fit_tree, _predict_tree,
                      lambda doc, width, params: tree_mod.from_doc(doc, width)),
    "forest": Algorithm(_fit_forest, _predict_forest, _forest_from_doc),
    "naive_bayes": Algorithm(_fit_naive_bayes, _predict_naive_bayes, _nb_from_doc),
    "knn": Algorithm(_fit_knn, _predict_knn, _knn_from_doc),
    "mlp": Algorithm(_fit_mlp, _predict_mlp, _mlp_from_doc),
    "linear_svm": Algorithm(_fit_svm, _predict_svm, _svm_from_doc),
}
ALGORITHMS = tuple(ALGORITHM_TABLE)


def fit_model(train: Dataset, params: TrainParams) -> TrainedModel:
    """Train one classifier on the dataset's full feature set."""
    _check_not_empty(train)
    _check_encoded(train)
    started = time.perf_counter()
    payload = ALGORITHM_TABLE[params.algorithm].fit(train, params)
    elapsed = time.perf_counter() - started
    return TrainedModel(params, train.feature_names, payload, elapsed)


def _check_signature(model: TrainedModel, ds: Dataset):
    if ds.feature_names != model.feature_names:
        raise ModelError(
            f"feature signature mismatch: model expects {model.feature_names[:4]}..."
            f" ({len(model.feature_names)} features), dataset has"
            f" {ds.feature_names[:4]}... ({len(ds.feature_names)})"
        )


def predict_model(model: TrainedModel, ds: Dataset) -> np.ndarray:
    """Class ids (uint8: 1 = attack) for every row; ties go to attack."""
    _check_signature(model, ds)
    _check_encoded(ds)
    return ALGORITHM_TABLE[model.algorithm].predict(model.payload, ds, model.params)


def model_to_json(plan: PreprocessPlan, model: TrainedModel) -> str:
    """The ``model.json`` document of ``model``, fitted on ``plan``'s output."""
    if model.feature_names != plan.output_names:
        raise ModelError("the model was not fitted on the plan's output")
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "params": asdict(model.params),
        "plan": plan_to_doc(plan),
        "train_seconds": model.train_seconds,
        "payload": model.payload,
    }
    return json.dumps(doc, default=_to_builtin, allow_nan=False)


def model_from_json(text: str) -> tuple[PreprocessPlan, TrainedModel]:
    """The plan and the model of a ``model.json`` document."""
    try:
        doc = json.loads(text)
    except RecursionError as exc:  # nested deeper than the parser goes
        raise ModelError(f"malformed model document (RecursionError: {exc})") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != MODEL_FORMAT:
        raise ModelError(f"not a model document: {shown(fmt)}")
    if doc.get("version") != MODEL_VERSION:
        raise ModelError(f"unsupported model version {shown(doc.get('version'))}")
    try:
        known = {f.name for f in fields(TrainParams)}
        missing = sorted(known - set(doc["params"]))
        if missing:
            raise ModelError(f"params lacks {missing}")
        unknown = sorted(set(doc["params"]) - known)
        if unknown:  # as TrainParams(**params) would raise it, with the names cut short
            raise TypeError(f"params has unknown fields {shown(unknown)}")
        params = TrainParams(**doc["params"])
        plan = plan_from_doc(doc["plan"])
        names = plan.output_names
        seconds = doc["train_seconds"]
        if not (is_finite_number(seconds) and seconds >= 0):
            raise ModelError(f"train_seconds is {shown(seconds)}, not a finite number >= 0")
        return plan, TrainedModel(
            params,
            names,
            ALGORITHM_TABLE[params.algorithm].from_doc(doc["payload"], len(names), params),
            float(seconds),
        )
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ModelError(f"malformed model document ({type(exc).__name__}: {exc})") from exc
