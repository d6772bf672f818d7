"""End-to-end experiment runner: load, select, transform, train, evaluate.

The hold-out protocol is fixed: models fit on the training file only and
are measured on the predefined test file; nothing is ever mixed. Feature
selection and transform fitting see only training data. Every stage is
timed separately so selection cost, training cost and scoring cost stay
attributable.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .dataset import Dataset, load_csv, stratified_subsample
from .filters import FILTER_METHODS, FilterScores, score_features
from .metrics import EvaluationReport, confusion
from .models import (TrainedModel, TrainParams, check_field_types, fit_model, params_from_dict,
                     predict_model)
from .preprocess import PreprocessPlan, apply_preprocess, fit_preprocess
from .schema import FeatureSchema, parse_schema
from .unsw import REFERENCE_SUBSETS, UNSW_SCHEMA
from .wrapper import SearchTrace, best_first_search, subset_names

FS_METHODS = ("none", "wrapper") + FILTER_METHODS
# The bundled published subsets, as fs values: "ref-wrapper", "ref-infogain", ...
REFERENCE_FS = tuple(f"ref-{name}" for name in REFERENCE_SUBSETS)


class PipelineError(RuntimeError):
    """A stage failure, annotated with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one experiment cell, ``train_params`` too,
    each checked as the config is built, before any file is read."""

    train_path: str | None = None  # only commands that fit need it
    test_path: str | None = None  # only commands that score need it
    schema_path: str | None = None  # None uses the built-in UNSW-NB15 schema
    fs: str = "none"
    k: int = 19
    algorithm: str = "tree"
    params: dict = field(default_factory=dict)
    seed: int = 0
    subsample: float = 1.0
    bins: int = 10
    relief_neighbors: int = 10
    relief_sample: int | None = None
    folds: int = 5
    stop_after: int | None = 5
    epsilon: float = 1e-5
    positive_label: str = "1"
    dataset_name: str = ""

    def __post_init__(self):
        check_field_types(self, "config field", ValueError)
        if self.fs not in FS_METHODS + REFERENCE_FS:
            raise ValueError(
                f"unknown fs method {self.fs!r}; pick from {FS_METHODS + REFERENCE_FS}")
        if not (0.0 < self.subsample <= 1.0):
            raise ValueError(f"subsample must be in (0, 1], got {self.subsample}")
        for name, least in (("k", 1), ("seed", 0), ("bins", 2), ("relief_neighbors", 1),
                            ("relief_sample", 1), ("folds", 2), ("stop_after", 1),
                            ("epsilon", 0)):
            value = getattr(self, name)
            if value is not None and not value >= least:  # NaN fails too
                raise ValueError(f"{name} must be >= {least}, got {value}")
        self.train_params  # noqa: B018 -- checks algorithm and params

    @property
    def train_params(self) -> TrainParams:
        """The model settings every stage reads, the wrapper's merit trees too."""
        return params_from_dict(self.algorithm, self.params, seed=self.seed)

    @property
    def name(self) -> str:
        """``dataset_name``, else the training file's stem, else the test file's."""
        return self.dataset_name or Path(self.train_path or self.test_path).stem


@dataclass(frozen=True)
class PipelineResult:
    """Everything one run produced, for reporting and for saving."""

    report: EvaluationReport
    selected_names: tuple[str, ...]  # in the method's own order
    model: TrainedModel
    plan: PreprocessPlan
    scores: FilterScores | None = None
    trace: SearchTrace | None = None


@contextmanager
def _stage(name: str):
    """Annotate an ``Exception`` with the stage; interrupts pass through."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def _schema(config: RunConfig) -> FeatureSchema:
    if config.schema_path is None:
        return UNSW_SCHEMA
    return parse_schema(Path(config.schema_path).read_text(encoding="utf-8"))


_NO_TEST = "a run that scores needs --test (or a test_path config field)"


def load_file(config: RunConfig, path: str | None) -> Dataset:
    """Load one of ``config``'s data files on its own; None is a missing test file."""
    with _stage("load"):
        if path is None:
            raise ValueError(_NO_TEST)
        return load_csv(path, _schema(config), positive_label=config.positive_label)


def load_splits(config: RunConfig) -> tuple[Dataset, Dataset, FeatureSchema]:
    """Load the train and test files, each on its own, under one parse of the schema.

    Each file numbers its categories in its own order; a fitted plan
    matches them by name. A missing path fails before either file loads.
    """
    if config.train_path is None:
        raise PipelineError("load", "a run that fits needs --train (or a train_path config field)")
    if config.test_path is None:
        raise PipelineError("load", _NO_TEST)
    with _stage("load"):
        schema = _schema(config)
        train, test = (load_csv(path, schema, positive_label=config.positive_label)
                       for path in (config.train_path, config.test_path))
    return train, test, schema


def select_features(
    train: Dataset, config: RunConfig
) -> tuple[tuple[int, ...], float, FilterScores | None, SearchTrace | None]:
    """Run the configured selection method on training data, timed.

    Returns the subset in the method's own order (rank order for filters,
    discovery order for the wrapper, column order for "none", published
    order for a reference subset).
    """
    with _stage("select"):
        if config.fs == "none":
            return tuple(range(len(train.columns))), 0.0, None, None
        if config.fs in REFERENCE_FS:
            names = REFERENCE_SUBSETS[config.fs.removeprefix("ref-")]
            return tuple(train.index_of(name) for name in names), 0.0, None, None
        started = time.perf_counter()
        if config.fs == "wrapper":
            subset, trace = best_first_search(
                train,
                folds=config.folds,
                stop_after=config.stop_after,
                epsilon=config.epsilon,
                seed=config.seed,
                min_leaf=config.train_params.min_leaf,
            )
            return subset, time.perf_counter() - started, None, trace
        scores = score_features(
            train,
            config.fs,
            bins=config.bins,
            neighbors=config.relief_neighbors,
            sample_count=config.relief_sample,
            seed=config.seed,
        )
        subset = scores.top(min(config.k, len(train.columns)))
        return subset, time.perf_counter() - started, scores, None


def subsampled(train: Dataset, config: RunConfig) -> Dataset:
    """``config``'s stratified subsample of ``train``, or ``train`` itself when
    it keeps every row. A pure function of the labels, ``subsample`` and
    ``seed``: each stage that needs it draws it again."""
    with _stage("subsample"):
        if config.subsample < 1.0:
            return stratified_subsample(train, config.subsample, config.seed)
        return train


def subsample_and_select(train: Dataset, config: RunConfig):
    """``(subsample, select_features(subsample, config))`` on ``subsampled(train, config)``."""
    train = subsampled(train, config)
    return train, select_features(train, config)


def fit_for_config(
    train: Dataset, subset, config: RunConfig
) -> tuple[PreprocessPlan, TrainedModel, float]:
    """The "train" stage: fit the preprocessing plan on ``subset`` of
    ``train``, then ``config``'s model on the encoded split.

    Models always see features in original column order; a selection's
    ranked order is reporting metadata only. Returns the plan, the model
    and the seconds both fits took together.
    """
    with _stage("train"):
        started = time.perf_counter()
        plan = fit_preprocess(train, sorted(subset))
        model = fit_model(apply_preprocess(plan, train), config.train_params)
        return plan, model, time.perf_counter() - started


def evaluate_model(
    plan: PreprocessPlan, model: TrainedModel, test: Dataset, *,
    dataset: str, fs_method: str, fs_seconds: float, train_seconds: float,
) -> EvaluationReport:
    """Replay ``plan`` on ``test``, predict, and score the predictions.

    ``eval_seconds`` covers the replay and the prediction; the selection
    and training times are the caller's.
    """
    with _stage("evaluate"):
        started = time.perf_counter()
        predictions = predict_model(model, apply_preprocess(plan, test))
        eval_seconds = time.perf_counter() - started
    return EvaluationReport(
        dataset=dataset,
        fs_method=fs_method,
        selected_count=len(plan.selected),
        algorithm=model.algorithm,
        cm=confusion(predictions, test.labels),
        fs_seconds=fs_seconds,
        train_seconds=train_seconds,
        eval_seconds=eval_seconds,
    )


def run_pipeline(config: RunConfig, splits: tuple[Dataset, Dataset] | None = None,
                 selection=None) -> PipelineResult:
    """Execute one full experiment cell and assemble its report.

    ``splits`` is a ``(train, test)`` pair already loaded for ``config``'s
    files, which a grid shares between its cells; by default both are loaded.
    ``selection`` is ``select_features``'s result on ``config``'s subsample
    of that train split, which a grid shares between the cells of one fs
    row; by default it is computed here.
    """
    train, test = splits if splits is not None else load_splits(config)[:2]
    train = subsampled(train, config)
    subset, fs_seconds, scores, trace = (
        selection if selection is not None else select_features(train, config))

    plan, model, train_seconds = fit_for_config(train, subset, config)

    report = evaluate_model(
        plan, model, test, dataset=config.name, fs_method=config.fs,
        fs_seconds=fs_seconds, train_seconds=train_seconds)

    return PipelineResult(
        report=report,
        selected_names=subset_names(train, subset),
        model=model,
        plan=plan,
        scores=scores,
        trace=trace,
    )
