"""Feature selection and intrusion detection modeling toolkit.

Builds binary traffic classifiers over typed CSV datasets: filter and
wrapper feature selection, fitted preprocessing plans, six classifier
families, and a hold-out evaluation harness reporting accuracy, detection
rate and false alarm rate with per-stage timings.
"""

from .dataset import Column, Dataset, DatasetError, load_csv, stratified_subsample
from .filters import (
    FilterScores,
    entropy,
    gain_ratio,
    info_gain,
    relief_weights,
    score_features,
)
from .metrics import (
    ConfusionMatrix,
    EvaluationReport,
    MetricsError,
    accuracy,
    confusion,
    detection_rate,
    false_alarm_rate,
)
from .models import (
    ModelError,
    TrainedModel,
    TrainParams,
    fit_model,
    model_from_json,
    model_to_json,
    predict_model,
)
from .pipeline import PipelineError, PipelineResult, RunConfig, run_pipeline
from .preprocess import (
    PreprocessPlan,
    apply_preprocess,
    fit_preprocess,
    plan_from_json,
    plan_to_json,
)
from .schema import FeatureSchema, SchemaError, parse_schema
from .wrapper import SearchTrace, best_first_search, stratified_folds, wrapper_merit

__version__ = "0.1.0"

__all__ = [
    "Column",
    "ConfusionMatrix",
    "Dataset",
    "DatasetError",
    "EvaluationReport",
    "FeatureSchema",
    "FilterScores",
    "MetricsError",
    "ModelError",
    "PipelineError",
    "PipelineResult",
    "PreprocessPlan",
    "RunConfig",
    "SchemaError",
    "SearchTrace",
    "TrainParams",
    "TrainedModel",
    "accuracy",
    "apply_preprocess",
    "best_first_search",
    "confusion",
    "detection_rate",
    "entropy",
    "false_alarm_rate",
    "fit_model",
    "fit_preprocess",
    "gain_ratio",
    "info_gain",
    "load_csv",
    "model_from_json",
    "model_to_json",
    "parse_schema",
    "plan_from_json",
    "plan_to_json",
    "predict_model",
    "relief_weights",
    "run_pipeline",
    "score_features",
    "stratified_folds",
    "stratified_subsample",
    "wrapper_merit",
]
