"""Composite evaluation functions for demand-forecast model optimization.

The package covers the full experimental loop: dataset ingestion and
stratified sampling, temporal splits, classical forecasting models behind one
fit/predict interface, three hyperparameter optimizers, the two scoring
functions ``hef_score`` (the hierarchical composite) and ``maef_score`` (the
plain-MAE baseline), per-series significance testing, case counting, and
two-proportion Z summaries.
"""

from .errors import HefLabError
from .evaluation import hef_score, maef_score
from .metrics import MetricBundle, compute_bundle, gra, mae, mase, r2, rmse, rmsse
from .series import (
    Dataset,
    Frequency,
    Split,
    SplitRatio,
    TimeSeries,
    load_dataset_csv,
    sample_size,
    stratified_sample,
    temporal_split,
)

__version__ = "0.1.0"

__all__ = [
    "HefLabError",
    "TimeSeries",
    "Dataset",
    "Frequency",
    "Split",
    "SplitRatio",
    "temporal_split",
    "sample_size",
    "stratified_sample",
    "load_dataset_csv",
    "MetricBundle",
    "compute_bundle",
    "mae",
    "rmse",
    "r2",
    "gra",
    "rmsse",
    "mase",
    "hef_score",
    "maef_score",
    "__version__",
]
