"""bagkit: bagging, pruning, and soft-vote ensembling for small text classifiers.

Pipeline pieces, bottom up: datasets (load/split), resample (seeded bootstrap
samples and two-level plans), predictor (hashed n-gram logistic regression
and MLP), prune (magnitude pruning), ensemble (equal-weighted soft vote),
metrics (accuracy, macro-F1, mean/std), experiment (config runs, variance
analysis, reports), cli (batch front end).
"""

from .dataset import Dataset, Example, SplitSpec, load_jsonl, split
from .ensemble import Ensemble, predict, predict_dataset, soft_vote
from .errors import BagkitError, ConfigError, DataError, TrainingDiverged
from .experiment import (
    ConfigResult,
    EnsembleConfig,
    MemberSpec,
    TaskData,
    VarianceReport,
    equivalence_group,
    grid_search,
    run_config,
    variance_analysis,
    write_report,
    write_variance_report,
)
from .metrics import EvalResult, accuracy, evaluate, macro_f1, mean_std
from .predictor import (
    FeatureSpec,
    Hyperparams,
    Model,
    featurize,
    fit,
    initialize,
    load_model,
    param_count,
    predict_proba,
    predict_proba_dataset,
    save_model,
    training_loss,
)
from .prune import PruneSpec, prune_magnitude, sparsity
from .resample import (
    BootstrapPlan,
    BootstrapSample,
    bootstrap,
    derive_seed,
    make_plan,
    materialize,
    plan_from_manifest,
    plan_to_manifest,
)

__all__ = [
    "BagkitError",
    "BootstrapPlan",
    "BootstrapSample",
    "ConfigError",
    "ConfigResult",
    "DataError",
    "Dataset",
    "Ensemble",
    "EnsembleConfig",
    "EvalResult",
    "Example",
    "FeatureSpec",
    "Hyperparams",
    "MemberSpec",
    "Model",
    "PruneSpec",
    "SplitSpec",
    "TaskData",
    "TrainingDiverged",
    "VarianceReport",
    "accuracy",
    "bootstrap",
    "derive_seed",
    "equivalence_group",
    "evaluate",
    "featurize",
    "fit",
    "grid_search",
    "initialize",
    "load_jsonl",
    "load_model",
    "macro_f1",
    "make_plan",
    "materialize",
    "mean_std",
    "param_count",
    "plan_from_manifest",
    "plan_to_manifest",
    "predict",
    "predict_dataset",
    "predict_proba",
    "predict_proba_dataset",
    "prune_magnitude",
    "run_config",
    "save_model",
    "soft_vote",
    "sparsity",
    "split",
    "training_loss",
    "variance_analysis",
    "write_report",
    "write_variance_report",
]

__version__ = "0.1.0"
