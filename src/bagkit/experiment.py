"""Experiment driver: grid search, configuration runs, variance analysis, reports.

A configuration declares an ensemble shape (one of six types), its members,
the tasks to evaluate on, and a base seed. Running it per task means: pick
hyperparameters on the un-resampled training set, train every member (bagged
members on bootstrap samples derived from the base seed, the rest on the full
training set), apply per-member magnitude pruning, then soft-vote on the test
set. All randomness is derived up front from (base_seed, task, member index),
so results are identical across runs and execution schedules.

Work that depends on the task alone is done once per TaskData and shared by
every configuration run on it: each split's design matrix is built once per
feature space, and the grid search runs once per (model kind, feature
space). A bagged member trains on the rows of the training matrix that its
bootstrap sample draws, so no example is featurized twice in one feature
space. In a batch whose members were announced up front, members with the
same feature space, hyperparameters (seed included) and bootstrap sample
train once, and the shared model is dropped at its last use; pruning is
applied per member afterwards.

Members train in lockstep groups (`predictor._fit_many`), one loop per
(feature space, hidden size, epochs): a grid search's candidates, and a
configuration's members on one task that are not already trained. One width
rule caps a group: it stacks at most `_MAX_GROUP_PARAMS` parameters, so a
larger group is split, and a member larger than the cap trains alone. A
member trained in a group is bit-identical to the same member trained alone.

The variance protocol compares, per first-level bootstrap sample, one single
model against one ensemble whose members were trained on second-level
resamples of that same first-level sample. It trains as many first-level
samples per lockstep group as the width rule allows, each with its single
model and its m members, and holds only that group's models.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .ensemble import Ensemble, _vote_rows
from .errors import BagkitError, ConfigError, TrainingDiverged
from .ioutil import atomic_write_text
from .metrics import METRIC_NAMES, evaluate, mean_std
from .predictor import (
    FeatureSpec,
    Hyperparams,
    Model,
    _design_matrix,
    _expected_shapes,
    _fit_many,
    _forward_proba,
    _Rows,
    param_count,
)
from .prune import PruneSpec, prune_magnitude
from .resample import BootstrapPlan, _task_seed, bootstrap, derive_seed, make_plan

__all__ = [
    "MODEL_KINDS",
    "CONFIG_TYPE_LABELS",
    "DEFAULT_HYPER",
    "DEFAULT_SEARCH_SPACE",
    "MemberSpec",
    "EnsembleConfig",
    "TaskData",
    "ConfigResult",
    "VarianceReport",
    "grid_search",
    "run_config",
    "variance_analysis",
    "equivalence_group",
    "write_report",
    "write_variance_report",
    "sampling_manifest",
]

MODEL_KINDS = ("logreg", "mlp")

CONFIG_TYPE_LABELS = {
    "single": "Single Model",
    "homo": "Ensemble - Homogeneous Model Type",
    "homo_pruned": "Ensemble - Homogeneous Model Type (Pruned Models)",
    "hetero_same_family": "Ensemble - Heterogeneous Model Type - Same Model Family",
    "hetero_diff_family": "Ensemble - Heterogeneous Model Type - Different Model Families",
    "hetero_diff_family_pruned": (
        "Ensemble - Heterogeneous Model Type - Different Model Families (Pruned Models)"
    ),
}

DEFAULT_HYPER = {
    "logreg": Hyperparams(learning_rate=0.5, epochs=30, l2=1e-4, hidden_size=0, seed=0),
    "mlp": Hyperparams(learning_rate=0.5, epochs=40, l2=1e-4, hidden_size=16, seed=0),
}

# Hyperparameter search grid per model kind, tried in order; ties on the
# validation metric go to the earlier entry.
DEFAULT_SEARCH_SPACE = {
    kind: tuple(
        replace(DEFAULT_HYPER[kind], learning_rate=lr, l2=l2)
        for lr in (0.5, 0.1)
        for l2 in (1e-4, 0.0)
    )
    for kind in MODEL_KINDS
}

# The most parameters a lockstep group stacks (per-member parameters times
# members) before it is split; a member larger than this trains alone. At
# 2^18 the 60 logreg-256 fits of a variance run are one group, an MLP
# 1024x16 variance run with m = 10 keeps its groups of 11, and an 8192x32 MLP
# trains one member per group. Without a cap, that MLP run (n = 20) trains
# its 220 members in one group: peak memory went from 46 to 162 MB, and the
# run took 1.4 times as long.
_MAX_GROUP_PARAMS = 2**18


@dataclass(frozen=True)
class MemberSpec:
    """One ensemble member: model kind, feature space, optional overrides."""

    model_kind: str
    feature_spec: FeatureSpec = FeatureSpec()
    hyper_override: Hyperparams | None = None
    prune_fraction: float = 0.0
    bagged: bool = False

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model_kind {self.model_kind!r}, expected {MODEL_KINDS}")
        if not 0.0 <= self.prune_fraction <= 1.0:
            raise ConfigError(f"prune_fraction must be in [0, 1], got {self.prune_fraction}")
        if self.hyper_override is not None:
            hidden = self.hyper_override.hidden_size
            if self.model_kind == "logreg" and hidden != 0:
                raise ConfigError("logreg member requires hidden_size 0 in hyper_override")
            if self.model_kind == "mlp" and hidden == 0:
                raise ConfigError("mlp member requires hidden_size > 0 in hyper_override")

    def effective_hidden(self) -> int:
        if self.hyper_override is not None:
            return self.hyper_override.hidden_size
        return DEFAULT_HYPER[self.model_kind].hidden_size

    def arch_key(self) -> tuple:
        """Identity of the member's architecture, for homogeneity checks."""
        return (self.model_kind, self.feature_spec, self.effective_hidden())

    def describe(self) -> str:
        if self.model_kind == "mlp":
            desc = f"mlp-{self.feature_spec.dims}x{self.effective_hidden()}"
        else:
            desc = f"logreg-{self.feature_spec.dims}"
        if self.prune_fraction > 0:
            desc += f"-p{self.prune_fraction:g}"
        if self.bagged:
            desc += "-bag"
        return desc


@dataclass(frozen=True)
class EnsembleConfig:
    """Declarative description of one experiment configuration."""

    config_id: str
    config_type: str
    members: tuple[MemberSpec, ...]
    tasks: tuple[str, ...]
    base_seed: int

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        _validate_structure(self)


def _validate_structure(config: EnsembleConfig) -> None:
    """Assert the declared type's member constraints before any training."""
    cid = config.config_id
    if not cid:
        raise ConfigError("config_id must be non-empty")
    if config.config_type not in CONFIG_TYPE_LABELS:
        raise ConfigError(
            f"config {cid!r}: unknown config_type {config.config_type!r}, "
            f"expected one of {sorted(CONFIG_TYPE_LABELS)}"
        )
    if not config.tasks:
        raise ConfigError(f"config {cid!r}: needs at least one task")
    if not 0 <= config.base_seed < 2**64:
        raise ConfigError(
            f"config {cid!r}: base_seed must be in [0, 2**64), got {config.base_seed}"
        )
    members = config.members
    if not members:
        raise ConfigError(f"config {cid!r}: needs at least one member")

    ctype = config.config_type
    kinds = {m.model_kind for m in members}
    arches = {m.arch_key() for m in members}
    pruned = any(m.prune_fraction > 0 for m in members)

    if ctype == "single":
        if len(members) != 1:
            raise ConfigError(f"config {cid!r}: single type requires exactly 1 member")
        return
    if len(members) < 2:
        raise ConfigError(f"config {cid!r}: ensemble type {ctype!r} requires >= 2 members")
    if ctype in ("homo", "homo_pruned") and len(arches) != 1:
        raise ConfigError(f"config {cid!r}: homogeneous type requires identical members")
    if ctype == "hetero_same_family":
        if len(kinds) != 1:
            raise ConfigError(f"config {cid!r}: same-family type requires one model kind")
        if len(arches) < 2:
            raise ConfigError(
                f"config {cid!r}: same-family type requires >= 2 distinct architectures"
            )
    if ctype in ("hetero_diff_family", "hetero_diff_family_pruned") and len(kinds) < 2:
        raise ConfigError(
            f"config {cid!r}: different-family type requires >= 2 model kinds"
        )
    if ctype.endswith("pruned"):
        if not pruned:
            raise ConfigError(
                f"config {cid!r}: pruned type requires >= 1 member with prune_fraction > 0"
            )
    elif pruned:
        raise ConfigError(
            f"config {cid!r}: non-pruned type {ctype!r} has a member with prune_fraction > 0"
        )


@dataclass(frozen=True)
class TaskData:
    """A task's datasets plus its headline metric (accuracy or macro_f1).

    Also holds what a batch derives from the task alone and reuses across
    members and configurations: one design matrix per (split, feature space),
    one grid-search winner per (model kind, feature space), one variance plan,
    and each unpruned model that more than one announced member asks for,
    until the last of them has it. Each member prunes a copy. The rest lives
    as long as the TaskData. Models are trained in lockstep groups, one loop
    per (feature space, hidden size, epochs) within the width rule.
    """

    train: Dataset
    val: Dataset
    test: Dataset
    metric: str = "accuracy"
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.metric not in METRIC_NAMES:
            raise ConfigError(f"unknown task metric {self.metric!r}")

    def _matrix(self, split: str, spec: FeatureSpec) -> _Rows:
        """The design matrix of one split ("train", "val" or "test") in one feature space."""
        key = ("rows", split, spec)
        if key not in self._cache:
            self._cache[key] = _design_matrix(getattr(self, split), spec)
        return self._cache[key]

    def _searched(self, kind: str, spec: FeatureSpec) -> Hyperparams:
        """The grid-search winner for a model kind; a search that diverges is not kept."""
        key = ("search", kind, spec)
        if key not in self._cache:
            self._cache[key] = _search(
                DEFAULT_SEARCH_SPACE[kind],
                self._matrix("train", spec),
                self.train.labels(),
                self._matrix("val", spec),
                self.val.labels(),
                self.train.num_classes,
                self.metric,
                spec,
            )
        return self._cache[key]

    def _train(self, spec: FeatureSpec, fits) -> list[Model | TrainingDiverged]:
        """Models trained in lockstep, one per (hyperparameters, chain of bootstrap samples).

        Each sample of a chain addresses positions of the one before, so a
        chain composes into one array of training-matrix rows; the empty
        chain is every row. Nothing is kept.
        """
        row_sets = []
        for _, samples in fits:
            rows = np.arange(len(self.train))
            for sample in samples:
                rows = rows[np.array(sample.indices)]
            row_sets.append(rows)
        return _fit_groups(
            self._matrix("train", spec),
            self.train.labels(),
            self.train.num_classes,
            spec,
            [hyper for hyper, _ in fits],
            row_sets,
        )

    def _expect(self, spec: FeatureSpec, hyper: Hyperparams, sample_seed: int | None) -> None:
        """Announce one more batch member that will ask `_fitted` for this model."""
        key = ("uses", spec, hyper, sample_seed)
        self._cache[key] = self._cache.get(key, 0) + 1

    def _fitted(self, fits) -> list[Model | TrainingDiverged]:
        """Batch members' unpruned models, per (feature space, hyperparameters, sample seed).

        A sample seed of None is the full split. The fits not held train once
        each, in lockstep groups. A model is kept only while
        announced members still ask for it, and dropped at its last use; a
        model nobody announced is not kept, nor is a diverged fit.
        """
        models = {fit: self._cache.pop(("fit", *fit), None) for fit in dict.fromkeys(fits)}
        missing = [fit for fit, model in models.items() if model is None]
        for spec in dict.fromkeys(spec for spec, _, _ in missing):
            group = [fit for fit in missing if fit[0] == spec]
            chains = [
                (hyper, () if seed is None else (bootstrap(len(self.train), seed),))
                for _, hyper, seed in group
            ]
            models.update(zip(group, self._train(spec, chains)))
        for fit, model in models.items():
            asked = fits.count(fit)
            uses_left = self._cache.pop(("uses", *fit), asked) - asked
            if uses_left > 0 and isinstance(model, Model):
                self._cache[("fit", *fit)], self._cache[("uses", *fit)] = model, uses_left
        return [models[fit] for fit in fits]

    def _plan(self, n: int, m: int, base_seed: int) -> BootstrapPlan:
        """The variance protocol's two-level plan over the training split."""
        key = ("plan", n, m, base_seed)
        if key not in self._cache:
            self._cache[key] = make_plan(n, m, len(self.train), base_seed)
        return self._cache[key]


@dataclass(frozen=True)
class ConfigResult:
    config_id: str
    task_accuracy: dict[str, float]
    task_macro_f1: dict[str, float]
    avg_accuracy: float
    experiment_type: str
    models: tuple[str, ...]
    total_params: int


@dataclass(frozen=True)
class VarianceReport:
    """Per-task spread of n single models vs n m-member ensembles."""

    task: str
    model: str
    n: int
    m: int
    metric: str
    singles: tuple[float, ...]
    ensembles: tuple[float, ...]
    single_mean: float
    single_std: float
    ensemble_mean: float
    ensemble_std: float


def _argmax_predictions(model: Model, x: _Rows) -> np.ndarray:
    return np.argmax(_forward_proba(model, x), axis=1)


def grid_search(
    space,
    train: Dataset,
    val: Dataset,
    metric: str = "accuracy",
    feature_spec: FeatureSpec = FeatureSpec(),
) -> Hyperparams:
    """Pick the hyperparameter set whose fitted model scores best on validation.

    Candidates are tried in order; exact ties keep the earliest. A candidate
    whose training diverges is skipped.
    """
    return _search(
        space,
        _design_matrix(train, feature_spec),
        train.labels(),
        _design_matrix(val, feature_spec),
        val.labels(),
        train.num_classes,
        metric,
        feature_spec,
    )


def _search(
    space,
    x_train: _Rows,
    y_train: np.ndarray,
    x_val: _Rows,
    y_val: np.ndarray,
    num_classes: int,
    metric: str,
    feature_spec: FeatureSpec,
) -> Hyperparams:
    """The grid-search loop over design matrices and labels already built."""
    space = tuple(space)
    if not space:
        raise ConfigError("grid_search requires a non-empty hyperparameter space")
    if metric not in METRIC_NAMES:
        raise ConfigError(f"unknown metric {metric!r}")
    best: Hyperparams | None = None
    best_score = -np.inf
    rows = np.arange(x_train.shape[0])
    models = _fit_groups(x_train, y_train, num_classes, feature_spec, space, [rows] * len(space))
    for hyper, model in zip(space, models):
        if isinstance(model, TrainingDiverged):
            continue
        preds = _argmax_predictions(model, x_val)
        score = evaluate(preds, y_val, num_classes).metric(metric)
        if score > best_score:
            best, best_score = hyper, score
    if best is None:
        raise TrainingDiverged("every candidate in the hyperparameter space diverged")
    return best


def _member_params(spec: FeatureSpec, hidden_size: int, num_classes: int) -> int:
    """Parameters of one member: the width a member adds to a lockstep group."""
    return sum(_expected_shapes(spec, hidden_size, num_classes).values())


def _fit_groups(
    x: _Rows, y: np.ndarray, num_classes: int, spec: FeatureSpec, hypers, row_sets
) -> list[Model | TrainingDiverged]:
    """`_fit_many` over members that may differ in hidden size or epochs.

    One lockstep loop per (hidden size, epochs), split into loops of
    ``_MAX_GROUP_PARAMS // member parameters`` members (at least one), so a
    loop stacks at most that many parameters unless it trains one member.
    Outcomes come in the members' order.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, hyper in enumerate(hypers):
        groups.setdefault((hyper.hidden_size, hyper.epochs), []).append(i)
    outcomes: list = [None] * len(hypers)
    for (hidden, _), group in groups.items():
        width = max(1, _MAX_GROUP_PARAMS // _member_params(spec, hidden, num_classes))
        for at in range(0, len(group), width):
            chunk = group[at : at + width]
            trained = _fit_many(
                x, y, num_classes, spec, [hypers[i] for i in chunk], [row_sets[i] for i in chunk]
            )
            for i, outcome in zip(chunk, trained):
                outcomes[i] = outcome
    return outcomes


def _member_seeds(config: EnsembleConfig, task: str) -> tuple[int, list[int | None]]:
    """The full-data seed and, per member, its bootstrap sample seed or None.

    Full-data members share one seed, so identical members are one model,
    trained once per TaskData.
    """
    task_seed = _task_seed(config.base_seed, task)
    sample_seeds = [
        derive_seed(task_seed, 1, k) if member.bagged else None
        for k, member in enumerate(config.members)
    ]
    return derive_seed(task_seed, 0, 0), sample_seeds


def _pruned(model: Model, member: MemberSpec) -> Model:
    """The member's pruned copy of a model, or the model itself if it prunes nothing."""
    if member.prune_fraction > 0:
        return prune_magnitude(model, PruneSpec(member.prune_fraction))
    return model


def _test_vote(models: list[Model], task_data: TaskData) -> np.ndarray:
    """Soft-vote winners of the models on the task's test split."""
    voters = Ensemble(members=tuple(models), num_classes=task_data.test.num_classes)
    member_probs = [_forward_proba(m, task_data._matrix("test", m.spec)) for m in voters.members]
    winners, _ = _vote_rows(voters, member_probs)
    return winners


def _member_fits(config: EnsembleConfig, task: str, task_data: TaskData):
    """Per member: feature space, hyperparameters (seed included), sample seed or None."""
    full_data_seed, sample_seeds = _member_seeds(config, task)
    for member, sample_seed in zip(config.members, sample_seeds):
        hyper = member.hyper_override or task_data._searched(member.model_kind, member.feature_spec)
        seed = full_data_seed if sample_seed is None else sample_seed
        yield member.feature_spec, replace(hyper, seed=seed), sample_seed


def _expect_fits(configs, data: dict[str, TaskData]) -> None:
    """Announce every member of a batch to its TaskData before the batch runs.

    Then a model that several members share trains once and is dropped at
    its last use. A configuration with an unknown task or a diverging grid
    search announces nothing: it fails before any of its members train.
    """
    for config in configs:
        if not all(task in data for task in config.tasks):
            continue
        try:
            fits = [
                (data[task], fit) for task in config.tasks
                for fit in _member_fits(config, task, data[task])
            ]
        except TrainingDiverged:
            continue
        for task_data, fit in fits:
            task_data._expect(*fit)


def _train_members(
    config: EnsembleConfig, task: str, task_data: TaskData
) -> list[Model]:
    fitted = task_data._fitted(list(_member_fits(config, task, task_data)))
    models: list[Model] = []
    for k, (member, model) in enumerate(zip(config.members, fitted)):
        if isinstance(model, TrainingDiverged):
            raise TrainingDiverged(
                f"config {config.config_id!r}, task {task!r}, member {k}: {model}"
            ) from model
        models.append(_pruned(model, member))
    return models


def run_config(config: EnsembleConfig, data: dict[str, TaskData]) -> ConfigResult:
    """Train, prune, vote, and evaluate one configuration on all its tasks."""
    missing = [t for t in config.tasks if t not in data]
    if missing:
        raise ConfigError(f"config {config.config_id!r}: unknown tasks {missing}")

    task_accuracy: dict[str, float] = {}
    task_macro_f1: dict[str, float] = {}
    total_params = 0
    for task in config.tasks:
        task_data = data[task]
        models = _train_members(config, task, task_data)
        winners = _test_vote(models, task_data)
        result = evaluate(winners, task_data.test.labels(), task_data.test.num_classes)
        task_accuracy[task] = result.accuracy
        if task_data.metric == "macro_f1":
            task_macro_f1[task] = result.macro_f1
        # Output heads differ across tasks with different class counts;
        # report the largest task's footprint as the configuration size.
        total_params = max(total_params, sum(param_count(m) for m in models))

    return ConfigResult(
        config_id=config.config_id,
        task_accuracy=task_accuracy,
        task_macro_f1=task_macro_f1,
        avg_accuracy=float(np.mean(list(task_accuracy.values()))),
        experiment_type=CONFIG_TYPE_LABELS[config.config_type],
        models=tuple(m.describe() for m in config.members),
        total_params=total_params,
    )


def variance_analysis(
    task_data: TaskData,
    member: MemberSpec,
    n: int,
    m: int,
    base_seed: int,
    task_name: str = "task",
) -> VarianceReport:
    """Run the two-level resampling protocol and report both spreads.

    For each of the n first-level bootstrap samples: train one single model
    on it, and one m-member ensemble on its second-level resamples, so both
    sides of comparison i saw only data reachable through first-level sample
    i. Everyone is scored on the fixed test set.
    """
    if n < 2:
        raise ConfigError(f"variance analysis requires n >= 2, got {n}")
    plan = task_data._plan(n, m, base_seed)
    hyper_base = member.hyper_override or DEFAULT_HYPER[member.model_kind]
    test_labels = task_data.test.labels()
    num_classes = task_data.test.num_classes
    x_test = task_data._matrix("test", member.feature_spec)
    # As many first-level samples per lockstep group as the width rule allows,
    # each sample's single model and m ensemble members counted.
    samples = list(zip(plan.first_level, plan.second_level))
    params = _member_params(member.feature_spec, hyper_base.hidden_size, num_classes)
    per_group = max(1, _MAX_GROUP_PARAMS // ((m + 1) * params))

    singles: list[float] = []
    ensembles: list[float] = []
    for at in range(0, n, per_group):
        # Per first-level sample, the single model, then its ensemble's
        # members, each seeded by the last sample of its chain. Only this
        # group's models are held.
        fits = [
            (replace(hyper_base, seed=chain[-1].seed), chain)
            for first, second in samples[at : at + per_group]
            for chain in [(first,)] + [(first, s) for s in second]
        ]
        models = task_data._train(member.feature_spec, fits)
        for model in models:
            if isinstance(model, TrainingDiverged):
                raise model
        for i in range(0, len(models), m + 1):
            single, *ensemble = (_pruned(model, member) for model in models[i : i + m + 1])
            preds = _argmax_predictions(single, x_test)
            singles.append(evaluate(preds, test_labels, num_classes).metric(task_data.metric))
            winners = _test_vote(ensemble, task_data)
            ensembles.append(evaluate(winners, test_labels, num_classes).metric(task_data.metric))

    single_mean, single_std = mean_std(singles)
    ensemble_mean, ensemble_std = mean_std(ensembles)
    return VarianceReport(
        task=task_name,
        model=member.describe(),
        n=n,
        m=m,
        metric=task_data.metric,
        singles=tuple(singles),
        ensembles=tuple(ensembles),
        single_mean=single_mean,
        single_std=single_std,
        ensemble_mean=ensemble_mean,
        ensemble_std=ensemble_std,
    )


def equivalence_group(total_params: int, baselines) -> int | None:
    """Nearest baseline whose ±10% band contains total_params, else None.

    Distance ties between qualifying baselines go to the smaller baseline.
    """
    baselines = list(baselines)
    if not baselines or any(b <= 0 for b in baselines):
        raise BagkitError("baselines must be a non-empty collection of positive counts")
    qualifying = [b for b in sorted(baselines) if abs(total_params - b) <= 0.10 * b]
    if not qualifying:
        return None
    return min(qualifying, key=lambda b: abs(total_params - b))


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def write_report(results, path) -> None:
    """Write the results CSV: rows sorted by average accuracy (desc), then config_id.

    Columns: config_id; per task (sorted) an accuracy column, immediately
    followed by a macro-F1 column for tasks scored on macro-F1; then
    avg_accuracy, experiment_type, models, total_params.
    """
    results = list(results)
    if not results:
        raise BagkitError("write_report requires at least one result")

    tasks = sorted({t for r in results for t in r.task_accuracy})
    f1_tasks = {t for r in results for t in r.task_macro_f1}
    header = ["config_id"]
    for task in tasks:
        header.append(f"{task}_acc")
        if task in f1_tasks:
            header.append(f"{task}_macro_f1")
    header += ["avg_accuracy", "experiment_type", "models", "total_params"]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for result in sorted(results, key=lambda r: (-r.avg_accuracy, r.config_id)):
        row = [result.config_id]
        for task in tasks:
            acc = result.task_accuracy.get(task)
            row.append(_fmt(acc) if acc is not None else "")
            if task in f1_tasks:
                f1 = result.task_macro_f1.get(task)
                row.append(_fmt(f1) if f1 is not None else "")
        row += [
            _fmt(result.avg_accuracy),
            result.experiment_type,
            ", ".join(result.models),
            str(result.total_params),
        ]
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def write_variance_report(report: VarianceReport, path) -> None:
    """Write one variance report: raw per-sample values plus summary rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["task", "model", "n", "m", "metric", "kind", "index", "value"])
    fixed = [report.task, report.model, str(report.n), str(report.m), report.metric]
    for kind, values in (("single", report.singles), ("ensemble", report.ensembles)):
        for idx, value in enumerate(values):
            writer.writerow(fixed + [kind, str(idx), _fmt(value)])
    for kind, value in (
        ("single_mean", report.single_mean),
        ("single_std", report.single_std),
        ("ensemble_mean", report.ensemble_mean),
        ("ensemble_std", report.ensemble_std),
    ):
        writer.writerow(fixed + [kind, "", _fmt(value)])
    atomic_write_text(path, buf.getvalue())


def sampling_manifest(configs, data: dict[str, TaskData]) -> dict:
    """Re-derive every bootstrap seed a batch will use, for the run manifest.

    Pure function of (configs, dataset sizes): entry k of a config/task pair
    is the sample seed for member k, or None for full-data members.
    """
    entries = []
    for config in configs:
        for task in config.tasks:
            if task not in data:
                continue
            full_data_seed, sample_seeds = _member_seeds(config, task)
            entries.append(
                {
                    "config_id": config.config_id,
                    "task": task,
                    "dataset_size": len(data[task].train),
                    "full_data_seed": full_data_seed,
                    "member_sample_seeds": sample_seeds,
                }
            )
    return {"format": "bagkit-run-manifest-v1", "entries": entries}
