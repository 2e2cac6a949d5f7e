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

Members train in lockstep loops (`predictor._fit_many`). Members that share
hidden size, epochs, row count and class count may share a loop, whatever
their feature spaces or tasks: a smaller member is padded with zeros to the
loop's widest. A batch runs every grid search it needs up front, all
candidates of every task together; then each configuration's members on a
task train in loops that also take the task's fits announced for later
configurations. One width rule (`_loops`) forms the loops: a loop stacks at
most `_MAX_GROUP_PARAMS` parameters, so a larger group is split and a member
larger than the cap trains alone, and a join may add at most `_MAX_PADDING`
padded parameters. A member trained in a loop is bit-identical to the same
member trained alone.

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
    _Member,
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

# The most padded parameters one join may add to a lockstep loop (`_joins`):
# about what one loop's fixed cost per step buys, since each step also passes
# over every padded parameter. Measured on single_large's task (24,000 rows,
# bigrams, one epoch; process time, median of 5, 2 cores, one BLAS thread), a
# logreg-512 member joined to a wider logreg loop, against two loops: 0.177
# against 0.239 s with logreg-2048 (3k padded), 0.203 against 0.242 s with
# 8192 (15k), 0.286 against 0.267 s with 16384 (32k) and 0.450 against
# 0.239 s with 32768 (65k).
_MAX_PADDING = 2**15


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
    one label array per split, one grid-search winner per (model kind,
    feature space), one variance plan, and each unpruned model that announced
    members ask for, until the last of them has it. Each member prunes a
    copy. The rest lives as long as the TaskData. A loop that trains the fits
    one configuration asks for also trains the task's other announced fits
    that fit in it, so later configurations find them held.
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

    def _labels(self, split: str) -> np.ndarray:
        """The labels of one split, built once: every lockstep member shares them."""
        key = ("labels", split)
        if key not in self._cache:
            self._cache[key] = getattr(self, split).labels()
        return self._cache[key]

    def _search_request(self, kind: str, spec: FeatureSpec) -> tuple:
        """The `_search` request for a model kind's grid search in one feature space."""
        return (
            DEFAULT_SEARCH_SPACE[kind],
            self._matrix("train", spec),
            self._labels("train"),
            self._matrix("val", spec),
            self._labels("val"),
            self.train.num_classes,
            self.metric,
            spec,
        )

    def _searched(self, kind: str, spec: FeatureSpec) -> Hyperparams:
        """The grid-search winner for a model kind; a search that diverges is not kept."""
        (winner,) = _searched_all([(self, kind, spec)])
        if isinstance(winner, TrainingDiverged):
            raise winner
        return winner

    def _member(self, spec: FeatureSpec, hyper: Hyperparams, samples=()) -> _Member:
        """A lockstep member on the rows of the training matrix a chain of samples draws.

        Each sample of a chain addresses positions of the one before, so a
        chain composes into one array of training-matrix rows; the empty
        chain is every row.
        """
        rows = np.arange(len(self.train))
        for sample in samples:
            rows = rows[np.array(sample.indices)]
        return _Member(
            self._matrix("train", spec), self._labels("train"), self.train.num_classes, spec,
            hyper, rows,
        )

    def _train(self, spec: FeatureSpec, fits) -> list[Model | TrainingDiverged]:
        """Models trained in lockstep, one per (hyperparameters, chain of bootstrap samples).

        Nothing is kept.
        """
        outcomes: list = [None] * len(fits)
        for i, outcome in _fit_groups([self._member(spec, *fit) for fit in fits]):
            outcomes[i] = outcome
        return outcomes

    def _expect(self, spec: FeatureSpec, hyper: Hyperparams, sample_seed: int | None) -> None:
        """Announce one more batch member that will ask `_fitted` for this model."""
        key = ("uses", spec, hyper, sample_seed)
        self._cache[key] = self._cache.get(key, 0) + 1

    def _fitted(self, fits) -> list[Model | TrainingDiverged]:
        """Batch members' unpruned models, per (feature space, hyperparameters, sample seed).

        A sample seed of None is the full split. The fits not held train once
        each, in lockstep loops (`_loops`), and each loop also takes the
        announced fits not held yet that it has room for, nearest first in
        announcement order; it holds them with their announced uses. An
        outcome, a model or a divergence, is kept only while announced
        members still ask for it, and dropped at its last use; an outcome
        nobody announced is not kept.
        """
        models = {fit: self._cache.pop(("fit", *fit), None) for fit in dict.fromkeys(fits)}
        missing = [fit for fit, model in models.items() if model is None]
        if missing:
            n = len(self.train)
            ahead = [  # announced, neither asked for now nor held
                key[1:] for key in self._cache
                if key[0] == "uses" and key[1:] not in models
                and ("fit", *key[1:]) not in self._cache
            ]
            everyone = missing + ahead
            shapes = [_shape(spec, hyper, n, self.train.num_classes) for spec, hyper, _ in everyone]
            for loop in _loops(shapes[: len(missing)], shapes[len(missing) :]):
                members = [
                    self._member(spec, hyper, () if seed is None else (bootstrap(n, seed),))
                    for spec, hyper, seed in (everyone[i] for i in loop)
                ]
                for i, model in zip(loop, _fit_many(members)):
                    if i < len(missing):
                        models[everyone[i]] = model
                    else:
                        self._cache[("fit", *everyone[i])] = model
        for fit, model in models.items():
            asked = fits.count(fit)
            uses_left = self._cache.pop(("uses", *fit), asked) - asked
            if uses_left > 0:
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
    request = (
        tuple(space),
        _design_matrix(train, feature_spec),
        train.labels(),
        _design_matrix(val, feature_spec),
        val.labels(),
        train.num_classes,
        metric,
        feature_spec,
    )
    (winner,) = _search([request])
    if isinstance(winner, TrainingDiverged):
        raise winner
    return winner


def _search(requests) -> list[Hyperparams | TrainingDiverged]:
    """The grid-search loop: per request its winner, or the error if every candidate diverged.

    A request is ``(space, x_train, y_train, x_val, y_val, num_classes,
    metric, spec)`` over design matrices already built. Every candidate of
    every request trains through `_fit_groups`, so the searches of several
    tasks and feature spaces share lockstep loops, and each model is scored
    on its own request's validation matrix as its loop ends. The winner has
    the best score; exact ties go to the earlier candidate, and a candidate
    whose training diverges is skipped.
    """
    members, owners = [], []
    for r, (space, x_train, y_train, _, _, num_classes, metric, spec) in enumerate(requests):
        if not space:
            raise ConfigError("grid_search requires a non-empty hyperparameter space")
        if metric not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {metric!r}")
        rows = np.arange(x_train.shape[0])
        members += (_Member(x_train, y_train, num_classes, spec, h, rows) for h in space)
        owners += ((r, c) for c in range(len(space)))
    best: dict[int, tuple[float, int]] = {}  # request -> (score, -candidate)
    for i, model in _fit_groups(members):
        if isinstance(model, TrainingDiverged):
            continue
        r, c = owners[i]
        _, _, _, x_val, y_val, num_classes, metric, _ = requests[r]
        score = evaluate(_argmax_predictions(model, x_val), y_val, num_classes).metric(metric)
        best[r] = max(best.get(r, (score, -c)), (score, -c))
    return [
        requests[r][0][-best[r][1]] if r in best
        else TrainingDiverged("every candidate in the hyperparameter space diverged")
        for r in range(len(requests))
    ]


def _searched_all(wanted) -> list[Hyperparams | TrainingDiverged]:
    """Grid-search winners per (TaskData, model kind, feature space), in one `_search`.

    A winner already held is reused; the others are searched together and
    kept in their TaskData. A search that diverges is not kept.
    """
    held = [data._cache.get(("search", kind, spec)) for data, kind, spec in wanted]
    todo = [want for want, winner in zip(wanted, held) if winner is None]
    found = iter(_search([data._search_request(kind, spec) for data, kind, spec in todo])
                 if todo else ())
    winners = []
    for (data, kind, spec), winner in zip(wanted, held):
        if winner is None:
            winner = next(found)
            if not isinstance(winner, TrainingDiverged):
                data._cache[("search", kind, spec)] = winner
        winners.append(winner)
    return winners


def _member_params(spec: FeatureSpec, hidden_size: int, num_classes: int) -> int:
    """Parameters of one member: the width a member adds to a lockstep group."""
    return sum(_expected_shapes(spec, hidden_size, num_classes).values())


def _shape(spec: FeatureSpec, hyper: Hyperparams, rows: int, num_classes: int) -> tuple:
    """A member's lockstep key (the loops it may join) and its parameter count."""
    key = (hyper.hidden_size, hyper.epochs, rows, num_classes)
    return key, _member_params(spec, hyper.hidden_size, num_classes)


def _loops(shapes, extras=()) -> list[list[int]]:
    """The width rule: the lockstep loops of members, as indices into ``shapes`` then ``extras``.

    ``shapes`` and ``extras`` hold each member's `_shape`. Members share a
    loop only under one key. Within a key, the members of one size train
    together, in loops of ``_MAX_GROUP_PARAMS // size`` members (at least
    one). Sizes go largest first, and the members of a size join the loop
    before them, padded to its width, if `_joins` allows. Then each extra,
    in order, joins the first loop of its key that `_joins` allows; no loop
    trains extras alone.
    """
    by_key: dict = {}
    for i, (key, size) in enumerate(shapes):
        by_key.setdefault(key, {}).setdefault(size, []).append(i)
    loops: list[list] = []  # [key, width, member indices]
    for key, sizes in by_key.items():
        for size in sorted(sizes, reverse=True):
            group = sizes[size]
            if loops and loops[-1][0] == key and _joins(loops[-1], size, len(group)):
                loops[-1][2] += group
                continue
            per = max(1, _MAX_GROUP_PARAMS // size)
            loops += ([key, size, group[at : at + per]] for at in range(0, len(group), per))
    for j, (key, size) in enumerate(extras, len(shapes)):
        loop = next((loop for loop in loops if loop[0] == key and _joins(loop, size, 1)), None)
        if loop is not None:
            loop[1] = max(loop[1], size)
            loop[2].append(j)
    return [members for _, _, members in loops]


def _joins(loop: list, size: int, count: int) -> bool:
    """Whether ``count`` members of ``size`` parameters may join a loop.

    The loop then stacks at most `_MAX_GROUP_PARAMS` parameters, and the
    join adds at most `_MAX_PADDING` padded ones: the smaller members'
    shortfall from the loop's widest, or the loop's members' from a wider
    newcomer.
    """
    _, width, members = loop
    padded = (len(members) + count) * max(width, size)
    added = padded - len(members) * width - count * size
    return padded <= _MAX_GROUP_PARAMS and added <= _MAX_PADDING


def _fit_groups(members):
    """`_fit_many` over members that may differ in anything: (index, outcome) per member.

    The members train in the lockstep loops of the width rule (`_loops`),
    and each loop's outcomes are yielded as it ends.
    """
    shapes = [_shape(m.spec, m.hyper, len(m.rows), m.num_classes) for m in members]
    for loop in _loops(shapes):
        yield from zip(loop, _fit_many([members[i] for i in loop]))


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
    """Search for, then announce, every member of a batch before the batch runs.

    Every grid search the batch's configurations need runs first, all in
    one `_search`. Then each member is announced to its TaskData, so a model
    that several members share trains once and is dropped at its last use,
    and a loop can train models announced for later configurations. A
    configuration with an unknown task or a diverging grid search announces
    nothing: it fails before any of its members train.
    """
    configs = [c for c in configs if all(task in data for task in c.tasks)]
    wanted = {
        (task, m.model_kind, m.feature_spec): (data[task], m.model_kind, m.feature_spec)
        for config in configs
        for task in config.tasks
        for m in config.members
        if m.hyper_override is None
    }
    diverged = {
        want for want, winner in zip(wanted, _searched_all(list(wanted.values())))
        if isinstance(winner, TrainingDiverged)
    }
    for config in configs:
        if any((task, m.model_kind, m.feature_spec) in diverged
               for task in config.tasks for m in config.members):
            continue
        for task in config.tasks:
            for fit in _member_fits(config, task, data[task]):
                data[task]._expect(*fit)


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
