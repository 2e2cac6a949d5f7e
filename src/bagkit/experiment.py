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
space.

All training goes through one schedule per command. A consumer is one
scoring step (a grid search, a configuration on a task, or a variance
sample) and reads fits: a task, feature space, hyperparameters (seed
included) and chain of bootstrap samples, so members that agree on all four
read one model. The planner (`_schedule`) walks the consumers in order and
lists lockstep loops by one placement rule: a consumer's fits that no loop
trains yet go one at a time into the first of its new loops with their key
and room, or open one, and each later consumer of its task puts its
unplaced fits of one key, all together, into the first of those loops with
room, or keeps them for its own turn. The executor (`_run_schedule`) trains
the loops in order, scores each consumer once its fits are held, and drops
each fit at its last use. A batch runs its grid searches first, in one
`_search`, since members take their hyperparameters from the winners;
`run_config` is a batch of one.

Every score is one soft vote (`_evaluate`) on a split's cached design
matrices: a search candidate votes alone on the validation split, and a
configuration's members, a variance sample's single model and its ensemble
each vote on the test split. A vote of one model is its argmax.

Members that share hidden size, epochs, row count and class count (their
key, `predictor._lockstep_key`) may share a loop (`predictor._fit_many`),
whatever their feature spaces or tasks; the loop stacks each member at its
own size. A loop stacks at most `_MAX_GROUP_PARAMS` parameters, so a larger
group is split, and a member larger than the cap trains alone. A member
trained in a loop is bit-identical to the same member trained alone.

The variance protocol compares, per first-level bootstrap sample, one single
model against one ensemble whose members were trained on second-level
resamples of that same first-level sample. Each sample's single model and m
members share a loop with as many other samples as the cap allows.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .ensemble import Ensemble, _vote
from .errors import BagkitError, ConfigError, TrainingDiverged
from .ioutil import atomic_write_text
from .metrics import METRIC_NAMES, EvalResult, evaluate, mean_std
from .predictor import (
    FeatureSpec,
    Hyperparams,
    Model,
    _design_matrix,
    _expected_shapes,
    _fit_many,
    _forward_proba,
    _lockstep_key,
    _Member,
    _Rows,
    param_count,
)
from .prune import PruneSpec, prune_magnitude
from .resample import _draw, _plan_seeds, _task_seed, derive_seed

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

# The most parameters a lockstep loop stacks, counted member by member at
# each one's real size: the planner puts fits into a loop only while it stays
# within this, so a member larger than this trains alone. At 2^18 the 60
# logreg-256 fits of a variance run are one loop, an MLP 1024x16 variance run
# with m = 10 keeps its loops of 11, and an 8192x32 MLP trains one member per
# loop. Without a cap, that MLP run (n = 20) trains its 220 members in one
# loop: peak memory went from 46 to 162 MB, and the run took 1.4 times as long.
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
            if self.hyper_override.seed != 0:
                raise ConfigError(
                    f"hyper_override seed must be 0, got {self.hyper_override.seed}: "
                    "member seeds derive from base_seed"
                )
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
    for k, task in enumerate(config.tasks):
        if task in config.tasks[:k]:
            raise ConfigError(f"config {cid!r}: duplicate task {task!r}")
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

    Also keeps what a run derives from the task alone and reuses across
    members and configurations, for as long as the TaskData lives: one
    design matrix per (split, feature space), one label array per split, one
    grid-search winner per (model kind, feature space). Trained models are
    not kept here: a schedule holds each only until its last use
    (`_run_schedule`).
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

    def _member(self, fit: _Fit) -> _Member:
        """The lockstep member of a fit, on the training-matrix rows its chain of samples draws.

        Each sample of a chain addresses positions of the one before.
        """
        rows = np.arange(len(self.train))
        for seed in fit.chain:
            rows = rows[_draw(len(rows), seed)]
        return _Member(
            self._matrix("train", fit.spec), self._labels("train"), self.train.num_classes,
            fit.spec, fit.hyper, rows,
        )


class _Fit(NamedTuple):
    """One model to train: task, feature space, hyperparameters (seed included), chain.

    ``chain`` holds the seeds of the bootstrap samples the rows are drawn
    through (`TaskData._member`); the empty chain is the full split.
    """

    task: str
    spec: FeatureSpec
    hyper: Hyperparams
    chain: tuple[int, ...] = ()


class _Consumer(NamedTuple):
    """One scoring step of a schedule: its owner, its task, and the fits it reads, in order.

    A batch's consumer is a (configuration, task) pair, a variance run's a
    first-level sample, and a grid search's a request, with task None: every
    search fills the others' loops, other consumers only their task's.
    """

    owner: int
    task: str | None
    fits: tuple[_Fit, ...]


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
    if metric not in METRIC_NAMES:
        raise ConfigError(f"unknown metric {metric!r}")
    task = TaskData(train=train, val=val, test=val, metric=metric)  # the test split is not read
    (winner,) = _search([("task", tuple(space), feature_spec)], {"task": task})
    if isinstance(winner, BagkitError):
        raise winner
    return winner


def _search(requests, data: dict[str, TaskData]) -> list[Hyperparams | BagkitError]:
    """The grid-search phase: per request, in order, its winner or the error it failed with.

    A request is ``(task, space, spec)``. Every candidate trains in one
    schedule and is scored on its task's validation split (`_evaluate`). The
    winner has the best score; exact ties go to the earlier candidate, and a
    candidate whose training diverges is skipped. A request fails if every
    candidate diverged or its scoring raised.
    """
    if not all(space for _, space, _ in requests):
        raise ConfigError("grid_search requires a non-empty hyperparameter space")
    winners: dict[int, Hyperparams | BagkitError] = {}

    def score(consumer: _Consumer, models) -> None:
        task, space, _ = requests[consumer.owner]
        task_data, best = data[task], None
        for hyper, model in zip(space, models):
            if not isinstance(model, TrainingDiverged):
                value = _evaluate([model], task_data, "val").metric(task_data.metric)
                if best is None or value > best[0]:
                    best = value, hyper
        winners[consumer.owner] = (
            TrainingDiverged("every candidate in the hyperparameter space diverged")
            if best is None else best[1]
        )

    consumers = [
        _Consumer(r, None, tuple(_Fit(task, spec, hyper) for hyper in space))
        for r, (task, space, spec) in enumerate(requests)
    ]
    winners.update(_run_schedule(consumers, data, score))
    return [winners[r] for r in range(len(requests))]


def _batch_winners(configs, data: dict[str, TaskData]) -> dict:
    """The grid-search winners, or errors, per (task, model kind, feature space).

    These are what configurations with only available tasks need. A winner
    a TaskData holds is reused; the others are searched in one `_search`,
    and the winners among them are kept.
    """
    wanted = dict.fromkeys(
        (task, m.model_kind, m.feature_spec)
        for config in configs if all(task in data for task in config.tasks)
        for task in config.tasks
        for m in config.members
        if m.hyper_override is None
    )
    winners = {want: data[want[0]]._cache.get(("search", *want[1:])) for want in wanted}
    todo = [want for want, winner in winners.items() if winner is None]
    requests = [(task, DEFAULT_SEARCH_SPACE[kind], spec) for task, kind, spec in todo]
    for (task, kind, spec), winner in zip(todo, _search(requests, data)):
        winners[(task, kind, spec)] = winner
        if isinstance(winner, Hyperparams):
            data[task]._cache[("search", kind, spec)] = winner
    return winners


def _shape(spec: FeatureSpec, hyper: Hyperparams, rows: int, num_classes: int) -> tuple:
    """A member's lockstep key (the loops it may join) and its parameter count."""
    params = sum(_expected_shapes(spec, hyper.hidden_size, num_classes).values())
    return _lockstep_key(hyper, rows, num_classes), params


def _schedule(consumers, data: dict[str, TaskData]) -> list[list[_Fit]]:
    """The planner: the lockstep loops that train every fit the consumers read, in running order.

    Nothing trains. Walking the consumers in order, a consumer's fits that no
    loop trains yet go one at a time, by key in first-seen order and then
    largest first, into the first of its new loops that has their key and
    stays within `_MAX_GROUP_PARAMS` parameters, or open a loop. Then each
    later consumer of its task puts its unplaced fits of one key, all
    together, into the first of those loops with room, or leaves them
    unplaced; it opens none. So a loop runs before the first consumer that
    reads it.
    """
    trains = {fit: data[fit.task].train for consumer in consumers for fit in consumer.fits}
    shapes = {fit: _shape(fit.spec, fit.hyper, len(t), t.num_classes) for fit, t in trains.items()}
    placed: set[_Fit] = set()
    plan = []

    def place(loops: list[list], fits: list[_Fit]) -> bool:
        """Put fits of one key into the first of ``loops`` with their key and room, if any."""
        key, size = shapes[fits[0]][0], sum(shapes[fit][1] for fit in fits)
        for loop in loops:
            if loop[0] == key and loop[1] + size <= _MAX_GROUP_PARAMS:
                loop[1] += size
                loop[2] += fits
                return True
        return False

    for at, consumer in enumerate(consumers):
        new = [fit for fit in dict.fromkeys(consumer.fits) if fit not in placed]
        placed.update(new)
        keys = list(dict.fromkeys(shapes[fit][0] for fit in new))
        loops: list[list] = []
        for fit in sorted(new, key=lambda fit: (keys.index(shapes[fit][0]), -shapes[fit][1])):
            if not place(loops, [fit]):
                loops.append([*shapes[fit], [fit]])
        for later in consumers[at + 1 :] if loops else ():
            by_key: dict = {}
            for fit in dict.fromkeys(later.fits) if later.task == consumer.task else ():
                if fit not in placed:
                    by_key.setdefault(shapes[fit][0], []).append(fit)
            for fits in by_key.values():
                if place(loops, fits):
                    placed.update(fits)
        plan += [fits for *_, fits in loops]
    return plan


def _run_schedule(consumers, data: dict[str, TaskData], score) -> dict[int, BagkitError]:
    """The executor: train the planned loops in order, and score the consumers in order.

    A consumer is scored once its fits are held: ``score(consumer,
    outcomes)`` gets their models or divergences in its fit order. Each is
    held from its loop to its last use. An error ``score`` raises fails the
    consumer's owner, whose later consumers are skipped, so a loop trains
    only fits still to be used. Returns each failed owner's error, without
    the traceback that would keep the consumer's models alive.
    """
    uses = Counter(fit for consumer in consumers for fit in set(consumer.fits))
    held: dict[_Fit, Model | TrainingDiverged] = {}
    errors: dict[int, BagkitError] = {}

    def release(consumer: _Consumer) -> None:
        for fit in set(consumer.fits):
            uses[fit] -= 1
            if not uses[fit]:
                held.pop(fit, None)

    at = 0
    for loop in _schedule(consumers, data):
        live = [fit for fit in loop if uses[fit]]
        if live:
            held.update(zip(live, _fit_many([data[fit.task]._member(fit) for fit in live])))
        while at < len(consumers) and (
            consumers[at].owner in errors or all(fit in held for fit in consumers[at].fits)
        ):
            consumer, at = consumers[at], at + 1
            if consumer.owner in errors:
                continue
            try:
                score(consumer, [held[fit] for fit in consumer.fits])
            except BagkitError as exc:
                errors[consumer.owner] = exc.with_traceback(None)
                for later in consumers[at:]:
                    if later.owner == consumer.owner:
                        release(later)
            release(consumer)
    return errors


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


def _evaluate(models, task_data: TaskData, split: str) -> EvalResult:
    """The evaluation of the models' soft vote on one split ("val" or "test") of the task."""
    num_classes = getattr(task_data, split).num_classes
    voters = Ensemble(members=tuple(models), num_classes=num_classes)
    winners, _ = _vote(np.stack(
        [_forward_proba(m, task_data._matrix(split, m.spec)) for m in voters.members]
    ))
    return evaluate(winners, task_data._labels(split), num_classes)


def _batch_consumers(
    configs, data: dict[str, TaskData], winners: dict
) -> tuple[list[_Consumer], dict[int, BagkitError]]:
    """A batch's consumers, one per (configuration, task) pair in order, and its early failures.

    A configuration with a task missing from ``data`` has no consumers. One
    whose grid search failed on a task has consumers for its earlier tasks
    only.
    """
    consumers, failed = [], {}
    for i, config in enumerate(configs):
        missing = [t for t in config.tasks if t not in data]
        if missing:
            failed[i] = ConfigError(f"config {config.config_id!r}: unavailable tasks {missing}")
        for task in () if missing else config.tasks:
            hypers = [m.hyper_override or winners[(task, m.model_kind, m.feature_spec)]
                      for m in config.members]
            errors = [h for h in hypers if isinstance(h, BagkitError)]
            if errors:
                failed[i] = errors[0]
                break
            full_data_seed, sample_seeds = _member_seeds(config, task)
            consumers.append(_Consumer(i, task, tuple(
                _Fit(task, m.feature_spec, replace(hyper, seed=full_data_seed), ())
                if seed is None else _Fit(task, m.feature_spec, replace(hyper, seed=seed), (seed,))
                for m, hyper, seed in zip(config.members, hypers, sample_seeds)
            )))
    return consumers, failed


def _run_batch(configs, data: dict[str, TaskData]) -> list[ConfigResult | BagkitError]:
    """Each configuration's result, or the error it failed with, in order, from one schedule.

    The grid searches run first (`_batch_winners`): members take their
    hyperparameters from the winners.
    """
    consumers, failed = _batch_consumers(configs, data, _batch_winners(configs, data))
    scored: dict[int, list] = {}  # configuration -> (task, evaluation, parameters) per task

    def score(consumer: _Consumer, outcomes) -> None:
        config, task = configs[consumer.owner], consumer.task
        models = []
        for k, (member, model) in enumerate(zip(config.members, outcomes)):
            if isinstance(model, TrainingDiverged):
                raise TrainingDiverged(
                    f"config {config.config_id!r}, task {task!r}, member {k}: {model}"
                ) from model
            models.append(_pruned(model, member))
        scored.setdefault(consumer.owner, []).append(
            (task, _evaluate(models, data[task], "test"), sum(param_count(m) for m in models))
        )

    # A scoring error comes from a task before any search that failed.
    failed.update(_run_schedule(consumers, data, score))
    return [
        failed[i] if i in failed else _config_result(config, data, scored[i])
        for i, config in enumerate(configs)
    ]


def _config_result(config: EnsembleConfig, data: dict[str, TaskData], scored) -> ConfigResult:
    """A configuration's result from its (task, evaluation, parameters) per task."""
    task_accuracy = {task: result.accuracy for task, result, _ in scored}
    return ConfigResult(
        config_id=config.config_id,
        task_accuracy=task_accuracy,
        task_macro_f1={
            task: result.macro_f1 for task, result, _ in scored if data[task].metric == "macro_f1"
        },
        avg_accuracy=float(np.mean(list(task_accuracy.values()))),
        experiment_type=CONFIG_TYPE_LABELS[config.config_type],
        models=tuple(m.describe() for m in config.members),
        # Output heads differ across tasks with different class counts;
        # report the largest task's footprint as the configuration size.
        total_params=max(params for _, _, params in scored),
    )


def run_config(config: EnsembleConfig, data: dict[str, TaskData]) -> ConfigResult:
    """Train, prune, vote, and evaluate one configuration on all its tasks: a batch of one."""
    (outcome,) = _run_batch([config], data)
    if isinstance(outcome, BagkitError):
        raise outcome
    return outcome


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
    hyper = member.hyper_override or DEFAULT_HYPER[member.model_kind]
    # One consumer per first-level sample: its single model, then its
    # ensemble's members, each seeded by the last sample of its chain.
    consumers = [
        _Consumer(0, task_name, tuple(
            _Fit(task_name, member.feature_spec, replace(hyper, seed=chain[-1]), chain)
            for chain in [(first,)] + [(first, seed) for seed in second]
        ))
        for first, second in zip(*_plan_seeds(n, m, len(task_data.train), base_seed))
    ]
    singles: list[float] = []
    ensembles: list[float] = []

    def score(consumer: _Consumer, outcomes) -> None:
        for model in outcomes:
            if isinstance(model, TrainingDiverged):
                raise model
        single, *ensemble = (_pruned(model, member) for model in outcomes)
        singles.append(_evaluate([single], task_data, "test").metric(task_data.metric))
        ensembles.append(_evaluate(ensemble, task_data, "test").metric(task_data.metric))

    for error in _run_schedule(consumers, {task_name: task_data}, score).values():
        raise error
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
