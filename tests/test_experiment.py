import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bagkit import experiment, resample
from bagkit.dataset import Dataset
from bagkit.ensemble import Ensemble, predict_dataset
from bagkit.errors import BagkitError, ConfigError, DataError, TrainingDiverged
from bagkit.experiment import (
    DEFAULT_SEARCH_SPACE,
    EnsembleConfig,
    MemberSpec,
    TaskData,
    equivalence_group,
    grid_search,
    run_config,
    sampling_manifest,
    variance_analysis,
    write_report,
    write_variance_report,
    ConfigResult,
)
from bagkit.metrics import accuracy
from bagkit.predictor import (
    FeatureSpec,
    Hyperparams,
    _design_matrix,
    _Member,
    fit,
    param_count,
    predict_proba_dataset,
)
from bagkit.prune import PruneSpec, prune_magnitude
from bagkit.resample import _task_seed, bootstrap, derive_seed, materialize
from bagkit.toy import synthetic_task
from conftest import record_loops, solo

SPEC = FeatureSpec(dims=256)


@pytest.fixture(scope="module")
def task_acc():
    return synthetic_task("acc2", seed=41, n_train=120, n_val=40, n_test=60)


def fresh(task):
    """The same task in a new TaskData, with nothing cached yet."""
    return TaskData(train=task.train, val=task.val, test=task.test, metric=task.metric)


def two_class_val():
    """A 3-class task whose validation split keeps only its label-0 and label-1 rows."""
    task = synthetic_task("t", seed=1, num_classes=3, n_train=60, n_val=30, n_test=30)
    val = Dataset("t-val", [ex for ex in task.val.examples if ex.label < 2], 2)
    return TaskData(train=task.train, val=val, test=task.test, metric=task.metric)


KEPT = {"rows", "labels", "search"}  # what a TaskData may keep: never a model


def kept(task_data):
    """The kinds of entry a TaskData keeps."""
    return {key[0] for key in task_data._cache}


@pytest.fixture(scope="module")
def task_f1():
    return synthetic_task(
        "f1three", seed=42, num_classes=3, n_train=120, n_val=40, n_test=60, metric="macro_f1"
    )


class TestGridSearch:
    def test_diverging_candidate_skipped(self, task_acc):
        diverging = Hyperparams(learning_rate=1e6, l2=1e-4, epochs=30)
        good = Hyperparams(learning_rate=0.5, epochs=10)
        chosen = grid_search([diverging, good], task_acc.train, task_acc.val,
                             "accuracy", SPEC)
        assert chosen == good

    def test_single_element_returned(self, task_acc):
        only = Hyperparams(epochs=3)
        assert grid_search([only], task_acc.train, task_acc.val, "accuracy", SPEC) == only

    def test_duplicated_best_returns_first(self, task_acc):
        best = Hyperparams(epochs=5)
        space = [best, replace(best)]
        assert grid_search(space, task_acc.train, task_acc.val, "accuracy", SPEC) is space[0]

    def test_empty_space_rejected(self, task_acc):
        with pytest.raises(ConfigError):
            grid_search([], task_acc.train, task_acc.val, "accuracy", SPEC)

    def test_all_diverging_raises(self, task_acc):
        with pytest.raises(TrainingDiverged):
            grid_search(
                [Hyperparams(learning_rate=1e6, l2=1e-4)],
                task_acc.train,
                task_acc.val,
                "accuracy",
                SPEC,
            )

    def test_scoring_error_is_raised(self):
        # Each candidate has 3 classes and the validation split 2, so the vote fails.
        task = two_class_val()
        with pytest.raises(BagkitError, match="^member has 3 classes, ensemble expects 2$"):
            grid_search(DEFAULT_SEARCH_SPACE["logreg"], task.train, task.val, "macro_f1",
                        FeatureSpec(dims=64))

    def test_picks_validation_winner(self, task_acc):
        # One epoch at a tiny rate barely learns; the tuned setting must win.
        weak = Hyperparams(learning_rate=0.001, epochs=1)
        strong = Hyperparams(learning_rate=0.5, epochs=30)
        assert grid_search([weak, strong], task_acc.train, task_acc.val,
                           "accuracy", SPEC) == strong


def member(kind="logreg", bagged=False, prune=0.0, hyper=None, spec=SPEC):
    return MemberSpec(
        model_kind=kind,
        feature_spec=spec,
        hyper_override=hyper,
        prune_fraction=prune,
        bagged=bagged,
    )


class TestStructuralValidation:
    def test_single_requires_one_member(self):
        with pytest.raises(ConfigError, match="exactly 1"):
            EnsembleConfig("c", "single", (member(), member()), ("t",), 0)

    def test_homo_requires_identical_members(self):
        other_spec = FeatureSpec(dims=512)
        with pytest.raises(ConfigError, match="identical"):
            EnsembleConfig(
                "c", "homo", (member(), member(spec=other_spec)), ("t",), 0
            )

    def test_homo_pruned_needs_a_pruned_member(self):
        with pytest.raises(ConfigError, match="prune"):
            EnsembleConfig("c", "homo_pruned", (member(bagged=True), member(bagged=True)), ("t",), 0)

    def test_non_pruned_type_rejects_pruned_member(self):
        with pytest.raises(ConfigError, match="prune_fraction"):
            EnsembleConfig(
                "c", "homo", (member(bagged=True), member(bagged=True, prune=0.1)), ("t",), 0
            )

    def test_same_family_needs_distinct_architectures(self):
        with pytest.raises(ConfigError, match="distinct"):
            EnsembleConfig("c", "hetero_same_family", (member(), member()), ("t",), 0)

    def test_same_family_rejects_mixed_kinds(self):
        mlp = member(kind="mlp")
        with pytest.raises(ConfigError, match="one model kind"):
            EnsembleConfig("c", "hetero_same_family", (member(), mlp), ("t",), 0)

    def test_diff_family_needs_two_kinds(self):
        with pytest.raises(ConfigError, match="model kinds"):
            EnsembleConfig(
                "c",
                "hetero_diff_family",
                (member(), member(spec=FeatureSpec(dims=512))),
                ("t",),
                0,
            )

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError, match="config_type"):
            EnsembleConfig("c", "boosted", (member(),), ("t",), 0)

    def test_logreg_override_hidden_must_be_zero(self):
        with pytest.raises(ConfigError):
            member(kind="logreg", hyper=Hyperparams(hidden_size=4))

    def test_mlp_override_hidden_must_be_positive(self):
        with pytest.raises(ConfigError):
            member(kind="mlp", hyper=Hyperparams(hidden_size=0))


class TestRunConfig:
    def test_single_member_matches_direct_evaluation(self, task_acc):
        config = EnsembleConfig("solo", "single", (member(),), ("acc2",), base_seed=5)
        result = run_config(config, {"acc2": task_acc})

        task_seed = _task_seed(5, "acc2")
        chosen = grid_search(
            DEFAULT_SEARCH_SPACE["logreg"], task_acc.train, task_acc.val, "accuracy", SPEC
        )
        model = fit(
            task_acc.train, SPEC, replace(chosen, seed=derive_seed(task_seed, 0, 0))
        )
        preds = np.argmax(predict_proba_dataset(model, task_acc.test), axis=1)
        assert result.task_accuracy["acc2"] == accuracy(preds, task_acc.test.labels())
        assert result.total_params == param_count(model)
        assert result.experiment_type == "Single Model"

    def test_bagged_homogeneous_matches_manual_replay(self, task_acc):
        members = tuple(member(bagged=True, prune=0.05) for _ in range(3))
        config = EnsembleConfig("bag3", "homo_pruned", members, ("acc2",), base_seed=9)
        result = run_config(config, {"acc2": task_acc})

        # Independent replay of the documented pipeline, step by step.
        task_seed = _task_seed(9, "acc2")
        chosen = grid_search(
            DEFAULT_SEARCH_SPACE["logreg"], task_acc.train, task_acc.val, "accuracy", SPEC
        )
        models = []
        for k in range(3):
            sample = bootstrap(len(task_acc.train), derive_seed(task_seed, 1, k))
            train_ds = materialize(task_acc.train, sample)
            model = fit(train_ds, SPEC, replace(chosen, seed=sample.seed))
            models.append(prune_magnitude(model, PruneSpec(0.05)))
        winners, _ = predict_dataset(Ensemble(members=tuple(models), num_classes=2), task_acc.test)
        assert result.task_accuracy["acc2"] == accuracy(winners, task_acc.test.labels())

    def test_multi_task_result_shape(self, task_acc, task_f1):
        members = tuple(member(bagged=True) for _ in range(2))
        config = EnsembleConfig("two", "homo", members, ("acc2", "f1three"), base_seed=1)
        result = run_config(config, {"acc2": task_acc, "f1three": task_f1})
        assert set(result.task_accuracy) == {"acc2", "f1three"}
        assert set(result.task_macro_f1) == {"f1three"}
        assert result.avg_accuracy == pytest.approx(
            np.mean(list(result.task_accuracy.values())), abs=1e-12
        )

    def test_deterministic_across_runs(self, task_acc):
        config = EnsembleConfig(
            "det", "hetero_diff_family",
            (member(), member(kind="mlp", hyper=Hyperparams(hidden_size=4, epochs=5))),
            ("acc2",), base_seed=3,
        )
        r1 = run_config(config, {"acc2": task_acc})
        r2 = run_config(config, {"acc2": task_acc})
        assert r1 == r2

    def test_unknown_task_rejected(self, task_acc):
        config = EnsembleConfig("c", "single", (member(),), ("acc2", "ghost", "gone"), 0)
        with pytest.raises(ConfigError) as failure:
            run_config(config, {"acc2": fresh(task_acc)})
        assert str(failure.value) == "config 'c': unavailable tasks ['ghost', 'gone']"

    def test_full_data_members_share_one_model(self, task_acc):
        # Identical non-bagged members collapse to the same trained model, so
        # the vote equals the single model's answer.
        single = EnsembleConfig("s", "single", (member(),), ("acc2",), 7)
        doubled = EnsembleConfig("d", "homo", (member(), member()), ("acc2",), 7)
        acc_single = run_config(single, {"acc2": task_acc}).task_accuracy["acc2"]
        acc_doubled = run_config(doubled, {"acc2": task_acc}).task_accuracy["acc2"]
        assert acc_single == acc_doubled


class TestRowGatherTraining:
    """Training on a sample's design-matrix rows equals fit on the materialized sample."""

    HYPERS = [Hyperparams(epochs=3, seed=5), Hyperparams(epochs=3, hidden_size=4, seed=6)]

    @staticmethod
    def assert_same_params(a, b):
        assert list(a.params) == list(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name]), name

    @pytest.mark.parametrize("hyper", HYPERS, ids=["logreg", "mlp"])
    def test_first_level_sample(self, task_acc, hyper):
        train = task_acc.train
        assert len(train) % 32 != 0  # the last batch of an epoch is a partial slice
        sample = bootstrap(len(train), 17)
        assert len(set(sample.indices)) < len(train)  # rows drawn more than once
        rows = np.array(sample.indices)
        x, y = _design_matrix(train, SPEC), train.labels()
        sampled = solo(_Member(x, y, train.num_classes, SPEC, hyper, rows))
        self.assert_same_params(sampled, fit(materialize(train, sample), SPEC, hyper))

    @pytest.mark.parametrize("hyper", HYPERS, ids=["logreg", "mlp"])
    def test_composed_second_level_sample(self, task_acc, hyper):
        train = task_acc.train
        first, second = bootstrap(len(train), 21), bootstrap(len(train), 22)
        x, y = _design_matrix(train, SPEC), train.labels()
        rows = np.array(first.indices)[np.array(second.indices)]
        composed = solo(_Member(x, y, train.num_classes, SPEC, hyper, rows))
        replayed = fit(materialize(materialize(train, first), second), SPEC, hyper)
        self.assert_same_params(composed, replayed)

    @pytest.mark.parametrize("hyper", HYPERS, ids=["logreg", "mlp"])
    def test_train_composes_the_whole_chain(self, task_acc, hyper):
        train = task_acc.train
        first, other_first, second = (bootstrap(len(train), seed) for seed in (21, 23, 22))
        fits = tuple(
            experiment._Fit("acc2", SPEC, hyper, (head.seed, second.seed))
            for head in (first, other_first)
        )
        outcomes = []
        experiment._run_schedule([experiment._Consumer(0, "acc2", fits)], {"acc2": fresh(task_acc)},
                                 lambda consumer, models: outcomes.extend(models))
        chained, other = outcomes
        replayed = fit(materialize(materialize(train, first), second), SPEC, hyper)
        self.assert_same_params(chained, replayed)
        assert not all(np.array_equal(chained.params[k], other.params[k]) for k in other.params)


class TestTaskCache:
    """A TaskData builds each design matrix, runs each grid search and trains each fit once."""

    def counting(self, monkeypatch):
        builds, searches = Counter(), Counter()
        real_build, real_search = experiment._design_matrix, experiment._search

        def build(examples, spec):
            builds[(id(examples), spec)] += 1
            return real_build(examples, spec)

        def search(requests, data):
            # One count per request, keyed by its feature space, the last field.
            searches.update(request[-1] for request in requests)
            return real_search(requests, data)

        monkeypatch.setattr(experiment, "_design_matrix", build)
        monkeypatch.setattr(experiment, "_search", search)
        return builds, searches

    def test_shared_across_configurations(self, task_acc, monkeypatch):
        configs = [
            EnsembleConfig("one", "single", (member(),), ("acc2",), base_seed=5),
            EnsembleConfig("bag", "homo", (member(bagged=True), member(bagged=True)),
                           ("acc2",), base_seed=6),
        ]
        expected = [run_config(c, {"acc2": fresh(task_acc)}) for c in configs]
        builds, searches = self.counting(monkeypatch)
        shared = {"acc2": fresh(task_acc)}
        assert [run_config(c, shared) for c in configs] == expected
        splits = (task_acc.train, task_acc.val, task_acc.test)
        assert builds == Counter({(id(ds), SPEC): 1 for ds in splits})
        assert searches == Counter({SPEC: 1})

    @staticmethod
    def trained(loops):
        """How often each (feature space, hyperparameters) pair trained in the loops recorded."""
        return Counter((m.spec, m.hyper) for loop in loops for m in loop.members)

    def test_identical_members_train_once(self, task_acc, monkeypatch):
        mlp = member(kind="mlp", hyper=Hyperparams(hidden_size=4, epochs=5))
        bagged, pruned = member(bagged=True), member(bagged=True, prune=0.9)
        configs = [  # the pruned configuration first, so a prune kept in the cache shows
            EnsembleConfig("pruned", "homo_pruned", (pruned, pruned), ("acc2",), base_seed=4),
            EnsembleConfig("one", "single", (member(),), ("acc2",), base_seed=4),
            EnsembleConfig("bag", "homo", (bagged, bagged), ("acc2",), base_seed=4),
            EnsembleConfig("mixed", "hetero_diff_family", (member(), mlp), ("acc2",),
                           base_seed=4),
        ]
        expected = [run_config(c, {"acc2": fresh(task_acc)}) for c in configs]
        assert expected[0].task_accuracy != expected[2].task_accuracy  # the prune shows
        loops = record_loops(monkeypatch)
        shared = {"acc2": fresh(task_acc)}
        assert experiment._run_batch(configs, shared) == expected
        # Four search candidates, then one full-data logreg, two bagged members, one MLP.
        fits = self.trained(loops)
        assert sum(fits.values()) == len(DEFAULT_SEARCH_SPACE["logreg"]) + 4
        assert set(fits.values()) == {1}
        assert kept(shared["acc2"]) <= KEPT

    def test_unannounced_members_are_not_kept(self, task_acc, monkeypatch):
        configs = [
            EnsembleConfig(cid, "homo", (member(bagged=True), member(bagged=True)),
                           ("acc2",), base_seed=4)
            for cid in ("a", "b")
        ]
        loops = record_loops(monkeypatch)
        shared = {"acc2": fresh(task_acc)}
        for config in configs:
            run_config(config, shared)
        fits = self.trained(loops)
        assert sum(fits.values()) == len(DEFAULT_SEARCH_SPACE["logreg"]) + 2 * 2
        assert kept(shared["acc2"]) <= KEPT

    @pytest.mark.parametrize("announced", [True, False], ids=["announced", "unannounced"])
    def test_identical_members_of_one_configuration_train_once(
        self, task_acc, monkeypatch, announced
    ):
        config = EnsembleConfig("d", "homo", (member(), member()), ("acc2",), base_seed=7)
        expected = run_config(config, {"acc2": fresh(task_acc)})
        loops = record_loops(monkeypatch)
        shared = {"acc2": fresh(task_acc)}
        if announced:  # as a batch of one
            (result,) = experiment._run_batch([config], shared)
        else:
            result = run_config(config, shared)
        assert result == expected
        fits = self.trained(loops)
        assert sum(fits.values()) == len(DEFAULT_SEARCH_SPACE["logreg"]) + 1
        assert kept(shared["acc2"]) <= KEPT

    def test_shared_model_dropped_at_last_use(self, task_acc):
        data, hyper = {"acc2": fresh(task_acc)}, Hyperparams(epochs=2, seed=3)
        shared = experiment._Fit("acc2", SPEC, hyper, (11,))
        later = experiment._Fit("acc2", SPEC, replace(hyper, epochs=3), (11,))  # its own loop
        consumers = [experiment._Consumer(k, "acc2", fits)
                     for k, fits in enumerate([(shared,), (shared, shared), (later,)])]
        assert experiment._schedule(consumers, data) == [[shared], [later]]
        seen = []

        def score(consumer, models):
            if seen:  # the model the first consumer had, alive only while still read
                assert (seen[0]() is models[0]) == (consumer.owner == 1)
                assert (seen[0]() is None) == (consumer.owner == 2)
            seen.append(weakref.ref(models[0]))

        assert experiment._run_schedule(consumers, data, score) == {}
        assert len(seen) == 3

    def test_diverged_member_is_not_kept(self, task_acc, monkeypatch):
        diverging = member(hyper=Hyperparams(learning_rate=1e6, l2=1e-4))
        loops = record_loops(monkeypatch)
        shared = {"acc2": fresh(task_acc)}
        for config_id in ("first", "second"):
            config = EnsembleConfig(config_id, "single", (diverging,), ("acc2",), base_seed=5)
            with pytest.raises(TrainingDiverged, match="member 0"):
                run_config(config, shared)
        fits = self.trained(loops)
        assert sum(fits.values()) == 2

    def test_diverged_announced_fit_trains_once(self, task_acc, monkeypatch):
        diverging = member(hyper=Hyperparams(learning_rate=1e40, l2=1.0, epochs=5))
        configs = [
            EnsembleConfig(config_id, "single", (m,), ("acc2",), base_seed=seed)
            for config_id, m, seed in (("a", member(), 1), ("b", diverging, 2),
                                       ("c", diverging, 2))
        ]
        with pytest.raises(TrainingDiverged) as alone:
            run_config(configs[1], {"acc2": fresh(task_acc)})
        expected = run_config(configs[0], {"acc2": fresh(task_acc)})
        loops = record_loops(monkeypatch)
        shared = {"acc2": fresh(task_acc)}
        # b's loop trains the diverging fit; c reads the held divergence.
        result, *failures = experiment._run_batch(configs, shared)
        assert result == expected
        for failed in failures:
            assert isinstance(failed, TrainingDiverged)
            assert str(failed).split(":", 1)[1] == str(alone.value).split(":", 1)[1]
        fits = self.trained(loops)
        assert sum(n for (_, hyper), n in fits.items() if hyper.learning_rate == 1e40) == 1
        assert kept(shared["acc2"]) <= KEPT

    def test_diverged_search_is_not_kept(self, task_acc, monkeypatch):
        monkeypatch.setitem(
            experiment.DEFAULT_SEARCH_SPACE, "logreg", (Hyperparams(learning_rate=1e6, l2=1e-4),)
        )
        _, searches = self.counting(monkeypatch)
        shared = {"acc2": fresh(task_acc)}
        for config_id in ("first", "second"):
            config = EnsembleConfig(config_id, "single", (member(),), ("acc2",), base_seed=5)
            with pytest.raises(TrainingDiverged, match="every candidate"):
                run_config(config, shared)
        assert searches == Counter({SPEC: 2})


class TestVarianceAnalysis:
    def test_m_one_is_well_formed(self, task_acc):
        report = variance_analysis(task_acc, member(bagged=True), n=3, m=1, base_seed=2)
        assert len(report.singles) == 3 and len(report.ensembles) == 3
        assert np.isfinite([report.single_std, report.ensemble_std]).all()

    def test_deterministic(self, task_acc):
        m = member(bagged=True, hyper=Hyperparams(epochs=2))
        r1 = variance_analysis(task_acc, m, n=3, m=2, base_seed=8)
        r2 = variance_analysis(task_acc, m, n=3, m=2, base_seed=8)
        assert r1 == r2

    def test_keeps_no_models(self, task_acc):
        data = fresh(task_acc)
        variance_analysis(data, member(bagged=True, hyper=Hyperparams(epochs=2)), n=3, m=2,
                          base_seed=8)
        assert kept(data) <= KEPT

    def test_colliding_seeds_rejected(self, task_acc, monkeypatch):
        monkeypatch.setattr(resample, "derive_seed", lambda *key: 7)
        with pytest.raises(DataError, match="derived sample seeds collide; change base_seed"):
            variance_analysis(fresh(task_acc), member(bagged=True), n=2, m=2, base_seed=0)

    def test_n_below_two_rejected(self, task_acc):
        with pytest.raises(ConfigError):
            variance_analysis(task_acc, member(bagged=True), n=1, m=2, base_seed=0)

    def test_uses_task_metric(self, task_f1):
        report = variance_analysis(
            task_f1, member(hyper=Hyperparams(epochs=2), bagged=True), n=2, m=1,
            base_seed=0, task_name="f1three",
        )
        assert report.metric == "macro_f1"
        assert report.task == "f1three"


class TestWidthRule:
    """No lockstep group stacks more than _MAX_GROUP_PARAMS parameters, unless it trains one."""

    CAP = 3000  # 5 logreg-256 members (514 parameters each), and no MLP at 1024 x 4

    def test_no_group_exceeds_the_cap(self, task_acc, monkeypatch):
        monkeypatch.setattr(experiment, "_MAX_GROUP_PARAMS", self.CAP)
        loops = record_loops(monkeypatch)
        quick = Hyperparams(epochs=2)
        wide_mlp = member("mlp", bagged=True, hyper=Hyperparams(hidden_size=4, epochs=2),
                          spec=FeatureSpec(dims=1024))
        config = EnsembleConfig("bag", "homo", (member(bagged=True),) * 7, ("acc2",),
                                base_seed=3)
        run_config(config, {"acc2": fresh(task_acc)})
        variance_analysis(fresh(task_acc), member(bagged=True, hyper=quick), n=3, m=2,
                          base_seed=5)
        variance_analysis(fresh(task_acc), wide_mlp, n=2, m=1, base_seed=5)
        assert all(len(loop.members) == 1 or loop.params <= self.CAP for loop in loops)
        # The search's 4 candidates, the 7 members split 5 + 2, one loop per
        # first-level sample of 3 logreg fits, and 4 MLP members one by one.
        assert [len(loop.members) for loop in loops] == [4, 5, 2, 3, 3, 3, 1, 1, 1, 1]

    def test_split_outcomes_in_member_order(self, task_acc, monkeypatch):
        monkeypatch.setattr(experiment, "_MAX_GROUP_PARAMS", 2 * (256 * 2 + 2))
        loops = record_loops(monkeypatch)
        x, y = _design_matrix(task_acc.train, SPEC), task_acc.train.labels()
        n = len(task_acc.train)
        hypers = [
            Hyperparams(learning_rate=lr, epochs=epochs, seed=seed)
            for lr, epochs, seed in (
                (0.5, 3, 1), (0.1, 3, 2), (1e6, 30, 3), (0.5, 3, 4), (0.5, 30, 5), (0.3, 3, 6),
                (0.5, 3, 7),
            )
        ]
        row_sets = [np.array(bootstrap(n, 50 + i).indices) for i in range(len(hypers))]
        fits = tuple(
            experiment._Fit("acc2", SPEC, hyper, (50 + i,)) for i, hyper in enumerate(hypers)
        )
        outcomes = []
        experiment._run_schedule([experiment._Consumer(0, "acc2", fits)], {"acc2": fresh(task_acc)},
                                 lambda consumer, models: outcomes.extend(models))
        assert [len(loop.members) for loop in loops] == [2, 2, 1, 2]  # epochs 3: 5; 30: 2
        for outcome, hyper, rows in zip(outcomes, hypers, row_sets):
            alone = solo(_Member(x, y, 2, SPEC, hyper, rows))
            if isinstance(alone, TrainingDiverged):
                assert str(outcome) == str(alone)
                continue
            assert outcome.hyper == hyper
            for name in alone.params:
                assert np.array_equal(outcome.params[name], alone.params[name]), name
        assert isinstance(outcomes[2], TrainingDiverged)


class TestBatchLoops:
    """A batch's searches, and a task's scheduled fits, share loops across feature spaces."""

    SMALL, WIDE = FeatureSpec(dims=64), FeatureSpec(dims=512)

    @pytest.fixture(scope="class")
    def tasks(self):
        return {
            name: synthetic_task(name, seed=seed, n_train=60, n_val=30, n_test=30)
            for name, seed in (("ta", 51), ("tb", 52))
        }

    def configs(self):
        bag = member(bagged=True, spec=self.SMALL)
        mlp = member("mlp", hyper=Hyperparams(hidden_size=4, epochs=5), spec=self.SMALL)
        both = ("ta", "tb")
        return [
            EnsembleConfig("small", "single", (member(spec=self.SMALL),), both, base_seed=3),
            EnsembleConfig("bag", "homo", (bag, bag), both, base_seed=3),
            EnsembleConfig("mixed", "hetero_same_family",
                           (member(spec=self.SMALL), member(spec=self.WIDE)), both, base_seed=4),
            EnsembleConfig("mlp", "hetero_diff_family", (member(spec=self.WIDE), mlp), ("tb",),
                           base_seed=3),
        ]

    def test_batch_search_winners_equal_grid_search(self, tasks, monkeypatch):
        data = {name: fresh(task) for name, task in tasks.items()}
        loops = record_loops(monkeypatch)
        winners = experiment._batch_winners(self.configs(), data)
        # 2 tasks x 2 feature spaces x 4 candidates, in one loop over 4 design matrices.
        assert [(len(loop.members), loop.sources, loop.search) for loop in loops] == [
            (16, 4, True)
        ]
        for name, task in tasks.items():
            for spec in (self.SMALL, self.WIDE):
                expected = grid_search(
                    DEFAULT_SEARCH_SPACE["logreg"], task.train, task.val, task.metric, spec
                )
                assert data[name]._cache[("search", "logreg", spec)] == expected
                assert winners[name, "logreg", spec] == expected

    def test_standalone_runs_equal_the_batch(self, tasks, monkeypatch):
        configs = self.configs()
        alone = [run_config(c, {name: fresh(task) for name, task in tasks.items()})
                 for c in configs]
        data = {name: fresh(task) for name, task in tasks.items()}
        consumers, failed = experiment._batch_consumers(
            configs, data, experiment._batch_winners(configs, data)
        )
        assert failed == {}
        plan = experiment._schedule(consumers, data)
        # The first configuration's loop on each task takes every logreg fit
        # read there; the MLP, which no loop could take, trains alone.
        assert [len(loop) for loop in plan] == [5, 6, 1]
        assert [len({(fit.task, fit.spec) for fit in loop}) for loop in plan] == [2, 2, 1]
        loops = record_loops(monkeypatch)  # the searches ran above, and their winners are kept
        assert experiment._run_batch(configs, data) == alone
        assert [[(m.spec, m.hyper) for m in loop.members] for loop in loops] == [
            [(fit.spec, fit.hyper) for fit in loop] for loop in plan
        ]
        assert [loop.sources for loop in loops] == [2, 2, 1]
        assert all(kept(td) <= KEPT for td in data.values())

    def test_a_failed_configuration_leaves_its_fits_untrained(self, tasks, monkeypatch):
        # `bad` diverges on ta, so its tb fits, planned into good's loop,
        # do not train there.
        diverging = member(bagged=True, spec=self.SMALL,
                           hyper=Hyperparams(learning_rate=1e6, l2=1e3))
        configs = [
            EnsembleConfig("bad", "homo", (diverging,) * 2, ("ta", "tb"), base_seed=3),
            EnsembleConfig("good", "homo", (member(bagged=True, hyper=Hyperparams()),) * 2,
                           ("tb",), base_seed=3),
        ]
        data = {name: fresh(task) for name, task in tasks.items()}
        consumers, _ = experiment._batch_consumers(configs, data, {})
        assert [len(loop) for loop in experiment._schedule(consumers, data)] == [2, 4]
        with pytest.raises(TrainingDiverged) as alone:
            run_config(configs[0], {name: fresh(task) for name, task in tasks.items()})
        expected = run_config(configs[1], {name: fresh(task) for name, task in tasks.items()})
        loops = record_loops(monkeypatch)
        failure, result = experiment._run_batch(configs, data)
        assert str(failure).startswith("config 'bad', task 'ta', member 0: non-finite loss")
        assert str(failure) == str(alone.value) and result == expected
        assert [len(loop.members) for loop in loops] == [2, 2]
        assert all(kept(td) <= KEPT for td in data.values())

    def test_a_failed_search_fails_only_its_configurations(self, tasks):
        # The failed request comes first, so each later winner must still go
        # to its own (task, kind, feature space).
        configs = [
            EnsembleConfig("bad", "single", (member(spec=self.SMALL),), ("bad",), base_seed=3),
            EnsembleConfig("mixed", "hetero_same_family",
                           (member(spec=self.SMALL), member(spec=self.WIDE)), ("ta", "tb"),
                           base_seed=4),
        ]
        expected = run_config(configs[1], {name: fresh(task) for name, task in tasks.items()})
        data = {"bad": two_class_val(), **{name: fresh(task) for name, task in tasks.items()}}
        winners = experiment._batch_winners(configs, data)
        assert isinstance(winners["bad", "logreg", self.SMALL], BagkitError)
        assert ("search", "logreg", self.SMALL) not in data["bad"]._cache
        for name, spec in [(name, spec) for name in tasks for spec in (self.SMALL, self.WIDE)]:
            assert data[name]._cache[("search", "logreg", spec)] == winners[name, "logreg", spec]
        failure, result = experiment._run_batch(configs, data)
        assert str(failure) == "member has 3 classes, ensemble expects 2"
        assert result == expected

    def test_a_size_group_over_the_real_parameter_cap_gets_its_own_loop(self):
        key, other = (0, 30, 60, 2), (0, 30, 61, 2)
        wide, narrow = 4098, 1026  # logreg-2048 and logreg-512 members, 2 classes
        fit = (experiment._MAX_GROUP_PARAMS - wide) // narrow  # narrow members that may join
        assert fit == 251  # 4,098 + 251 * 1,026 = 261,624 of 262,144

        def loops(shapes):
            return [(params, members) for _, params, members in experiment._loops(shapes)]

        assert loops([(key, wide)] + [(key, narrow)] * fit) == [
            (wide + fit * narrow, list(range(fit + 1)))
        ]
        assert loops([(key, wide)] + [(key, narrow)] * (fit + 1)) == [
            (wide, [0]), ((fit + 1) * narrow, list(range(1, fit + 2)))
        ]
        assert loops([(key, wide), (other, narrow)]) == [(wide, [0]), (narrow, [1])]

    def test_extras_fill_loops_but_start_none(self, tasks, monkeypatch):
        data = {name: fresh(task) for name, task in tasks.items()}

        def fit(dims, epochs=30, task="ta", seed=0):
            hyper = Hyperparams(epochs=epochs, seed=seed)
            return experiment._Fit(task, FeatureSpec(dims=dims), hyper)

        first, wide, other_key, other_task = fit(512), fit(2048), fit(512, 5), fit(512, task="tb")
        # The first loop stacks 1,026 + 4,098 parameters by then. One of the
        # pair (1,026) would join it, both (17,412) would take it over a cap
        # of 20,000: neither joins, and the pair's own loop fits.
        monkeypatch.setattr(experiment, "_MAX_GROUP_PARAMS", 20_000)
        pair = (fit(512, seed=1), fit(8192, seed=1))
        last = fit(512, seed=2)
        consumers = [
            experiment._Consumer(k, task, fits)
            for k, (task, fits) in enumerate([
                ("ta", (first,)), ("ta", (wide, other_key)), ("tb", (other_task,)),
                ("ta", pair), ("ta", (last, first)),
            ])
        ]
        # Later fits fill the loops of the first consumer that has any to
        # start, those of other keys and tasks start loops in their own turn.
        assert experiment._schedule(consumers, data) == [
            [first, wide, last], [other_key], [other_task], [pair[1], pair[0]]
        ]
        assert experiment._schedule(consumers[1:2], data) == [[wide], [other_key]]
        monkeypatch.undo()
        big, small = fit(2**17, seed=3), fit(512, seed=3)  # 2**18 + 2 parameters: over the cap
        alone = [experiment._Consumer(k, "ta", (f,)) for k, f in enumerate((big, small))]
        assert experiment._schedule(alone, data) == [[big], [small]]


class TestEquivalenceGroup:
    BASELINES = [304, 355, 774, 1558]

    def test_probe_390_maps_to_355(self):
        assert equivalence_group(390, self.BASELINES) == 355

    def test_exact_774(self):
        assert equivalence_group(774, self.BASELINES) == 774

    def test_500_matches_nothing(self):
        assert equivalence_group(500, self.BASELINES) is None

    def test_distance_tie_goes_to_smaller_baseline(self):
        assert equivalence_group(105, [100, 110]) == 100

    def test_bad_baselines_rejected(self):
        with pytest.raises(BagkitError):
            equivalence_group(100, [])
        with pytest.raises(BagkitError):
            equivalence_group(100, [0, 10])


def result_row(config_id, accs, f1s, exp_type="Single Model", models=("logreg-256",), params=514):
    return ConfigResult(
        config_id=config_id,
        task_accuracy=accs,
        task_macro_f1=f1s,
        avg_accuracy=float(np.mean(list(accs.values()))),
        experiment_type=exp_type,
        models=tuple(models),
        total_params=params,
    )


class TestWriteReport:
    def test_sorted_by_avg_accuracy_desc(self, tmp_path):
        rows = [
            result_row("low", {"a": 0.83}, {}),
            result_row("high", {"a": 0.84}, {}),
        ]
        path = tmp_path / "results.csv"
        write_report(rows, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("high,")
        assert lines[2].startswith("low,")

    def test_tie_broken_by_config_id(self, tmp_path):
        rows = [
            result_row("zeta", {"a": 0.8}, {}),
            result_row("alpha", {"a": 0.8}, {}),
        ]
        path = tmp_path / "results.csv"
        write_report(rows, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("alpha,")
        assert lines[2].startswith("zeta,")

    def test_column_layout_interleaves_macro_f1(self, tmp_path):
        rows = [result_row("c", {"boolq": 0.8, "cb": 0.9}, {"cb": 0.85})]
        path = tmp_path / "results.csv"
        write_report(rows, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == [
            "config_id",
            "boolq_acc",
            "cb_acc",
            "cb_macro_f1",
            "avg_accuracy",
            "experiment_type",
            "models",
            "total_params",
        ]

    def test_avg_column_recomputes(self, tmp_path):
        rows = [
            result_row("x", {"a": 0.8, "b": 0.6}, {}),
            result_row("y", {"a": 0.75, "b": 0.95}, {}),
        ]
        path = tmp_path / "results.csv"
        write_report(rows, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            accs = [float(cells[header.index(f"{t}_acc")]) for t in ("a", "b")]
            assert float(cells[header.index("avg_accuracy")]) == pytest.approx(
                np.mean(accs), abs=1e-6
            )

    def test_rerun_is_byte_identical(self, tmp_path):
        rows = [result_row("a", {"t": 0.7}, {}), result_row("b", {"t": 0.9}, {})]
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_report(rows, p1)
        write_report(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(BagkitError):
            write_report([], tmp_path / "x.csv")


class TestVarianceReportCsv:
    def test_shape_and_summary_rows(self, tmp_path, task_acc):
        report = variance_analysis(
            task_acc, member(bagged=True, hyper=Hyperparams(epochs=2)), n=4, m=2,
            base_seed=3, task_name="acc2",
        )
        path = tmp_path / "variance.csv"
        write_variance_report(report, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 4 + 4 + 4  # header, singles, ensembles, summary
        kinds = [line.split(",")[5] for line in lines[1:]]
        assert kinds == (
            ["single"] * 4 + ["ensemble"] * 4
            + ["single_mean", "single_std", "ensemble_mean", "ensemble_std"]
        )

    def test_summary_rows_match_values(self, tmp_path, task_acc):
        report = variance_analysis(
            task_acc, member(bagged=True, hyper=Hyperparams(epochs=2)), n=3, m=1,
            base_seed=4, task_name="acc2",
        )
        path = tmp_path / "variance.csv"
        write_variance_report(report, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        singles = [float(r[7]) for r in rows if r[5] == "single"]
        mean_row = next(float(r[7]) for r in rows if r[5] == "single_mean")
        assert mean_row == pytest.approx(np.mean(singles), abs=1e-6)


class TestSamplingManifest:
    def test_entries_match_derivation(self, task_acc):
        members = (member(bagged=True), member(), member(bagged=True))
        config = EnsembleConfig("m", "hetero_same_family",
                                (member(), member(spec=FeatureSpec(dims=512))), ("acc2",), 11)
        bagged_config = EnsembleConfig("b", "homo", members[::2], ("acc2",), 11)
        doc = sampling_manifest([config, bagged_config], {"acc2": task_acc})
        assert doc["format"] == "bagkit-run-manifest-v1"
        by_id = {(e["config_id"], e["task"]): e for e in doc["entries"]}
        entry = by_id[("b", "acc2")]
        task_seed = _task_seed(11, "acc2")
        assert entry["member_sample_seeds"] == [
            derive_seed(task_seed, 1, 0),
            derive_seed(task_seed, 1, 1),
        ]
        assert entry["dataset_size"] == len(task_acc.train)
        assert by_id[("m", "acc2")]["member_sample_seeds"] == [None, None]
