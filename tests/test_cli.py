import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bagkit
from bagkit import cli, experiment, predictor, resample
from bagkit.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from bagkit.config import load_data_dir, parse_config_file
from bagkit.predictor import FeatureSpec, Hyperparams, fit, load_model, save_model
from bagkit.prune import PruneSpec, prune_magnitude, sparsity
from bagkit.toy import synthetic_task
from conftest import record_loops

# Golden output bytes (sha256). Every output is a pure function of its
# inputs, so a refactor must leave these unchanged; a change that alters any
# of them must say why in CHANGES.md.
GOLDEN_RUN = {
    "results.csv": "b8eb1e3413ac009460b1b5cd42cd4bf094a047dcb81a990b314a51ba15c8b696",
    "run_manifest.json": "f00afe1a6acd113388ad87cd892b6b8a32b54e1aee5142a270a485c8b0c5bffc",
}
GOLDEN_VARIANCE_LOGREG = {
    "variance_topics2.csv": "7e07b46d8db991c6b773c4142b3525c35ed3eceeefa18d1ef6b5e2671bfb1614",
    "plan_topics2.json": "8d4fcfa160685d409425e5ff0f71ef009b244e29efb047cf3205d3b9b92a48d7",
}
GOLDEN_VARIANCE_MLP_PRUNED = {
    "variance_topics3.csv": "c81be260908ebce454e8340c854748bf6c5725e91b4f659e28c6523d1eb64cca",
    "plan_topics3.json": "8ccda4a5c69c85554c8d33a388de1f0b39478fdec533897d50e115eb9417f1c2",
}


def run_cli(*argv):
    return main([str(a) for a in argv])


def file_hashes(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def count_calls(monkeypatch, module, names):
    """Wrap each named function of a module with a call counter; missing names are skipped."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name, None)
        if real is None:
            continue

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestValidate:
    def test_happy_path(self, toy_workspace, capsys):
        code = run_cli("validate", "--config", toy_workspace / "configs.json")
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 6  # one line per config plus the summary
        assert out[-1].startswith("5 configuration")
        assert all("est_params=" in line for line in out[:-1])

    def test_invalid_config_names_offender(self, tmp_path, capsys):
        doc = {
            "configs": [
                {
                    "config_id": "bad-single",
                    "config_type": "single",
                    "tasks": ["t"],
                    "base_seed": 0,
                    "members": [{"model_kind": "logreg"}, {"model_kind": "logreg"}],
                }
            ]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = run_cli("validate", "--config", path)
        assert code == EXIT_VALIDATION
        assert "bad-single" in capsys.readouterr().err

    def test_missing_file_names_path(self, tmp_path, capsys):
        code = run_cli("validate", "--config", tmp_path / "absent.json")
        assert code == EXIT_IO
        assert "absent.json" in capsys.readouterr().err


@pytest.fixture(scope="module")
def toy_run(toy_workspace, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("out")
    code = main(
        [
            "run",
            "--config", str(toy_workspace / "configs.json"),
            "--data", str(toy_workspace / "data"),
            "--out", str(out_dir),
        ]
    )
    return code, out_dir


class TestRun:
    def test_exit_code_and_outputs(self, toy_run):
        code, out_dir = toy_run
        assert code == EXIT_OK
        assert (out_dir / "results.csv").is_file()
        assert (out_dir / "run_manifest.json").is_file()

    def test_csv_has_five_rows(self, toy_run):
        _, out_dir = toy_run
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert len(lines) == 6  # header + 5 configs
        header = lines[0].split(",")
        assert header[0] == "config_id"
        assert "topics3_macro_f1" in header

    def test_rows_sorted_by_avg_accuracy(self, toy_run):
        _, out_dir = toy_run
        lines = (out_dir / "results.csv").read_text().splitlines()
        col = lines[0].split(",").index("avg_accuracy")
        avgs = [float(line.split(",")[col]) for line in lines[1:]]
        assert avgs == sorted(avgs, reverse=True)

    def test_manifest_lists_bagged_seeds(self, toy_run, toy_workspace):
        _, out_dir = toy_run
        doc = json.loads((out_dir / "run_manifest.json").read_text())
        entries = {(e["config_id"], e["task"]) for e in doc["entries"]}
        assert ("t2-homo-bagged", "topics2") in entries
        bagged = next(
            e for e in doc["entries"] if e["config_id"] == "t2-homo-bagged" and e["task"] == "topics2"
        )
        assert len(bagged["member_sample_seeds"]) == 3
        assert all(isinstance(s, int) for s in bagged["member_sample_seeds"])

    def test_golden_bytes(self, toy_run):
        _, out_dir = toy_run
        assert file_hashes(out_dir, GOLDEN_RUN) == GOLDEN_RUN

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_usage_error(self, toy_workspace, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "run",
                "--config", toy_workspace / "configs.json",
                "--data", toy_workspace / "data",
                "--out", tmp_path,
                "--jobs", jobs,
            )
        assert exc.value.code == 2
        assert not (tmp_path / "results.csv").exists()

    def test_rerun_is_byte_identical(self, toy_workspace, toy_run, tmp_path):
        _, first_out = toy_run
        second_out = tmp_path / "out2"
        code = run_cli(
            "run",
            "--config", toy_workspace / "configs.json",
            "--data", toy_workspace / "data",
            "--out", second_out,
        )
        assert code == EXIT_OK
        assert (first_out / "results.csv").read_bytes() == (second_out / "results.csv").read_bytes()

    def test_jobs_flag_gives_same_bytes(self, toy_workspace, toy_run, tmp_path):
        _, first_out = toy_run
        jobs_out = tmp_path / "outjobs"
        code = run_cli(
            "run",
            "--config", toy_workspace / "configs.json",
            "--data", toy_workspace / "data",
            "--out", jobs_out,
            "--jobs", 4,
        )
        assert code == EXIT_OK
        assert (first_out / "results.csv").read_bytes() == (jobs_out / "results.csv").read_bytes()

    def test_partial_failure_isolates_bad_config(self, toy_workspace, tmp_path, capsys):
        doc = json.loads((toy_workspace / "configs.json").read_text())
        doc["configs"][2]["tasks"] = ["missing-task"]
        bad_path = tmp_path / "partial.json"
        bad_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code = run_cli(
            "run", "--config", bad_path, "--data", toy_workspace / "data", "--out", out_dir
        )
        assert code == EXIT_PARTIAL
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 surviving configs
        err = capsys.readouterr().err
        assert "FAILED" in err and "missing-task" in err

    def test_batch_work_counts(self, toy_workspace, tmp_path, monkeypatch):
        # The toy schedule, built without training. 9 searches of 4
        # candidates in one batch search: one lockstep loop per class count
        # (topics2 and pairs2 together, topics3 alone). Then 21 distinct
        # members of the 33 declared (t3 reuses t2's unpruned fits, t5 reuses
        # t1's full-data logreg): per task, t1's loop also trains t2's and
        # t4's members, and t5's MLP trains alone.
        configs = parse_config_file(toy_workspace / "configs.json")
        data = load_data_dir(toy_workspace / "data", sorted({t for c in configs for t in c.tasks}))
        wanted = dict.fromkeys(
            (task, m.model_kind, m.feature_spec)
            for c in configs for task in c.tasks for m in c.members if m.hyper_override is None
        )
        search = experiment._loops([
            experiment._shape(spec, hyper, len(data[task].train), data[task].train.num_classes)
            for task, kind, spec in wanted for hyper in experiment.DEFAULT_SEARCH_SPACE[kind]
        ])
        # Any winner gives the same plan: only shapes and identity matter.
        winners = {want: experiment.DEFAULT_HYPER[want[1]] for want in wanted}
        plan = experiment._schedule(experiment._batch_consumers(configs, data, winners)[0], data)
        assert [len(members) for _, _, members in search] == [24, 12]
        assert [len(loop) for loop in plan] == [6, 6, 6, 1, 1, 1]
        assert sum(len(members) for *_, members in search) + sum(map(len, plan)) == 57
        assert not any(td._cache for td in data.values())  # nothing built, nothing trained

        # The run follows the plan, with one design matrix per (task, split, feature space).
        loops = record_loops(monkeypatch)
        calls = count_calls(monkeypatch, experiment, ("_search", "_design_matrix"))
        stacks = []  # the shapes of the first step's stacked parameters
        real_step = predictor._loss_and_grads

        def step(params, *args, **kwargs):
            if not stacks:
                stacks.append({name: arr.shape for name, arr in params.items()})
            return real_step(params, *args, **kwargs)

        monkeypatch.setattr(predictor, "_loss_and_grads", step)
        code = run_cli(
            "run",
            "--config", toy_workspace / "configs.json",
            "--data", toy_workspace / "data",
            "--out", tmp_path,
        )
        assert code == EXIT_OK
        assert calls == {"_search": 1, "_design_matrix": 27}
        assert [len(loop.members) for loop in loops] == [24, 12, 6, 6, 6, 1, 1, 1]
        assert [[m.spec for m in loop.members] for loop in loops[2:]] == [
            [fit.spec for fit in loop] for loop in plan
        ]
        assert [loop.search for loop in loops] == [True] * 2 + [False] * 6
        assert [loop.sources for loop in loops] == [6, 3, 3, 3, 3, 1, 1, 1]
        # The first search loop stacks its 24 logreg members at their own
        # sizes: 8 each of 512, 1024 and 2048 dims times 2 classes, 57,344
        # first-layer weights (24 * 2048 * 2 = 98,304 padded to the widest).
        assert stacks[0] == {"out_weight": (8 * (512 + 1024 + 2048) * 2,), "out_bias": (24, 2)}
        assert loops[0].params == 57_344 + 24 * 2

    def test_toy_steps_add_the_whole_product(self, toy_workspace, tmp_path, monkeypatch):
        # Every toy step's batch holds at least about a tenth as many entries
        # as its stack has input columns, above predictor._SPARSE_DENSITY:
        # all 2,160 steps add the zero-filled gradient product, none adds at
        # its own cells only.
        steps, sparse = [], []
        real_step, real_add = predictor._loss_and_grads, predictor._Rows.add_product

        def step(*args, **kwargs):
            steps.append(kwargs["work"])
            return real_step(*args, **kwargs)

        def add_product(self, *args):
            sparse.append(self.shape)
            return real_add(self, *args)

        monkeypatch.setattr(predictor, "_loss_and_grads", step)
        monkeypatch.setattr(predictor._Rows, "add_product", add_product)
        code = run_cli(
            "run",
            "--config", toy_workspace / "configs.json",
            "--data", toy_workspace / "data",
            "--out", tmp_path,
        )
        assert code == EXIT_OK
        assert len(steps) == 2160 and all(work is not None for work in steps)
        assert sparse == []

    def test_seed_override_changes_bagged_results(self, toy_workspace, toy_run, tmp_path):
        _, first_out = toy_run
        seeded_out = tmp_path / "outseed"
        code = run_cli(
            "run",
            "--config", toy_workspace / "configs.json",
            "--data", toy_workspace / "data",
            "--out", seeded_out,
            "--seed", 999,
        )
        assert code == EXIT_OK
        assert (first_out / "results.csv").read_bytes() != (seeded_out / "results.csv").read_bytes()


class TestVariance:
    def test_csv_shape(self, toy_workspace, tmp_path, capsys):
        out_dir = tmp_path / "var"
        code = run_cli(
            "variance",
            "--task", "topics2",
            "--data", toy_workspace / "data",
            "--out", out_dir,
            "--model", "logreg",
            "--dims", 256,
            "--n", 4,
            "--m", 2,
            "--seed", 5,
        )
        assert code == EXIT_OK
        lines = (out_dir / "variance_topics2.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 + 4 + 4
        assert file_hashes(out_dir, GOLDEN_VARIANCE_LOGREG) == GOLDEN_VARIANCE_LOGREG

    def test_mlp_pruned_golden_bytes(self, toy_workspace, tmp_path):
        out_dir = tmp_path / "var"
        code = run_cli(
            "variance",
            "--task", "topics3",
            "--data", toy_workspace / "data",
            "--out", out_dir,
            "--model", "mlp",
            "--dims", 256,
            "--hidden", 8,
            "--prune", 0.3,
            "--n", 3,
            "--m", 2,
            "--seed", 5,
        )
        assert code == EXIT_OK
        assert file_hashes(out_dir, GOLDEN_VARIANCE_MLP_PRUNED) == GOLDEN_VARIANCE_MLP_PRUNED

    def test_plan_written_from_seeds_without_drawing_a_sample(self, toy_workspace, tmp_path,
                                                              monkeypatch):
        train = load_data_dir(toy_workspace / "data", ["topics2"])["topics2"].train
        expected = resample.plan_to_manifest(resample.make_plan(3, 2, len(train), 0))
        loops = record_loops(monkeypatch)
        calls = count_calls(monkeypatch, resample, ("make_plan", "bootstrap"))
        code = run_cli(
            "variance",
            "--task", "topics2",
            "--data", toy_workspace / "data",
            "--out", tmp_path,
            "--dims", 256,
            "--n", 3,
            "--m", 2,
        )
        assert code == EXIT_OK
        assert calls == {"make_plan": 0, "bootstrap": 0}
        assert (tmp_path / "plan_topics2.json").read_text() == expected
        # Every single model and ensemble member, as many first-level samples
        # per lockstep loop as the width rule allows.
        assert sum(len(loop.members) for loop in loops) == 3 + 3 * 2
        per_loop = max(1, experiment._MAX_GROUP_PARAMS // (3 * (256 * 2 + 2)))
        assert len(loops) == -(-3 // per_loop)

    def test_colliding_seeds_exit_5_and_write_nothing(self, toy_workspace, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(resample, "derive_seed", lambda *key: 7)
        out_dir = tmp_path / "var"
        code = run_cli(
            "variance",
            "--task", "topics2",
            "--data", toy_workspace / "data",
            "--out", out_dir,
            "--dims", 256,
            "--n", 3,
            "--m", 2,
        )
        assert code == EXIT_IO
        assert "derived sample seeds collide; change base_seed" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("per_loop", [1, 2])
    def test_split_groups_give_the_same_report(self, toy_workspace, tmp_path, monkeypatch,
                                               per_loop):
        def variance(out_dir):
            code = run_cli(
                "variance",
                "--task", "topics2",
                "--data", toy_workspace / "data",
                "--out", out_dir,
                "--dims", 256,
                "--n", 5,
                "--m", 2,
            )
            assert code == EXIT_OK
            return (out_dir / "variance_topics2.csv").read_bytes()

        whole = variance(tmp_path / "whole")
        loops = record_loops(monkeypatch)
        # A cap that fits per_loop first-level samples of 3 logreg-256 fits each.
        monkeypatch.setattr(experiment, "_MAX_GROUP_PARAMS", per_loop * 3 * (256 * 2 + 2))
        assert variance(tmp_path / "split") == whole
        sizes = [len(loop.members) for loop in loops]
        assert sizes == [3 * per_loop] * (5 // per_loop) + [3] * (5 % per_loop)

    def test_n_one_is_usage_error(self, toy_workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "variance",
                "--task", "topics2",
                "--data", toy_workspace / "data",
                "--out", tmp_path,
                "--n", 1,
                "--m", 2,
            )
        assert exc.value.code == 2

    def test_two_seeds_distinct_but_consistent(self, toy_workspace, tmp_path):
        outputs = []
        for seed in (1, 2):
            out_dir = tmp_path / f"var{seed}"
            code = run_cli(
                "variance",
                "--task", "topics2",
                "--data", toy_workspace / "data",
                "--out", out_dir,
                "--dims", 256,
                "--n", 3,
                "--m", 2,
                "--seed", seed,
            )
            assert code == EXIT_OK
            text = (out_dir / "variance_topics2.csv").read_text()
            outputs.append(text)
            rows = [line.split(",") for line in text.splitlines()[1:]]
            singles = [float(r[7]) for r in rows if r[5] == "single"]
            mean_cell = next(float(r[7]) for r in rows if r[5] == "single_mean")
            assert mean_cell == pytest.approx(np.mean(singles), abs=1e-6)
        assert outputs[0] != outputs[1]


class TestPruneVerb:
    def test_round_trip(self, tmp_path, capsys):
        td = synthetic_task("clip", seed=2, n_train=60, n_val=20, n_test=20)
        model = fit(td.train, FeatureSpec(dims=128), Hyperparams(epochs=3))
        src = tmp_path / "model.npz"
        dst = tmp_path / "pruned.npz"
        save_model(model, src)
        code = run_cli("prune", "--model", src, "--out", dst, "--fraction", 0.5)
        assert code == EXIT_OK
        pruned = load_model(dst)
        total = sum(a.size for a in pruned.params.values())
        assert sparsity(pruned) == pytest.approx(int(0.5 * total) / total)

    def test_writes_exactly_the_given_path(self, tmp_path, capsys):
        td = synthetic_task("clip", seed=2, n_train=60, n_val=20, n_test=20)
        model = fit(td.train, FeatureSpec(dims=128), Hyperparams(epochs=3))
        src = tmp_path / "model.npz"
        save_model(model, src)
        dst = tmp_path / "p"
        code = run_cli("prune", "--model", src, "--out", dst, "--fraction", 0.5)
        assert code == EXIT_OK
        assert f"wrote {dst}:" in capsys.readouterr().out
        assert dst.is_file() and not (tmp_path / "p.npz").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz", "p"]
        expected = prune_magnitude(model, PruneSpec(0.5))
        loaded = load_model(dst)
        assert loaded.hyper == expected.hyper and loaded.spec == expected.spec
        for name, arr in expected.params.items():
            assert np.array_equal(loaded.params[name], arr)

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        td = synthetic_task("clip", seed=2, n_train=60, n_val=20, n_test=20)
        src = tmp_path / "model.npz"
        save_model(fit(td.train, FeatureSpec(dims=128), Hyperparams(epochs=1)), src)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = run_cli("prune", "--model", src, "--out", blocker / "p", "--fraction", 0.1)
        assert code == EXIT_IO
        assert "cannot write" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path, capsys):
        code = run_cli(
            "prune", "--model", tmp_path / "no.npz", "--out", tmp_path / "o.npz", "--fraction", 0.1
        )
        assert code == EXIT_IO


class TestReportVerb:
    def test_prints_top_rows(self, toy_run, capsys):
        _, out_dir = toy_run
        code = run_cli("report", "--results", out_dir / "results.csv", "--top", 2)
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3  # header + 2 rows
        assert out[0].startswith("config_id")

    def test_missing_results(self, tmp_path):
        assert run_cli("report", "--results", tmp_path / "none.csv") == EXIT_IO


def _write_config(path, member=None, **config):
    doc = {
        "config_id": "c1",
        "config_type": "single",
        "tasks": ["t"],
        "base_seed": 7,
        "members": [{"model_kind": "logreg", "feature_spec": {"dims": 64}, **(member or {})}],
        **config,
    }
    path.write_text(json.dumps({"configs": [doc]}))


def _write_task_dir(data_dir, **meta):
    task_dir = data_dir / "t"
    task_dir.mkdir(parents=True)
    doc = {"num_classes": 2, "label_map": {"no": 0, "yes": 1}, **meta}
    (task_dir / "task.json").write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "member, config, task_meta, expected_code, located",
    [
        ({"bagged": "no"}, {}, None, EXIT_VALIDATION, "members[0].bagged"),
        ({"bagged": 1}, {}, None, EXIT_VALIDATION, "members[0].bagged"),
        ({"prune_fraction": "abc"}, {}, None, EXIT_VALIDATION, "members[0].prune_fraction"),
        ({"prune_fraction": True}, {}, None, EXIT_VALIDATION, "members[0].prune_fraction"),
        ({"feature_spec": {"dims": 64, "lowercase": "no"}}, {}, None, EXIT_VALIDATION,
         "feature_spec.lowercase"),
        ({"feature_spec": {"dims": 64, "ngram_max": 2.0}}, {}, None, EXIT_VALIDATION,
         "feature_spec.ngram_max"),
        ({"hyper_override": {"learning_rate": 0.5, "epochs": 2.5, "l2": 0.0, "hidden_size": 0,
                             "seed": 0}}, {}, None, EXIT_VALIDATION, "hyper_override.epochs"),
        ({"hyper_override": {"learning_rate": 0.5, "epochs": 0, "l2": 0.0, "hidden_size": 0,
                             "seed": 0}}, {}, None, EXIT_VALIDATION, "members[0]: epochs"),
        ({"hyper_override": {"learning_rate": float("nan"), "epochs": 2, "l2": 0.0,
                             "hidden_size": 0, "seed": 0}}, {}, None, EXIT_VALIDATION,
         "members[0]: learning_rate must be a finite float, got nan"),
        ({"hyper_override": {"learning_rate": 0.5, "epochs": 2, "l2": float("inf"),
                             "hidden_size": 0, "seed": 0}}, {}, None, EXIT_VALIDATION,
         "members[0]: l2 must be a finite float, got inf"),
        ({}, {"base_seed": 7.9}, None, EXIT_VALIDATION, "base_seed"),
        ({}, {"base_seed": True}, None, EXIT_VALIDATION, "base_seed"),
        ({}, {"base_seed": -5}, None, EXIT_VALIDATION, "configs[0]: config 'c1': base_seed"),
        ({}, {"base_seed": 2**64}, None, EXIT_VALIDATION, "configs[0]: config 'c1': base_seed"),
        ({}, {"tasks": ["t", "u", "t"]}, None, EXIT_VALIDATION,
         "configs[0]: config 'c1': duplicate task 't'"),
        ({}, {"tasks": ["t", "../data/t"]}, None, EXIT_VALIDATION,
         "configs[0].tasks[1]: task name '../data/t' must be one directory name"),
        (None, None, {"num_classes": "two"}, EXIT_IO, "num_classes"),
        (None, None, {"num_classes": 2.0}, EXIT_IO, "num_classes"),
        (None, None, {"label_map": {"no": 0, "yes": "one"}}, EXIT_IO, "label_map['yes']"),
        (None, None, {"label_map": ["no", "yes"]}, EXIT_IO, "label_map"),
        (None, None, {"metric": "f1"}, EXIT_IO, "task.json: metric"),
        (None, None, {"num_classes": 1}, EXIT_IO, "task.json: num_classes"),
        (None, None, {"label_map": {"no": 0, "yes": 5}}, EXIT_IO, "task.json: label_map['yes']"),
        (None, None, {"num_classes": 3}, EXIT_IO, "task.json"),
    ],
    ids=[
        "bagged-string", "bagged-int", "prune-string", "prune-bool", "lowercase-string",
        "ngram-float", "epochs-float", "epochs-zero", "learning-rate-nan", "l2-infinity",
        "seed-float", "seed-bool", "seed-negative", "seed-too-large", "task-duplicate",
        "task-path", "classes-string",
        "classes-float", "label-index-string", "label-map-list", "metric-unknown", "classes-one",
        "label-index-range", "classes-unreachable",
    ],
)
def test_wrong_json_types_are_located_errors(
    tmp_path, capsys, member, config, task_meta, expected_code, located
):
    """No value is coerced: each bad type ends in exit 3 or 5, naming the field."""
    if task_meta is None:
        path = tmp_path / "configs.json"
        _write_config(path, member, **config)
        code = run_cli("validate", "--config", path)
    else:
        _write_task_dir(tmp_path / "data", **task_meta)
        code = run_cli(
            "variance", "--task", "t", "--data", tmp_path / "data", "--out", tmp_path / "out",
            "--n", 2, "--m", 1,
        )
    assert code == expected_code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and located in err


@pytest.mark.parametrize("task", ["../data/topics2", "topics2/", "..", ".", ""])
def test_variance_task_is_one_directory_name(toy_workspace, tmp_path, capsys, task):
    """--task names a subdirectory of --data, not a path: exit 3, and nothing is written."""
    code = run_cli("variance", "--task", task, "--data", toy_workspace / "data",
                   "--out", tmp_path / "out", "--n", 2, "--m", 1)
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"task name {task!r} must be one directory name" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["configs.json", "task.json", "train.jsonl", "results.csv"])
def test_non_utf8_input_is_located_io_error(toy_workspace, tmp_path, capsys, name):
    """A byte that is not UTF-8 in any input file exits 5 naming the file."""
    shutil.copytree(toy_workspace / "data" / "topics2", tmp_path / "data" / "t")
    shutil.copy(toy_workspace / "configs.json", tmp_path)
    (tmp_path / "results.csv").write_text("config_id,avg_accuracy\nc1,0.9000\nc2,0.8000\n")
    path = next(tmp_path.rglob(name))
    data = path.read_bytes()
    path.write_bytes(data[:20] + b"\xff" + data[20:])
    argv = {
        "configs.json": ["validate", "--config", path],
        "results.csv": ["report", "--results", path],
    }.get(name, ["variance", "--task", "t", "--data", tmp_path / "data", "--out", tmp_path / "out",
                 "--dims", 16, "--n", 2, "--m", 1])
    assert run_cli(*argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def _write_task_files(task_dir, train_line_2):
    """Valid train, val and test files for task t, with line 2 of train.jsonl replaced."""
    for part, count in (("train", 8), ("val", 4), ("test", 4)):
        labels = [("no", "yes")[i % 2] for i in range(count)]
        lines = [
            json.dumps({"id": f"{part}{i}", "text_a": f"alpha beta w{i}", "label": label})
            for i, label in enumerate(labels)
        ]
        if part == "train":
            lines[1] = train_line_2
        (task_dir / f"{part}.jsonl").write_text("\n".join(lines) + "\n")


# The file holds the JSON escape \ud800: it loads as a lone surrogate, which
# has no UTF-8 bytes to hash.
SURROGATE_LINE = '{"id": "train1", "text_a": "alpha beta \\ud800", "label": "yes"}'
BAD_TRAIN_LINES = {
    "surrogate": (SURROGATE_LINE, "example 'train1': text_a is not valid Unicode at position 11"),
    "malformed": ('{"id": "train1", "text_a": ', "not valid JSON"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRAIN_LINES))
def test_run_prints_the_located_load_error(tmp_path, capsys, case):
    line, reason = BAD_TRAIN_LINES[case]
    _write_task_dir(tmp_path / "data")
    _write_task_files(tmp_path / "data" / "t", line)
    _write_config(tmp_path / "configs.json")
    code = run_cli(
        "run", "--config", tmp_path / "configs.json", "--data", tmp_path / "data",
        "--out", tmp_path / "out",
    )
    assert code == EXIT_PARTIAL
    err = capsys.readouterr().err
    located = f"{tmp_path / 'data' / 't' / 'train.jsonl'}:2: "
    assert err.count(located) == 1 and reason in err
    assert "FAILED c1: config 'c1': unavailable tasks ['t']" in err


def test_variance_lone_surrogate_is_located_io_error(tmp_path, capsys):
    _write_task_dir(tmp_path / "data")
    _write_task_files(tmp_path / "data" / "t", SURROGATE_LINE)
    code = run_cli(
        "variance", "--task", "t", "--data", tmp_path / "data", "--out", tmp_path / "out",
        "--n", 2, "--m", 1,
    )
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train.jsonl:2: " in err
    assert BAD_TRAIN_LINES["surrogate"][1] in err


def _model_meta(path):
    with np.load(path) as npz:
        return json.loads(str(npz["meta"][()])), {k: npz[k] for k in npz.files if k != "meta"}


def _patch_first_member(data: bytes, case: str) -> bytes:
    """npz bytes whose first zip member claims encryption or another compression."""
    b = bytearray(data)
    central = b.find(b"PK\x01\x02")
    if case == "zip-encrypted":
        b[central + 8] |= 1  # general purpose flag, bit 0
        return bytes(b)
    struct.pack_into("<H", b, central + 10, 99 if case == "zip-method-99" else 8)
    if case == "zip-deflate-garbage":
        name_len, extra_len = struct.unpack_from("<HH", b, 26)
        b[30 + name_len + extra_len] = 0x07  # a deflate block of the reserved type
    return bytes(b)


@pytest.mark.parametrize(
    "case",
    ["garbage", "meta-list", "no-param-order", "no-param-array", "spec-wrong-type",
     "spec-missing-field", "spec-bad-value", "hyper-nan-learning-rate", "param-wrong-length",
     "zip-encrypted", "zip-method-99", "zip-deflate-garbage", "num-classes-0", "num-classes-1"],
)
def test_foreign_model_file_is_located_io_error(tmp_path, capsys, case):
    """A model file that save_model did not write exits 5 naming the file."""
    td = synthetic_task("clip", seed=2, n_train=40, n_val=10, n_test=10)
    save_model(fit(td.train, FeatureSpec(dims=16), Hyperparams(epochs=1)), tmp_path / "good.npz")
    meta, arrays = _model_meta(tmp_path / "good.npz")
    if case == "meta-list":
        meta = [meta]
    elif case == "no-param-order":
        del meta["param_order"]
    elif case == "no-param-array":
        del arrays["param:out_bias"]
    elif case == "spec-wrong-type":
        meta["spec"]["lowercase"] = "yes"
    elif case == "spec-missing-field":
        del meta["spec"]["ngram_max"]
    elif case == "spec-bad-value":
        meta["spec"]["dims"] = 17
    elif case == "hyper-nan-learning-rate":
        meta["hyper"]["learning_rate"] = float("nan")  # json.dumps writes NaN, and loads reads it
    elif case == "param-wrong-length":
        arrays["param:out_bias"] = np.zeros(5)
    elif case.startswith("num-classes-"):
        # Arrays of the lengths that class count implies: only the count is wrong.
        meta["num_classes"] = k = int(case[-1])
        arrays = {"param:out_weight": np.zeros(16 * k), "param:out_bias": np.zeros(k)}
    path = tmp_path / "bad.npz"
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
    if case == "garbage":
        path.write_text("garbage")
    elif case.startswith("zip-"):
        path.write_bytes(_patch_first_member(path.read_bytes(), case))
    code = run_cli("prune", "--model", path, "--out", tmp_path / "p.npz", "--fraction", 0.1)
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    if case.startswith("num-classes-"):
        assert f"num_classes must be >= 2, got {case[-1]}" in err
    assert not (tmp_path / "p.npz").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["variance", "--dims", 1000], "--dims"),
        (["variance", "--model", "mlp", "--hidden", -1], "--hidden"),
        (["variance", "--model", "mlp", "--hidden", 0], "--hidden"),
        (["variance", "--prune", 1.5], "--prune"),
        (["prune", "--fraction", 1.5], "--fraction"),
        (["variance", "--model", "logreg", "--hidden", 5], "--hidden"),
        (["variance", "--hidden", 16], "--hidden"),  # logreg is the default model
    ],
)
def test_bad_flag_value_is_validation_error(toy_workspace, tmp_path, capsys, argv, flag):
    """A flag value its spec rejects exits 3 naming the flag, before any input is read."""
    common = {
        "variance": ["--task", "topics2", "--data", toy_workspace / "data", "--out", tmp_path,
                     "--n", 2, "--m", 1],
        "prune": ["--model", tmp_path / "absent.npz", "--out", tmp_path / "p.npz"],
    }[argv[0]]
    assert run_cli(*argv, *common) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", ["run", "report"])
def test_negative_top_is_usage_error(toy_workspace, tmp_path, verb):
    argv = {
        "run": ["--config", toy_workspace / "configs.json", "--data", toy_workspace / "data",
                "--out", tmp_path],
        "report": ["--results", tmp_path / "results.csv"],
    }[verb]
    with pytest.raises(SystemExit) as exc:
        run_cli(verb, *argv, "--top", -3)
    assert exc.value.code == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", ["run", "variance"])
@pytest.mark.parametrize("seed", [-1, -3, 2**64, 2**64 + 5])
def test_seed_out_of_range_is_usage_error(toy_workspace, tmp_path, verb, seed):
    """A seed outside [0, 2**64) is refused, not wrapped onto one inside it."""
    argv = {
        "run": ["--config", toy_workspace / "configs.json"],
        "variance": ["--task", "topics2", "--n", 2, "--m", 1],
    }[verb]
    with pytest.raises(SystemExit) as exc:
        run_cli(verb, *argv, "--data", toy_workspace / "data", "--out", tmp_path, "--seed", seed)
    assert exc.value.code == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


def test_cli_import_loads_no_scipy():
    """bagkit needs numpy alone: a fresh `import bagkit.cli` loads no scipy module."""
    code = (
        "import bagkit.cli, sys; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bagkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
