"""Differential test of batch scheduling: `bagkit run` against every fit trained alone.

Each case draws a tiny workspace and batch, runs ``bagkit run`` on it with
``--jobs 1`` and ``--jobs 2``, and compares the outputs, the FAILED lines
and the exit code with a reference written here. The reference trains every
grid-search candidate and every member on its own (`solo`), scores
the candidates, prunes and votes per configuration, and shares nothing
across configurations. When the batch ends, no trained model may still be
held.
"""

import contextlib
import gc
import io
import json
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagkit import cli, experiment
from bagkit.config import load_data_dir, parse_config_file
from bagkit.ensemble import Ensemble, predict_dataset
from bagkit.errors import BagkitError, TrainingDiverged
from bagkit.experiment import CONFIG_TYPE_LABELS, ConfigResult, sampling_manifest, write_report
from bagkit.metrics import evaluate
from bagkit.predictor import Model, _design_matrix, _Member, param_count, predict_proba_dataset
from bagkit.prune import PruneSpec, prune_magnitude
from bagkit.resample import _task_seed, bootstrap, derive_seed
from bagkit.toy import _dump_jsonl, synthetic_task
from conftest import solo

CASES = settings(max_examples=20, derandomize=True, deadline=None, database=None)

# Two-epoch search candidates keep a case fast; the scheduling is the same.
SEARCH = {
    kind: tuple(replace(h, epochs=2) for h in space)
    for kind, space in experiment.DEFAULT_SEARCH_SPACE.items()
}
# (learning_rate, l2, epochs) of overrides: the last diverges within about 35 steps.
OVERRIDES = [(0.5, 1e-4, 2), (0.1, 0.0, 40), (1e6, 1e3, 40)]
KEPT = {"rows", "labels", "search", "plan"}  # what a TaskData may keep across a batch


@st.composite
def tasks(draw):
    """2-3 tasks: (train rows, classes, metric, seed); few sizes, so some match."""
    return [
        (draw(st.sampled_from([20, 40, 80])), draw(st.sampled_from([2, 3])),
         draw(st.sampled_from(["accuracy", "macro_f1"])), 60 + t)
        for t in range(draw(st.integers(2, 3)))
    ]


@st.composite
def architectures(draw, kind=None):
    """(kind, dims, ngram_max, hidden size or None for the searched MLP)."""
    kind = kind or draw(st.sampled_from(["logreg", "mlp"]))
    hidden = 0 if kind == "logreg" else draw(st.sampled_from([None, 4]))
    return kind, draw(st.sampled_from([16, 64, 256])), draw(st.integers(1, 2)), hidden


@st.composite
def members(draw, arch, pruned):
    kind, dims, ngram, hidden = arch
    doc = {"model_kind": kind, "feature_spec": {"dims": dims, "ngram_max": ngram},
           "bagged": draw(st.booleans())}
    if pruned:
        doc["prune_fraction"] = 0.3
    if hidden == 4 or (kind == "logreg" and draw(st.booleans())):
        lr, l2, epochs = draw(st.sampled_from(OVERRIDES))
        doc["hyper_override"] = {"learning_rate": lr, "epochs": epochs, "l2": l2,
                                 "hidden_size": hidden, "seed": 0}
    return doc


@st.composite
def configs(draw, names):
    ctype = draw(st.sampled_from(sorted(CONFIG_TYPE_LABELS)))
    pruned = ctype.endswith("pruned")
    if ctype == "single":
        docs = [draw(members(draw(architectures()), draw(st.booleans())))]
    elif ctype.startswith("homo"):
        arch = draw(architectures())
        docs = [draw(members(arch, pruned and k == 0)) for k in range(draw(st.integers(2, 3)))]
    else:
        if ctype == "hetero_same_family":
            first = draw(architectures())
            other = draw(architectures(first[0]))
            archs = [first, (other[0], 2048 if first[1] == 256 else 256, *other[2:])]
        else:
            archs = [draw(architectures("logreg")), draw(architectures("mlp"))]
        archs += [draw(architectures(archs[0][0]))] * draw(st.integers(0, 1))
        docs = [draw(members(arch, pruned and k == 0)) for k, arch in enumerate(archs)]
    return {
        "config_id": "c", "config_type": ctype, "base_seed": draw(st.integers(0, 1)),
        "tasks": draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        + ["ghost"] * (draw(st.integers(0, 7)) == 0),  # a task the workspace lacks
        "members": docs,
    }


@st.composite
def batches(draw):
    workspace = draw(tasks())
    names = [f"t{t}" for t in range(len(workspace))]
    docs = draw(st.lists(configs(names), min_size=1, max_size=4))
    # Repeat a configuration's members, on its tasks or others, so that
    # configurations share fits.
    for k in draw(st.lists(st.integers(0, len(docs) - 1), max_size=2)):
        docs.append(dict(docs[k], tasks=draw(st.sampled_from([docs[k]["tasks"], names]))))
    return workspace, [dict(doc, config_id=f"c{k}") for k, doc in enumerate(docs)]


# The leak case: `bad` fails on t0, so its t1 fits must not train for `good`.
DIVERGING = {"learning_rate": 1e6, "epochs": 40, "l2": 1e3, "hidden_size": 0, "seed": 0}
FINE = dict(DIVERGING, learning_rate=0.5, l2=1e-4)
LEAK = (
    [(40, 2, "accuracy", 60), (40, 2, "accuracy", 61)],
    [
        {"config_id": "bad", "config_type": "homo", "base_seed": 0, "tasks": ["t0", "t1"],
         "members": [{"model_kind": "logreg", "feature_spec": {"dims": 16}, "bagged": True,
                      "hyper_override": DIVERGING}] * 2},
        {"config_id": "good", "config_type": "homo", "base_seed": 0, "tasks": ["t1"],
         "members": [{"model_kind": "logreg", "feature_spec": {"dims": 256}, "bagged": True,
                      "hyper_override": FINE}] * 2},
    ],
)


def write_workspace(root: Path, workspace, docs) -> None:
    for t, (rows, classes, metric, seed) in enumerate(workspace):
        task = synthetic_task(f"t{t}", seed=seed, num_classes=classes, n_train=rows, n_val=12,
                              n_test=16)
        names = [f"l{c}" for c in range(classes)]
        task_dir = root / "data" / f"t{t}"
        for part in ("train", "val", "test"):
            _dump_jsonl(getattr(task, part), names, task_dir / f"{part}.jsonl")
        meta = {"num_classes": classes, "label_map": {n: c for c, n in enumerate(names)},
                "metric": metric}
        (task_dir / "task.json").write_text(json.dumps(meta))
    (root / "configs.json").write_text(json.dumps({"configs": docs}))


def winner(task, member):
    """The grid-search winner, every candidate trained alone; ties go to the earlier."""
    spec = member.feature_spec
    x, y = _design_matrix(task.train, spec), task.train.labels()
    best = None
    for candidate in SEARCH[member.model_kind]:
        model = solo(_Member(x, y, task.train.num_classes, spec, candidate, np.arange(len(y))))
        if isinstance(model, TrainingDiverged):
            continue
        preds = np.argmax(predict_proba_dataset(model, task.val), axis=1)
        score = evaluate(preds, task.val.labels(), task.val.num_classes).metric(task.metric)
        if best is None or score > best[0]:
            best = (score, candidate)
    if best is None:
        raise TrainingDiverged("every candidate in the hyperparameter space diverged")
    return best[1]


def alone(config, data) -> ConfigResult:
    """One configuration, each of its fits trained on its own."""
    accuracy, macro_f1, total_params = {}, {}, 0
    for task_name in config.tasks:
        task, cid = data[task_name], config.config_id
        hypers = [m.hyper_override or winner(task, m) for m in config.members]
        task_seed, n = _task_seed(config.base_seed, task_name), len(task.train)
        models = []
        for k, (member, hyper) in enumerate(zip(config.members, hypers)):
            seed = derive_seed(task_seed, 1, k) if member.bagged else derive_seed(task_seed, 0, 0)
            rows = np.array(bootstrap(n, seed).indices) if member.bagged else np.arange(n)
            model = solo(_Member(
                _design_matrix(task.train, member.feature_spec), task.train.labels(),
                task.train.num_classes, member.feature_spec, replace(hyper, seed=seed), rows,
            ))
            if isinstance(model, TrainingDiverged):
                raise TrainingDiverged(f"config {cid!r}, task {task_name!r}, member {k}: {model}")
            if member.prune_fraction > 0:
                model = prune_magnitude(model, PruneSpec(member.prune_fraction))
            models.append(model)
        winners, _ = predict_dataset(Ensemble(tuple(models), task.test.num_classes), task.test)
        result = evaluate(winners, task.test.labels(), task.test.num_classes)
        accuracy[task_name] = result.accuracy
        if task.metric == "macro_f1":
            macro_f1[task_name] = result.macro_f1
        total_params = max(total_params, sum(param_count(m) for m in models))
    return ConfigResult(
        config.config_id, accuracy, macro_f1, float(np.mean(list(accuracy.values()))),
        CONFIG_TYPE_LABELS[config.config_type], tuple(m.describe() for m in config.members),
        total_params,
    )


def reference(root: Path, out: Path) -> tuple[int, str]:
    """What `bagkit run` must write to out: its exit code and stderr."""
    configs = parse_config_file(root / "configs.json")
    data, err = {}, []
    for task in sorted({t for c in configs for t in c.tasks}):
        try:
            data.update(load_data_dir(root / "data", [task]))
        except BagkitError as exc:
            err.append(f"error: task {task!r}: {exc}")
    results, failures = [], []
    for config in configs:
        missing = [t for t in config.tasks if t not in data]
        try:
            if missing:
                raise BagkitError(f"config {config.config_id!r}: unavailable tasks {missing}")
            results.append(alone(config, data))
        except BagkitError as exc:
            failures.append(f"FAILED {config.config_id}: {exc}")
    if results:
        write_report(results, out / "results.csv")
        ran = [c for c in configs if c.config_id in {r.config_id for r in results}]
        (out / "run_manifest.json").write_text(json.dumps(sampling_manifest(ran, data), indent=2)
                                               + "\n")
    if failures:
        failures.append(f"{len(failures)} of {len(configs)} configuration(s) failed")
    return (cli.EXIT_PARTIAL if failures else cli.EXIT_OK), "".join(
        line + "\n" for line in err + failures
    )


def outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}


def test_batch_equals_every_fit_trained_alone(monkeypatch):
    for kind, space in SEARCH.items():
        monkeypatch.setitem(experiment.DEFAULT_SEARCH_SPACE, kind, space)
    trained: list = []  # a weak reference to each model a lockstep loop returned
    real_fit_many, real_manifest = experiment._fit_many, cli.sampling_manifest

    def fit_many(members):
        outcomes = real_fit_many(members)
        trained.extend(weakref.ref(m) for m in outcomes if isinstance(m, Model))
        return outcomes

    def manifest(configs, data):
        # The batch has ended: no model or use may still be held.
        gc.collect()
        assert [ref for ref in trained if ref() is not None] == []
        assert {key[0] for task in data.values() for key in task._cache} <= KEPT
        return real_manifest(configs, data)

    monkeypatch.setattr(experiment, "_fit_many", fit_many)
    monkeypatch.setattr(cli, "sampling_manifest", manifest)

    @CASES
    @given(batch=batches())
    @example(batch=LEAK)
    def check(batch):
        trained.clear()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_workspace(root, *batch)
            expected = reference(root, root / "expected")
            runs = []
            for jobs in (1, 2):
                out, err = root / f"out{jobs}", io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", "--config", str(root / "configs.json"),
                                     "--data", str(root / "data"), "--out", str(out),
                                     "--jobs", str(jobs)])
                runs.append((code, err.getvalue(), outputs(out)))
            assert runs[0] == runs[1]
            assert runs[0][:2] == expected
            assert runs[0][2] == outputs(root / "expected")

    check()
