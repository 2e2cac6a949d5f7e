"""Fuzz the input boundary: corrupted input files end in exit 3 or 5, never a traceback.

Each case takes the bytes of a valid input file, truncates them, flips bytes
or splices in junk, and runs the CLI verb that reads the file. A mutation
that leaves the file valid may exit 0.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagkit.cli import main
from bagkit.predictor import FeatureSpec, Hyperparams, fit, save_model
from bagkit.toy import synthetic_task

FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)
WORDS = {"no": "alpha beta gamma", "yes": "delta epsilon zeta"}


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data after one to three truncations, byte flips or junk splices."""
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        action = draw(st.sampled_from(["truncate", "flip", "splice"]))
        if action == "truncate":
            data = data[:pos]
        elif action == "flip" and data:
            data = data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))]) + data[pos + 1 :]
        else:
            data = data[:pos] + draw(st.binary(min_size=1, max_size=8)) + data[pos:]
    return data


def _write_task(task_dir: Path) -> None:
    task_dir.mkdir(parents=True)
    meta = {"num_classes": 2, "label_map": {"no": 0, "yes": 1}, "metric": "accuracy"}
    (task_dir / "task.json").write_text(json.dumps(meta))
    for part, count in (("train", 8), ("val", 4), ("test", 4)):
        labels = [("no", "yes")[i % 2] for i in range(count)]
        rows = [
            {"id": f"{part}{i}", "text_a": f"{WORDS[y]} w{i}", "label": y}
            for i, y in enumerate(labels)
        ]
        (task_dir / f"{part}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    _write_task(base / "data" / "t")
    member = {"model_kind": "logreg", "feature_spec": {"dims": 16}, "bagged": True}
    config = {
        "config_id": "c1", "config_type": "single", "tasks": ["t"], "base_seed": 3,
        "members": [member],
    }
    (base / "configs.json").write_text(json.dumps({"configs": [config]}, indent=2))
    td = synthetic_task("fz", seed=1, n_train=20, n_val=4, n_test=4)
    save_model(fit(td.train, FeatureSpec(dims=16), Hyperparams(epochs=1)), base / "model.npz")
    return base


def _run(argv, located: Path) -> None:
    """main(argv) exits 0, or 3 or 5 with an error that names a path under located."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code in (0, 3, 5), err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ") and str(located) in err.getvalue()


@pytest.mark.parametrize("name", ["task.json", "train.jsonl"])
def test_fuzzed_task_files(inputs, name):
    @FUZZ
    @given(data=mutated((inputs / "data" / "t" / name).read_bytes()))
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            shutil.copytree(inputs / "data", work / "data")
            (work / "data" / "t" / name).write_bytes(data)
            argv = ["variance", "--task", "t", "--data", work / "data", "--out", work / "out",
                    "--dims", 16, "--n", 2, "--m", 1]
            _run(argv, work / "data" / "t")

    check()


def test_fuzzed_config(inputs):
    @FUZZ
    @given(data=mutated((inputs / "configs.json").read_bytes()))
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "configs.json"
            path.write_bytes(data)
            _run(["validate", "--config", path], path)

    check()


def test_fuzzed_model(inputs):
    @FUZZ
    @given(data=mutated((inputs / "model.npz").read_bytes()))
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.npz"
            path.write_bytes(data)
            _run(["prune", "--model", path, "--out", Path(tmp) / "p.npz", "--fraction", 0.5], path)

    check()
