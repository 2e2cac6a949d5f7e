"""The benchmark's output checks accept real bagkit outputs and reject corrupted ones."""

from __future__ import annotations

import csv
import io
import json
import shutil
from pathlib import Path

import pytest

import checks
import run
from bagkit.cli import main as bagkit_main
from bagkit.toy import write_toy_workspace

HYPER = {"learning_rate": 0.5, "epochs": 10, "l2": 1e-4, "hidden_size": 0, "seed": 0}
CONFIG = {
    "configs": [
        {
            "config_id": "a-bagged",
            "config_type": "homo",
            "tasks": ["topics2", "topics3"],
            "base_seed": 5,
            "members": [
                {
                    "model_kind": "logreg",
                    "feature_spec": {"dims": 256},
                    "hyper_override": HYPER,
                    "bagged": True,
                }
            ]
            * 2,
        },
        {
            "config_id": "b-single",
            "config_type": "single",
            "tasks": ["topics2", "topics3"],
            "base_seed": 5,
            "members": [
                {
                    "model_kind": "mlp",
                    "feature_spec": {"dims": 256},
                    "hyper_override": dict(HYPER, hidden_size=4),
                }
            ],
        },
    ]
}
N, M, SEED = 3, 2, 9


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    root = tmp_path_factory.mktemp("perfbench_checks")
    data = write_toy_workspace(root / "ws") / "data"
    config_path = root / "configs.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    run_args = ["run", "--config", str(config_path), "--data", str(data), "--out", str(root / "run")]
    assert bagkit_main(run_args) == 0
    variance_args = ["variance", "--task", "topics2", "--data", str(data), "--out", str(root / "var")]
    variance_args += ["--dims", "256", "--n", str(N), "--m", str(M), "--seed", str(SEED)]
    assert bagkit_main(variance_args) == 0
    return root, data


@pytest.fixture
def outputs(made, tmp_path):
    root, data = made
    shutil.copytree(root / "run", tmp_path / "run")
    shutil.copytree(root / "var", tmp_path / "var")
    return tmp_path / "run", tmp_path / "var", data


def run_problems(run_dir, data):
    return checks.check_run(run_dir, CONFIG, data)


def variance_problems(var_dir, data):
    return checks.check_variance(var_dir, "topics2", data / "topics2", N, M, SEED)


def edit_csv(path: Path, edit) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def set_cell(rows, column: str, row: int, value: str) -> None:
    rows[row][rows[0].index(column)] = value


def test_real_outputs_pass(outputs):
    run_dir, var_dir, data = outputs
    assert run_problems(run_dir, data) == []
    assert variance_problems(var_dir, data) == []


def test_wrong_manifest_seed_is_rejected(outputs):
    run_dir, _, data = outputs

    def corrupt(doc):
        doc["entries"][0]["member_sample_seeds"][1] += 1

    edit_json(run_dir / "run_manifest.json", corrupt)
    assert any("run_manifest.json" in p for p in run_problems(run_dir, data))


def test_wrong_full_data_seed_is_rejected(outputs):
    run_dir, _, data = outputs

    def corrupt(doc):
        doc["entries"][-1]["full_data_seed"] ^= 1

    edit_json(run_dir / "run_manifest.json", corrupt)
    assert any("run_manifest.json" in p for p in run_problems(run_dir, data))


def test_wrong_plan_seed_is_rejected(outputs):
    _, var_dir, data = outputs

    def corrupt(doc):
        doc["second_level_seeds"][1][0] += 1

    edit_json(var_dir / "plan_topics2.json", corrupt)
    assert any("second_level_seeds" in p for p in variance_problems(var_dir, data))


def test_accuracy_that_is_not_a_count_is_rejected(outputs):
    run_dir, var_dir, data = outputs
    edit_csv(run_dir / "results.csv", lambda rows: set_cell(rows, "topics2_acc", 1, "0.901234"))
    assert any("not an integer count" in p for p in run_problems(run_dir, data))

    edit_csv(var_dir / "variance_topics2.csv", lambda rows: set_cell(rows, "value", 2, "0.917"))
    assert any("not an integer count" in p for p in variance_problems(var_dir, data))


def test_missorted_rows_are_rejected(outputs):
    run_dir, _, data = outputs

    def swap(rows):
        rows[1], rows[2] = rows[2], rows[1]

    edit_csv(run_dir / "results.csv", swap)
    assert any("not sorted" in p for p in run_problems(run_dir, data))


def test_wrong_average_is_rejected(outputs):
    run_dir, _, data = outputs

    def shift(rows):
        avg = float(rows[1][rows[0].index("avg_accuracy")])
        set_cell(rows, "avg_accuracy", 1, f"{avg + 1e-6:.6f}")

    edit_csv(run_dir / "results.csv", shift)
    assert any("avg_accuracy" in p for p in run_problems(run_dir, data))


def test_wrong_variance_summary_is_rejected(outputs):
    _, var_dir, data = outputs

    def shift(rows):
        std_row = next(r for r in rows if r[5] == "single_std")
        std_row[7] = f"{float(std_row[7]) + 1e-5:.6f}"

    edit_csv(var_dir / "variance_topics2.csv", shift)
    assert any("single_std" in p for p in variance_problems(var_dir, data))


def test_wrong_total_params_is_rejected(outputs):
    run_dir, _, data = outputs
    edit_csv(run_dir / "results.csv", lambda rows: set_cell(rows, "total_params", 2, "1234"))
    assert any("total_params" in p for p in run_problems(run_dir, data))


def test_accuracy_at_chance_is_rejected(outputs):
    run_dir, _, data = outputs
    edit_csv(run_dir / "results.csv", lambda rows: set_cell(rows, "topics2_acc", 1, "0.500000"))
    assert any("not above chance" in p for p in run_problems(run_dir, data))


def test_layer_self_time_and_queue_wait():
    doc = {
        "spans": [
            # id, parent, name, start, end, thread
            (1, 0, "predictor.featurize", 1.0, 1.5, 7),
            (0, None, "predictor.fit", 0.5, 3.0, 7),
            (2, None, "experiment.run_config", 0.25, 4.0, 7),
            (3, None, "experiment.run_config", 4.0, 5.0, 7),
        ],
        "distinct": {"predictor.fit": 1, "predictor.featurize": 1},
        "rows": {},
        "pool_starts": [0.0],
    }
    values = run.layer_metrics(doc)
    assert values["predictor.fit.self_s"] == pytest.approx(2.0)
    assert values["predictor.featurize.self_s"] == pytest.approx(0.5)
    assert values["predictor.fit.unique_ratio"] == 1.0
    assert values["cli.run_config.busy_s"] == pytest.approx(4.75)
    assert values["cli.run_config.wait_s"] == pytest.approx(4.25)
    assert values["experiment.variance_analysis.s"] == 0.0


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
