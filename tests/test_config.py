import json

import pytest

from bagkit.config import load_data_dir, load_task_dir, parse_config_file, parse_config_text
from bagkit.errors import ConfigError, DataError
from bagkit.toy import write_toy_workspace


def minimal_doc(**overrides):
    config = {
        "config_id": "c1",
        "config_type": "single",
        "tasks": ["t"],
        "base_seed": 7,
        "members": [{"model_kind": "logreg", "feature_spec": {"dims": 64}}],
    }
    config.update(overrides)
    return {"configs": [config]}


class TestParseConfig:
    def test_minimal_valid(self):
        (config,) = parse_config_text(json.dumps(minimal_doc()))
        assert config.config_id == "c1"
        assert config.members[0].feature_spec.dims == 64
        assert config.members[0].bagged is False
        assert config.members[0].prune_fraction == 0.0

    def test_toy_batch_parses(self, toy_workspace):
        configs = parse_config_file(toy_workspace / "configs.json")
        assert len(configs) == 5
        assert {c.config_type for c in configs} == {
            "single", "homo", "homo_pruned", "hetero_same_family", "hetero_diff_family",
        }

    def test_unknown_top_level_field(self):
        doc = minimal_doc()
        doc["comment"] = "hello"
        with pytest.raises(ConfigError, match="comment"):
            parse_config_text(json.dumps(doc))

    def test_unknown_config_field(self):
        with pytest.raises(ConfigError, match="notes"):
            parse_config_text(json.dumps(minimal_doc(notes="x")))

    def test_unknown_member_field(self):
        doc = minimal_doc()
        doc["configs"][0]["members"][0]["weight"] = 2.0
        with pytest.raises(ConfigError, match="weight"):
            parse_config_text(json.dumps(doc))

    def test_unknown_feature_field(self):
        doc = minimal_doc()
        doc["configs"][0]["members"][0]["feature_spec"]["buckets"] = 8
        with pytest.raises(ConfigError, match="buckets"):
            parse_config_text(json.dumps(doc))

    def test_hyper_override_requires_all_fields(self):
        doc = minimal_doc()
        doc["configs"][0]["members"][0]["hyper_override"] = {"learning_rate": 0.1}
        with pytest.raises(ConfigError, match="missing fields"):
            parse_config_text(json.dumps(doc))

    @pytest.mark.parametrize("field", ["learning_rate", "l2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                             ids=["nan", "inf", "-inf", "int-beyond-float"])
    def test_non_finite_hyperparameter_names_member_and_field(self, field, value):
        hyper = {"learning_rate": 0.5, "epochs": 2, "l2": 0.0, "hidden_size": 0, "seed": 0}
        doc = minimal_doc()
        doc["configs"][0]["members"][0]["hyper_override"] = {**hyper, field: value}
        with pytest.raises(ConfigError) as exc:
            parse_config_text(json.dumps(doc))
        located = f"configs[0].members[0]: {field} must be a finite float, got {value}"
        assert located in str(exc.value)

    def test_missing_config_fields(self):
        doc = {"configs": [{"config_id": "x"}]}
        with pytest.raises(ConfigError, match="missing fields"):
            parse_config_text(json.dumps(doc))

    def test_duplicate_config_id(self):
        doc = minimal_doc()
        doc["configs"].append(json.loads(json.dumps(doc["configs"][0])))
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(json.dumps(doc))

    def test_invalid_json_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config_text('{"configs": [\n  broken\n]}')

    def test_structural_violation_names_config(self):
        doc = minimal_doc()
        doc["configs"][0]["members"].append({"model_kind": "logreg"})
        with pytest.raises(ConfigError, match="c1"):
            parse_config_text(json.dumps(doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="nope.json"):
            parse_config_file(tmp_path / "nope.json")


class TestTaskDirs:
    def test_toy_task_dir_loads(self, toy_workspace):
        task = load_task_dir(toy_workspace / "data" / "topics3")
        assert task.metric == "macro_f1"
        assert task.train.num_classes == 3
        assert len(task.train) == 240

    def test_load_data_dir(self, toy_workspace):
        data = load_data_dir(toy_workspace / "data", ["topics2", "pairs2"])
        assert set(data) == {"topics2", "pairs2"}
        assert data["pairs2"].train[0].text_b is not None

    def test_missing_task_dir(self, toy_workspace):
        with pytest.raises(DataError, match="ghost"):
            load_data_dir(toy_workspace / "data", ["ghost"])

    def test_task_name_is_one_directory_name(self, toy_workspace):
        with pytest.raises(ConfigError, match="task name '../data/topics2'"):
            load_data_dir(toy_workspace / "data", ["topics2", "../data/topics2"])

    def test_missing_metadata(self, tmp_path):
        (tmp_path / "task").mkdir()
        with pytest.raises(DataError, match="task.json"):
            load_task_dir(tmp_path / "task")

    def test_unknown_metadata_field(self, tmp_path):
        task_dir = tmp_path / "task"
        task_dir.mkdir()
        (task_dir / "task.json").write_text(
            json.dumps({"num_classes": 2, "label_map": {"a": 0, "b": 1}, "color": "red"})
        )
        with pytest.raises(DataError, match="color"):
            load_task_dir(task_dir)

    def test_workspace_regeneration_is_identical(self, toy_workspace, tmp_path):
        other = write_toy_workspace(tmp_path / "again")
        for rel in ("configs.json", "data/topics2/train.jsonl", "data/pairs2/task.json"):
            assert (toy_workspace / rel).read_bytes() == (other / rel).read_bytes()
