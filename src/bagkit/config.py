"""Batch file I/O: experiment config files and task data directories.

A batch config is one JSON document:

    {
      "configs": [
        {
          "config_id": "c1",
          "config_type": "single",
          "tasks": ["topics2"],
          "base_seed": 7,
          "members": [
            {
              "model_kind": "logreg",
              "feature_spec": {"dims": 1024, "ngram_max": 1, "lowercase": true},
              "hyper_override": null,
              "prune_fraction": 0.0,
              "bagged": false
            }
          ]
        }
      ]
    }

Unknown fields anywhere are errors. ``feature_spec``, ``hyper_override``,
``prune_fraction``, and ``bagged`` may be omitted (defaults apply);
``hyper_override`` fields must be given in full when present.

A data directory holds one subdirectory per task, each with train.jsonl,
val.jsonl, test.jsonl, and a task.json describing the label space:

    {"num_classes": 2, "label_map": {"no": 0, "yes": 1}, "metric": "accuracy"}
"""

from __future__ import annotations

import os
from pathlib import Path

from .dataset import load_jsonl
from .errors import ConfigError, DataError
from .experiment import EnsembleConfig, MemberSpec, TaskData
from .ioutil import check_object, field_kinds, open_text, parse_json, require
from .metrics import METRIC_NAMES
from .predictor import FeatureSpec, Hyperparams

__all__ = ["parse_config_text", "parse_config_file", "load_task_dir", "load_data_dir"]

_CONFIG_FIELDS = {
    "config_id": "str", "config_type": "str", "tasks": "list", "members": "list", "base_seed": "int"
}
_MEMBER_FIELDS = {
    "model_kind": "str", "feature_spec": "dict", "hyper_override": "dict | None",
    "prune_fraction": "float", "bagged": "bool",
}
_FEATURE_FIELDS = field_kinds(FeatureSpec)
_HYPER_FIELDS = field_kinds(Hyperparams)
_TASK_FIELDS = {"num_classes": "int", "label_map": "dict", "metric": "str"}


def _check_task_name(name: str, where: str) -> None:
    """A task name is one directory name, a data directory's subdirectory and no other path."""
    if name in ("", ".", "..") or {os.sep, os.altsep, "\0"} & set(name):
        raise ConfigError(
            f"{where}: task name {name!r} must be one directory name: "
            "not empty, '.' or '..', and no path separator"
        )


def _parse_member(doc, where: str) -> MemberSpec:
    check_object(doc, _MEMBER_FIELDS, where, optional=set(_MEMBER_FIELDS) - {"model_kind"})
    feature_doc = doc.get("feature_spec", {})
    check_object(feature_doc, _FEATURE_FIELDS, f"{where}.feature_spec", optional=_FEATURE_FIELDS)
    hyper_doc = doc.get("hyper_override")
    if hyper_doc is not None:
        check_object(hyper_doc, _HYPER_FIELDS, f"{where}.hyper_override")
    try:
        return MemberSpec(
            model_kind=doc["model_kind"],
            feature_spec=FeatureSpec(**feature_doc),
            hyper_override=None if hyper_doc is None else Hyperparams(**hyper_doc),
            prune_fraction=float(doc.get("prune_fraction", 0.0)),
            bagged=doc.get("bagged", False),
        )
    except (DataError, ConfigError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config_text(text: str, source: str = "<config>") -> tuple[EnsembleConfig, ...]:
    """Parse one batch document into validated EnsembleConfigs."""
    doc = check_object(parse_json(text, source), {"configs": "list"}, source, sep=": ")
    if not doc["configs"]:
        raise ConfigError(f"{source}: 'configs' must be a non-empty list")

    configs: list[EnsembleConfig] = []
    seen_ids: set[str] = set()
    for pos, entry in enumerate(doc["configs"]):
        where = f"{source}: configs[{pos}]"
        check_object(entry, _CONFIG_FIELDS, where)
        for k, task in enumerate(entry["tasks"]):
            require(task, "str", f"{where}.tasks[{k}]")
            _check_task_name(task, f"{where}.tasks[{k}]")
        members = tuple(
            _parse_member(m, f"{where}.members[{k}]") for k, m in enumerate(entry["members"])
        )
        try:
            config = EnsembleConfig(**{**entry, "members": members})
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if config.config_id in seen_ids:
            raise ConfigError(f"{where}: duplicate config_id {config.config_id!r}")
        seen_ids.add(config.config_id)
        configs.append(config)
    return tuple(configs)


def parse_config_file(path: str | Path) -> tuple[EnsembleConfig, ...]:
    with open_text(path, "config file") as fh:
        return parse_config_text(fh.read(), source=str(path))


def load_task_dir(task_dir: str | Path) -> TaskData:
    """Load one task directory (train/val/test JSONL plus task.json metadata)."""
    task_dir = Path(task_dir)
    meta_path = task_dir / "task.json"
    with open_text(meta_path, "task metadata") as fh:
        meta = parse_json(fh.read(), str(meta_path), DataError)
    check_object(meta, _TASK_FIELDS, str(meta_path), DataError, optional={"metric"}, sep=": ")
    num_classes, label_map = meta["num_classes"], meta["label_map"]
    metric = meta.get("metric", "accuracy")
    if num_classes < 2:
        raise DataError(f"{meta_path}: num_classes must be >= 2, got {num_classes}")
    for label, index in label_map.items():
        where = f"{meta_path}: label_map[{label!r}]"
        if not 0 <= require(index, "int", where, DataError) < num_classes:
            raise DataError(f"{where} must be in [0, {num_classes}), got {index}")
    # The indices are in range, so a shortfall is a class no label reaches;
    # every fit would still train its output columns.
    named = len(set(label_map.values()))
    if named != num_classes:
        raise DataError(
            f"{meta_path}: label_map names {named} of the {num_classes} class indices; "
            "every class needs a label"
        )
    if metric not in METRIC_NAMES:
        raise DataError(f"{meta_path}: metric must be one of {METRIC_NAMES}, got {metric!r}")

    parts = {}
    for part in ("train", "val", "test"):
        parts[part] = load_jsonl(task_dir / f"{part}.jsonl", num_classes, label_map)
    return TaskData(train=parts["train"], val=parts["val"], test=parts["test"], metric=metric)


def load_data_dir(data_dir: str | Path, tasks) -> dict[str, TaskData]:
    """Load the named tasks from a data directory of task subdirectories.

    A task name that is not one directory name is a ConfigError.
    """
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory not found: {data_dir}")
    loaded: dict[str, TaskData] = {}
    for task in tasks:
        _check_task_name(task, str(data_dir))
        task_dir = data_dir / task
        if not task_dir.is_dir():
            raise DataError(f"task directory not found: {task_dir}")
        loaded[task] = load_task_dir(task_dir)
    return loaded
