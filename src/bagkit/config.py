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

import json
from pathlib import Path

from .dataset import load_jsonl
from .errors import ConfigError, DataError
from .experiment import EnsembleConfig, MemberSpec, TaskData
from .predictor import FeatureSpec, Hyperparams

__all__ = ["parse_config_text", "parse_config_file", "load_task_dir", "load_data_dir"]

_MEMBER_KEYS = {"model_kind", "feature_spec", "hyper_override", "prune_fraction", "bagged"}
_CONFIG_KEYS = {"config_id", "config_type", "tasks", "members", "base_seed"}
_FEATURE_KEYS = {"dims", "ngram_max", "lowercase"}
_HYPER_KEYS = {"learning_rate", "epochs", "l2", "hidden_size", "seed"}
_TASK_META_KEYS = {"num_classes", "label_map", "metric"}
_FIELD_KINDS = {
    "dims": "int",
    "ngram_max": "int",
    "lowercase": "bool",
    "learning_rate": "number",
    "epochs": "int",
    "l2": "number",
    "hidden_size": "int",
    "seed": "int",
}
# JSON kind -> accepted Python types and how to name them. Python's bool is
# an int subclass, so true/false is checked apart: it is neither an int nor
# a number here, and nothing else counts as a bool.
_KINDS = {
    "bool": ((bool,), "true or false"),
    "int": ((int,), "an integer"),
    "number": ((int, float), "a number"),
}


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {unknown}")


def _require(value, kind: str, where: str, error: type[Exception] = ConfigError):
    """Return value if it is a JSON value of kind, else raise error naming where."""
    types, desc = _KINDS[kind]
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, types):
        raise error(f"{where} must be {desc}, got {value!r}")
    return value


def _require_fields(doc: dict, where: str) -> None:
    for key, value in doc.items():
        _require(value, _FIELD_KINDS[key], f"{where}.{key}")


def _parse_member(doc, where: str) -> MemberSpec:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: member must be an object")
    _reject_unknown(doc, _MEMBER_KEYS, where)
    if "model_kind" not in doc:
        raise ConfigError(f"{where}: missing model_kind")

    feature_doc = doc.get("feature_spec", {})
    if not isinstance(feature_doc, dict):
        raise ConfigError(f"{where}: feature_spec must be an object")
    _reject_unknown(feature_doc, _FEATURE_KEYS, f"{where}.feature_spec")
    _require_fields(feature_doc, f"{where}.feature_spec")

    hyper_doc = doc.get("hyper_override")
    if hyper_doc is not None:
        if not isinstance(hyper_doc, dict):
            raise ConfigError(f"{where}: hyper_override must be an object or null")
        _reject_unknown(hyper_doc, _HYPER_KEYS, f"{where}.hyper_override")
        missing = sorted(_HYPER_KEYS - set(hyper_doc))
        if missing:
            raise ConfigError(f"{where}.hyper_override: missing fields {missing}")
        _require_fields(hyper_doc, f"{where}.hyper_override")
    prune_fraction = _require(doc.get("prune_fraction", 0.0), "number", f"{where}.prune_fraction")
    bagged = _require(doc.get("bagged", False), "bool", f"{where}.bagged")

    try:
        return MemberSpec(
            model_kind=doc["model_kind"],
            feature_spec=FeatureSpec(**feature_doc),
            hyper_override=None if hyper_doc is None else Hyperparams(**hyper_doc),
            prune_fraction=float(prune_fraction),
            bagged=bagged,
        )
    except (DataError, ConfigError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config_text(text: str, source: str = "<config>") -> tuple[EnsembleConfig, ...]:
    """Parse one batch document into validated EnsembleConfigs."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be an object")
    _reject_unknown(doc, {"configs"}, source)
    entries = doc.get("configs")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{source}: 'configs' must be a non-empty list")

    configs: list[EnsembleConfig] = []
    seen_ids: set[str] = set()
    for pos, entry in enumerate(entries):
        where = f"{source}: configs[{pos}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: must be an object")
        _reject_unknown(entry, _CONFIG_KEYS, where)
        missing = sorted(_CONFIG_KEYS - set(entry))
        if missing:
            raise ConfigError(f"{where}: missing fields {missing}")
        cid = entry["config_id"]
        if not isinstance(cid, str) or not cid:
            raise ConfigError(f"{where}: config_id must be a non-empty string")
        if cid in seen_ids:
            raise ConfigError(f"{where}: duplicate config_id {cid!r}")
        seen_ids.add(cid)
        if not isinstance(entry["members"], list):
            raise ConfigError(f"{where}: members must be a list")
        if not isinstance(entry["tasks"], list) or not all(
            isinstance(t, str) for t in entry["tasks"]
        ):
            raise ConfigError(f"{where}: tasks must be a list of strings")
        members = tuple(
            _parse_member(m, f"{where}.members[{k}]") for k, m in enumerate(entry["members"])
        )
        base_seed = _require(entry["base_seed"], "int", f"{where}.base_seed")
        try:
            configs.append(
                EnsembleConfig(
                    config_id=cid,
                    config_type=entry["config_type"],
                    members=members,
                    tasks=tuple(entry["tasks"]),
                    base_seed=base_seed,
                )
            )
        except (ConfigError, DataError, TypeError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return tuple(configs)


def parse_config_file(path: str | Path) -> tuple[EnsembleConfig, ...]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"config file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))


def load_task_dir(task_dir: str | Path) -> TaskData:
    """Load one task directory (train/val/test JSONL plus task.json metadata)."""
    task_dir = Path(task_dir)
    meta_path = task_dir / "task.json"
    if not meta_path.is_file():
        raise DataError(f"task metadata not found: {meta_path}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{meta_path}: not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path}: must be an object")
    unknown = sorted(set(meta) - _TASK_META_KEYS)
    if unknown:
        raise DataError(f"{meta_path}: unknown fields {unknown}")
    for key in ("num_classes", "label_map"):
        if key not in meta:
            raise DataError(f"{meta_path}: missing {key!r}")
    num_classes = _require(meta["num_classes"], "int", f"{meta_path}: num_classes", DataError)
    label_map = meta["label_map"]
    if not isinstance(label_map, dict):
        raise DataError(f"{meta_path}: label_map must be an object")
    for label, index in label_map.items():
        _require(index, "int", f"{meta_path}: label_map[{label!r}]", DataError)
    metric = meta.get("metric", "accuracy")

    parts = {}
    for part in ("train", "val", "test"):
        parts[part] = load_jsonl(task_dir / f"{part}.jsonl", num_classes, label_map)
    return TaskData(train=parts["train"], val=parts["val"], test=parts["test"], metric=metric)


def load_data_dir(data_dir: str | Path, tasks) -> dict[str, TaskData]:
    """Load the named tasks from a data directory of task subdirectories."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory not found: {data_dir}")
    loaded: dict[str, TaskData] = {}
    for task in tasks:
        task_dir = data_dir / task
        if not task_dir.is_dir():
            raise DataError(f"task directory not found: {task_dir}")
        loaded[task] = load_task_dir(task_dir)
    return loaded
