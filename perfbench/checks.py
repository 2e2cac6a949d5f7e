"""Output checks for the benchmark, written independently of bagkit's code.

Nothing here imports bagkit. Seeds are re-derived from the documented
blake2b scheme, accuracies are rebuilt as integer counts over the test size,
and summaries are recomputed with the ``statistics`` module. Each checker
returns a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
from fractions import Fraction
from pathlib import Path

MASK64 = (1 << 64) - 1
DEFAULT_DIMS = 32768  # FeatureSpec default
DEFAULT_MLP_HIDDEN = 16  # hidden size of the default mlp hyperparameters
# A summary is printed with 6 decimals, so it may sit half a unit of the
# last printed digit away from the exact value.
PRINT_TOL = 0.5e-6 + 1e-12


def _blake2b_u64(data: bytes) -> int:
    return int.from_bytes(hashlib.new("blake2b", data, digest_size=8).digest(), "little")


def sample_seed(base_seed: int, level: int, i: int, j: int = 0) -> int:
    """Seed of draw (level, i, j): blake2b-64 of four little-endian u64 words."""
    words = (base_seed & MASK64, level, i, j)
    return _blake2b_u64(b"".join(w.to_bytes(8, "little") for w in words))


def task_seed(base_seed: int, task: str) -> int:
    """Per-task seed: blake2b-64 of the little-endian u64 base seed, then the task name."""
    return _blake2b_u64((base_seed & MASK64).to_bytes(8, "little") + task.encode("utf-8"))


def sha256_files(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir, keyed by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


class TaskInfo:
    """What the checks need to know about one task directory."""

    def __init__(self, task_dir: Path):
        meta = json.loads((task_dir / "task.json").read_text(encoding="utf-8"))
        self.num_classes = int(meta["num_classes"])
        self.metric = meta.get("metric", "accuracy")
        self.train_size = _count_lines(task_dir / "train.jsonl")
        self.test_size = _count_lines(task_dir / "test.jsonl")


def _count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip())


def _as_count(text: str, total: int, what: str, problems: list[str]) -> int | None:
    """The k for which text prints k/total with 6 decimals, or None (and a problem)."""
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{what}: {text!r} is not a number")
        return None
    k = round(value * total)
    if not 0 <= k <= total or f"{k / total:.6f}" != text:
        problems.append(f"{what}: {text!r} is not an integer count over {total}")
        return None
    return k


def _close(text: str, exact: float, what: str, problems: list[str]) -> None:
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{what}: {text!r} is not a number")
        return
    if abs(value - exact) > PRINT_TOL:
        problems.append(f"{what}: reported {text}, recomputed {exact:.9f}")


def _member_params(member: dict, num_classes: int) -> int:
    dims = member.get("feature_spec", {}).get("dims", DEFAULT_DIMS)
    override = member.get("hyper_override")
    if member["model_kind"] == "mlp":
        hidden = override["hidden_size"] if override else DEFAULT_MLP_HIDDEN
        return dims * hidden + hidden + hidden * num_classes + num_classes
    return dims * num_classes + num_classes


def check_run(out_dir: Path, config_doc: dict, data_dir: Path) -> list[str]:
    """Check results.csv and run_manifest.json of `bagkit run` without --seed."""
    problems: list[str] = []
    configs = config_doc["configs"]
    tasks = {t: TaskInfo(data_dir / t) for c in configs for t in c["tasks"]}
    _check_manifest(out_dir / "run_manifest.json", configs, tasks, problems)
    _check_results(out_dir / "results.csv", configs, tasks, problems)
    return problems


def _check_manifest(path: Path, configs, tasks, problems: list[str]) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("format") != "bagkit-run-manifest-v1":
        problems.append(f"{path.name}: unexpected format {doc.get('format')!r}")
    expected = []
    for config in configs:
        for task in config["tasks"]:
            tseed = task_seed(config["base_seed"], task)
            expected.append(
                {
                    "config_id": config["config_id"],
                    "task": task,
                    "dataset_size": tasks[task].train_size,
                    "full_data_seed": sample_seed(tseed, 0, 0),
                    "member_sample_seeds": [
                        sample_seed(tseed, 1, k) if m.get("bagged", False) is True else None
                        for k, m in enumerate(config["members"])
                    ],
                }
            )
    entries = doc.get("entries", [])
    if len(entries) != len(expected):
        problems.append(f"{path.name}: {len(entries)} entries, expected {len(expected)}")
    for got, want in zip(entries, expected):
        if got != want:
            problems.append(
                f"{path.name}: entry {want['config_id']}/{want['task']} is {got}, expected {want}"
            )


def _check_results(path: Path, configs, tasks, problems: list[str]) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    task_names = sorted(tasks)
    header = ["config_id"]
    for task in task_names:
        header.append(f"{task}_acc")
        if tasks[task].metric == "macro_f1":
            header.append(f"{task}_macro_f1")
    header += ["avg_accuracy", "experiment_type", "models", "total_params"]
    if not rows or rows[0] != header:
        problems.append(f"{path.name}: header {rows[:1]} is not {header}")
        return
    by_id = {c["config_id"]: c for c in configs}
    body = rows[1:]
    if sorted(r[0] for r in body) != sorted(by_id):
        problems.append(f"{path.name}: rows {[r[0] for r in body]} do not match configs")
        return

    order_keys = []
    for row in body:
        cid = row[0]
        config = by_id[cid]
        cells = dict(zip(header, row))
        exact: list[Fraction] = []
        for task in config["tasks"]:
            info = tasks[task]
            k = _as_count(cells[f"{task}_acc"], info.test_size, f"{cid} {task}_acc", problems)
            if k is None:
                continue
            exact.append(Fraction(k, info.test_size))
            if Fraction(k, info.test_size) <= Fraction(1, info.num_classes):
                problems.append(f"{cid} {task}_acc: {k}/{info.test_size} is not above chance")
            if info.metric == "macro_f1":
                f1 = float(cells[f"{task}_macro_f1"])
                if not 0.0 < f1 <= 1.0:
                    problems.append(f"{cid} {task}_macro_f1: {f1} out of (0, 1]")
        if len(exact) != len(config["tasks"]):
            continue
        _close(
            cells["avg_accuracy"],
            statistics.fmean(float(a) for a in exact),
            f"{cid} avg_accuracy",
            problems,
        )
        order_keys.append((-sum(exact) / len(exact), cid))

        params = max(
            sum(_member_params(m, tasks[t].num_classes) for m in config["members"])
            for t in config["tasks"]
        )
        if cells["total_params"] != str(params):
            problems.append(f"{cid} total_params: {cells['total_params']}, expected {params}")

    if len(order_keys) == len(body) and order_keys != sorted(order_keys):
        problems.append(
            f"{path.name}: rows {[r[0] for r in body]} are not sorted by "
            "(-avg_accuracy, config_id)"
        )


def check_variance(
    out_dir: Path, task: str, task_dir: Path, n: int, m: int, seed: int
) -> list[str]:
    """Check variance_<task>.csv and plan_<task>.json of `bagkit variance`."""
    problems: list[str] = []
    info = TaskInfo(task_dir)
    plan_path = out_dir / f"plan_{task}.json"
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    want = {
        "format": "bagkit-plan-v1",
        "n": n,
        "m": m,
        "dataset_size": info.train_size,
        "base_seed": seed,
        "first_level_seeds": [sample_seed(seed, 1, i) for i in range(n)],
        "second_level_seeds": [[sample_seed(seed, 2, i, j) for j in range(m)] for i in range(n)],
    }
    for key, value in want.items():
        if plan.get(key) != value:
            problems.append(f"{plan_path.name}: {key} is {plan.get(key)}, expected {value}")

    csv_path = out_dir / f"variance_{task}.csv"
    with csv_path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["task", "model", "n", "m", "metric", "kind", "index", "value"]:
        problems.append(f"{csv_path.name}: unexpected header {rows[:1]}")
        return problems
    body = rows[1:]
    kinds = [(r[5], r[6]) for r in body]
    want_kinds = [(k, str(i)) for k in ("single", "ensemble") for i in range(n)]
    want_kinds += [(k, "") for k in ("single_mean", "single_std", "ensemble_mean", "ensemble_std")]
    if kinds != want_kinds:
        problems.append(f"{csv_path.name}: rows {kinds} are not {want_kinds}")
        return problems
    for row in body:
        if row[:5] != [task, row[1], str(n), str(m), info.metric]:
            problems.append(f"{csv_path.name}: row {row} has wrong fixed columns")
    if info.metric != "accuracy":
        return problems

    values: dict[str, list[float]] = {"single": [], "ensemble": []}
    for kind, idx, text in ((r[5], r[6], r[7]) for r in body[: 2 * n]):
        k = _as_count(text, info.test_size, f"{csv_path.name} {kind}[{idx}]", problems)
        if k is None:
            continue
        if Fraction(k, info.test_size) <= Fraction(1, info.num_classes):
            problems.append(f"{csv_path.name} {kind}[{idx}]: {text} is not above chance")
        values[kind].append(k / info.test_size)
    if problems:
        return problems
    summary = {r[5]: r[7] for r in body[2 * n :]}
    for kind in ("single", "ensemble"):
        _close(summary[f"{kind}_mean"], statistics.mean(values[kind]), f"{kind}_mean", problems)
        _close(summary[f"{kind}_std"], statistics.stdev(values[kind]), f"{kind}_std", problems)
    return problems
