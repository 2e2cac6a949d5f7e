"""Write the benchmark's input files for one workload seed.

    python3 perfbench/gen_inputs.py SEED OUTDIR [toy] [large]

``toy`` writes the bundled toy workspace (``bagkit.toy.write_toy_workspace``)
to OUTDIR/toy: three 240/80/80-example tasks and the five-config batch. It
does not depend on SEED, so its outputs can be held to the golden hashes.
The variance workload reads its topics2 task and takes SEED as its protocol
seed instead.

``large`` writes one generated binary task, 100x the toy train size, and a
one-config batch to OUTDIR/large: ``bagkit.toy.synthetic_task`` seeded by
SEED, trained by a single logreg member with a fixed hyperparameter override
(so no grid search), 32768 hashed dims and word bigrams.

With no part named, both are written. The program under test receives only
these files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

LARGE_TASK = "large2"
LARGE_SIZES = {"train": 24000, "val": 240, "test": 2000}
LARGE_LABELS = ["no", "yes"]
LARGE_HYPER = {"learning_rate": 0.5, "epochs": 5, "l2": 1e-4, "hidden_size": 0, "seed": 0}
PARTS = ("toy", "large")


def large_config(seed: int) -> dict:
    return {
        "configs": [
            {
                "config_id": "large-single-logreg",
                "config_type": "single",
                "tasks": [LARGE_TASK],
                "base_seed": seed,
                "members": [
                    {
                        "model_kind": "logreg",
                        "feature_spec": {"dims": 32768, "ngram_max": 2},
                        "hyper_override": dict(LARGE_HYPER),
                    }
                ],
            }
        ]
    }


def _write_jsonl(dataset, label_names, path: Path) -> None:
    # Same record layout as the toy workspace; bagkit.toy's writer is private.
    lines = []
    for ex in dataset.examples:
        record = {"id": ex.id, "text_a": ex.text_a, "label": label_names[ex.label]}
        if ex.text_b is not None:
            record["text_b"] = ex.text_b
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_large(seed: int, dest: Path) -> Path:
    from bagkit.toy import synthetic_task

    task = synthetic_task(
        LARGE_TASK,
        seed=seed,
        n_train=LARGE_SIZES["train"],
        n_val=LARGE_SIZES["val"],
        n_test=LARGE_SIZES["test"],
        vocab_size=200,
        filler_size=1000,
    )
    task_dir = dest / "data" / LARGE_TASK
    task_dir.mkdir(parents=True, exist_ok=True)
    for part in ("train", "val", "test"):
        _write_jsonl(getattr(task, part), LARGE_LABELS, task_dir / f"{part}.jsonl")
    meta = {
        "num_classes": 2,
        "label_map": {name: k for k, name in enumerate(LARGE_LABELS)},
        "metric": "accuracy",
    }
    (task_dir / "task.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    (dest / "configs.json").write_text(
        json.dumps(large_config(seed), indent=2) + "\n", encoding="utf-8"
    )
    return dest


def generate(seed: int, out: Path, parts=PARTS) -> None:
    from bagkit.toy import write_toy_workspace

    if "toy" in parts:
        write_toy_workspace(out / "toy")
    if "large" in parts:
        write_large(seed, out / "large")


def main(argv) -> int:
    if len(argv) < 2 or not all(p in PARTS for p in argv[2:]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        seed = int(argv[0])
    except ValueError:
        print(f"seed must be an integer, got {argv[0]!r}", file=sys.stderr)
        return 2
    generate(seed, Path(argv[1]), tuple(argv[2:]) or PARTS)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
