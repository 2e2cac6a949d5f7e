"""Labeled text-classification datasets: JSONL loading, validation, splitting.

A dataset file is line-delimited JSON, one record per line, UTF-8:

    {"id": "ex1", "text_a": "some text", "text_b": "optional second text", "label": "true"}

`text_b` is optional (entailment-style tasks carry it, single-sentence tasks
do not). Labels are strings in the file and are mapped to integer class
indices at load time via an explicit label_map. Unknown keys are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .ioutil import open_text, parse_json

__all__ = ["Example", "Dataset", "SplitSpec", "load_jsonl", "split"]


@dataclass(frozen=True)
class Example:
    """One labeled example: up to two text fields and an integer class index."""

    id: str
    text_a: str
    label: int
    text_b: str | None = None

    def __post_init__(self):
        if not self.id:
            raise DataError("example id must be a non-empty string")
        if not self.text_a:
            raise DataError(f"example {self.id!r}: text_a must be non-empty")
        if self.label < 0:
            raise DataError(f"example {self.id!r}: label must be >= 0")
        # Canonicalize: an empty second text means "no second text".
        if self.text_b == "":
            object.__setattr__(self, "text_b", None)
        # Features hash a text's UTF-8 bytes, and a lone surrogate (which a
        # JSON \ud800 escape can carry) has none.
        for name in ("text_a", "text_b"):
            text = getattr(self, name)
            if text is not None and not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise DataError(
                        f"example {self.id!r}: {name} is not valid Unicode at position "
                        f"{exc.start}: {exc.reason}"
                    ) from None


@dataclass(frozen=True)
class Dataset:
    """Ordered, immutable collection of examples with a fixed class count.

    Label range is validated on construction. Id uniqueness is enforced at
    load time only: bootstrap-resampled datasets intentionally repeat
    examples (and therefore ids).
    """

    name: str
    examples: tuple[Example, ...]
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        if self.num_classes < 2:
            raise DataError(f"dataset {self.name!r}: num_classes must be >= 2")
        for ex in self.examples:
            if ex.label >= self.num_classes:
                raise DataError(
                    f"dataset {self.name!r}: example {ex.id!r} has label "
                    f"{ex.label} >= num_classes {self.num_classes}"
                )

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, i: int) -> Example:
        return self.examples[i]

    def labels(self) -> np.ndarray:
        return np.array([ex.label for ex in self.examples], dtype=np.int64)


@dataclass(frozen=True)
class SplitSpec:
    """How to cut a dataset in two: first-part fraction, seed, stratification."""

    fraction: float = 0.5
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise DataError(f"split fraction must be in (0, 1), got {self.fraction}")


def load_jsonl(path: str | Path, num_classes: int, label_map: dict[str, int]) -> Dataset:
    """Load a line-delimited dataset file.

    Parameters
    ----------
    path : file of one JSON record per line (see module docstring).
    num_classes : class count of the task; every mapped label must be below it.
    label_map : mapping from the label strings found in the file to class indices.

    Raises DataError for a missing or non-UTF-8 file, a malformed line
    (reported with its line number), a label string absent from label_map,
    or a duplicate id.
    """
    path = Path(path)
    examples: list[Example] = []
    seen_ids: set[str] = set()
    with open_text(path, "dataset file") as fh:
        for lineno, line in enumerate(fh, start=1):
            record = parse_json(line.rstrip("\n"), f"{path}:{lineno}", DataError)
            if not isinstance(record, dict):
                raise DataError(f"{path}:{lineno}: record is not an object")

            missing = [k for k in ("id", "text_a", "label") if k not in record]
            if missing:
                raise DataError(f"{path}:{lineno}: missing keys {missing}")
            ex_id, text_a, label_str = record["id"], record["text_a"], record["label"]
            if not isinstance(ex_id, str) or not isinstance(text_a, str):
                raise DataError(f"{path}:{lineno}: id and text_a must be strings")
            if not isinstance(label_str, str):
                raise DataError(f"{path}:{lineno}: label must be a string")
            if label_str not in label_map:
                raise DataError(
                    f"{path}:{lineno}: unknown label {label_str!r} "
                    f"(expected one of {sorted(label_map)})"
                )
            text_b = record.get("text_b")
            if text_b is not None and not isinstance(text_b, str):
                raise DataError(f"{path}:{lineno}: text_b must be a string or null")
            if ex_id in seen_ids:
                raise DataError(f"{path}:{lineno}: duplicate id {ex_id!r}")
            seen_ids.add(ex_id)

            try:
                examples.append(
                    Example(id=ex_id, text_a=text_a, label=label_map[label_str], text_b=text_b)
                )
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc

    if not examples:
        raise DataError(f"{path}: empty dataset")
    return Dataset(name=path.stem, examples=tuple(examples), num_classes=num_classes)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition a dataset in two, deterministically for a fixed seed.

    The first part holds round(fraction * N) examples (round half up). Both
    parts keep the original example order. With ``stratified=True`` the
    first-part quota is apportioned per class by largest remainder, so each
    class's share in either part is within one example of its overall share.
    """
    n = len(dataset)
    if n < 2:
        raise DataError(f"dataset {dataset.name!r} too small to split (need >= 2 examples)")

    k_total = _round_half_up(spec.fraction * n)
    rng = np.random.default_rng(spec.seed)

    if spec.stratified:
        labels = dataset.labels()
        class_positions = [np.flatnonzero(labels == c) for c in range(dataset.num_classes)]
        counts = [len(p) for p in class_positions]
        if min(counts) < 1:
            missing = [c for c, k in enumerate(counts) if k == 0]
            raise DataError(
                f"dataset {dataset.name!r} too small to honor stratification: "
                f"classes {missing} have no examples"
            )
        quotas = _apportion(counts, spec.fraction, k_total)
        first_positions: list[int] = []
        for positions, quota in zip(class_positions, quotas):
            shuffled = rng.permutation(positions)
            first_positions.extend(int(p) for p in shuffled[:quota])
    else:
        perm = rng.permutation(n)
        first_positions = [int(p) for p in perm[:k_total]]

    chosen = set(first_positions)
    first = tuple(dataset.examples[i] for i in range(n) if i in chosen)
    second = tuple(dataset.examples[i] for i in range(n) if i not in chosen)
    return (
        Dataset(name=dataset.name, examples=first, num_classes=dataset.num_classes),
        Dataset(name=dataset.name, examples=second, num_classes=dataset.num_classes),
    )


def _apportion(counts: list[int], fraction: float, k_total: int) -> list[int]:
    """Largest-remainder apportionment of k_total across classes.

    Each class receives floor(fraction * count) or one more, so no class
    deviates from its exact proportional share by a full example, and the
    quotas sum to exactly k_total.
    """
    targets = [fraction * c for c in counts]
    quotas = [math.floor(t) for t in targets]
    leftover = k_total - sum(quotas)
    # Ties on remainder go to the lower class index.
    order = sorted(range(len(counts)), key=lambda c: (-(targets[c] - quotas[c]), c))
    for c in order[:leftover]:
        quotas[c] += 1
    return quotas
