"""Evaluation metrics (accuracy, macro-F1) and summary statistics.

Macro-F1 averages per-class F1 over *all* classes of the task; a class with
no true or predicted instances contributes an F1 of 0. Standard deviations
are sample standard deviations (n - 1 divisor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BagkitError

__all__ = ["EvalResult", "accuracy", "macro_f1", "mean_std", "evaluate"]

METRIC_NAMES = ("accuracy", "macro_f1")


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    macro_f1: float
    per_class_f1: tuple[float, ...]
    num_examples: int

    def metric(self, name: str) -> float:
        if name not in METRIC_NAMES:
            raise BagkitError(f"unknown metric {name!r}, expected one of {METRIC_NAMES}")
        return getattr(self, name)


def _as_index_arrays(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    preds, labs = np.asarray(predictions), np.asarray(labels)
    if preds.size == 0 or labs.size == 0:
        raise BagkitError("metrics need at least one prediction/label pair")
    if preds.shape != labs.shape:
        raise BagkitError(f"length mismatch: {preds.shape[0]} predictions vs {labs.shape[0]} labels")
    return _class_indices(predictions, preds, "predictions"), _class_indices(labels, labs, "labels")


def _class_indices(values, arr: np.ndarray, what: str) -> np.ndarray:
    """``arr``, the array of ``values``, as int64; a value that is not an integer raises.

    Booleans are not integers here, and nothing is rounded or parsed.
    """
    if arr.dtype.kind in "iu" and (
        np.can_cast(arr.dtype, np.int64) or arr.max() <= np.iinfo(np.int64).max
    ):
        return arr.astype(np.int64, copy=False)
    for value in arr.tolist() if isinstance(values, np.ndarray) else values:
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
            raise BagkitError(f"{what} must be integer class indices, got {value!r}")
    raise BagkitError(f"{what} must be class indices that fit in 64 signed bits")


def accuracy(predictions, labels) -> float:
    """Fraction of positions where prediction equals label."""
    preds, labs = _as_index_arrays(predictions, labels)
    return float(np.mean(preds == labs))


def macro_f1(predictions, labels, num_classes: int) -> tuple[float, tuple[float, ...]]:
    """Unweighted mean of per-class F1 over all num_classes classes.

    Per-class F1 = 2PR / (P + R) from the one-vs-rest confusion counts; a
    class with TP + FP + FN = 0 scores 0.
    """
    preds, labs = _as_index_arrays(predictions, labels)
    if preds.max() >= num_classes or labs.max() >= num_classes:
        raise BagkitError("class index out of range for num_classes")
    if preds.min() < 0 or labs.min() < 0:
        raise BagkitError("negative class index")

    per_class = []
    for c in range(num_classes):
        tp = int(np.sum((preds == c) & (labs == c)))
        fp = int(np.sum((preds == c) & (labs != c)))
        fn = int(np.sum((preds != c) & (labs == c)))
        if tp == 0:
            per_class.append(0.0)
            continue
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        per_class.append(2.0 * precision * recall / (precision + recall))
    return float(np.mean(per_class)), tuple(per_class)


def mean_std(values) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n - 1 divisor)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise BagkitError("sample standard deviation needs at least 2 values")
    return float(np.mean(arr)), float(np.std(arr, ddof=1))


def evaluate(predictions, labels, num_classes: int) -> EvalResult:
    """Accuracy and macro-F1 in one pass, as reported in result tables."""
    acc = accuracy(predictions, labels)
    macro, per_class = macro_f1(predictions, labels, num_classes)
    return EvalResult(
        accuracy=acc,
        macro_f1=macro,
        per_class_f1=per_class,
        num_examples=len(np.asarray(labels)),
    )
