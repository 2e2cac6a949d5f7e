"""Equal-weighted soft majority voting over member class probabilities.

The winning class is the argmax of the summed member probabilities; the
combined vector is reported as the mean (same argmax, and it stays a valid
probability vector). Every vote goes through one vectorized path (`_vote`)
over a (members, rows, classes) stack: each row's member vectors are put
into one canonical order before a single numpy reduction, so the vote is
bitwise permutation-invariant, and a vote of one member is that member's
argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Example
from .errors import BagkitError
from .predictor import Model, _design_matrix, _forward_proba

__all__ = ["Ensemble", "soft_vote", "predict", "predict_dataset"]


@dataclass(frozen=True)
class Ensemble:
    """Ordered members voting with equal weight."""

    members: tuple[Model, ...]
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 1:
            raise BagkitError("ensemble needs at least one member")
        for member in self.members:
            if member.num_classes != self.num_classes:
                raise BagkitError(
                    f"member has {member.num_classes} classes, ensemble expects "
                    f"{self.num_classes}"
                )


def soft_vote(member_probs) -> tuple[int, np.ndarray]:
    """Combine member probability vectors; returns (winner, mean probabilities).

    Exact ties go to the lowest class index. Vectors are sorted into a
    canonical order before summation so any permutation of the members yields
    bit-identical output.
    """
    try:
        stacked = np.asarray(member_probs, dtype=np.float64)
    except ValueError as exc:
        raise BagkitError(f"member probability vectors differ in length: {exc}") from exc
    if stacked.ndim != 2 or stacked.shape[0] < 1 or stacked.shape[1] < 1:
        raise BagkitError("soft_vote needs one or more probability vectors of equal length")
    winners, combined = _vote(stacked[:, None, :])
    return int(winners[0]), combined[0]


def predict(ensemble: Ensemble, example: Example) -> tuple[int, np.ndarray]:
    """Soft vote over the members' predicted probabilities for one example."""
    winners, combined = predict_dataset(ensemble, (example,))
    return int(winners[0]), combined[0]


def predict_dataset(ensemble: Ensemble, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized vote over a dataset: (winners, combined probability matrix).

    The design matrix is built once per feature space that members use, and
    each member reads it as `predict_proba_dataset` would.
    """
    rows: dict = {}
    for member in ensemble.members:
        if member.spec not in rows:
            rows[member.spec] = _design_matrix(dataset, member.spec)
    return _vote(np.stack([_forward_proba(m, rows[m.spec]) for m in ensemble.members]))


def _vote(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Soft vote per row of a (members, rows, classes) stack: (winners, mean probabilities).

    Each row's member vectors are sorted lexicographically, first class
    first, and summed in that order. The sum runs over each row's contiguous
    (members, classes) block, the layout a one-row vote has, so a row's bits
    do not depend on how many rows are voted with it.
    """
    order = np.lexsort(stacked.transpose(2, 1, 0)[::-1], axis=-1)  # (rows, members)
    canonical = np.take_along_axis(stacked.transpose(1, 0, 2), order[:, :, None], axis=1)
    combined = canonical.sum(axis=1) / canonical.shape[1]
    return np.argmax(combined, axis=1), combined
