"""Equal-weighted soft majority voting over member class probabilities.

The winning class is the argmax of the summed member probabilities; the
combined vector is reported as the mean (same argmax, and it stays a valid
probability vector). Member vectors are put into a canonical order before a
single numpy reduction, so the vote is bitwise permutation-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Example
from .errors import BagkitError
from .predictor import Model, _design_matrix, _forward_proba, predict_proba_dataset

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
    canonical = stacked[np.lexsort(stacked.T[::-1])]
    combined = canonical.sum(axis=0) / canonical.shape[0]
    winner = int(np.argmax(combined))
    return winner, combined


def predict(ensemble: Ensemble, example: Example) -> tuple[int, np.ndarray]:
    """Soft vote over the members' predicted probabilities for one example.

    The example's one-row design matrix is built once per feature space
    that members use, and each member reads it as `predict_proba` would.
    """
    rows: dict = {}
    probs = []
    for member in ensemble.members:
        if member.spec not in rows:
            rows[member.spec] = _design_matrix((example,), member.spec)
        probs.append(_forward_proba(member, rows[member.spec])[0])
    return soft_vote(probs)


def predict_dataset(ensemble: Ensemble, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized vote over a dataset: (winners, combined probability matrix)."""
    return _vote_rows(
        ensemble, [predict_proba_dataset(member, dataset) for member in ensemble.members]
    )


def _vote_rows(ensemble: Ensemble, member_probs) -> tuple[np.ndarray, np.ndarray]:
    """Soft vote per row over each member's (rows x classes) probability matrix."""
    stacked = np.stack(member_probs)
    rows = stacked.shape[1]
    winners = np.empty(rows, dtype=np.int64)
    combined = np.empty((rows, ensemble.num_classes))
    for row in range(rows):
        winners[row], combined[row] = soft_vote(stacked[:, row, :])
    return winners, combined
