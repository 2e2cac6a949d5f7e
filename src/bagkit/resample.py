"""Seeded bootstrap resampling and the two-level sampling plan.

A bootstrap sample of an N-example dataset is N indices drawn uniformly with
replacement from [0, N). A plan stacks two levels of resampling: n first-level
samples of the source dataset, and m second-level samples per first-level
sample, where second-level indices address *positions of the first-level
sample* rather than the source dataset. The plan is what the variance
protocol trains against: n single models (first level) versus n ensembles of
m models (second level).

Every sample's seed is derived from (base_seed, level, i, j) with a stable
keyed hash, so adding samples never reshuffles existing ones and a plan can
be reconstructed from its manifest alone.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .ioutil import check_object, parse_json

__all__ = [
    "BootstrapSample",
    "BootstrapPlan",
    "derive_seed",
    "bootstrap",
    "make_plan",
    "materialize",
    "plan_to_manifest",
    "plan_from_manifest",
]

_MANIFEST_FORMAT = "bagkit-plan-v1"
_MANIFEST_FIELDS = {
    "format": "str", "n": "int", "m": "int", "dataset_size": "int", "base_seed": "int",
    "first_level_seeds": "list", "second_level_seeds": "list",
}


def derive_seed(base_seed: int, level: int, i: int, j: int = 0) -> int:
    """Stable 64-bit seed for the (level, i, j)-th draw under base_seed.

    Keyed blake2b over the packed key, so the scheme is identical on every
    platform and independent of any RNG library's internals.
    """
    key = struct.pack("<QQQQ", base_seed, level, i, j)
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _task_seed(base_seed: int, task: str) -> int:
    """Stable 64-bit seed for one task of a configuration run under base_seed."""
    digest = hashlib.blake2b(
        struct.pack("<Q", base_seed) + task.encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class BootstrapSample:
    """One with-replacement sample: N indices into a size-N source."""

    source_size: int
    indices: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if len(self.indices) != self.source_size:
            raise DataError(
                f"bootstrap sample has {len(self.indices)} indices "
                f"for source size {self.source_size}"
            )
        indices = np.asarray(self.indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.source_size):
            first = np.flatnonzero((indices < 0) | (indices >= self.source_size))[0]
            idx = self.indices[first]
            raise DataError(f"bootstrap index {idx} out of range [0, {self.source_size})")


@dataclass(frozen=True)
class BootstrapPlan:
    """n first-level samples plus m second-level samples per first-level sample."""

    n: int
    m: int
    dataset_size: int
    base_seed: int
    first_level: tuple[BootstrapSample, ...]
    second_level: tuple[tuple[BootstrapSample, ...], ...]

    def __post_init__(self):
        if len(self.first_level) != self.n:
            raise DataError("plan first level does not have n samples")
        if len(self.second_level) != self.n or any(len(g) != self.m for g in self.second_level):
            raise DataError("plan second level is not n groups of m samples")
        seeds = [s.seed for s in self.first_level]
        seeds += [s.seed for group in self.second_level for s in group]
        if len(set(seeds)) != len(seeds):
            raise DataError("derived sample seeds collide; change base_seed")


def bootstrap(dataset_size: int, seed: int) -> BootstrapSample:
    """Draw dataset_size indices uniformly with replacement, deterministically."""
    if dataset_size < 1:
        raise DataError("bootstrap requires dataset_size >= 1")
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, dataset_size, size=dataset_size)
    return BootstrapSample(
        source_size=dataset_size,
        indices=tuple(int(i) for i in indices),
        seed=seed,
    )


def make_plan(n: int, m: int, dataset_size: int, base_seed: int) -> BootstrapPlan:
    """Build the full two-level plan for the variance protocol.

    First-level sample i uses seed derive_seed(base_seed, 1, i); second-level
    sample j of group i uses derive_seed(base_seed, 2, i, j) and addresses
    positions of first-level sample i (both are size dataset_size, so the two
    levels share a source_size).
    """
    if n < 1 or m < 1:
        raise DataError(f"plan requires n >= 1 and m >= 1, got n={n}, m={m}")
    if dataset_size < 1:
        raise DataError("plan requires dataset_size >= 1")
    if not 0 <= base_seed < 2**64:
        raise DataError(f"plan base_seed must be in [0, 2**64), got {base_seed}")

    first_level = tuple(
        bootstrap(dataset_size, derive_seed(base_seed, 1, i)) for i in range(n)
    )
    second_level = tuple(
        tuple(bootstrap(dataset_size, derive_seed(base_seed, 2, i, j)) for j in range(m))
        for i in range(n)
    )
    return BootstrapPlan(
        n=n,
        m=m,
        dataset_size=dataset_size,
        base_seed=base_seed,
        first_level=first_level,
        second_level=second_level,
    )


def materialize(dataset: Dataset, sample: BootstrapSample) -> Dataset:
    """Apply a sample to a dataset: example k of the result is dataset[indices[k]].

    Duplicate draws are preserved; that is the point of bagging.
    """
    if sample.source_size != len(dataset):
        raise DataError(
            f"sample source size {sample.source_size} does not match "
            f"dataset size {len(dataset)}"
        )
    examples = tuple(dataset.examples[i] for i in sample.indices)
    return Dataset(name=dataset.name, examples=examples, num_classes=dataset.num_classes)


def plan_to_manifest(plan: BootstrapPlan) -> str:
    """Serialize a plan to a JSON text manifest (seeds only; indices are re-derivable)."""
    doc = {
        "format": _MANIFEST_FORMAT,
        "n": plan.n,
        "m": plan.m,
        "dataset_size": plan.dataset_size,
        "base_seed": plan.base_seed,
        "first_level_seeds": [s.seed for s in plan.first_level],
        "second_level_seeds": [[s.seed for s in group] for group in plan.second_level],
    }
    return json.dumps(doc, indent=2) + "\n"


def plan_from_manifest(text: str) -> BootstrapPlan:
    """Rebuild a plan from its manifest and verify the recorded seeds match."""
    doc = parse_json(text, "plan manifest", DataError)
    if isinstance(doc, dict) and doc.get("format") != _MANIFEST_FORMAT:
        raise DataError(f"unrecognized plan manifest format: {doc.get('format')!r}")
    check_object(doc, _MANIFEST_FIELDS, "plan manifest", DataError)
    plan = make_plan(doc["n"], doc["m"], doc["dataset_size"], doc["base_seed"])
    # Plain list equality: a group or seed of any other JSON kind just differs.
    recorded = (doc["first_level_seeds"], doc["second_level_seeds"])
    derived = ([s.seed for s in plan.first_level], [[s.seed for s in g] for g in plan.second_level])
    if recorded != derived:
        raise DataError("plan manifest seeds do not match the derivation scheme")
    return plan
