import json
import random
import re

import numpy as np
import pytest

from bagkit import resample
from bagkit.errors import DataError
from bagkit.resample import (
    BootstrapPlan,
    BootstrapSample,
    bootstrap,
    derive_seed,
    make_plan,
    materialize,
    plan_from_manifest,
    plan_to_manifest,
)

from conftest import make_dataset


class TestDeriveSeed:
    def test_frozen_values(self):
        # Pinned: the derivation scheme must never change silently.
        assert derive_seed(0, 1, 0) == 10414705469639538944
        assert derive_seed(123, 2, 4, 1) == 9762936784513341872

    def test_distinct_across_indices(self):
        seeds = {derive_seed(9, level, i, j) for level in (1, 2) for i in range(10) for j in range(10)}
        assert len(seeds) == 200


class TestBootstrap:
    def test_size_and_range(self):
        sample = bootstrap(5, 42)
        assert len(sample.indices) == 5
        assert all(0 <= i < 5 for i in sample.indices)

    def test_deterministic(self):
        assert bootstrap(50, 7).indices == bootstrap(50, 7).indices

    def test_zero_size_rejected(self):
        with pytest.raises(DataError):
            bootstrap(0, 1)

    def test_distinct_fraction_near_limit(self):
        # Analytic limit 1 - 1/e for equal-size sampling with replacement,
        # cross-checked by an independent stdlib-random simulation.
        n = 1000
        fractions = [len(set(bootstrap(n, seed).indices)) / n for seed in range(1000)]
        mean_fraction = np.mean(fractions)
        assert abs(mean_fraction - (1 - 1 / np.e)) < 0.01

        oracle = random.Random(777)
        oracle_fracs = [
            len({oracle.randrange(n) for _ in range(n)}) / n for _ in range(300)
        ]
        assert abs(mean_fraction - np.mean(oracle_fracs)) < 0.005

    def test_per_position_uniformity(self):
        # Each position's index is uniform over [0, N): check counts within
        # 3 standard errors over 2000 seeds.
        n, trials = 5, 2000
        counts = np.zeros((n, n), dtype=int)
        for seed in range(trials):
            for pos, idx in enumerate(bootstrap(n, seed).indices):
                counts[pos, idx] += 1
        expected = trials / n
        se = np.sqrt(trials * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expected) <= 3 * se)


class TestMakePlan:
    def test_counts(self):
        plan = make_plan(n=2, m=3, dataset_size=10, base_seed=0)
        assert len(plan.first_level) == 2
        assert len(plan.second_level) == 2
        assert all(len(g) == 3 for g in plan.second_level)
        total = len(plan.first_level) + sum(len(g) for g in plan.second_level)
        assert total == 8

    def test_seed_sensitivity(self):
        p1 = make_plan(3, 2, 20, base_seed=1)
        p2 = make_plan(3, 2, 20, base_seed=2)
        assert p1.first_level != p2.first_level

    def test_adding_samples_keeps_existing(self):
        small = make_plan(2, 2, 15, base_seed=5)
        big = make_plan(4, 3, 15, base_seed=5)
        assert big.first_level[:2] == small.first_level
        for i in range(2):
            assert big.second_level[i][:2] == small.second_level[i]

    def test_composition_stays_in_range(self):
        plan = make_plan(4, 3, 17, base_seed=9)
        for i, group in enumerate(plan.second_level):
            parent = plan.first_level[i].indices
            for sample in group:
                for idx in sample.indices:
                    assert 0 <= parent[idx] < 17

    @pytest.mark.parametrize("n,m,size", [(0, 1, 5), (1, 0, 5), (1, 1, 0)])
    def test_invalid_arguments(self, n, m, size):
        with pytest.raises(DataError):
            make_plan(n, m, size, 0)


class TestMaterialize:
    def test_direct_indexing(self):
        ds = make_dataset([0, 1, 0])
        sample = BootstrapSample(source_size=3, indices=(0, 0, 2), seed=1)
        out = materialize(ds, sample)
        assert [ex.id for ex in out.examples] == ["tiny-0", "tiny-0", "tiny-2"]

    def test_identity(self):
        ds = make_dataset([0, 1, 0])
        sample = BootstrapSample(source_size=3, indices=(0, 1, 2), seed=1)
        assert materialize(ds, sample) == ds

    def test_size_mismatch(self):
        ds = make_dataset([0, 1])
        with pytest.raises(DataError, match="size"):
            materialize(ds, BootstrapSample(source_size=3, indices=(0, 1, 2), seed=1))

    def test_size_preserved_over_random_samples(self):
        ds = make_dataset([i % 2 for i in range(37)])
        for seed in range(100):
            out = materialize(ds, bootstrap(37, seed))
            assert len(out) == 37

    def test_double_materialize_draws_from_parent(self):
        ds = make_dataset([i % 2 for i in range(12)])
        plan = make_plan(2, 2, 12, base_seed=3)
        for i in range(2):
            first_ds = materialize(ds, plan.first_level[i])
            allowed = {ex.id for ex in first_ds.examples}
            for sample in plan.second_level[i]:
                second_ds = materialize(first_ds, sample)
                assert {ex.id for ex in second_ds.examples} <= allowed


class TestManifest:
    def test_round_trip(self):
        plan = make_plan(3, 2, 25, base_seed=77)
        assert plan_from_manifest(plan_to_manifest(plan)) == plan

    def test_malformed_text(self):
        with pytest.raises(DataError):
            plan_from_manifest("{not json")

    @pytest.mark.parametrize(
        "change, located",
        [
            (lambda doc: [doc], "must be an object"),
            (lambda doc: {k: v for k, v in doc.items() if k != "n"}, "missing fields ['n']"),
            (lambda doc: {**doc, "n": "2"}, "plan manifest.n must be an integer"),
            (lambda doc: {**doc, "first_level_seeds": None},
             "plan manifest.first_level_seeds must be a list"),
            (lambda doc: {**doc, "base_seed": -1}, "base_seed must be in [0, 2**64), got -1"),
            (lambda doc: {**doc, "base_seed": 2**64}, "base_seed must be in [0, 2**64)"),
        ],
        ids=["list", "n-missing", "n-string", "seeds-null", "seed-negative", "seed-too-large"],
    )
    def test_wrong_shape_is_located_data_error(self, change, located):
        doc = json.loads(plan_to_manifest(make_plan(2, 2, 10, base_seed=1)))
        with pytest.raises(DataError, match=re.escape(located)):
            plan_from_manifest(json.dumps(change(doc)))

    def test_wrong_format_tag(self):
        with pytest.raises(DataError, match="format"):
            plan_from_manifest('{"format": "something-else"}')

    def test_tampered_seeds_detected(self):
        plan = make_plan(2, 2, 10, base_seed=1)
        text = plan_to_manifest(plan).replace(str(plan.first_level[0].seed), "12345")
        with pytest.raises(DataError, match="seeds"):
            plan_from_manifest(text)

    def test_tampered_seeds_rejected_before_any_draw(self, monkeypatch):
        plan = make_plan(2, 2, 10, base_seed=1)
        text = plan_to_manifest(plan).replace(str(plan.second_level[1][0].seed), "12345")
        drawn = []
        monkeypatch.setattr(resample, "bootstrap", lambda *args: drawn.append(args))
        with pytest.raises(DataError) as exc:
            plan_from_manifest(text)
        assert str(exc.value) == "plan manifest seeds do not match the derivation scheme"
        assert drawn == []


COLLIDE = "derived sample seeds collide; change base_seed"


class TestSeedCollision:
    """Two samples of a plan may never share a seed, whoever builds the plan."""

    def test_make_plan_rejects_colliding_derived_seeds(self, monkeypatch):
        monkeypatch.setattr(resample, "derive_seed", lambda *key: 7)
        with pytest.raises(DataError, match=re.escape(COLLIDE)):
            make_plan(2, 2, 10, base_seed=0)

    def test_hand_built_plan_rejects_a_shared_seed(self):
        first, other = bootstrap(5, 11), bootstrap(5, 12)
        with pytest.raises(DataError, match=re.escape(COLLIDE)):
            BootstrapPlan(n=1, m=2, dataset_size=5, base_seed=0, first_level=(first,),
                          second_level=((other, first),))


def test_sample_invariants_enforced():
    with pytest.raises(DataError):
        BootstrapSample(source_size=3, indices=(0, 1), seed=0)
    with pytest.raises(DataError):
        BootstrapSample(source_size=3, indices=(0, 1, 5), seed=0)


def test_out_of_range_message_names_the_first_bad_index():
    for indices, first in (((0, 7, -1, 9), 7), ((2, -1, 5, 0), -1), ((3, 3, 3, 4), 4)):
        with pytest.raises(DataError) as exc:
            BootstrapSample(source_size=4, indices=indices, seed=0)
        assert str(exc.value) == f"bootstrap index {first} out of range [0, 4)"
