import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagkit import ensemble
from bagkit.dataset import Dataset, Example
from bagkit.ensemble import Ensemble, _vote, predict, predict_dataset, soft_vote
from bagkit.errors import BagkitError
from bagkit.predictor import (
    FeatureSpec,
    Hyperparams,
    initialize,
    predict_proba,
    predict_proba_dataset,
)
from bagkit.toy import synthetic_task

FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)


def brute_force_vote(member_probs):
    """Independent oracle: plain Python sum of raw probabilities."""
    k = len(member_probs)
    length = len(member_probs[0])
    sums = [0.0] * length
    for probs in member_probs:
        for c in range(length):
            sums[c] += probs[c]
    winner = 0
    for c in range(1, length):
        if sums[c] > sums[winner]:
            winner = c
    return winner, [s / k for s in sums]


def random_prob_matrix(rng, members, classes):
    raw = rng.uniform(0.01, 1.0, size=(members, classes))
    return raw / raw.sum(axis=1, keepdims=True)


class TestSoftVote:
    def test_single_member_identity(self):
        winner, combined = soft_vote([[0.7, 0.3]])
        assert winner == 0
        assert np.allclose(combined, [0.7, 0.3])

    def test_three_member_sum(self):
        members = [[0.6, 0.4], [0.3, 0.7], [0.55, 0.45]]
        winner, combined = soft_vote(members)
        assert winner == 1  # sums are [1.45, 1.55]
        assert np.allclose(combined, np.array([1.45, 1.55]) / 3, atol=1e-12)

    def test_exact_tie_lowest_index(self):
        winner, _ = soft_vote([[0.5, 0.5], [0.5, 0.5]])
        assert winner == 0

    def test_empty_input_rejected(self):
        with pytest.raises(BagkitError):
            soft_vote([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(BagkitError):
            soft_vote([[0.5, 0.5], [0.2, 0.3, 0.5]])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            probs = random_prob_matrix(rng, int(rng.integers(1, 8)), int(rng.integers(2, 6)))
            winner, combined = soft_vote(probs)
            oracle_winner, oracle_combined = brute_force_vote(probs.tolist())
            assert winner == oracle_winner
            assert np.allclose(combined, oracle_combined, atol=1e-12)

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            probs = random_prob_matrix(rng, 6, 3)
            winner, combined = soft_vote(probs)
            perm = rng.permutation(6)
            winner_p, combined_p = soft_vote(probs[perm])
            assert winner == winner_p
            assert np.array_equal(combined, combined_p)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_combined_is_probability_vector(self, seed):
        rng = np.random.default_rng(seed)
        probs = random_prob_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(2, 7)))
        _, combined = soft_vote(probs)
        assert np.all(combined >= 0)
        assert abs(combined.sum() - 1.0) < 1e-9

    def test_duplicating_members_keeps_winner(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            probs = random_prob_matrix(rng, 4, 3)
            winner, _ = soft_vote(probs)
            doubled, _ = soft_vote(np.vstack([probs, probs]))
            assert winner == doubled


@pytest.fixture(scope="module")
def members():
    spec = FeatureSpec(dims=256)
    return tuple(initialize(spec, Hyperparams(hidden_size=0, seed=s), 3) for s in range(5))


@pytest.fixture(scope="module")
def example():
    return Example(id="e", text_a="alpha beta gamma delta", label=0)


class TestEnsemblePredict:
    def test_ensemble_of_one_equals_model(self, members, example):
        model = members[0]
        winner, combined = predict(Ensemble(members=(model,), num_classes=3), example)
        probs = predict_proba(model, example)
        assert winner == int(np.argmax(probs))
        assert np.array_equal(combined, probs)

    def test_copies_of_same_model_idempotent(self, members, example):
        model = members[1]
        single = int(np.argmax(predict_proba(model, example)))
        for k in (2, 5):
            winner, _ = predict(Ensemble(members=(model,) * k, num_classes=3), example)
            assert winner == single

    def test_mixed_feature_spaces_match_predict_proba(self, example, monkeypatch):
        specs = (FeatureSpec(dims=256), FeatureSpec(dims=64, ngram_max=2), FeatureSpec(dims=256))
        models = tuple(
            initialize(spec, Hyperparams(hidden_size=hidden, seed=seed), 3)
            for seed, (spec, hidden) in enumerate(zip(specs * 2, (0, 0, 4, 4, 0, 2)))
        )
        builds = []
        real_build = ensemble._design_matrix

        def build(examples, spec):
            builds.append(spec)
            return real_build(examples, spec)

        monkeypatch.setattr(ensemble, "_design_matrix", build)
        winner, combined = predict(Ensemble(members=models, num_classes=3), example)
        assert builds == list(dict.fromkeys(specs))  # one row per feature space
        oracle_winner, oracle = soft_vote([predict_proba(m, example) for m in models])
        assert winner == oracle_winner
        assert np.array_equal(combined, oracle)

    def test_matches_raw_sum_reimplementation(self, members):
        td = synthetic_task("vote", seed=21, num_classes=3, n_train=10, n_val=10, n_test=1000)
        ens = Ensemble(members=members, num_classes=3)
        winners, combined = predict_dataset(ens, td.test)
        for row, ex in enumerate(td.test.examples):
            member_probs = [predict_proba(m, ex) for m in members]
            oracle_winner, oracle_combined = brute_force_vote([p.tolist() for p in member_probs])
            assert winners[row] == oracle_winner
            assert np.allclose(combined[row], oracle_combined, atol=1e-12)

    def test_num_classes_mismatch_rejected(self, members):
        other = initialize(FeatureSpec(dims=256), Hyperparams(), 2)
        with pytest.raises(BagkitError):
            Ensemble(members=(members[0], other), num_classes=3)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(BagkitError):
            Ensemble(members=(), num_classes=2)


def reference_vote(member_probs):
    """One row's soft vote as `soft_vote` computed it before the vectorized `_vote`."""
    stacked = np.asarray(member_probs, dtype=np.float64)
    canonical = stacked[np.lexsort(stacked.T[::-1])]
    combined = canonical.sum(axis=0) / canonical.shape[0]
    winner = int(np.argmax(combined))
    return winner, combined


def bits(array):
    return np.ascontiguousarray(array).view(np.int64)


def assert_reference_votes(winners, combined, stacked):
    """winners and combined are, row by row and bit for bit, the reference vote of stacked."""
    _, rows, classes = stacked.shape
    assert winners.shape == (rows,) and combined.shape == (rows, classes)
    for row in range(rows):
        winner, expected = reference_vote(stacked[:, row, :])
        assert winners[row] == winner
        assert np.array_equal(bits(combined[row]), bits(expected))


@st.composite
def stacks(draw):
    """A (members, rows, classes) stack with duplicate members and, on a grid, exact ties."""
    members = draw(st.integers(1, 64))
    rows, classes = draw(st.integers(0, 40)), draw(st.integers(1, 5))
    distinct = draw(st.integers(1, members))
    levels = draw(st.integers(0, 4))  # 0: continuous values, else multiples of 1 / levels
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (distinct, rows, classes)
    pool = rng.random(shape) if not levels else rng.integers(0, levels + 1, shape) / levels
    return pool[rng.integers(0, distinct, members)]


# Members of three feature spaces, logistic regression and MLP, over one task's examples.
POOL = tuple(
    initialize(spec, Hyperparams(hidden_size=hidden, seed=seed), 3)
    for seed, (spec, hidden) in enumerate([
        (FeatureSpec(dims=64), 0), (FeatureSpec(dims=32, ngram_max=2), 0),
        (FeatureSpec(dims=64), 4), (FeatureSpec(dims=128, lowercase=False), 2),
        (FeatureSpec(dims=32, ngram_max=2), 3), (FeatureSpec(dims=64), 0),
    ])
)
EXAMPLES = synthetic_task("vote", seed=5, num_classes=3, n_train=10, n_val=10, n_test=12,
                          with_text_b=True).test.examples


class TestVectorizedVote:
    """`_vote` over a stack equals the per-row reference vote, and every predict path uses it."""

    @FUZZ
    @given(stacked=stacks(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_row_reference(self, stacked, seed):
        winners, combined = _vote(stacked)
        assert_reference_votes(winners, combined, stacked)
        # Members permuted independently in each row vote the same, bit for bit.
        members, rows, _ = stacked.shape
        order = np.argsort(np.random.default_rng(seed).random((members, rows)), axis=0)
        again, again_combined = _vote(np.take_along_axis(stacked, order[:, :, None], axis=0))
        assert np.array_equal(again, winners)
        assert np.array_equal(bits(again_combined), bits(combined))

    def test_predict_paths_vote_their_members_probabilities(self, monkeypatch):
        builds = []
        real_build = ensemble._design_matrix

        def build(examples, spec):
            builds.append(spec)
            return real_build(examples, spec)

        monkeypatch.setattr(ensemble, "_design_matrix", build)

        @settings(FUZZ, max_examples=25)
        @given(picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=12),
               rows=st.integers(0, len(EXAMPLES)))
        def check(picks, rows):
            models = tuple(POOL[i] for i in picks)
            voters = Ensemble(members=models, num_classes=3)
            spaces = list(dict.fromkeys(m.spec for m in models))
            dataset = Dataset(name="vote", examples=EXAMPLES[:rows], num_classes=3)
            builds.clear()
            winners, combined = predict_dataset(voters, dataset)
            assert builds == spaces  # one design matrix per feature space
            stacked = np.stack([predict_proba_dataset(m, dataset) for m in models])
            assert_reference_votes(winners, combined, stacked)
            for example in dataset.examples:
                builds.clear()
                winner, probs = predict(voters, example)
                assert builds == spaces
                oracle, expected = reference_vote([predict_proba(m, example) for m in models])
                assert winner == oracle and np.array_equal(bits(probs), bits(expected))

        check()
