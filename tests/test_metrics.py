import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagkit.errors import BagkitError
from bagkit.metrics import accuracy, evaluate, macro_f1, mean_std


def two_pass_mean_std(values):
    """Independent reference: textbook two-pass mean and sample std."""
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_hand_counted(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(BagkitError):
            accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(BagkitError, match="mismatch"):
            accuracy([0, 1], [0])

    def test_empty_rejected_before_the_type_check(self):
        with pytest.raises(BagkitError, match="at least one prediction/label pair"):
            accuracy([], [])

    def test_float_predictions_rejected(self):
        with pytest.raises(BagkitError, match=r"predictions must be integer class indices, got 0\.7"):
            accuracy([0.7, 1.2], [0, 1])

    def test_string_predictions_rejected(self):
        with pytest.raises(BagkitError, match="predictions must be integer class indices, got '1'"):
            accuracy(["1", "0"], [1, 0])

    def test_boolean_predictions_rejected(self):
        with pytest.raises(BagkitError, match="predictions must be integer class indices, got True"):
            evaluate([True, False], [1, 0], 2)

    def test_non_integer_labels_rejected(self):
        with pytest.raises(BagkitError, match=r"labels must be integer class indices, got 0\.0"):
            macro_f1(np.array([0, 1]), np.array([0.0, 1.0]), 2)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 3, size=50)
        labels = rng.integers(0, 3, size=50)
        perm = rng.permutation(50)
        assert accuracy(preds, labels) == accuracy(preds[perm], labels[perm])


class TestMacroF1:
    def test_perfect_three_class(self):
        macro, per_class = macro_f1([0, 1, 2, 0], [0, 1, 2, 0], num_classes=3)
        assert macro == 1.0
        assert per_class == (1.0, 1.0, 1.0)

    def test_hand_built_confusion_matrix(self):
        # labels [0,0,1,1], preds [0,1,1,1]:
        # class 0: TP=1 FP=0 FN=1 -> P=1, R=1/2, F1=2/3
        # class 1: TP=2 FP=1 FN=0 -> P=2/3, R=1, F1=4/5
        macro, per_class = macro_f1([0, 1, 1, 1], [0, 0, 1, 1], num_classes=2)
        assert per_class[0] == pytest.approx(2 / 3, abs=1e-12)
        assert per_class[1] == pytest.approx(4 / 5, abs=1e-12)
        assert macro == pytest.approx(11 / 15, abs=1e-12)  # 0.7333...

    def test_zero_support_class_scores_zero(self):
        macro, per_class = macro_f1([0, 1, 0, 1], [0, 1, 0, 1], num_classes=3)
        assert per_class[2] == 0.0
        assert macro == pytest.approx((1.0 + 1.0 + 0.0) / 3, abs=1e-12)

    def test_matches_accuracy_on_symmetric_binary_confusion(self):
        # Balanced labels, FP == FN per class: both metrics reduce to the same value.
        labels = [0, 0, 1, 1]
        preds = [0, 1, 1, 0]
        macro, _ = macro_f1(preds, labels, num_classes=2)
        assert macro == accuracy(preds, labels) == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(BagkitError):
            macro_f1([0, 3], [0, 1], num_classes=2)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 4, size=60)
        labels = rng.integers(0, 4, size=60)
        perm = rng.permutation(60)
        assert macro_f1(preds, labels, 4) == macro_f1(preds[perm], labels[perm], 4)


class TestMeanStd:
    def test_closed_form_pair(self):
        mean, std = mean_std([0.8, 0.9])
        assert mean == pytest.approx(0.85, abs=1e-12)
        assert std == pytest.approx(math.sqrt(0.005), abs=1e-12)  # 0.0707106...

    def test_constant_collection(self):
        assert mean_std([0.5, 0.5, 0.5]) == (0.5, 0.0)

    def test_single_value_rejected(self):
        with pytest.raises(BagkitError):
            mean_std([0.5])

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            values = rng.uniform(-5, 5, size=int(rng.integers(2, 40))).tolist()
            mean, std = mean_std(values)
            ref_mean, ref_std = two_pass_mean_std(values)
            assert mean == pytest.approx(ref_mean, abs=1e-12)
            assert std == pytest.approx(ref_std, abs=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_reference_property(self, values):
        mean, std = mean_std(values)
        ref_mean, ref_std = two_pass_mean_std(values)
        assert mean == pytest.approx(ref_mean, abs=1e-9)
        assert std == pytest.approx(ref_std, abs=1e-9)


class TestEvaluate:
    def test_macro_equals_mean_of_per_class(self):
        rng = np.random.default_rng(3)
        preds = rng.integers(0, 3, size=40)
        labels = rng.integers(0, 3, size=40)
        result = evaluate(preds, labels, num_classes=3)
        assert result.macro_f1 == pytest.approx(np.mean(result.per_class_f1), abs=1e-12)
        assert result.num_examples == 40

    def test_metric_selector(self):
        result = evaluate([0, 1], [0, 1], num_classes=2)
        assert result.metric("accuracy") == result.accuracy
        assert result.metric("macro_f1") == result.macro_f1
        with pytest.raises(BagkitError):
            result.metric("rmse")
