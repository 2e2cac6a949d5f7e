import numpy as np
import pytest

from bagkit.dataset import Dataset, Example
from bagkit.errors import BagkitError, DataError, TrainingDiverged
from bagkit.predictor import (
    FeatureSpec,
    Hyperparams,
    Model,
    _design_matrix,
    _fit_many,
    _fit_rows,
    _forward,
    _init_params,
    _loss_and_grads,
    _one,
    featurize,
    fit,
    initialize,
    load_model,
    param_count,
    predict_proba,
    predict_proba_dataset,
    save_model,
    training_loss,
)
from bagkit.experiment import grid_search
from bagkit.resample import bootstrap
from bagkit.toy import synthetic_task


def grad_dataset():
    examples = tuple(
        Example(id=f"e{i}", text_a=t, label=l)
        for i, (t, l) in enumerate(
            [
                ("red apple", 0),
                ("green pear", 0),
                ("fast car", 1),
                ("slow truck", 1),
                ("red car", 1),
                ("green apple", 0),
            ]
        )
    )
    return Dataset("grad", examples, 2)


class TestSpecs:
    @pytest.mark.parametrize("dims", [0, 1, 3, 100])
    def test_dims_power_of_two(self, dims):
        with pytest.raises(DataError):
            FeatureSpec(dims=dims)

    def test_ngram_bounds(self):
        with pytest.raises(DataError):
            FeatureSpec(ngram_max=0)
        with pytest.raises(DataError):
            FeatureSpec(ngram_max=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"l2": -0.1},
            {"hidden_size": -1},
        ],
    )
    def test_hyperparams_validation(self, kwargs):
        with pytest.raises(DataError):
            Hyperparams(**kwargs)


class TestFeaturize:
    def test_deterministic(self):
        ex = Example(id="a", text_a="the quick brown fox", label=0)
        spec = FeatureSpec(dims=1024, ngram_max=2)
        assert featurize(ex, spec) == featurize(ex, spec)

    def test_empty_text_b_equals_absent(self):
        spec = FeatureSpec(dims=1024)
        with_empty = Example(id="a", text_a="hello world", label=0, text_b="")
        without = Example(id="a", text_a="hello world", label=0, text_b=None)
        assert featurize(with_empty, spec) == featurize(without, spec)

    def test_unigram_counts(self):
        ex = Example(id="a", text_a="a b a", label=0)
        counts = featurize(ex, FeatureSpec(dims=1024, ngram_max=1))
        assert len(counts) == 2
        assert sorted(counts.values()) == [1, 2]

    def test_bigrams_add_features(self):
        ex = Example(id="a", text_a="a b", label=0)
        uni = featurize(ex, FeatureSpec(dims=4096, ngram_max=1))
        bi = featurize(ex, FeatureSpec(dims=4096, ngram_max=2))
        assert len(uni) == 2
        assert len(bi) == 3

    def test_field_salts_distinct(self):
        spec = FeatureSpec(dims=32768)
        token_in_a = set(featurize(Example(id="x", text_a="token", label=0), spec))
        with_b = set(featurize(Example(id="x", text_a="other", label=0, text_b="token"), spec))
        without_b = set(featurize(Example(id="x", text_a="other", label=0), spec))
        token_in_b = with_b - without_b
        assert token_in_b and token_in_b.isdisjoint(token_in_a)

    def test_lowercase_folding(self):
        upper = Example(id="x", text_a="Word", label=0)
        lower = Example(id="x", text_a="word", label=0)
        folded = FeatureSpec(dims=32768, lowercase=True)
        kept = FeatureSpec(dims=32768, lowercase=False)
        assert featurize(upper, folded) == featurize(lower, folded)
        assert featurize(upper, kept) != featurize(lower, kept)


class TestFit:
    def test_separable_data_high_accuracy(self):
        td = synthetic_task("sep", seed=1, n_train=200, n_val=40, n_test=40, noise=0.0)
        model = fit(td.train, FeatureSpec(dims=1024), Hyperparams())
        preds = np.argmax(predict_proba_dataset(model, td.train), axis=1)
        assert np.mean(preds == td.train.labels()) >= 0.95

    def test_bit_identical_refit(self):
        td = synthetic_task("rep", seed=2, n_train=80, n_val=20, n_test=20)
        spec, hyper = FeatureSpec(dims=512), Hyperparams(epochs=5, seed=9)
        m1, m2 = fit(td.train, spec, hyper), fit(td.train, spec, hyper)
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_mlp_bit_identical_refit(self):
        td = synthetic_task("rep2", seed=3, n_train=60, n_val=20, n_test=20)
        spec, hyper = FeatureSpec(dims=256), Hyperparams(epochs=4, hidden_size=4, seed=11)
        m1, m2 = fit(td.train, spec, hyper), fit(td.train, spec, hyper)
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    @pytest.mark.parametrize("hidden", [0, 4], ids=["logreg", "mlp"])
    def test_batch_slices_equal_per_batch_gathers(self, hidden):
        # Reference: the loop that gathers each 32-row batch from the full matrix.
        td = synthetic_task("slices", seed=8, n_train=75, n_val=20, n_test=20)
        spec, hyper = FeatureSpec(dims=256), Hyperparams(epochs=3, hidden_size=hidden, seed=4)
        x, y = _design_matrix(td.train, spec), td.train.labels()
        rng = np.random.default_rng(hyper.seed)
        params = _init_params(spec, hyper, 2, rng)
        for _ in range(hyper.epochs):
            perm = rng.permutation(len(td.train))
            for start in range(0, len(td.train), 32):
                batch = perm[start : start + 32]
                _, grads = _loss_and_grads(params, x[batch], y[batch], 2, hidden, hyper.l2)
                for name, grad in grads.items():
                    params[name] = params[name] - hyper.learning_rate * grad
        model = fit(td.train, spec, hyper)
        for name in params:
            assert np.array_equal(model.params[name], params[name]), name

    def test_empty_dataset_rejected(self):
        empty = Dataset("none", (), 2)
        with pytest.raises(DataError):
            fit(empty, FeatureSpec(dims=16), Hyperparams())

    def test_divergence_detected(self):
        td = synthetic_task("div", seed=4, n_train=120, n_val=20, n_test=20)
        with pytest.raises(TrainingDiverged, match="epoch"):
            fit(td.train, FeatureSpec(dims=256), Hyperparams(learning_rate=1e6, l2=1e-4))

    def test_loss_decreases(self):
        for seed, hyper in [
            (5, Hyperparams()),
            (6, Hyperparams(hidden_size=8, epochs=20)),
            (7, Hyperparams(learning_rate=0.05, epochs=1, l2=0.0)),
        ]:
            td = synthetic_task("loss", seed=seed, n_train=150, n_val=20, n_test=20)
            spec = FeatureSpec(dims=512)
            before = training_loss(initialize(spec, hyper, 2), td.train)
            after = training_loss(fit(td.train, spec, hyper), td.train)
            assert after <= before


def reference_fit(x, y, spec, hyper, rows):
    """One member trained alone, batch by batch through _loss_and_grads on its own rows."""
    rng = np.random.default_rng(hyper.seed)
    params = _init_params(spec, hyper, 2, rng)
    for _ in range(hyper.epochs):
        order = rows[rng.permutation(len(rows))]
        for start in range(0, len(rows), 32):
            batch = order[start : start + 32]
            _, grads = _loss_and_grads(
                params, x[batch], y[batch], 2, hyper.hidden_size, hyper.l2
            )
            for name, grad in grads.items():
                params[name] = params[name] - hyper.learning_rate * grad
    return params


class TestLockstep:
    """_fit_many trains each member exactly as it would train alone."""

    SPEC = FeatureSpec(dims=256)

    def members(self, hidden, epochs=3):
        td = synthetic_task("lockstep", seed=8, n_train=75, n_val=20, n_test=20)
        n = len(td.train)  # 75 rows: the last batch of an epoch is partial
        first, second, other = (np.array(bootstrap(n, s).indices) for s in (31, 32, 33))
        assert len(set(first.tolist())) < n  # rows drawn more than once
        row_sets = [np.arange(n), first, first[second], other, first[second]]
        hypers = [
            Hyperparams(learning_rate=lr, l2=l2, epochs=epochs, hidden_size=hidden, seed=seed)
            for lr, l2, seed in ((0.5, 1e-4, 1), (0.1, 0.0, 2), (0.5, 1e-3, 3), (0.3, 1e-4, 4),
                                 (0.5, 1e-4, 5))
        ]
        return td, hypers, row_sets

    @pytest.mark.parametrize("hidden", [0, 4], ids=["logreg", "mlp"])
    def test_members_equal_a_per_member_reference(self, hidden):
        td, hypers, row_sets = self.members(hidden)
        x, y = _design_matrix(td.train, self.SPEC), td.train.labels()
        models = _fit_many(x, y, 2, self.SPEC, hypers, row_sets)
        for model, hyper, rows in zip(models, hypers, row_sets):
            assert model.hyper == hyper
            params = reference_fit(x, y, self.SPEC, hyper, rows)
            assert list(model.params) == list(params)
            for name in params:
                assert np.array_equal(model.params[name], params[name]), name

    @pytest.mark.parametrize("hidden", [0, 4], ids=["logreg", "mlp"])
    def test_diverged_member_drops_out_alone(self, hidden):
        td, hypers, row_sets = self.members(hidden, epochs=30)
        hypers[2] = Hyperparams(learning_rate=1e6, epochs=30, hidden_size=hidden, seed=3)
        x, y = _design_matrix(td.train, self.SPEC), td.train.labels()
        outcomes = _fit_many(x, y, 2, self.SPEC, hypers, row_sets)
        for outcome, hyper, rows in zip(outcomes, hypers, row_sets):
            try:
                alone = _fit_rows(x[rows], y[rows], 2, self.SPEC, hyper)
            except TrainingDiverged as exc:
                assert isinstance(outcome, TrainingDiverged)
                assert str(outcome) == str(exc)
                continue
            for name in alone.params:
                assert np.array_equal(outcome.params[name], alone.params[name]), name
        assert isinstance(outcomes[2], TrainingDiverged)
        assert "epoch" in str(outcomes[2])
        assert sum(isinstance(o, TrainingDiverged) for o in outcomes) == 1

    def test_members_must_share_shape_of_training(self):
        td, hypers, row_sets = self.members(0)
        x, y = _design_matrix(td.train, self.SPEC), td.train.labels()
        for bad_hypers, bad_rows in (
            (hypers[:1] + [Hyperparams(epochs=4)], row_sets[:2]),
            (hypers[:1] + [Hyperparams(epochs=3, hidden_size=4)], row_sets[:2]),
            (hypers[:2], [row_sets[0], row_sets[1][:-1]]),
        ):
            with pytest.raises(ValueError, match="lockstep"):
                _fit_many(x, y, 2, self.SPEC, bad_hypers, bad_rows)

    def test_grid_search_skips_a_diverging_candidate(self):
        td = synthetic_task("search", seed=9, n_train=90, n_val=40, n_test=20)
        space = [
            Hyperparams(learning_rate=0.5, epochs=30, seed=2),
            Hyperparams(learning_rate=1e6, epochs=30, seed=2),
            Hyperparams(learning_rate=0.1, epochs=30, seed=2),
            Hyperparams(learning_rate=0.5, l2=0.0, epochs=20, seed=2),  # its own lockstep loop
            Hyperparams(learning_rate=0.2, l2=0.0, epochs=30, seed=2),
        ]
        # The winner scored candidate by candidate, each fit alone.
        x, y = _design_matrix(td.train, self.SPEC), td.train.labels()
        x_val, y_val = _design_matrix(td.val, self.SPEC), td.val.labels()
        best, best_score, diverged = None, -1.0, []
        for hyper in space:
            try:
                model = _fit_rows(x, y, 2, self.SPEC, hyper)
            except TrainingDiverged:
                diverged.append(hyper)
                continue
            _, logits = _forward(_one(model.params), x_val, 2, hyper.hidden_size)
            score = float(np.mean(np.argmax(logits[0], axis=1) == y_val))
            if score > best_score:
                best, best_score = hyper, score
        assert diverged == [space[1]]
        assert grid_search(space, td.train, td.val, feature_spec=self.SPEC) == best
        without = [h for h in space if h not in diverged]
        assert grid_search(without, td.train, td.val, feature_spec=self.SPEC) == best


class TestPredictProba:
    def test_sums_to_one(self):
        td = synthetic_task("sum", seed=8, n_train=60, n_val=20, n_test=30, num_classes=3)
        model = fit(td.train, FeatureSpec(dims=256), Hyperparams(epochs=5))
        probs = predict_proba_dataset(model, td.test)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("hidden", [0, 4])
    def test_zero_parameters_give_uniform(self, hidden):
        spec = FeatureSpec(dims=64)
        hyper = Hyperparams(hidden_size=hidden)
        zeros = {
            name: np.zeros_like(arr)
            for name, arr in _init_params(spec, hyper, 3, np.random.default_rng(0)).items()
        }
        model = Model(spec=spec, hyper=hyper, num_classes=3, params=zeros)
        probs = predict_proba(model, Example(id="x", text_a="any words here", label=0))
        assert np.allclose(probs, 1 / 3)

    def test_training_shifts_probability_toward_true_class(self):
        td = synthetic_task("shift", seed=9, n_train=200, n_val=40, n_test=80)
        spec, hyper = FeatureSpec(dims=512), Hyperparams()
        before = predict_proba_dataset(initialize(spec, hyper, 2), td.test)
        after = predict_proba_dataset(fit(td.train, spec, hyper), td.test)
        labels = td.test.labels()
        rows = np.arange(len(labels))
        assert after[rows, labels].mean() > before[rows, labels].mean()

    def test_pure_function_of_model_and_example(self):
        td = synthetic_task("pure", seed=10, n_train=60, n_val=20, n_test=20)
        model = fit(td.train, FeatureSpec(dims=256), Hyperparams(epochs=3))
        ex = td.test[0]
        assert np.array_equal(predict_proba(model, ex), predict_proba(model, ex))


class TestParamCount:
    def test_logreg_shape_arithmetic(self):
        model = initialize(FeatureSpec(dims=1024), Hyperparams(), 2)
        assert param_count(model) == 1024 * 2 + 2 == 2050

    def test_mlp_shape_arithmetic(self):
        model = initialize(FeatureSpec(dims=1024), Hyperparams(hidden_size=16), 3)
        assert param_count(model) == 1024 * 16 + 16 + 16 * 3 + 3 == 16451

    def test_invariant_under_pruning(self):
        from bagkit.prune import PruneSpec, prune_magnitude

        model = initialize(FeatureSpec(dims=64), Hyperparams(), 2)
        assert param_count(prune_magnitude(model, PruneSpec(0.7))) == param_count(model)


def _storage_order_products(rows, w):
    """Reference x @ w: per row, 0.0 plus each count * w[col], columns ascending."""
    out = []
    for counts in rows:
        acc = [0.0] * w.shape[1]
        for col in sorted(counts):
            acc = [a + counts[col] * w[col, c] for c, a in enumerate(acc)]
        out.append(acc)
    return np.array(out).reshape(len(rows), w.shape[1])


def _storage_order_transposed(rows, d, dims):
    """Reference x.T @ d: per column, 0.0 plus each count * d[row], rows ascending."""
    out = [[0.0] * d.shape[1] for _ in range(dims)]
    for r, counts in enumerate(rows):
        for col in sorted(counts):
            out[col] = [a + counts[col] * d[r, c] for c, a in enumerate(out[col])]
    return np.array(out)


class TestDesignMatrix:
    """The sparse kernel's sums are exact left-to-right sums in storage order."""

    SPEC = FeatureSpec(dims=8, ngram_max=2)  # few columns, so counts collide

    def examples(self):
        texts = [
            ("  ", None),  # whitespace only: valid input, an empty row
            ("the cat sat on the mat", "a dog ran"),
            (" \t ", None),
            ("red red apple", "green pear green"),
            ("fast car", None),
            ("   ", None),
        ]
        return [Example(id=f"e{i}", text_a=a, text_b=b, label=0) for i, (a, b) in enumerate(texts)]

    def test_products_equal_storage_order_sums(self):
        exs = self.examples()
        rows = [featurize(ex, self.SPEC) for ex in exs]
        assert not rows[0] and not rows[2] and not rows[-1] and max(rows[3].values()) > 1
        rng = np.random.default_rng(3)
        w = rng.normal(size=(self.SPEC.dims, 3))
        d = rng.normal(size=(len(exs), 3))
        x = _design_matrix(exs, self.SPEC)
        assert x.shape == (len(exs), self.SPEC.dims)
        assert np.array_equal(x @ w, _storage_order_products(rows, w))
        assert np.array_equal(x.T @ d, _storage_order_transposed(rows, d, self.SPEC.dims))

    def test_gather_keeps_rows_and_order(self):
        exs = self.examples()
        pick = np.array([5, 1, 1, 0, 3, 2])  # empty first, middle and last; one repeat
        rows = [featurize(exs[i], self.SPEC) for i in pick]
        rng = np.random.default_rng(4)
        w = rng.normal(size=(self.SPEC.dims, 2))
        d = rng.normal(size=(len(pick), 2))
        batch = _design_matrix(exs, self.SPEC)[pick]
        assert batch.shape == (len(pick), self.SPEC.dims)
        assert np.array_equal(batch @ w, _storage_order_products(rows, w))
        assert np.array_equal(batch.T @ d, _storage_order_transposed(rows, d, self.SPEC.dims))

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_any_width_sums_in_storage_order(self, k):
        exs = self.examples()
        rows = [featurize(ex, self.SPEC) for ex in exs]
        pick = np.array([3, 1, 0, 3, 4])
        rng = np.random.default_rng(k)
        w = rng.normal(size=(self.SPEC.dims, k))
        x = _design_matrix(exs, self.SPEC)
        for matrix, picked in ((x, rows), (x[pick], [rows[i] for i in pick])):
            d = rng.normal(size=(len(picked), k))
            assert np.array_equal(matrix @ w, _storage_order_products(picked, w))
            assert np.array_equal(
                matrix.T @ d, _storage_order_transposed(picked, d, self.SPEC.dims)
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_lockstep_gather_sums_in_storage_order(self, k):
        # Three members of two rows each; member m's columns start at m * dims.
        exs = self.examples()
        dims, members = self.SPEC.dims, 3
        pick = np.array([1, 3, 3, 0, 4, 1])
        rows = [
            {col + i // 2 * dims: count for col, count in featurize(exs[r], self.SPEC).items()}
            for i, r in enumerate(pick)
        ]
        rng = np.random.default_rng(10 + k)
        w = rng.normal(size=(members * dims, k))
        d = rng.normal(size=(len(pick), k))
        x = _design_matrix(exs, self.SPEC).lockstep(pick, members)
        assert x.shape == (len(pick), members * dims)
        assert np.array_equal(x @ w, _storage_order_products(rows, w))
        assert np.array_equal(x.T @ d, _storage_order_transposed(rows, d, members * dims))

    def test_gather_needs_row_pointers(self):
        x = _design_matrix(self.examples(), self.SPEC)
        assert np.array_equal(x.indptr, x.row.searchsorted(np.arange(x.shape[0] + 1)))
        with pytest.raises(ValueError, match="row pointers"):
            x.T[np.array([0, 1])]


class TestKeyMemo:
    """_design_matrix hashes each key once per build; no column may change."""

    def examples(self):
        texts = [
            ("Red apple pie", "red apple pie"),  # shared n-grams: the field salt keeps them apart
            ("  \t", None),  # whitespace only
            ("the Cat sat on the mat", "a cat ran on the mat"),
            ("Red apple pie", "red apple pie"),  # a repeated example
            ("fast CAR fast car", None),
        ]
        return [Example(id=f"e{i}", text_a=a, text_b=b, label=0) for i, (a, b) in enumerate(texts)]

    @staticmethod
    def rebuild(examples, spec):
        """Entries of the design matrix, rebuilt row by row from featurize alone."""
        data, row, col = [], [], []
        for r, ex in enumerate(examples):
            counts = featurize(ex, spec)
            for idx in sorted(counts):
                data.append(float(counts[idx]))
                row.append(r)
                col.append(idx)
        return data, row, col

    def assert_matches_rebuild(self, examples, spec):
        x = _design_matrix(examples, spec)
        assert x.shape == (len(examples), spec.dims)
        assert (x.data.tolist(), x.row.tolist(), x.col.tolist()) == self.rebuild(examples, spec)

    @pytest.mark.parametrize("lowercase", [True, False])
    def test_memo_matches_per_example_featurize(self, lowercase):
        spec = FeatureSpec(dims=1024, ngram_max=3, lowercase=lowercase)
        exs = self.examples()
        a_side = set(featurize(Example(id="a", text_a="red apple pie", label=0), spec))
        b_side = set(featurize(Example(id="b", text_a="x", text_b="red apple pie", label=0), spec))
        assert a_side - b_side  # the shared n-grams land in different columns per field
        self.assert_matches_rebuild(exs, spec)

    def test_memo_lives_for_one_build_and_one_spec(self):
        exs = self.examples()
        for dims in (16, 1024, 16):
            self.assert_matches_rebuild(exs, FeatureSpec(dims=dims, ngram_max=2))
        narrow = _design_matrix(exs, FeatureSpec(dims=16, ngram_max=2))
        wide = _design_matrix(exs, FeatureSpec(dims=1024, ngram_max=2))
        assert narrow.col.max() < 16 <= wide.col.max()


class TestGradientBuffers:
    """Gradients written into kept buffers are the allocated ones, bit for bit."""

    SPEC = FeatureSpec(dims=64)

    @pytest.mark.parametrize("hidden", [0, 3], ids=["logreg", "mlp"])
    def test_out_equals_allocating_path(self, hidden):
        td = synthetic_task("bufs", seed=6, n_train=40, n_val=10, n_test=10)
        x, y = _design_matrix(td.train, self.SPEC), td.train.labels()
        hypers = [Hyperparams(hidden_size=hidden, seed=s) for s in (1, 2)]
        stacked = {
            name: np.stack([_init_params(self.SPEC, h, 2, np.random.default_rng(h.seed))[name]
                            for h in hypers])
            for name in _init_params(self.SPEC, hypers[0], 2, np.random.default_rng(0))
        }
        batch = np.array([4, 0, 9, 9, 17, 3])  # three rows per member
        l2 = np.array([1e-4, 1e-2])
        cases = (
            (stacked, x.lockstep(batch, 2), y[batch], l2),
            ({n: a[0] for n, a in stacked.items()}, x[batch], y[batch], 1e-3),
        )
        for params, rows, labels, reg in cases:
            loss, grads = _loss_and_grads(params, rows, labels, 2, hidden, reg)
            bufs = {name: np.full_like(arr, np.nan) for name, arr in params.items()}
            kept = dict(bufs)  # the arrays themselves, whatever happens to the dict
            loss_out, grads_out = _loss_and_grads(params, rows, labels, 2, hidden, reg, out=bufs)
            assert np.array_equal(loss_out, loss)
            assert list(grads_out) == list(grads)
            for name in grads:
                assert np.shares_memory(grads_out[name], kept[name])
                assert np.array_equal(kept[name], grads[name]), name

    def test_models_do_not_share_the_buffers(self, monkeypatch):
        from bagkit import predictor

        td = synthetic_task("bufs", seed=6, n_train=40, n_val=10, n_test=10)
        x, y = _design_matrix(td.train, self.SPEC), td.train.labels()
        buffers = []
        real = predictor._loss_and_grads

        def spy(*args, out=None, **kwargs):
            buffers.append(out)
            return real(*args, out=out, **kwargs)

        monkeypatch.setattr(predictor, "_loss_and_grads", spy)
        hypers = [
            Hyperparams(learning_rate=0.5, epochs=30, seed=1),
            Hyperparams(learning_rate=1e6, epochs=30, l2=1e-2, seed=2),  # diverges
            Hyperparams(learning_rate=0.2, epochs=30, seed=3),
        ]
        outcomes = _fit_many(x, y, 2, self.SPEC, hypers, [np.arange(len(td.train))] * 3)
        assert isinstance(outcomes[1], TrainingDiverged)
        kept = {id(arr): arr for out in buffers for arr in out.values()}
        assert len(kept) == 4  # one pair for the three members, one after the drop
        for model in (outcomes[0], outcomes[2]):
            for arr in model.params.values():
                assert not any(np.shares_memory(arr, buf) for buf in kept.values())


class TestGradients:
    def _finite_diff(self, params, x, y, num_classes, hidden, l2, h=1e-6):
        out = {}
        for name in params:
            g = np.zeros_like(params[name])
            for k in range(params[name].size):
                probe = {n: a.copy() for n, a in params.items()}
                probe[name][k] += h
                lp, _ = _loss_and_grads(probe, x, y, num_classes, hidden, l2, want_grads=False)
                probe[name][k] -= 2 * h
                lm, _ = _loss_and_grads(probe, x, y, num_classes, hidden, l2, want_grads=False)
                g[k] = (lp - lm) / (2 * h)
            out[name] = g
        return out

    @pytest.mark.parametrize(
        "dims,hidden,l2,expected_params",
        [(4, 0, 0.01, 10), (2, 2, 0.05, 12)],
    )
    def test_analytic_matches_central_differences(self, dims, hidden, l2, expected_params):
        ds = grad_dataset()
        spec = FeatureSpec(dims=dims)
        hyper = Hyperparams(hidden_size=hidden, l2=l2)
        x = _design_matrix(ds, spec)
        y = ds.labels()
        params = _init_params(spec, hyper, 2, np.random.default_rng(5))
        assert sum(p.size for p in params.values()) == expected_params

        _, analytic = _loss_and_grads(params, x, y, 2, hidden, l2)
        numeric = self._finite_diff(params, x, y, 2, hidden, l2)
        ga = np.concatenate([analytic[n] for n in sorted(params)])
        gf = np.concatenate([numeric[n] for n in sorted(params)])
        rel = np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), np.linalg.norm(gf))
        assert rel < 1e-4


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        td = synthetic_task("ser", seed=12, n_train=80, n_val=20, n_test=30)
        model = fit(td.train, FeatureSpec(dims=256, ngram_max=2), Hyperparams(epochs=5, seed=3))
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.spec == model.spec
        assert loaded.hyper == model.hyper
        assert loaded.num_classes == model.num_classes
        assert np.array_equal(
            predict_proba_dataset(model, td.test), predict_proba_dataset(loaded, td.test)
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_model(tmp_path / "absent.npz")


def test_model_shape_validation():
    spec = FeatureSpec(dims=8)
    with pytest.raises(BagkitError):
        Model(spec=spec, hyper=Hyperparams(), num_classes=2, params={"out_weight": np.zeros(3)})
    with pytest.raises(BagkitError):
        Model(
            spec=spec,
            hyper=Hyperparams(),
            num_classes=2,
            params={"out_weight": np.full(16, np.nan), "out_bias": np.zeros(2)},
        )


def test_model_keeps_callers_params_dict():
    spec = FeatureSpec(dims=8)
    weight, bias = [0.5] * 16, np.zeros(2)
    params = {"out_weight": weight, "out_bias": bias}
    model = Model(spec=spec, hyper=Hyperparams(), num_classes=2, params=params)
    assert params["out_weight"] is weight and params["out_bias"] is bias
    assert model.params is not params
    assert not model.params["out_bias"].flags.writeable
