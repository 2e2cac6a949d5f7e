"""Trainable classifiers over hashed bag-of-n-gram features.

Two built-in learners share one parameter layout and training loop:

* logistic regression (``hidden_size == 0``): a single linear layer;
* one-hidden-layer MLP (``hidden_size > 0``): tanh hidden layer, linear output.

Text is tokenized by whitespace, word n-grams up to ``ngram_max`` are hashed
into a power-of-two feature space with a stable keyed hash (text_a and text_b
get distinct field salts), and counts are used as-is. Training is plain
mini-batch gradient descent on softmax cross-entropy with an L2 penalty on
weight matrices (biases are not penalized). Everything is derived from the
hyperparameter seed, so a fit is bit-reproducible.

Parameters live in named flat float64 arrays. A flat index maps to the 2-D
weight position row-major: ``out_weight[k]`` is row ``k // C``, column
``k % C`` of the (inputs x classes) matrix. Layer order for initialization
and serialization is hidden_weight, hidden_bias, out_weight, out_bias.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
import zlib
from array import array
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, Example
from .errors import BagkitError, DataError, TrainingDiverged
from .ioutil import atomic_write, check_object, field_kinds, open_text, parse_json

__all__ = [
    "FeatureSpec",
    "Hyperparams",
    "Model",
    "featurize",
    "initialize",
    "fit",
    "predict_proba",
    "predict_proba_dataset",
    "training_loss",
    "param_count",
    "save_model",
    "load_model",
]

_BATCH_SIZE = 32
_FIELD_SEP = "\x1f"
_MODEL_FORMAT = "bagkit-model-v1"
_META_FIELDS = {
    "format": "str", "spec": "dict", "hyper": "dict", "num_classes": "int", "param_order": "list"
}


@dataclass(frozen=True)
class FeatureSpec:
    """Hashed feature space: size (power of two), n-gram order, case folding."""

    dims: int = 32768
    ngram_max: int = 1
    lowercase: bool = True

    def __post_init__(self):
        if self.dims < 2 or self.dims & (self.dims - 1) != 0:
            raise DataError(f"feature dims must be a power of two >= 2, got {self.dims}")
        if not 1 <= self.ngram_max <= 3:
            raise DataError(f"ngram_max must be in [1, 3], got {self.ngram_max}")


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs. hidden_size 0 selects logistic regression, > 0 the MLP."""

    learning_rate: float = 0.5
    epochs: int = 30
    l2: float = 1e-4
    hidden_size: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DataError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if self.l2 < 0:
            raise DataError(f"l2 must be non-negative, got {self.l2}")
        if self.hidden_size < 0:
            raise DataError(f"hidden_size must be >= 0, got {self.hidden_size}")
        if not 0 <= self.seed < 2**64:
            raise DataError("seed must fit in 64 unsigned bits")


def _expected_shapes(spec: FeatureSpec, hidden_size: int, num_classes: int) -> dict[str, int]:
    """Flat length per named parameter array, in layer order."""
    if hidden_size == 0:
        return {"out_weight": spec.dims * num_classes, "out_bias": num_classes}
    return {
        "hidden_weight": spec.dims * hidden_size,
        "hidden_bias": hidden_size,
        "out_weight": hidden_size * num_classes,
        "out_bias": num_classes,
    }


@dataclass(frozen=True)
class Model:
    """A trained (or freshly initialized) predictor with named flat parameter arrays."""

    spec: FeatureSpec
    hyper: Hyperparams
    num_classes: int
    params: dict[str, np.ndarray]

    def __post_init__(self):
        expected = _expected_shapes(self.spec, self.hyper.hidden_size, self.num_classes)
        if set(self.params) != set(expected):
            raise BagkitError(
                f"parameter arrays {sorted(self.params)} do not match "
                f"expected {sorted(expected)}"
            )
        # Read-only copies in a dict of the model's own, in the caller's key
        # order: the L2 term of the loss sums the weights in that order.
        params: dict[str, np.ndarray] = {}
        for name in self.params:
            arr = np.array(self.params[name], dtype=np.float64).reshape(-1)
            if arr.shape[0] != expected[name]:
                raise BagkitError(
                    f"parameter {name!r} has length {arr.shape[0]}, expected {expected[name]}"
                )
            if not np.all(np.isfinite(arr)):
                raise BagkitError(f"parameter {name!r} contains non-finite values")
            arr.flags.writeable = False
            params[name] = arr
        object.__setattr__(self, "params", params)


def _tokens(text: str, lowercase: bool) -> list[str]:
    return (text.lower() if lowercase else text).split()


def _hash_index(key: str, dims: int) -> int:
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") & (dims - 1)


def featurize(example: Example, spec: FeatureSpec) -> dict[int, int]:
    """Map an example to sparse hashed n-gram counts (feature index -> count)."""
    return _ngram_counts(example, spec, {})


def _ngram_counts(example: Example, spec: FeatureSpec, memo: dict[str, int]) -> dict[int, int]:
    """featurize, with ``memo`` mapping n-gram keys already hashed in this spec to columns."""
    counts: dict[int, int] = {}
    for salt, text in (("a", example.text_a), ("b", example.text_b)):
        if not text:
            continue
        toks = _tokens(text, spec.lowercase)
        for n in range(1, spec.ngram_max + 1):
            for i in range(len(toks) - n + 1):
                key = salt + _FIELD_SEP + " ".join(toks[i : i + n])
                idx = memo.get(key)
                if idx is None:
                    idx = memo[key] = _hash_index(key, spec.dims)
                counts[idx] = counts.get(idx, 0) + 1
    return counts


class _Rows:
    """Hashed counts, one entry per nonzero count, row by row, columns ascending.

    Storage-order rule: ``x @ w`` adds each ``data[k] * w[col[k]]`` into row
    ``row[k]`` of a zero matrix in storage order k, so that order alone fixes
    every float of a fit. ``.T`` swaps ``row`` and ``col`` and moves no entry, so
    ``x.T @ d`` keeps the order; ``x[rows]`` keeps each row's entries in order.
    """

    def __init__(self, data: np.ndarray, row: np.ndarray, col: np.ndarray, shape: tuple[int, int]):
        self.data, self.row, self.col, self.shape = data, row, col, shape

    @property
    def T(self) -> _Rows:
        return _Rows(self.data, self.col, self.row, self.shape[::-1])

    def __getitem__(self, rows: np.ndarray | slice) -> _Rows:
        # Needs ``row`` sorted: a gather is only taken before any transpose.
        if isinstance(rows, slice):
            # A contiguous range of rows is a view of a contiguous range of entries.
            start, stop, step = rows.indices(self.shape[0])
            if step != 1:
                raise ValueError("a row slice must have step 1")
            stop = max(start, stop)
            lo, hi = np.searchsorted(self.row, (start, stop))
            return _Rows(self.data[lo:hi], self.row[lo:hi] - start, self.col[lo:hi],
                         (stop - start, self.shape[1]))
        starts = np.searchsorted(self.row, rows, "left")
        counts = np.searchsorted(self.row, rows, "right") - starts
        take = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        new_row = np.repeat(np.arange(len(rows)), counts)
        return _Rows(self.data[take], new_row, self.col[take], (len(rows), self.shape[1]))

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[0], w.shape[1]))
        np.add.at(out, self.row, self.data[:, None] * w[self.col])
        return out


def _design_matrix(examples: Iterable[Example], spec: FeatureSpec) -> _Rows:
    """One row of hashed counts per example, column indices sorted.

    Each distinct n-gram key is hashed once per build (a memo that lives only
    for this call). Entries go into typed buffers, not lists of boxed numbers.
    """
    memo: dict[str, int] = {}
    data, col, lengths = array("d"), array("q"), array("q")
    for ex in examples:
        counts = _ngram_counts(ex, spec, memo)
        for idx in sorted(counts):
            col.append(idx)
            data.append(counts[idx])
        lengths.append(len(counts))
    row = np.repeat(np.arange(len(lengths)), np.frombuffer(lengths, dtype=np.int64))
    return _Rows(
        np.frombuffer(data, dtype=np.float64),
        row,
        np.frombuffer(col, dtype=np.int64),
        (len(lengths), spec.dims),
    )


def _init_params(
    spec: FeatureSpec, hyper: Hyperparams, num_classes: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Weights drawn with std 1/sqrt(fan_in), biases zero, in layer order."""
    params: dict[str, np.ndarray] = {}
    fan_in = spec.dims
    for name, size in _expected_shapes(spec, hyper.hidden_size, num_classes).items():
        if name.endswith("weight"):
            params[name] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=size)
        else:
            params[name] = np.zeros(size)
            fan_in = size  # a layer's bias is as long as the next layer's input
    return params


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def _forward(
    params: dict[str, np.ndarray], x: _Rows, num_classes: int, hidden_size: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Hidden activations (None for logistic regression) and output logits."""
    hidden = None
    if hidden_size > 0:
        w_h = params["hidden_weight"].reshape(x.shape[1], hidden_size)
        hidden = np.tanh(x @ w_h + params["hidden_bias"])
    w_o = params["out_weight"].reshape(-1, num_classes)
    return hidden, (x if hidden is None else hidden) @ w_o + params["out_bias"]


# Overflow is detected via the finite-loss check, not warnings.
@np.errstate(all="ignore")
def _loss_and_grads(
    params: dict[str, np.ndarray],
    x: _Rows,
    labels: np.ndarray,
    num_classes: int,
    hidden_size: int,
    l2: float,
    want_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Mean cross-entropy plus 0.5 * l2 * ||weights||^2, and its gradients.

    Feeds both the training loop and the finite-difference gradient check, so
    the analytic gradients here are exactly what training uses.
    """
    batch, dims = x.shape
    hidden, logits = _forward(params, x, num_classes, hidden_size)
    probs = _softmax(logits)
    eps = np.finfo(np.float64).tiny
    data_loss = -np.mean(np.log(probs[np.arange(batch), labels] + eps))
    reg_loss = 0.5 * l2 * sum(
        float(params[name] @ params[name])
        for name in params
        if name.endswith("weight")
    )
    loss = float(data_loss + reg_loss)
    if not want_grads:
        return loss, None

    d_logits = probs
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch

    grads: dict[str, np.ndarray] = {}
    inputs = x if hidden is None else hidden
    w_o = params["out_weight"].reshape(-1, num_classes)
    grads["out_weight"] = (inputs.T @ d_logits + l2 * w_o).ravel()
    grads["out_bias"] = d_logits.sum(axis=0)
    if hidden is not None:
        w_h = params["hidden_weight"].reshape(dims, hidden_size)
        d_hidden = (d_logits @ w_o.T) * (1.0 - hidden * hidden)
        grads["hidden_weight"] = (x.T @ d_hidden + l2 * w_h).ravel()
        grads["hidden_bias"] = d_hidden.sum(axis=0)
    return loss, grads


def initialize(spec: FeatureSpec, hyper: Hyperparams, num_classes: int) -> Model:
    """The model fit() starts from: seeded random weights, zero biases."""
    rng = np.random.default_rng(hyper.seed)
    params = _init_params(spec, hyper, num_classes, rng)
    return Model(spec=spec, hyper=hyper, num_classes=num_classes, params=params)


def fit(train: Dataset, spec: FeatureSpec, hyper: Hyperparams) -> Model:
    """Train a classifier on a dataset; deterministic for fixed inputs.

    Mini-batch gradient descent over ``hyper.epochs`` passes, batch order
    reshuffled each epoch from the stream of ``hyper.seed``. Raises
    TrainingDiverged if the loss ever goes non-finite.
    """
    return _fit_rows(_design_matrix(train, spec), train.labels(), train.num_classes, spec, hyper)


def _fit_rows(
    x: _Rows, y: np.ndarray, num_classes: int, spec: FeatureSpec, hyper: Hyperparams
) -> Model:
    """The training loop behind fit, over design-matrix rows and their labels.

    Each epoch gathers the permuted rows once and takes every batch as a
    contiguous slice: the same rows in the same order as gathering each batch.
    """
    n = x.shape[0]
    if n == 0:
        raise DataError("cannot fit on an empty dataset")
    rng = np.random.default_rng(hyper.seed)
    params = _init_params(spec, hyper, num_classes, rng)

    for epoch in range(hyper.epochs):
        perm = rng.permutation(n)
        x_perm, y_perm = x[perm], y[perm]
        for start in range(0, n, _BATCH_SIZE):
            batch = slice(start, start + _BATCH_SIZE)
            loss, grads = _loss_and_grads(
                params, x_perm[batch], y_perm[batch], num_classes, hyper.hidden_size, hyper.l2
            )
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, batch offset {start} "
                    f"(learning_rate={hyper.learning_rate})"
                )
            for name, grad in grads.items():
                params[name] = params[name] - hyper.learning_rate * grad

    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            raise TrainingDiverged(f"non-finite parameters in {name!r} after training")
    return Model(spec=spec, hyper=hyper, num_classes=num_classes, params=params)


def predict_proba(model: Model, example: Example) -> np.ndarray:
    """Class-probability vector (softmax output) for one example."""
    return _forward_proba(model, _design_matrix((example,), model.spec))[0]


def predict_proba_dataset(model: Model, dataset: Dataset) -> np.ndarray:
    """Probability matrix (num_examples x num_classes) for a whole dataset."""
    return _forward_proba(model, _design_matrix(dataset, model.spec))


def _forward_proba(model: Model, x: _Rows) -> np.ndarray:
    _, logits = _forward(model.params, x, model.num_classes, model.hyper.hidden_size)
    return _softmax(logits)


def training_loss(model: Model, dataset: Dataset) -> float:
    """Full-dataset training objective (cross-entropy + L2 term) for a model."""
    x = _design_matrix(dataset, model.spec)
    loss, _ = _loss_and_grads(
        model.params,
        x,
        dataset.labels(),
        model.num_classes,
        model.hyper.hidden_size,
        model.hyper.l2,
        want_grads=False,
    )
    return loss


def param_count(model: Model) -> int:
    """Total number of parameter positions; zeroed values still count."""
    return sum(arr.shape[0] for arr in model.params.values())


def save_model(model: Model, path: str | Path) -> None:
    """Write a self-describing .npz container to exactly path, atomically.

    Round-trips predictions bit-exactly. No suffix is added to path.
    """
    meta = {
        "format": _MODEL_FORMAT,
        "spec": asdict(model.spec),
        "hyper": asdict(model.hyper),
        "num_classes": model.num_classes,
        "param_order": sorted(model.params),
    }
    arrays = {f"param:{name}": model.params[name] for name in sorted(model.params)}
    atomic_write(path, lambda fh: np.savez(fh, meta=np.array(json.dumps(meta)), **arrays))


def load_model(path: str | Path) -> Model:
    """Read a file written by save_model; any other file raises DataError."""
    try:
        with open_text(path, "model file", "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            where = f"{path}: meta"
            meta = parse_json(str(npz["meta"][()]), where, DataError)
            check_object(meta, _META_FIELDS, where, DataError)
            if meta["format"] != _MODEL_FORMAT:
                raise DataError(f"{path}: unrecognized model format {meta['format']!r}")
            for key, cls in (("spec", FeatureSpec), ("hyper", Hyperparams)):
                check_object(meta[key], field_kinds(cls), f"{where}.{key}", DataError)
            params = {name: np.array(npz[f"param:{name}"]) for name in meta["param_order"]}
    # What np.load and zipfile raise on bytes that are not an npz archive of
    # plain arrays, and a param_order naming arrays the archive lacks.
    except (KeyError, ValueError, TypeError, EOFError, NotImplementedError, RuntimeError,
            zipfile.BadZipFile, zlib.error) as exc:
        raise DataError(f"{path}: not a bagkit model: {exc}") from exc
    try:
        return Model(
            spec=FeatureSpec(**meta["spec"]),
            hyper=Hyperparams(**meta["hyper"]),
            num_classes=meta["num_classes"],
            params=params,
        )
    except BagkitError as exc:
        raise DataError(f"{path}: {exc}") from exc
