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

The training loop, `_fit_many`, trains a group of members that share hidden
size, epochs and row count in lockstep. Their parameters are stacked on a
leading member axis, each step gathers every member's batch at once (member
m's columns offset by m * dims), and one call of `_loss_and_grads` steps them
all, writing the gradients into buffers the loop keeps for the whole call.
Each member keeps its own seeded stream for initialization and batch
order, and every sum adds the same terms in the same order as it would
alone, so a member trained in a group is bit-identical to the same member
trained by itself.

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
_TINY = np.finfo(np.float64).tiny
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


def _ngram_counts(example: Example, spec: FeatureSpec, memo: dict) -> dict[int, int]:
    """featurize, with ``memo`` holding the columns of n-grams already hashed in this spec.

    The memo is looked up per field and order by the n-gram's words alone, so
    the salted key string that is hashed is built only for an n-gram not seen
    before.
    """
    counts: dict[int, int] = {}
    for salt, text in (("a", example.text_a), ("b", example.text_b)):
        if not text:
            continue
        toks = _tokens(text, spec.lowercase)
        for n in range(1, spec.ngram_max + 1):
            seen = memo.setdefault((salt, n), {})
            grams = toks if n == 1 else map(" ".join, zip(*(toks[j:] for j in range(n))))
            for gram in grams:
                idx = seen.get(gram)
                if idx is None:
                    idx = seen[gram] = _hash_index(salt + _FIELD_SEP + gram, spec.dims)
                counts[idx] = counts.get(idx, 0) + 1
    return counts


class _Rows:
    """Hashed counts, one entry per nonzero count, row by row, columns ascending.

    Storage-order rule: ``x @ w`` adds each ``data[i] * w[col[i]]`` into row
    ``row[i]`` of a zero matrix in storage order i, so that order alone fixes
    every float of a fit. The product lays its terms out class-major, one
    slice of all entries per output column j, and sums them with
    ``np.bincount`` over the flat cells ``row * k + j``: a cell takes terms
    from its own slice only, and each slice lists the entries in storage
    order. ``.T`` swaps ``row`` and ``col`` and moves no entry, so ``x.T @ d``
    keeps the order; ``x[rows]`` keeps each row's entries in order.

    ``indptr`` holds the row pointers (row r's entries are
    ``indptr[r]:indptr[r + 1]``) that a gather reads. A design matrix and
    its gathers have them; a transpose has none, and gathering from it
    raises.
    """

    def __init__(
        self,
        data: np.ndarray,
        row: np.ndarray,
        col: np.ndarray,
        shape: tuple[int, int],
        indptr: np.ndarray | None = None,
    ):
        self.data, self.row, self.col, self.shape, self.indptr = data, row, col, shape, indptr

    @property
    def T(self) -> _Rows:
        return _Rows(self.data, self.col, self.row, self.shape[::-1])

    def __getitem__(self, rows: np.ndarray) -> _Rows:
        if self.indptr is None:
            raise ValueError("rows can only be gathered from a matrix with row pointers")
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        ends = counts.cumsum()
        take = (starts - ends + counts).repeat(counts) + np.arange(counts.sum())
        return _Rows(
            self.data[take],
            np.arange(len(rows)).repeat(counts),
            self.col[take],
            (len(rows), self.shape[1]),
            np.concatenate(([0], ends)),
        )

    def lockstep(self, rows: np.ndarray, members: int) -> _Rows:
        """``self[rows]`` where ``rows`` holds an equal run of rows per member, in turn.

        Member m's columns are offset by ``m * width``, so one product with the
        members' weights stacked into ``(members * width, k)`` serves them all,
        and each member's entries keep their storage order.
        """
        x = self[rows]
        bounds = x.indptr[:: len(rows) // members]
        x.col += np.repeat(np.arange(members) * self.shape[1], bounds[1:] - bounds[:-1])
        x.shape = (len(rows), members * self.shape[1])
        return x

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        # Class-major: slice j holds every entry's term for output column j,
        # in storage order, so each pass runs over contiguous entries. The
        # weights are read by flat index, which copies no part of w.
        k = w.shape[1]
        j = np.arange(k)[:, None]
        cells = (j + self.row * k).ravel()
        products = (w.reshape(-1).take(j + self.col * k) * self.data).ravel()
        sums = np.bincount(cells, weights=products, minlength=self.shape[0] * k)
        return sums.reshape(self.shape[0], k)


def _design_matrix(examples: Iterable[Example], spec: FeatureSpec) -> _Rows:
    """One row of hashed counts per example, column indices sorted, with row pointers.

    Each distinct n-gram key is hashed once per build (a memo that lives only
    for this call). Entries go into typed buffers, not lists of boxed numbers.
    """
    memo: dict = {}
    data, col, lengths = array("d"), array("q"), array("q")
    for ex in examples:
        counts = _ngram_counts(ex, spec, memo)
        for idx in sorted(counts):
            col.append(idx)
            data.append(counts[idx])
        lengths.append(len(counts))
    lengths = np.frombuffer(lengths, dtype=np.int64)
    return _Rows(
        np.frombuffer(data, dtype=np.float64),
        np.repeat(np.arange(len(lengths)), lengths),
        np.frombuffer(col, dtype=np.int64),
        (len(lengths), spec.dims),
        np.concatenate(([0], lengths.cumsum())),
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
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def _one(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One member's flat parameter arrays as a stack of one."""
    return {name: arr[None] for name, arr in params.items()}


def _forward(
    params: dict[str, np.ndarray], x: _Rows, num_classes: int, hidden_size: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Hidden activations (None for logistic regression) and output logits, per member.

    Each params array stacks M members' flat arrays as rows, and ``x`` holds
    an equal number of rows per member, one member after another (see
    `_Rows.lockstep`). Both results are (M, rows per member, width).
    """
    members = params["out_bias"].shape[0]
    hidden = None
    if hidden_size > 0:
        w_h = params["hidden_weight"].reshape(-1, hidden_size)
        pre = (x @ w_h).reshape(members, -1, hidden_size)
        hidden = np.tanh(pre + params["hidden_bias"][:, None])
        logits = hidden @ params["out_weight"].reshape(members, hidden_size, num_classes)
    else:
        w_o = params["out_weight"].reshape(-1, num_classes)
        logits = (x @ w_o).reshape(members, -1, num_classes)
    return hidden, logits + params["out_bias"][:, None]


# Overflow is detected via the finite-loss check, not warnings.
@np.errstate(all="ignore")
def _loss_and_grads(
    params: dict[str, np.ndarray],
    x: _Rows,
    labels: np.ndarray,
    num_classes: int,
    hidden_size: int,
    l2: float | np.ndarray,
    want_grads: bool = True,
    out: dict[str, np.ndarray] | None = None,
) -> tuple[float | np.ndarray, dict[str, np.ndarray] | None]:
    """Mean cross-entropy plus 0.5 * l2 * ||weights||^2, and its gradients, per member.

    The one forward and gradient implementation: it is the lockstep training
    step, and with one member the finite-difference checks and training_loss,
    so the analytic gradients checked are exactly what training uses. Stacked,
    each params array holds M members' flat arrays as rows, ``x`` and
    ``labels`` hold an equal batch per member, one member after another, ``l2``
    has one value per member, and the loss and each gradient have one row per
    member. One member's flat arrays with a number ``l2`` give a number loss
    and flat gradients. The gradients are written into ``out`` (arrays shaped
    like ``params``, returned) when given, and into new arrays otherwise.
    """
    if params["out_bias"].ndim == 1:
        loss, grads = _loss_and_grads(
            _one(params), x, labels, num_classes, hidden_size, np.array([l2]), want_grads,
            None if out is None else _one(out),
        )
        return float(loss[0]), None if grads is None else {n: g[0] for n, g in grads.items()}

    hidden, logits = _forward(params, x, num_classes, hidden_size)
    members, batch = logits.shape[:2]
    probs = _softmax(logits).reshape(-1, num_classes)
    picked = np.arange(members * batch), labels
    data_loss = -(np.log(probs[picked] + _TINY).reshape(members, batch).sum(axis=1) / batch)
    # Each member's squared norm is a dot product of its own row, as alone.
    reg_loss = 0.5 * l2 * sum(
        np.matmul(params[name][:, None], params[name][:, :, None])[:, 0, 0]
        for name in params
        if name.endswith("weight")
    )
    loss = data_loss + reg_loss
    if not want_grads:
        return loss, None

    d_logits = probs
    d_logits[picked] -= 1.0
    d_logits /= batch
    d_member = d_logits.reshape(members, batch, num_classes)

    grads = {name: np.empty_like(arr) for name, arr in params.items()} if out is None else out
    l2 = l2[:, None]

    def weight_grad(name: str, product: np.ndarray) -> None:
        # l2 * w + product, elementwise the same floats as product + l2 * w.
        np.multiply(l2, params[name], out=grads[name])
        grads[name] += product.reshape(members, -1)

    if hidden is None:
        weight_grad("out_weight", x.T @ d_logits)
    else:
        weight_grad("out_weight", hidden.transpose(0, 2, 1) @ d_member)
    grads["out_bias"][...] = d_member.sum(axis=1)
    if hidden is not None:
        w_o = params["out_weight"].reshape(members, hidden_size, num_classes)
        d_hidden = (d_member @ w_o.transpose(0, 2, 1)) * (1.0 - hidden * hidden)
        weight_grad("hidden_weight", x.T @ d_hidden.reshape(-1, hidden_size))
        grads["hidden_bias"][...] = d_hidden.sum(axis=1)
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
    """fit over design-matrix rows and their labels: `_fit_many` of one member on every row."""
    (outcome,) = _fit_many(x, y, num_classes, spec, (hyper,), (np.arange(x.shape[0]),))
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome


def _fit_many(
    x: _Rows,
    y: np.ndarray,
    num_classes: int,
    spec: FeatureSpec,
    hypers,
    row_sets,
) -> list[Model | TrainingDiverged]:
    """The training loop: members trained in lockstep, a Model or a TrainingDiverged each.

    Member m trains with ``hypers[m]`` on rows ``row_sets[m]`` of ``x`` (and
    ``y``); the members share hidden size, epochs and row count. Each keeps
    its own ``default_rng(seed)`` stream for its initialization and its
    permutation per epoch, so it sees exactly the batches it would see alone.
    The parameters are stacked on a leading member axis, and each step
    gathers every member's batch rows in one gather and writes the gradients
    into buffers kept for the whole call. A member whose loss goes non-finite
    is dropped with its error and the others go on.
    """
    n = len(row_sets[0])
    if n == 0:
        raise DataError("cannot fit on an empty dataset")
    hidden, epochs = hypers[0].hidden_size, hypers[0].epochs
    if any((h.hidden_size, h.epochs) != (hidden, epochs) for h in hypers) or any(
        len(rows) != n for rows in row_sets
    ):
        raise ValueError("lockstep members must share hidden size, epochs and row count")
    rngs = np.array([np.random.default_rng(h.seed) for h in hypers], dtype=object)
    params: dict[str, np.ndarray] = {}
    for m, (hyper, rng) in enumerate(zip(hypers, rngs)):
        for name, arr in _init_params(spec, hyper, num_classes, rng).items():
            params.setdefault(name, np.empty((len(hypers), arr.size)))[m] = arr
    grads = {name: np.empty_like(arr) for name, arr in params.items()}
    rows = np.stack(row_sets)
    lr = np.array([[h.learning_rate] for h in hypers])
    l2 = np.array([h.l2 for h in hypers])
    live = np.arange(len(hypers))  # which member each stacked row is
    outcomes: list[Model | TrainingDiverged | None] = [None] * len(hypers)

    for epoch in range(epochs):
        order = np.stack([member_rows[rng.permutation(n)] for member_rows, rng in zip(rows, rngs)])
        for start in range(0, n, _BATCH_SIZE):
            batch = order[:, start : start + _BATCH_SIZE].ravel()
            loss, _ = _loss_and_grads(
                params, x.lockstep(batch, len(live)), y[batch], num_classes, hidden, l2,
                out=grads,
            )
            finite = np.isfinite(loss)
            if not finite.all():
                for i in np.flatnonzero(~finite):
                    outcomes[live[i]] = TrainingDiverged(
                        f"non-finite loss {loss[i]} at epoch {epoch}, batch offset {start} "
                        f"(learning_rate={hypers[live[i]].learning_rate})"
                    )
                params = {name: arr[finite] for name, arr in params.items()}
                grads = {name: arr[finite] for name, arr in grads.items()}
                rows, order, rngs, live, lr, l2 = (
                    a[finite] for a in (rows, order, rngs, live, lr, l2)
                )
                if not len(live):
                    return outcomes
            # In place, so the update makes no parameter-sized temporaries.
            for name, grad in grads.items():
                grad *= lr
                params[name] -= grad

    for i, member in enumerate(live):
        arrays = {name: arr[i] for name, arr in params.items()}
        bad = [name for name, arr in arrays.items() if not np.all(np.isfinite(arr))]
        outcomes[member] = (
            TrainingDiverged(f"non-finite parameters in {bad[0]!r} after training")
            if bad
            else Model(spec=spec, hyper=hypers[member], num_classes=num_classes, params=arrays)
        )
    return outcomes


def predict_proba(model: Model, example: Example) -> np.ndarray:
    """Class-probability vector (softmax output) for one example."""
    return _forward_proba(model, _design_matrix((example,), model.spec))[0]


def predict_proba_dataset(model: Model, dataset: Dataset) -> np.ndarray:
    """Probability matrix (num_examples x num_classes) for a whole dataset."""
    return _forward_proba(model, _design_matrix(dataset, model.spec))


def _forward_proba(model: Model, x: _Rows) -> np.ndarray:
    _, logits = _forward(_one(model.params), x, model.num_classes, model.hyper.hidden_size)
    return _softmax(logits[0])


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
