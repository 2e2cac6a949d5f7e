"""Trainable classifiers over hashed bag-of-n-gram features.

Two built-in learners share one parameter layout and training loop:

* logistic regression (``hidden_size == 0``): a single linear layer;
* one-hidden-layer MLP (``hidden_size > 0``): tanh hidden layer, linear output.

Text is tokenized by whitespace, word n-grams up to ``ngram_max`` are hashed
into a power-of-two feature space with a stable keyed hash (text_a and text_b
get distinct field salts), and counts are used as-is. One build,
`_design_matrix`, featurizes many examples at once: per field, tokens become
integer ids and n-grams integer keys, each distinct n-gram is hashed once,
and one sort sums the counts of each (row, column) cell. `featurize` is that
build for a single example.

Training is plain mini-batch gradient descent on softmax cross-entropy with
an L2 penalty on weight matrices (biases are not penalized). Everything is
derived from the hyperparameter seed, so a fit is bit-reproducible.

The training loop, `_fit_many`, trains a group of members that share hidden
size, epochs, row count and class count in lockstep, whatever their feature
spaces and design matrices. Their parameters are stacked on a leading member
axis, the first-layer weights as dense blocks of one feature space each, laid
end to end with no padding. Each step gathers every member's batch at once
(member m's columns offset by its first column in that layout), and one call
of `_loss_and_grads` steps them all, writing the gradients into buffers the
loop keeps for the whole call.
The gather writes the batch's entries and the class-major index arrays of
its sparse products into a workspace the loop also keeps, grown only when a
step needs more entries than any before it. Both products of a step, ``x @
w`` and ``x.T @ d``, have the same width and read the same two index arrays:
the cells one sums into are the positions the other reads from. Each member
keeps its own seeded stream for initialization and batch order, and every
sum adds the same terms in the same order as it would alone, so a member
trained in a group is bit-identical to the same member trained by itself.
The first-layer gradient product ``x.T @ d`` is summed zero-filled and added
whole when the batch is dense, and added only at the batch's own cells,
through a zero accumulator in the workspace, when it is sparse
(`_SPARSE_DENSITY`); both give every parameter the same bits (`_fit_many`).

Parameters live in named flat float64 arrays. A flat index maps to the 2-D
weight position row-major: ``out_weight[k]`` is row ``k // C``, column
``k % C`` of the (inputs x classes) matrix. Layer order for initialization
and serialization is hidden_weight, hidden_bias, out_weight, out_bias.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import sys
import zipfile
import zlib
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

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
# A training step whose batch has fewer entries than this share of the
# first-layer stack's input columns adds its gradient product only at its own
# cells (`_Rows.add_product`). The share is where the two ways cost the same:
# 1/16 at 30,720 and 65,536 parameters, timed on 2 x86-64 cores, one thread.
_SPARSE_DENSITY = 1 / 16
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
        # NaN and ±inf fail this test, and so does a JSON integer too large for a float.
        for name in ("learning_rate", "l2"):
            if not abs(getattr(self, name)) <= sys.float_info.max:
                raise DataError(f"{name} must be a finite float, got {getattr(self, name)}")
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
        if self.num_classes < 2:
            raise BagkitError(f"num_classes must be >= 2, got {self.num_classes}")
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


def featurize(example: Example, spec: FeatureSpec) -> dict[int, int]:
    """Map an example to sparse hashed n-gram counts (feature index -> count).

    A one-row `_design_matrix`, read back with its keys in ascending order.
    """
    x = _design_matrix((example,), spec)
    return dict(zip(x.col.tolist(), x.data.astype(np.int64).tolist()))


class _Workspace:
    """Named flat arrays kept across calls, each grown on demand to the largest size asked.

    A call gets a view of an array's first entries, reshaped, so it stays
    contiguous. A training loop keeps one workspace for all its steps, and an
    array is allocated again only when a step needs more entries than every
    step before it; a fresh workspace allocates exactly what one call needs.
    """

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], dtype=np.float64,
                 make=np.empty) -> np.ndarray:
        """The first entries of array ``name``, grown with ``make(size, dtype=dtype)``."""
        size = math.prod(shape)
        arr = self.arrays.get(name)
        if arr is None or arr.size < size:
            arr = self.arrays[name] = make(size, dtype=dtype)
        return arr[:size].reshape(shape)


@functools.cache
def _class_offsets(k: int) -> np.ndarray:
    """The column ``1, ..., k - 1`` that `_class_major` adds, built once per width."""
    offsets = np.arange(1, k)[:, None]
    offsets.flags.writeable = False
    return offsets


def _class_major(idx: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """``j + idx * k`` in row j of the ``(k, len(idx))`` array ``out``: flat cells, class-major."""
    np.multiply(idx, k, out=out[0])
    np.add(out[0], _class_offsets(k), out=out[1:])
    return out


def _cells(row: np.ndarray, col: np.ndarray, k: int, work: _Workspace) -> tuple[np.ndarray, ...]:
    """The class-major row cells, column cells and a products array of a k-wide product."""
    shape = (k, len(row))
    return (
        _class_major(row, k, work("row_cells", shape, np.int64)),
        _class_major(col, k, work("col_cells", shape, np.int64)),
        work("products", shape),
    )


class _Rows:
    """Hashed counts, one entry per nonzero count, row by row, columns ascending.

    Storage-order rule: ``x @ w`` adds each ``data[i] * w[col[i]]`` into row
    ``row[i]`` of a zero matrix in storage order i, so that order alone fixes
    every float of a fit. The product lays its terms out class-major, one
    slice of all entries per output column j, and sums them with
    ``np.bincount`` over the flat cells ``j + row * k``: a cell takes terms
    from its own slice only, and each slice lists the entries in storage
    order. `add_product` adds the same terms in the same order with
    ``np.add.at`` into a kept zero array instead, and adds only the cells it
    touched, so each cell's sum is the same float. ``.T`` swaps ``row`` and
    ``col`` and moves no entry, so ``x.T @ d`` keeps the order; a gather
    keeps each row's entries in order.

    ``w`` is read at the flat positions ``j + col * k``. For one width k the
    cells of ``x @ w`` are the positions ``x.T @ d`` reads ``d`` at, and the
    other way round, so a matrix may carry both index arrays (``cells``,
    with a products array), built once and shared by its transpose; a
    product of another width builds its own.

    A design matrix stores ``data``, ``col`` and the row pointers ``indptr``
    (row r's entries are ``indptr[r]:indptr[r + 1]``), which a gather reads,
    and no per-entry row array: ``row`` derives each entry's row from the
    pointers when a product or a transpose needs it. A gather keeps the rows
    it computes and its cells, and a transpose its rows (the columns it
    swapped); neither has pointers, and gathering from either raises.
    """

    def __init__(
        self,
        data: np.ndarray,
        col: np.ndarray,
        shape: tuple[int, int],
        indptr: np.ndarray | None = None,
        row: np.ndarray | None = None,
        cells: tuple[np.ndarray, ...] | None = None,
    ):
        self.data, self.col, self.shape, self.indptr = data, col, shape, indptr
        self._row, self.cells = row, cells

    @property
    def row(self) -> np.ndarray:
        """Each entry's row: the kept one, or repeated from the row pointers."""
        if self._row is None:
            return np.arange(self.shape[0]).repeat(np.diff(self.indptr))
        return self._row

    @property
    def T(self) -> _Rows:
        cells = None if self.cells is None else (self.cells[1], self.cells[0], self.cells[2])
        return _Rows(self.data, self.row, self.shape[::-1], row=self.col, cells=cells)

    def gather(self, rows: np.ndarray, columns: np.ndarray, k: int, work: _Workspace) -> _Rows:
        """A training step's batch: the matrix's rows ``rows``, an equal run of rows per member.

        ``columns`` are the members' column pointers: member m's columns of
        the result are ``columns[m]:columns[m + 1]``, so its columns are
        offset by ``columns[m]`` and one product with the members' weights
        laid end to end, ``(columns[-1], k)``, serves them all. Each member's
        entries keep their storage order. The result carries its k-wide
        cells; its data, columns and cells are views of ``work``'s arrays,
        valid until the next gather into the same workspace.
        """
        if self.indptr is None:
            raise ValueError("rows can only be gathered from a matrix with row pointers")
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        ends = counts.cumsum()
        nnz = int(ends[-1]) if len(rows) else 0
        arange = work("arange", (max(nnz, len(rows)),), np.int64, np.arange)
        # Each entry's row, the one entry-sized array a gather allocates:
        # np.repeat has no out, and a prefix sum into a kept array took three
        # times as long.
        row = arange[: len(rows)].repeat(counts)
        # Entry i of gathered row r is entry i + starts[r] - (ends[r] - counts[r])
        # of self. The positions are spent before the column cells are built,
        # so they borrow that array. mode="wrap" writes straight into out; the
        # default mode buffers it.
        take = (starts - ends + counts).take(
            row, out=work("col_cells", (nnz,), np.int64), mode="wrap"
        )
        take += arange[:nnz]
        data = self.data.take(take, out=work("data", (nnz,)), mode="wrap")
        col = self.col.take(take, out=work("col", (nnz,), np.int64), mode="wrap")
        if len(columns) > 2:
            # Each gathered row's offset, then each entry's, into the spent positions.
            starts = columns[:-1].repeat(len(rows) // (len(columns) - 1))
            col += starts.take(row, out=take, mode="wrap")
        shape = (len(rows), int(columns[-1]))
        return _Rows(data, col, shape, row=row, cells=_cells(row, col, k, work))

    def _terms(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each term of ``self @ w`` and the flat cell ``j + row * k`` it sums into."""
        # Class-major: slice j holds every entry's term for output column j,
        # in storage order, so each pass runs over contiguous entries. The
        # weights are read by flat index, which copies no part of w.
        k = w.shape[1]
        cells = self.cells
        if cells is None or cells[0].shape[0] != k:
            cells = _cells(self.row, self.col, k, _Workspace())
        sum_at, read_at, products = cells
        w.reshape(-1).take(read_at, out=products, mode="wrap")
        np.multiply(products, self.data, out=products)
        return sum_at.reshape(-1), products.reshape(-1)

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        sum_at, terms = self._terms(w)
        k = w.shape[1]
        sums = np.bincount(sum_at, weights=terms, minlength=self.shape[0] * k)
        return sums.reshape(self.shape[0], k)

    def add_product(self, w: np.ndarray, out: np.ndarray, zeros: np.ndarray) -> None:
        """``out += (self @ w).ravel()``, added only at the product's own cells.

        ``zeros`` is an all-zero array as long as ``out``. `np.add.at` adds
        each cell's terms into it in storage order, from zero, exactly as
        `np.bincount` sums them for ``@``; those sums are added into ``out``
        and their cells zeroed again, so ``zeros`` is all zeros on return.
        No product-sized array is filled or added.
        """
        sum_at, terms = self._terms(w)
        np.add.at(zeros, sum_at, terms)
        out[sum_at] += zeros[sum_at]
        zeros[sum_at] = 0.0


def _design_matrix(examples: Iterable[Example], spec: FeatureSpec) -> _Rows:
    """One row of hashed counts per example, columns ascending, with row pointers.

    Every n-gram of every field becomes the cell key ``row * dims + column``
    (`_field_cells`), and one sort of those keys sums the counts per cell: a
    run of equal keys is one entry, in order of row and then of column.
    """
    examples = tuple(examples)
    dims = spec.dims
    keys = np.concatenate([
        cells
        for salt, field in (("a", "text_a"), ("b", "text_b"))
        for cells in _field_cells([getattr(ex, field) for ex in examples], salt, spec)
    ])
    keys.sort()
    starts = _run_starts(keys)
    col, end = keys[starts], len(keys)
    del keys
    data = np.empty(len(starts))  # each run's length, its cell's count
    np.subtract(starts[1:], starts[:-1], out=data[:-1])
    data[-1:] = end - starts[-1:]
    indptr = col.searchsorted(np.arange(len(examples) + 1) * dims)
    col &= dims - 1
    return _Rows(data, col, (len(examples), dims), indptr)


def _field_cells(texts: list[str | None], salt: str, spec: FeatureSpec) -> Iterator[np.ndarray]:
    """The cell key ``row * dims + column`` of each n-gram in one field's texts, per order.

    Tokens become ids through one vocabulary in first-seen order, so a
    token's id is already the dense id of its unigram. An order-n gram's key
    is the dense id of its first n - 1 words times the vocabulary size plus
    its last word's id. One sort per order finds the distinct keys, and a
    binary search gives each occurrence its gram's dense id. Each distinct
    gram's salted string is built once, as bytes, and hashed once (`_hashed`).
    """
    vocab: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    token_counts: list[int] = []

    def token_ids(text: str | None) -> Iterator[int]:
        toks = _tokens(text, spec.lowercase) if text else []
        token_counts.append(len(toks))
        return map(vocab.__getitem__, toks)

    ids = np.fromiter(itertools.chain.from_iterable(map(token_ids, texts)), np.int64)
    dims, vocab_size = spec.dims, len(vocab)
    lengths = np.array(token_counts, dtype=np.int64)
    ends = lengths.cumsum()
    base = np.arange(len(lengths)) * dims  # each row's first cell key
    head = (salt + _FIELD_SEP).encode("utf-8")
    first = np.array([head + w.encode("utf-8") for w in vocab], dtype=object)
    rest = np.array([b" " + w.encode("utf-8") for w in vocab], dtype=object)

    def salted(start: np.ndarray, n: int) -> Iterator[bytes]:
        """The key bytes hashed for each n-gram starting at a position in ``start``."""
        grams = first[ids[start]]
        for j in range(1, n):
            grams = map(operator.add, grams, rest[ids[start + j]])
        return grams

    prev = ids  # the dense id of the (n - 1)-gram starting at each position
    # This loop sets the build's peak memory, so each array goes as soon as
    # it is spent.
    for n in range(2, spec.ngram_max + 1):
        opens = np.ones(len(ids), dtype=bool)  # no n-gram starts in a row's last n - 1 tokens
        for j in range(1, n):
            opens[(ends - j)[lengths >= j]] = False
        at = np.flatnonzero(opens)  # where each n-gram starts, row by row
        key = prev[at] * vocab_size
        key += ids[at + n - 1]
        distinct = np.sort(key)
        distinct = distinct[_run_starts(distinct)]
        dense = distinct.searchsorted(key)  # each n-gram's dense id
        start = np.empty_like(distinct)
        start[dense] = at  # where an occurrence of each distinct n-gram starts
        del key, distinct
        cols = _hashed(salted(start, n), len(start), dims)
        del start
        cols = cols[dense]
        if n < spec.ngram_max:
            prev = np.empty_like(ids)
            prev[at] = dense
        cells = base.repeat(np.maximum(lengths - (n - 1), 0))
        cells += cols
        del at, dense, cols
        yield cells
    # Unigrams last, when no other order's arrays are held; their dense ids
    # are the token ids.
    cells = base.repeat(lengths)
    cells += _hashed(first, vocab_size, dims)[ids]
    yield cells


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted array ``keys`` starts."""
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _hashed(grams: Iterable[bytes], count: int, dims: int) -> np.ndarray:
    """The columns of ``count`` salted n-grams: 8-byte blake2b digests, little-endian, mod dims."""
    cols = np.fromiter(
        (hashlib.blake2b(gram, digest_size=8).digest() for gram in grams), "S8", count
    ).view("<u8")
    cols &= dims - 1
    return cols.view(np.int64)


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
    # The row max as np.maximum across the class columns: exact, like any max,
    # and far cheaper than a reduction over a last axis of a few classes. The
    # sum stays a reduction, whose order a column-wise sum would not keep.
    top = logits[..., 0]
    for j in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., j])
    exps = np.exp(logits - top[..., None])
    return exps / exps.sum(axis=-1, keepdims=True)


def _one(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One member's flat parameter arrays as a stack of one."""
    return {name: arr[None] for name, arr in params.items()}


def _layout(dims: np.ndarray, k: int) -> tuple[np.ndarray, list[tuple[slice, int]]]:
    """The column pointers and blocks of a first-layer stack of feature spaces ``dims``, sorted.

    Member i's columns are ``columns[i]:columns[i + 1]``. A block is a run of
    members of one feature space: their slice of the member axis and each
    one's first-layer size, ``dims * k``.
    """
    columns = np.concatenate(([0], dims.cumsum()))
    bounds = [0, *(np.flatnonzero(dims[1:] != dims[:-1]) + 1).tolist(), len(dims)]
    return columns, [(slice(lo, hi), int(dims[lo]) * k) for lo, hi in zip(bounds, bounds[1:])]


def _rows(stack: np.ndarray, blocks: list[tuple[slice, int]] | None) -> list[tuple]:
    """Each block's member slice and rows, a ``(block members, size)`` view of ``stack``.

    A 2-D stack, ``(members, size)``, has one size for every member and is
    one block. A flat stack holds the ``blocks`` one after another, each
    row by row.
    """
    if stack.ndim == 2:
        return [(slice(None), stack)]
    views, at = [], 0
    for members, size in blocks:
        end = at + (members.stop - members.start) * size
        views.append((members, stack[at:end].reshape(-1, size)))
        at = end
    return views


def _forward(
    params: dict[str, np.ndarray], x: _Rows, num_classes: int, hidden_size: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Hidden activations (None for logistic regression) and output logits, per member.

    Each params array stacks M members' flat arrays as rows, and ``x`` holds
    an equal number of rows per member, one member after another (see
    `_Rows.gather`). Both results are (M, rows per member, width).
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


def _squared_norms(stack: np.ndarray, blocks: list[tuple[slice, int]] | None) -> np.ndarray:
    """Each member's squared norm, a dot product of its own row as alone: one matmul per block."""
    norms = [np.matmul(w[:, None], w[:, :, None])[:, 0, 0] for _, w in _rows(stack, blocks)]
    return norms[0] if len(norms) == 1 else np.concatenate(norms)


# Overflow is detected via the finite-loss check, not warnings.
@np.errstate(all="ignore")
def _loss_and_grads(
    params: dict[str, np.ndarray],
    x: _Rows,
    labels: np.ndarray,
    num_classes: int,
    hidden_size: int,
    l2: np.ndarray,
    want_grads: bool = True,
    out: dict[str, np.ndarray] | None = None,
    blocks: list[tuple[slice, int]] | None = None,
    work: _Workspace | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
    """Mean cross-entropy plus 0.5 * l2 * ||weights||^2, and its gradients, per member.

    The one forward and gradient implementation: it is the lockstep training
    step, and, on a stack of one (`_one`), training_loss and the
    finite-difference checks, so the analytic gradients checked are exactly
    what training uses. Each params array holds M members' flat arrays as
    rows, ``x`` and ``labels`` hold an equal batch per member, one member
    after another, ``l2`` has one value per member, and the loss and each
    gradient have one row per member. A stack is ``(members, size)``, or,
    for the first-layer weights of members of several feature spaces, flat:
    the `_rows` of ``blocks`` one after another. The gradients are written
    into ``out`` (arrays shaped like ``params``, returned) when given, and
    into new arrays otherwise.

    With ``work``, a training loop's workspace, a sparse batch adds the
    first-layer product ``x.T @ d`` only at its own cells, through a zero
    accumulator kept in ``work`` (see `_fit_many`); without it the
    zero-filled product is always added whole.
    """
    hidden, logits = _forward(params, x, num_classes, hidden_size)
    members, batch = logits.shape[:2]
    probs = _softmax(logits).reshape(-1, num_classes)
    picked = np.arange(members * batch), labels
    data_loss = -(np.log(probs[picked] + _TINY).reshape(members, batch).sum(axis=1) / batch)
    reg_loss = 0.5 * l2 * sum(
        _squared_norms(params[name], blocks) for name in params if name.endswith("weight")
    )
    loss = data_loss + reg_loss
    if not want_grads:
        return loss, None

    d_logits = probs
    d_logits[picked] -= 1.0
    d_logits /= batch
    d_member = d_logits.reshape(members, batch, num_classes)

    grads = {name: np.empty_like(arr) for name, arr in params.items()} if out is None else out

    def weight_grad(name: str, product: np.ndarray | None) -> None:
        # l2 * w + product, elementwise the same floats as product + l2 * w,
        # each block's l2 broadcast over its rows.
        for (rows, w), (_, grad) in zip(_rows(params[name], blocks), _rows(grads[name], blocks)):
            np.multiply(l2[rows, None], w, out=grad)
        if product is not None:
            grads[name] += product.reshape(grads[name].shape)

    def first_layer_grad(name: str, d: np.ndarray) -> None:
        if work is None or len(x.data) >= _SPARSE_DENSITY * x.shape[1]:
            return weight_grad(name, x.T @ d)
        weight_grad(name, None)
        grad = grads[name].reshape(-1)
        x.T.add_product(d, grad, work("grad_sums", grad.shape, make=np.zeros))

    if hidden is None:
        first_layer_grad("out_weight", d_logits)
    else:
        weight_grad("out_weight", hidden.transpose(0, 2, 1) @ d_member)
    grads["out_bias"][...] = d_member.sum(axis=1)
    if hidden is not None:
        w_o = params["out_weight"].reshape(members, hidden_size, num_classes)
        d_hidden = (d_member @ w_o.transpose(0, 2, 1)) * (1.0 - hidden * hidden)
        first_layer_grad("hidden_weight", d_hidden.reshape(-1, hidden_size))
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
    x = _design_matrix(train, spec)
    (outcome,) = _fit_many([
        _Member(x, train.labels(), train.num_classes, spec, hyper, np.arange(x.shape[0]))
    ])
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome


class _Member(NamedTuple):
    """One member of a lockstep loop and what it trains on.

    It trains with ``hyper`` on rows ``rows`` of design matrix ``x``, built in
    feature space ``spec``, whose labels ``y`` have ``num_classes`` classes.
    """

    x: _Rows
    y: np.ndarray
    num_classes: int
    spec: FeatureSpec
    hyper: Hyperparams
    rows: np.ndarray


def _joined(members: Sequence[_Member]) -> tuple[_Rows, np.ndarray, list[np.ndarray]]:
    """One design matrix and label array for a loop, and each member's rows in it.

    The members' distinct design matrices go one after another, as wide as
    the widest feature space, and a member's rows are offset by its matrix's
    first row. Members that share one matrix get it back as it is, with
    nothing copied.
    """
    sources = {id(m.x): m for m in members}
    if len(sources) == 1:
        return members[0].x, members[0].y, [m.rows for m in members]
    xs = [m.x for m in sources.values()]
    first_row = dict(zip(sources, np.cumsum([0] + [x.shape[0] for x in xs]).tolist()))
    first_entry = np.cumsum([0] + [len(x.data) for x in xs])
    x = _Rows(
        np.concatenate([x.data for x in xs]),
        np.concatenate([x.col for x in xs]),
        (sum(x.shape[0] for x in xs), max(m.spec.dims for m in members)),
        np.concatenate([[0]] + [x.indptr[1:] + at for x, at in zip(xs, first_entry)]),
    )
    y = np.concatenate([m.y for m in sources.values()])
    return x, y, [m.rows + first_row[id(m.x)] for m in members]


# Overflow is detected via the finite-loss check, not warnings; the state is
# set once for the whole loop.
@np.errstate(all="ignore")
def _fit_many(members: Sequence[_Member]) -> list[Model | TrainingDiverged]:
    """The training loop: members trained in lockstep, a Model or a TrainingDiverged each.

    The members share hidden size, epochs, row count and class count; their
    feature spaces and design matrices may differ (another task's, say).
    Each keeps its own ``default_rng(seed)`` stream for its initialization
    and its permutation per epoch, so it sees exactly the batches it would
    see alone. The distinct design matrices are joined once (`_joined`).

    The loop orders its members by feature space. Each parameter array that
    has one size for every member (biases, and the MLP's hidden-to-output
    weights) is stacked ``(members, size)``. The first-layer weights are one
    flat array of blocks, one per feature space, each a dense ``(members of
    that size, size)`` block (`_rows`), so the stack holds exactly the
    members' parameters: member i's input column c is row ``columns[i] + c``
    of the weights laid out ``(columns[-1], k)``, and the gather offsets its
    columns by ``columns[i]``. The elementwise steps and the squared norms
    run once per block, with each member's l2 and learning rate broadcast
    over its rows.

    Each step gathers every member's batch rows in one gather and writes the
    gradients into buffers kept for the whole call. The gather writes into
    a workspace also kept for the call: the batch's entries and, built once
    per step, the index arrays both sparse products read (k is the hidden
    size, or the class count for logistic regression), so the storage-order
    rule of `_Rows` holds for both. A member whose loss goes non-finite gets
    its error and keeps its rows in every stack, so every step has the first
    step's layout: no sum mixes members (the products' cells, the softmax
    rows, the per-member matmuls and norms), so its non-finite values reach
    no other member. The loop returns once every member has diverged.

    The first-layer gradient is ``l2 * w + x.T @ d``. A step whose batch has
    fewer entries than `_SPARSE_DENSITY` times the stack's input columns
    adds the product only at its own cells, through a zero accumulator kept
    in the workspace and zeroed again at those cells (`_Rows.add_product`);
    a denser step adds the zero-filled product whole. A touched cell gets
    ``l2 * w + (0 + t1 + t2 + ...)`` either way, its terms in storage
    order. An untouched cell differs only by the dense way's ``+ 0.0``,
    which changes nothing but the sign of a zero gradient (``-0.0 + 0.0``
    is ``0.0``). No weight is ever -0.0 (initial draws are ``0.0 + scale *
    z``, and ``a - b`` is -0.0 only when ``a`` is), so ``w - (±0)`` is ``w``
    and both ways train the same bits.
    """
    first = members[0]
    n, num_classes = len(first.rows), first.num_classes
    if n == 0:
        raise DataError("cannot fit on an empty dataset")
    hidden, epochs = first.hyper.hidden_size, first.hyper.epochs
    if any(
        (m.hyper.hidden_size, m.hyper.epochs, len(m.rows), m.num_classes)
        != (hidden, epochs, n, num_classes)
        for m in members
    ):
        raise ValueError(
            "lockstep members must share hidden size, epochs, row count and class count"
        )
    x, y, row_sets = _joined(members)
    # The members by feature space, so that each size is one block of the
    # first-layer stack: member i of the loop is members[ranked[i]].
    ranked = sorted(range(len(members)), key=lambda m: members[m].spec.dims)
    hypers = [members[m].hyper for m in ranked]
    rngs = [np.random.default_rng(hyper.seed) for hyper in hypers]
    work, width = _Workspace(), hidden or num_classes
    columns, blocks = _layout(np.array([members[m].spec.dims for m in ranked]), width)
    first_layer = "hidden_weight" if hidden else "out_weight"
    params = {
        name: np.empty(columns[-1] * width if name == first_layer else (len(members), size))
        for name, size in _expected_shapes(first.spec, hidden, num_classes).items()
    }
    for i, (member, rng) in enumerate(zip(ranked, rngs)):
        for name, arr in _init_params(members[member].spec, hypers[i], num_classes,
                                      rng).items():
            _own(params[name], i, columns, width)[...] = arr
    grads = {name: np.empty_like(arr) for name, arr in params.items()}
    order = np.empty((len(members), n), dtype=np.intp)  # each member's rows, this epoch
    lr = np.array([[hyper.learning_rate] for hyper in hypers])
    rates = [(block, lr[rows]) for grad in grads.values() for rows, block in _rows(grad, blocks)]
    l2 = np.array([hyper.l2 for hyper in hypers])
    outcomes: list[Model | TrainingDiverged | None] = [None] * len(members)
    # The step without its own errstate: _fit_many's holds for every step.
    step = getattr(_loss_and_grads, "__wrapped__", _loss_and_grads)

    for epoch in range(epochs):
        for i, (member, rng) in enumerate(zip(ranked, rngs)):
            order[i] = row_sets[member][rng.permutation(n)]
        for start in range(0, n, _BATCH_SIZE):
            batch = order[:, start : start + _BATCH_SIZE].ravel()
            loss, _ = step(
                params, x.gather(batch, columns, width, work), y[batch], num_classes, hidden,
                l2, out=grads, blocks=blocks, work=work,
            )
            finite = np.isfinite(loss)
            if not finite.all():
                for i in np.flatnonzero(~finite):
                    if outcomes[ranked[i]] is None:
                        outcomes[ranked[i]] = TrainingDiverged(
                            f"non-finite loss {loss[i]} at epoch {epoch}, batch offset {start} "
                            f"(learning_rate={hypers[i].learning_rate})"
                        )
                if None not in outcomes:
                    return outcomes
            # In place, so the update makes no parameter-sized temporaries.
            for block, rate in rates:
                block *= rate
            for name, grad in grads.items():
                params[name] -= grad

    for i, member in enumerate(ranked):
        if outcomes[member] is not None:
            continue
        arrays = {name: _own(arr, i, columns, width) for name, arr in params.items()}
        bad = [name for name, arr in arrays.items() if not np.all(np.isfinite(arr))]
        outcomes[member] = (
            TrainingDiverged(f"non-finite parameters in {bad[0]!r} after training")
            if bad
            else Model(spec=members[member].spec, hyper=hypers[i], num_classes=num_classes,
                       params=arrays)
        )
    return outcomes


def _own(stack: np.ndarray, i: int, columns: np.ndarray, width: int) -> np.ndarray:
    """Member i's flat array in ``stack``: its row, or its columns' rows of a flat first layer."""
    return stack[columns[i] * width : columns[i + 1] * width] if stack.ndim == 1 else stack[i]


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
        _one(model.params),
        x,
        dataset.labels(),
        model.num_classes,
        model.hyper.hidden_size,
        np.array([model.hyper.l2]),
        want_grads=False,
    )
    return float(loss[0])


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
