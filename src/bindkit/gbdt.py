"""Least-squares gradient boosting over oblivious regression trees.

Stagewise boosting on the squared loss: each tree fits the current
residuals, and a prediction is base_score plus the routed leaf values.  The
model, its file, its router and its input, model.Features, live in the
numpy-free model module.  Training reads a Features (a plain 2-D array is
one with no bit columns and an identity index) with its distinct rows
expanded through its index (_blocks), so it sees one row per pair; rows
are routed by the column that _column decodes, so a bit column splits
as its dense float column would.

Split search is histogram-based, as in CatBoost and LightGBM: features are
binned once into at most n_histogram_bins quantile bins whose upper bounds
are data values (a column with few distinct values gets one bin per value;
a bit column set in some but not all rows gets [0.0, 1.0]).  A split sends
x > t to the 1 side, t the upper bound of a bin, so routing by raw value
agrees with routing by bin code.  Constant columns are dropped.  Two-bin
columns, such as fingerprint bits, keep only their code-1 cells in a
row-major CSR, and their code-0 side is the node's row count and total
minus the code-1 side; wider columns keep their codes in one int32 block.
Split search reads each tree's residuals rounded to integers in [-Q, Q], so
every histogram sum is exact; leaf values take the mean float residual.
Each level of a tree takes the first (feature, bin) with the largest
variance gain summed over its nodes; the tree stops when that is <= 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TrainParams
from .errors import DimensionMismatchError, GbdtError
from .model import (Features, GbdtModel, ModelFormatError,  # re-exported
                    ModelVersionError, Tree, _arrays, _leaves, load_model,
                    save_model)

__all__ = [
    "TrainParams", "Tree", "GbdtModel", "GbdtError", "DimensionMismatchError",
    "ModelFormatError", "ModelVersionError", "train", "save_model",
    "load_model",
]


# --- binning -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Binned:
    """The training matrix as split search reads it.  Each column is binned
    into ascending upper bounds (actual data values) and then stored by its
    bin count: one-bin columns cannot split and are dropped, two-bin columns
    keep only their code-1 cells in a row-major CSR, and wider columns keep
    their codes in one contiguous block.  dense and bits are the blocks of
    the matrix, one row per matrix row (_blocks), which _column decodes."""
    dense: np.ndarray          # float64 (n, d)
    bits: np.ndarray           # uint8 (n, ceil(nbits / 8))
    uppers: list               # per original column, ascending bin uppers
    pair_cols: np.ndarray      # original index of each two-bin column
    indptr: np.ndarray         # CSR row offsets, length n + 1
    indices: np.ndarray        # position in pair_cols of each code-1 cell
    wide_cols: np.ndarray      # original index of each wider column
    wide_codes: np.ndarray     # int32 (n, len(wide_cols)) bin codes
    wide_bins: np.ndarray      # bins per wider column


_CHUNK_ROWS = 1024            # rows of bits unpacked at a time for the CSR


def _blocks(X: Features):
    """The dense block and the packed bit block of X with one row per row
    of X: its distinct rows expanded through its index, read-only."""
    dense, bits, index = _arrays(X)
    dense, bits = dense[index[:, 0]], bits[index[:, 1]]
    dense.flags.writeable = bits.flags.writeable = False
    return dense, bits


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array, each taken at its first
    position: np.unique without its numpy.ma import.  After a stable sort,
    the first of -0.0 and 0.0 is the one seen first."""
    return ascending[np.concatenate(([True], ascending[1:] != ascending[:-1]))]


def _bin_columns(X: Features, n_bins: int) -> _Binned:
    """Dense columns with at most n_bins distinct values bin exactly; wider
    ones keep quantile-ranked values.  A bit column set in some but not all
    rows has the bins [0, 1], and is constant otherwise.  Binning reads the
    two blocks of X directly; after binning, _column reads one column at a
    time, only to route rows."""
    dense, packed = _blocks(X)
    n, d = dense.shape
    # numpy's "lower" quantile method: the sorted value at floor((n - 1) q)
    lower = np.floor((n - 1) * np.linspace(0.0, 1.0, n_bins)).astype(np.intp)
    uppers: list[np.ndarray] = []
    for column in np.sort(dense, axis=0, kind="stable").T:
        distinct = _distinct(column)
        if len(distinct) > n_bins:
            distinct = _distinct(column[lower])
        uppers.append(distinct)
    ones = np.empty(packed.shape[1] * 8, dtype=np.int64)
    for k in range(8):
        ones[k::8] = ((packed >> k) & 1).sum(axis=0)
    levels = (np.array([0.0]), np.array([1.0]), np.array([0.0, 1.0]))
    uppers += [levels[0 if c == 0 else 1 if c == n else 2]
               for c in ones[:X.nbits]]
    bins = np.array([len(u) for u in uppers], dtype=np.int64)
    pair_cols = np.flatnonzero(bins == 2)
    wide_cols = np.flatnonzero(bins > 2)
    dense_pairs = pair_cols[pair_cols < d]
    bit_pairs = pair_cols[pair_cols >= d] - d
    lower = np.array([uppers[f][0] for f in dense_pairs], dtype=np.float64)
    counts = np.empty(n, dtype=np.int64)
    indices = []
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        bits = np.unpackbits(packed[rows], axis=1, count=X.nbits,
                             bitorder="little")
        # code-1 cells, row-major: dense columns precede bit columns
        on = np.hstack([dense[rows, dense_pairs] > lower,
                        bits[:, bit_pairs].astype(bool)])
        counts[rows] = on.sum(axis=1)
        indices.append(np.nonzero(on)[1])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    wide_codes = np.empty((n, len(wide_cols)), dtype=np.int32)
    for j, f in enumerate(wide_cols):           # bit columns are never wide
        wide_codes[:, j] = np.searchsorted(uppers[f], dense[:, f], side="left")
    return _Binned(dense=dense, bits=packed, uppers=uppers, pair_cols=pair_cols,
                   indptr=indptr, indices=np.concatenate(indices),
                   wide_cols=wide_cols, wide_codes=wide_codes,
                   wide_bins=bins[wide_cols])


def _column(bm: _Binned, f: int, rows) -> np.ndarray:
    """Column f at rows as float64; a bit column decodes to 0.0 or 1.0."""
    d = bm.dense.shape[1]
    if f < d:
        return bm.dense[rows, f]
    f -= d
    return ((bm.bits[rows, f >> 3] >> (f & 7)) & 1).astype(np.float64)


# --- split search ------------------------------------------------------------


# Split search reads each tree's residuals r as integers q = rint(r * Q /
# max|r|) in [-Q, Q] (quantized gradients: Shi et al., NeurIPS 2022).  A sum
# of m of them is an exact integer in float64 while m * Q < 2**53, that is
# below 2**41 rows, more than memory holds, so no check guards it.  Every
# histogram cell, node total and parent - child difference is then exact in
# any order of addition, and equal sums give bit-equal gains.
Q = 4096


def _gain(s_left, n_left, total, m):
    """sum_L^2/n_L + sum_R^2/n_R - sum^2/m, elementwise; every candidate uses
    this one operation order, so equal sums give bit-equal gains."""
    s_right = total - s_left
    with np.errstate(divide="ignore", invalid="ignore"):
        return (s_left * s_left) / n_left + (s_right * s_right) / (m - n_left) \
            - (total * total) / m


def _histograms(bm: _Binned, rows, q, slot, k):
    """Counts and quantized residual sums of k nodes over training rows (q
    their integer residuals, slot their node): (n1, s1) of the code-1 cells
    of every two-bin column, shape (k, pairs), and (cnt, ssum) of every
    (column, bin) cell of the wider columns, shape (k, wide, width).  Every
    sum is an exact integer."""
    p, w = bm.pair_cols.size, bm.wide_cols.size
    width = int(bm.wide_bins.max(initial=0))
    starts = bm.indptr[rows]
    lens = bm.indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    cells = bm.indices[np.arange(lens.sum()) + np.repeat(starts - (ends - lens), lens)]
    key = np.repeat(slot * p, lens) + cells
    n1 = np.bincount(key, minlength=k * p).reshape(k, p)
    s1 = np.bincount(key, weights=np.repeat(q, lens), minlength=k * p).reshape(k, p)
    key = (((slot * w)[:, None] + np.arange(w)) * width + bm.wide_codes[rows]).ravel()
    cnt = np.bincount(key, minlength=k * w * width).reshape(k, w, width)
    ssum = np.bincount(key, weights=np.repeat(q, w),
                       minlength=k * w * width).reshape(k, w, width)
    return n1, s1, cnt, ssum


def _summed_gain(s_left, n_left, count, total, min_leaf):
    """The gain of each candidate (column of the (k, c) arrays) summed over
    the nodes whose two sides both keep min_leaf rows, added in node order;
    -inf where no node does.  s_left is a function of (node, candidate)
    index arrays, so gains are computed on those cells only."""
    node, cand = np.nonzero((n_left >= min_leaf)
                            & (count[:, None] - n_left >= min_leaf))
    size = n_left.shape[1]
    gain = np.bincount(cand, weights=_gain(s_left(node, cand), n_left[node, cand],
                                           total[node], count[node]),
                       minlength=size)
    return np.where(np.bincount(cand, minlength=size) > 0, gain, -np.inf)


def _best_split(bm: _Binned, hist, count, total, min_leaf):
    """The first best (feature, bin code) of a level by the gain summed over
    the nodes of hist, or None when that gain is <= 0.  The sums are exact,
    so a column and its complement, or two mirrored columns, tie exactly."""
    n1, s1, cnt, ssum = hist
    k, width = len(count), cnt.shape[2]
    n_wide = np.cumsum(cnt, axis=2).reshape(k, -1)
    s_wide = np.cumsum(ssum, axis=2).reshape(k, -1)
    # the candidates: each two-bin column at code 0, then each (wider column, bin)
    col = np.concatenate([bm.pair_cols, np.repeat(bm.wide_cols, width)])
    code = np.concatenate([np.zeros(bm.pair_cols.size, dtype=np.intp),
                           np.tile(np.arange(width), bm.wide_cols.size)])
    gain = np.concatenate([
        _summed_gain(lambda i, c: total[i] - s1[i, c], count[:, None] - n1,
                     count, total, min_leaf),
        _summed_gain(lambda i, c: s_wide[i, c], n_wide, count, total, min_leaf)])
    best = gain.max(initial=0.0)
    if best <= 0.0:
        return None
    top = np.flatnonzero(gain == best)
    first = top[np.lexsort((code[top], col[top]))[0]]
    return int(col[first]), int(code[first])


def _grow_tree(binned: _Binned, res, rows,
               params: TrainParams) -> tuple[Tree, np.ndarray]:
    """Grow one oblivious tree level by level, each level split as
    _best_split finds, from the residuals quantized by Q, over the nodes of
    at least 2 * min_samples_leaf rows.  A node's children take
    learning_rate * their mean float residual, or, where the split leaves a
    side of fewer than min_samples_leaf rows, the node's own value.  Of two
    children that can split, the smaller is histogrammed and the other is
    the parent minus it.  Every training row, in rows or not, is routed
    level by level.  Returns the tree and the leaf of each training row."""
    min_leaf, rate = params.min_samples_leaf, params.learning_rate
    r = res[rows]
    m = rows.size
    q = np.rint(r / (np.abs(r).max() or 1.0) * Q)   # all 0 if every r is 0
    leaf = np.zeros(len(res), dtype=np.intp)   # each training row's node
    live = np.arange(m)                         # rows of the nodes that can split
    slot = np.zeros(m, dtype=np.intp)           # their node among those
    count = np.array([m])                       # rows per node that can split
    total = np.bincount(slot, weights=q)
    value = rate * (np.bincount(slot, weights=r) / count)   # per node of the level
    hist = _histograms(binned, rows, q, slot, 1)
    feature, threshold = [], []
    while count.size and len(feature) < params.max_depth:
        k = count.size
        split = _best_split(binned, hist, count, total, min_leaf)
        if split is None:
            break
        f, code = split
        feature.append(f)
        threshold.append(float(binned.uppers[f][code]))
        bit = _column(binned, f, slice(None)) > threshold[-1]
        leaf = 2 * leaf + bit
        value = np.repeat(value, 2)
        at = rows[live]
        child = 2 * slot + bit[at]              # each live row's child, of 2k
        count = np.bincount(child, minlength=2 * k)
        total = np.bincount(child, weights=q[live], minlength=2 * k)
        sums = np.bincount(child, weights=r[live], minlength=2 * k)
        grown = (np.minimum(count[0::2], count[1::2]) >= min_leaf).repeat(2)
        node = np.zeros(2 * k, dtype=np.intp)   # each child's node index
        node[child] = leaf[at]
        value[node[grown]] = rate * (sums[grown] / count[grown])
        keep = count >= 2 * min_leaf
        parents = np.flatnonzero(keep[0::2] | keep[1::2])
        if parents.size and len(feature) < params.max_depth:
            small = 2 * parents + (count[2 * parents] > count[2 * parents + 1])
            place = np.full(2 * k, 2 * parents.size)    # in [small children, siblings]
            place[small], place[small ^ 1] = np.arange(2 * parents.size).reshape(2, -1)
            on = place[child] < parents.size
            part = _histograms(binned, rows[live[on]], q[live[on]],
                               place[child[on]], parents.size)
            hist = [np.concatenate([h, whole[parents] - h])[place[keep]]
                    for whole, h in zip(hist, part)]
        on = keep[child]
        live, slot = live[on], (np.cumsum(keep) - 1)[child[on]]
        count, total = count[keep], total[keep]
    return Tree(feature=tuple(feature), threshold=tuple(threshold),
                leaf_value=tuple(value.tolist())), leaf


def _check_matrix(X, y=None):
    if not isinstance(X, Features):
        X = Features.from_array(X)
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise DimensionMismatchError(f"feature matrix is empty: {X.shape}")
    if not np.isfinite(_arrays(X)[0]).all():      # the distinct dense rows
        raise GbdtError("feature matrix contains non-finite values")
    if y is None:
        return X
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or len(y) != len(X):
        raise DimensionMismatchError(
            f"target length {y.shape} does not match matrix {X.shape}")
    if not np.isfinite(y).all():
        raise GbdtError("target contains non-finite values")
    return X, y


def _finite(values, what: str):
    """values, a float or an array, unless one is NaN or infinite, which
    neither JSON nor load_model takes: then GbdtError."""
    if not np.isfinite(values).all():
        raise GbdtError(f"training left the float range: {what} is not finite")
    return values


@np.errstate(over="ignore", invalid="ignore")   # _finite checks what overflows
def train(X, y, params: TrainParams = TrainParams(), valid=None):
    """Fit a boosted model on model.Features or a 2-D array.  Returns
    (model, metrics).

    metrics carries per-iteration train squared loss, and when a (X, y)
    validation pair is given, per-iteration validation MAE plus the best
    iteration.  With early_stopping_rounds set, boosting stops after that
    many rounds without improvement and the model is truncated to the best
    iteration.  A constant target short-circuits to a flagged base-only
    model.  GbdtError where the mean target, a residual, a leaf value,
    the train loss or a validation MAE is not finite.
    """
    X, y = _check_matrix(X, y)
    Xv = yv = None
    if valid is not None:
        Xv, yv = _check_matrix(valid[0], valid[1])
        if Xv.shape[1] != X.shape[1]:
            raise DimensionMismatchError("validation width differs from train")

    base = _finite(float(y.mean()), "the mean target")
    metrics: dict = {"train_loss": [], "valid_mae": [], "best_iteration": None,
                     "stopped_early": False, "degenerate": False}
    if float(y.min()) == float(y.max()):
        metrics["degenerate"] = True
        model = GbdtModel(base_score=base, trees=(), feature_count=X.shape[1],
                          params=params, degenerate=True)
        if yv is not None:
            metrics["valid_mae"].append(_finite(
                float(np.abs(yv - base).mean()), "the validation MAE"))
            metrics["best_iteration"] = 0
        return model, metrics

    binned = _bin_columns(X, params.n_histogram_bins)

    # numpy.random is imported only when rows are subsampled
    rng = (np.random.Generator(np.random.PCG64(params.seed))
           if params.subsample < 1.0 else None)
    n = len(X)
    bag_size = max(1, int(round(params.subsample * n)))
    F = np.full(n, base, dtype=np.float64)
    Fv = np.full(len(Xv), base, dtype=np.float64) if Xv is not None else None

    trees: list[Tree] = []
    best_mae = math.inf
    best_iter = None
    for it in range(params.n_trees):
        res = _finite(y - F, "a residual")
        if params.subsample < 1.0:
            bag = np.sort(rng.permutation(n)[:bag_size])
        else:
            bag = np.arange(n, dtype=np.intp)
        tree, leaf = _grow_tree(binned, res, bag, params)
        trees.append(tree)
        value = _finite(np.asarray(tree.leaf_value), "a leaf value")
        F += value[leaf]
        metrics["train_loss"].append(
            _finite(float(np.mean((y - F) ** 2)), "the train loss"))
        if Fv is not None:
            Fv += value[_leaves(tree, Xv)]
            mae = _finite(float(np.abs(yv - Fv).mean()), "the validation MAE")
            metrics["valid_mae"].append(mae)
            if mae < best_mae:
                best_mae = mae
                best_iter = it
            if (params.early_stopping_rounds is not None
                    and best_iter is not None
                    and it - best_iter >= params.early_stopping_rounds):
                metrics["stopped_early"] = True
                break
    if Fv is not None:
        metrics["best_iteration"] = best_iter
        if params.early_stopping_rounds is not None and best_iter is not None:
            trees = trees[:best_iter + 1]
    model = GbdtModel(base_score=base, trees=tuple(trees),
                      feature_count=X.shape[1], params=params)
    return model, metrics

