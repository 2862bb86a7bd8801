"""Least-squares gradient boosting over oblivious regression trees.

Stagewise boosting on the squared loss: each tree fits the current
residuals, and a prediction is base_score plus the routed leaf values.  The
model, its file, its router and its input, model.Features, live in the
numpy-free model module.  Training reads a Features (a plain 2-D array is
one with no bit columns and an identity index): its distinct dense rows
expanded through its index, so it sees one row per pair, and the set bits
of its distinct bit rows, gathered through the index into one CSR row per
pair.  The expanded dense block lives only while it is binned: split
search and routing both read the bin codes and the kept-bit CSR, as
CatBoost and LightGBM route quantized rows by bin.

Split search is histogram-based, as in CatBoost and LightGBM: features are
binned once into at most n_histogram_bins quantile bins whose upper bounds
are data values (a column with few distinct values gets one bin per value;
a bit column set in some but not all rows gets [0.0, 1.0]).  A split sends
x > t to the 1 side, t the upper bound of a bin; a row's code counts the
uppers below its value, so routing by bin code agrees with routing by raw
value, and a bit column, cut at 0.0, splits as its float column would.
Binning keeps a cut only if it leaves min_samples_leaf of all rows on each
side, since no node or in-bag sample can take any other; that drops
constant columns and most rare fingerprint bits once per fit (LightGBM's
feature_pre_filter).  Kept columns are laid out by block, as
model.Features stores them: dense columns keep their bin codes in one
int32 block, and bit columns their set cells in a row-major CSR.
Split search reads each tree's residuals rounded to integers in [-Q, Q], so
every histogram sum is exact; leaf values take the mean float residual.
A node's histogram is reduced at once to one side of each candidate, its
count and sum: the rows at or below a dense cut, or the rows holding a bit
column.  The other side is the node's count and total minus it, and a
sibling's sides are its parent's minus its own, all exactly.
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
                    ModelVersionError, Tree, _leaves, load_model, save_model)

__all__ = [
    "TrainParams", "Tree", "GbdtModel", "GbdtError", "DimensionMismatchError",
    "ModelFormatError", "ModelVersionError", "train", "save_model",
    "load_model",
]


# --- binning -----------------------------------------------------------------


def _arrays(X: Features):
    """The distinct dense rows, the bit row offsets, the set bits and the
    index of X, as read-only numpy arrays over its buffers of shapes
    (dense_rows, n_dense), (bit_rows + 1,), (number of set bits,) and (n, 2)."""
    return (np.frombuffer(X.dense.toreadonly(), dtype=np.float64)
            .reshape(X.dense_rows, X.n_dense),
            np.asarray(X.offsets.toreadonly()), np.asarray(X.indices.toreadonly()),
            np.asarray(X.index.toreadonly()).reshape(len(X), 2))


@dataclass(frozen=True, eq=False)
class _Binned:
    """The training matrix as split search and routing read it: the kept
    columns by block, and the candidates in (column, threshold) order, each
    kept cut of a dense column and then each kept bit column, cut at 0.0.
    A row goes to a candidate's 1 side when its code is above the cut's
    cell, or, for a bit candidate, when its CSR row holds the column."""
    codes: np.ndarray          # int32 (n, w) flat (column, bin) cell, kept dense
    width: int                 # cells per kept dense column: the most bins of one
    indptr: np.ndarray         # CSR row offsets, length n + 1
    indices: np.ndarray        # position among the kept bit columns of each set cell
    col: np.ndarray            # original column of each candidate
    cell: np.ndarray           # flat (column, bin) cell of each dense candidate
    threshold: np.ndarray      # float64 cut of each candidate: a bin upper, or 0.0


def _spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions of the spans [starts[i], starts[i] + lens[i]), in
    order, concatenated."""
    ends = np.cumsum(lens)
    return np.arange(lens.sum()) + np.repeat(starts - (ends - lens), lens)


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array, each taken at its first
    position: np.unique without its numpy.ma import.  After a stable sort,
    the first of -0.0 and 0.0 is the one seen first."""
    return ascending[np.concatenate(([True], ascending[1:] != ascending[:-1]))]


def _bin_columns(X: Features, n_bins: int, min_leaf: int) -> _Binned:
    """Dense columns with at most n_bins distinct values bin exactly; wider
    ones keep quantile-ranked values.  A bit column set in some but not all
    rows has the bins [0, 1], and is constant otherwise.  A cut with fewer
    than min_leaf rows at or below it, or above it, leaves as few in every
    node and every in-bag sample, so it is dropped; for min_leaf >= 1 that
    drops every constant column.  The dense block is expanded to one row
    per pair only to be sorted and coded here.  A bit column's count of set
    rows is the sum, over the distinct bit rows that hold it, of the matrix
    rows that take each; each matrix row's kept set bits are its bit row's,
    gathered through the index."""
    dense, offsets, bit, index = _arrays(X)
    dense, ligand = dense[index[:, 0]], index[:, 1]
    n, d = dense.shape
    holder = np.repeat(np.arange(X.bit_rows), np.diff(offsets))

    def cuts(below):            # rows at or below each upper -> the cuts kept
        return np.flatnonzero((below >= min_leaf) & (n - below >= min_leaf))

    # numpy's "lower" quantile method: the sorted value at floor((n - 1) q)
    lower = np.floor((n - 1) * np.linspace(0.0, 1.0, n_bins)).astype(np.intp)
    uppers: list[np.ndarray] = []
    dense_cuts: list[np.ndarray] = []
    for column in np.sort(dense, axis=0, kind="stable").T:
        distinct = _distinct(column)
        if len(distinct) > n_bins:
            distinct = _distinct(column[lower])
        uppers.append(distinct)
        dense_cuts.append(cuts(np.searchsorted(column, distinct, side="right")))
    uses = np.bincount(ligand, minlength=X.bit_rows)     # matrix rows per bit row
    ones = np.bincount(bit, weights=uses[holder], minlength=X.nbits).astype(np.int64)
    bit_cols = cuts(n - ones)
    sizes = np.array([c.size for c in dense_cuts], dtype=np.intp)
    kept = np.flatnonzero(sizes)
    width = max((len(uppers[f]) for f in kept), default=0)
    codes = np.empty((n, kept.size), dtype=np.int32)
    for j, f in enumerate(kept):
        codes[:, j] = j * width + np.searchsorted(uppers[f], dense[:, f], side="left")
    kept_at = np.full(X.nbits, -1, dtype=np.intp)       # among the kept bit columns
    kept_at[bit_cols] = np.arange(bit_cols.size)
    at = kept_at[bit]                                   # of each set bit, or -1
    hit = at >= 0
    per_row = np.bincount(holder[hit], minlength=X.bit_rows)   # kept bits per bit row
    lens = per_row[ligand]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    indices = at[hit][_spans((np.cumsum(per_row) - per_row)[ligand], lens)]
    code = np.concatenate(dense_cuts + [np.zeros(0, dtype=np.intp)])
    return _Binned(codes=codes, width=width, indptr=indptr, indices=indices,
                   col=np.concatenate([np.repeat(np.arange(d), sizes), d + bit_cols]),
                   cell=np.repeat(np.arange(kept.size) * width, sizes[kept]) + code,
                   threshold=np.concatenate([u[c] for u, c in zip(uppers, dense_cuts)]
                                            + [np.zeros(bit_cols.size)]))


def _above(bm: _Binned, c: int) -> np.ndarray:
    """Whether each training row goes to candidate c's 1 side.  A row's code
    counts the bin uppers below its value, so the value is above the cut
    exactly when the code is; a bit candidate's 1 side is the rows whose
    CSR cells hold its column."""
    if c < bm.cell.size:
        return bm.codes[:, bm.cell[c] // bm.width] > bm.cell[c]
    held = np.flatnonzero(bm.indices == c - bm.cell.size)
    above = np.zeros(bm.indptr.size - 1, dtype=bool)
    above[np.searchsorted(bm.indptr, held, side="right") - 1] = True
    return above


# --- split search ------------------------------------------------------------


# Split search reads each tree's residuals r as integers q = rint(r * Q /
# max|r|) in [-Q, Q] (quantized gradients: Shi et al., NeurIPS 2022).  A sum
# of m of them is an exact integer in float64 while m * Q < 2**53, that is
# below 2**41 rows, more than memory holds, so no check guards it.  Every
# histogram cell, node total and parent - child difference is then exact in
# any order of addition, and equal sums give bit-equal gains.
Q = 4096


def _gain(s_left, n_left, total, m):
    """sum_L^2/n_L + sum_R^2/n_R - sum^2/m, elementwise, for sides of at
    least one row; every candidate uses this one operation order, so equal
    sums give bit-equal gains, and on exact sums L and R give it alike."""
    s_right = total - s_left
    return (s_left * s_left) / n_left + (s_right * s_right) / (m - n_left) \
        - (total * total) / m


def _histograms(bm: _Binned, rows, q, slot, k):
    """The side of every candidate in each of k nodes over training rows (q
    their integer residuals, slot their node): its count of rows and their
    quantized residual sum, two arrays of shape (k, candidates).  A dense
    cut's side is the rows at or below it, a running sum over its column's
    (column, bin) cells; a bit candidate's is the rows that hold its
    column.  Every sum is an exact integer."""
    p, size = bm.col.size - bm.cell.size, bm.codes.shape[1] * bm.width
    shape = (k, bm.codes.shape[1], bm.width)
    key = ((slot * size)[:, None] + bm.codes[rows]).ravel()
    starts = bm.indptr[rows]
    lens = bm.indptr[rows + 1] - starts
    bits = np.repeat(slot * p, lens) + bm.indices[_spans(starts, lens)]

    def sides(weights, bit_weights):
        cells = np.bincount(key, weights=weights, minlength=k * size).reshape(shape)
        return np.concatenate(
            [np.cumsum(cells, axis=2).reshape(k, -1)[:, bm.cell],
             np.bincount(bits, weights=bit_weights, minlength=k * p).reshape(k, p)],
            axis=1)
    return sides(None, None), sides(np.repeat(q, shape[1]), np.repeat(q, lens))


@np.errstate(invalid="ignore")          # the 0/0 of an empty side, masked below
def _best_split(hist, count, total, min_leaf):
    """The index of the first best candidate of a level by its gain, from
    the sides of hist, summed in node order over the nodes where both its
    sides keep min_leaf rows (a masked cell adds an exact 0.0), or None
    when that gain is <= 0.  The candidates are in (column, threshold)
    order, so the first best is the first maximum.  The sums are exact, so
    a column and its complement, or two mirrored columns, tie exactly."""
    n, s = hist
    count, total = count[:, None], total[:, None]
    gain = _gain(s, n, total, count)
    gain[(n < min_leaf) | (count - n < min_leaf)] = 0.0
    gain = gain.sum(axis=0)         # adds the nodes in order
    if gain.max(initial=0.0) <= 0.0:
        return None
    return int(np.argmax(gain))


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
        c = _best_split(hist, count, total, min_leaf)
        if c is None:
            break
        feature.append(int(binned.col[c]))
        threshold.append(float(binned.threshold[c]))
        above = _above(binned, c)
        leaf = 2 * leaf + above
        value = np.repeat(value, 2)
        at = rows[live]
        child = 2 * slot + above[at]            # each live row's child, of 2k
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


def _check_matrix(X, y):
    if not isinstance(X, Features):
        X = Features.from_array(X)
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise DimensionMismatchError(f"feature matrix is empty: {X.shape}")
    if not np.isfinite(_arrays(X)[0]).all():      # the distinct dense rows
        raise GbdtError("feature matrix contains non-finite values")
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

    binned = _bin_columns(X, params.n_histogram_bins, params.min_samples_leaf)

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
                    and it - best_iter >= params.early_stopping_rounds):
                metrics["stopped_early"] = True
                break
    if Fv is not None:
        metrics["best_iteration"] = best_iter
        if params.early_stopping_rounds is not None:
            trees = trees[:best_iter + 1]
    model = GbdtModel(base_score=base, trees=tuple(trees),
                      feature_count=X.shape[1], params=params)
    return model, metrics

