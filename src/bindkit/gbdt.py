"""Least-squares gradient boosting over regression trees.

Stagewise boosting on the squared loss: each tree fits the current
residuals, leaves store learning_rate * mean(residual), and the model
prediction is base_score plus the sum of routed leaf values.

Training reads its matrix as a FeatureStore: a float64 block of dense
columns followed by binary columns packed eight to a byte, LSB first, as
the featurize stage writes them; a plain 2-D array is a store with no bit
columns.  Binning reads the two blocks once; after it, split search and
tree growth read every column through FeatureStore.take, which decodes a
bit as 0.0 or 1.0, so a bit column is split by "x <= t" exactly as its
dense float column would be.  The model, its file and its router live in
the numpy-free model module; training takes each in-bag row's leaf from the
partition that grew the tree and routes only out-of-bag and validation rows.

Split search is histogram-based, as in CatBoost and LightGBM, which also
quantize every feature before growing a tree: features are binned once on
the training matrix into at most n_histogram_bins quantile bins whose upper
bounds are actual data values (columns with few distinct values get exact
bins, so on them the search sees every distinct-value boundary).  A
bit column is binned from its popcount: 0 or n set bits make it constant,
anything else gives the bins [0.0, 1.0], which is what the distinct values
of the decoded column give.  A split is "x <= t goes left" with t the upper
bound of the left bin, so routing by bin code and routing by raw value
agree on every training row; training routes by raw value and keeps no
full code matrix.

The binned matrix holds three classes of column, told apart by bin count.
Constant (one-bin) columns cannot split and are dropped.  Two-bin columns,
such as fingerprint bits, keep only their code-1 cells in a row-major CSR:
a node's code-1 counts and residual sums are one bincount over its cells,
and the code-0 side is the node's row count and total minus them.  Columns
with three or more bins keep their codes in one contiguous int32 block that
one flat bincount histograms per node.  The best gain of each column is
merged back in original column order.

The variance gain of a split is sum_L^2/n_L + sum_R^2/n_R - sum^2/n over
residuals, maximized; ties resolve to the first candidate in (feature,
threshold) scan order.  Gains <= 0 make the node a leaf.  Two-bin gains
near the best are recomputed from the code-0 sum before the tie-break, so
the trees are those a histogram of every (row, column) cell would grow.

The feature directory format (write_features, load_features) lives beside
the store it holds, so train loads no featurization module.
"""
from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import TrainParams
from .errors import DimensionMismatchError, GbdtError
from .model import (BITS_FILE, DENSE_FILE, Features, GbdtModel,  # re-exported
                    ModelFormatError, ModelVersionError, Tree, _leaves,
                    load_model, read_features, save_model)

__all__ = [
    "FeatureStore", "TrainParams", "Tree", "GbdtModel", "GbdtError",
    "DimensionMismatchError", "ModelFormatError", "ModelVersionError", "train",
    "save_model", "load_model", "write_features", "load_features",
]


@dataclass(frozen=True, eq=False)
class FeatureStore:
    """A feature matrix of d = dense.shape[1] float64 columns followed by
    nbits binary columns; column d + j is bit j of a row.  Row i of bits
    holds bit j in bit j % 8 of byte j // 8, as np.packbits(...,
    bitorder="little") packs it and Fingerprint.packed() writes it."""
    dense: np.ndarray          # float64 (n, d)
    bits: np.ndarray           # uint8 (n, ceil(nbits / 8))
    nbits: int

    def __post_init__(self):
        if self.dense.ndim != 2 or self.dense.dtype != np.float64:
            raise DimensionMismatchError(
                f"dense block must be 2-D float64, got {self.dense.dtype} "
                f"{self.dense.shape}")
        if (self.bits.dtype != np.uint8
                or self.bits.shape != (len(self.dense), (self.nbits + 7) // 8)):
            raise DimensionMismatchError(
                f"{len(self.dense)} rows of {self.nbits} bits need a uint8 "
                f"block of shape {(len(self.dense), (self.nbits + 7) // 8)}, "
                f"got {self.bits.dtype} {self.bits.shape}")

    @classmethod
    def of(cls, X) -> "FeatureStore":
        """X itself if it is a store, else a 2-D array as a store with no
        bit columns."""
        if isinstance(X, cls):
            return X
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionMismatchError(
                f"feature matrix must be 2-D, got shape {X.shape}")
        return cls(dense=X, bits=np.zeros((len(X), 0), dtype=np.uint8), nbits=0)

    def __len__(self) -> int:
        return len(self.dense)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.dense), self.dense.shape[1] + self.nbits

    @property
    def nbytes(self) -> int:
        return self.dense.nbytes + self.bits.nbytes

    def take(self, rows, cols) -> np.ndarray:
        """float64 values of columns cols at rows, shape (len(rows), len(cols))."""
        rows = np.asarray(rows, dtype=np.intp)[:, None]
        cols = np.asarray(cols, dtype=np.intp)
        d = self.dense.shape[1]
        is_bit = cols >= d
        if not is_bit.any():
            return self.dense[rows, cols]
        if is_bit.all():
            return self._bits(rows, cols - d).astype(np.float64)
        return np.where(is_bit, self._bits(rows, np.where(is_bit, cols - d, 0)),
                        self.dense[rows, np.where(is_bit, 0, cols)])

    def _bits(self, rows, j) -> np.ndarray:
        return (self.bits[rows, j >> 3] >> (j & 7).astype(np.uint8)) & 1

    def toarray(self) -> np.ndarray:
        """The decoded (n, d + nbits) float64 matrix."""
        return self.take(np.arange(len(self)), np.arange(self.shape[1]))

    def features(self) -> Features:
        """The store as the flat buffers the router reads (ravel copies a
        block only when it is not C-contiguous)."""
        return Features(len(self), memoryview(self.dense.ravel()),
                        self.dense.shape[1], memoryview(self.bits.ravel()),
                        self.nbits)


# --- binning -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Binned:
    """The training matrix as split search reads it.  Each column is binned
    into ascending upper bounds (actual data values) and then stored by its
    bin count: one-bin columns cannot split and are dropped, two-bin columns
    keep only their code-1 cells in a row-major CSR, and wider columns keep
    their codes in one contiguous block."""
    uppers: list               # per original column, ascending bin uppers
    pair_cols: np.ndarray      # original index of each two-bin column
    indptr: np.ndarray         # CSR row offsets, length n + 1
    indices: np.ndarray        # position in pair_cols of each code-1 cell
    wide_cols: np.ndarray      # original index of each wider column
    wide_codes: np.ndarray     # int32 (n, len(wide_cols)) bin codes
    wide_bins: np.ndarray      # bins per wider column


_CHUNK_ROWS = 1024            # rows of bits unpacked at a time for the CSR


def _bin_columns(X: FeatureStore, n_bins: int) -> _Binned:
    """Dense columns with at most n_bins distinct values bin exactly; wider
    ones keep quantile-ranked values.  A bit column set in some but not all
    rows has the bins [0, 1], and is constant otherwise.  Binning reads the
    two blocks of X directly; split search and routing read through take."""
    n, d = X.dense.shape
    uppers: list[np.ndarray] = []
    for f in range(d):
        distinct = np.unique(X.dense[:, f])
        if len(distinct) > n_bins:
            qs = np.linspace(0.0, 1.0, n_bins)
            distinct = np.unique(np.quantile(X.dense[:, f], qs, method="lower"))
        uppers.append(distinct)
    ones = np.empty(X.bits.shape[1] * 8, dtype=np.int64)
    for k in range(8):
        ones[k::8] = ((X.bits >> k) & 1).sum(axis=0)
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
        bits = np.unpackbits(X.bits[rows], axis=1, count=X.nbits,
                             bitorder="little")
        # code-1 cells, row-major: dense columns precede bit columns
        on = np.hstack([X.dense[rows, dense_pairs] > lower,
                        bits[:, bit_pairs].astype(bool)])
        counts[rows] = on.sum(axis=1)
        indices.append(np.nonzero(on)[1])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    wide_codes = np.empty((n, len(wide_cols)), dtype=np.int32)
    for j, f in enumerate(wide_cols):           # bit columns are never wide
        wide_codes[:, j] = np.searchsorted(uppers[f], X.dense[:, f], side="left")
    return _Binned(uppers=uppers, pair_cols=pair_cols, indptr=indptr,
                   indices=np.concatenate(indices), wide_cols=wide_cols,
                   wide_codes=wide_codes, wide_bins=bins[wide_cols])


# --- split search ------------------------------------------------------------


def _gain(s_left, n_left, total, m):
    """sum_L^2/n_L + sum_R^2/n_R - sum^2/m, elementwise; every candidate uses
    this one operation order, so equal sums give bit-equal gains."""
    s_right = total - s_left
    with np.errstate(divide="ignore", invalid="ignore"):
        return (s_left * s_left) / n_left + (s_right * s_right) / (m - n_left) \
            - (total * total) / m


def _best_split_hist(X: FeatureStore, bm: _Binned, res, rows, min_leaf):
    """Best (feature, value threshold, gain) on a node, or None.

    Two-bin columns bincount the node's code-1 cells; their bin-0 side is the
    node total minus the code-1 side.  Wider columns accumulate counts and
    residual sums for every (column, bin) cell in one flat bincount.  The
    best gain of each column is merged back in original column order, so the
    first best candidate in (feature, bin) order wins."""
    m = rows.size
    r = res[rows]
    total = float(r.sum())
    gain = np.full(len(bm.uppers), -np.inf)
    code = np.zeros(len(bm.uppers), dtype=np.intp)
    if bm.pair_cols.size:
        k = bm.pair_cols.size
        starts = bm.indptr[rows]
        lens = bm.indptr[rows + 1] - starts
        ends = np.cumsum(lens)
        cells = bm.indices[np.arange(ends[-1])
                           + np.repeat(starts - (ends - lens), lens)]
        n0 = m - np.bincount(cells, minlength=k)
        s0 = total - np.bincount(cells, weights=np.repeat(r, lens), minlength=k)
        valid = (n0 >= min_leaf) & (m - n0 >= min_leaf)
        pair_gain = np.where(valid, _gain(s0, n0, total, m), -np.inf)
        gain[bm.pair_cols] = pair_gain
    if bm.wide_cols.size:
        sub = bm.wide_codes[rows]
        width = int(bm.wide_bins.max())
        flat = (sub + np.arange(sub.shape[1]) * width).ravel()
        size = sub.shape[1] * width
        cnt = np.bincount(flat, minlength=size).reshape(-1, width)
        ssum = np.bincount(flat, weights=np.repeat(r, sub.shape[1]),
                           minlength=size).reshape(-1, width)
        n_left = np.cumsum(cnt, axis=1)
        splittable = np.arange(width)[None, :] < (bm.wide_bins - 1)[:, None]
        valid = splittable & (n_left >= min_leaf) & (m - n_left >= min_leaf)
        g = np.where(valid, _gain(np.cumsum(ssum, axis=1), n_left, total, m),
                     -np.inf)
        best_bin = np.argmax(g, axis=1)
        gain[bm.wide_cols] = g[np.arange(len(g)), best_bin]
        code[bm.wide_cols] = best_bin
    f = int(np.argmax(gain))
    if not np.isfinite(gain[f]):
        return None
    if bm.pair_cols.size:
        # total - s1 can differ from the code-0 sum in the last bits, which
        # would flip exact ties such as a column against its complement on
        # this node.  The difference in a gain is below 20 m^2 eps max(r^2),
        # so every two-bin gain within twice that of the best is recomputed
        # from its code-0 sum, accumulated in row order as a full
        # (row, column) bincount does, before the best is taken again.
        tol = 40.0 * m * m * np.finfo(np.float64).eps * float(np.max(r * r))
        if gain[f] + tol <= 0.0:
            return None
        near = np.flatnonzero(pair_gain >= gain[f] - tol)
        cols = bm.pair_cols[near]
        lows = np.array([bm.uppers[c][0] for c in cols], dtype=np.float64)
        col, row = np.nonzero((X.take(rows, cols) <= lows).T)
        s0 = np.bincount(col, weights=r[row], minlength=cols.size)
        gain[cols] = _gain(s0, n0[near], total, m)
        f = int(np.argmax(gain))
    if gain[f] <= 0.0:
        return None
    return f, float(bm.uppers[f][code[f]]), float(gain[f])


def _grow_tree(X: FeatureStore, binned: _Binned, res, rows,
               params: TrainParams) -> tuple[Tree, list]:
    """Grow one tree breadth-first, splitting each node by the histogram
    search over binned.  Rows route by raw value, which agrees with
    bin-code routing.  Returns the tree and the rows of each leaf."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_value: list[float] = []
    leaf_rows: list[np.ndarray] = []
    root = 0

    queue = deque()
    queue.append((rows, 0, -1, 0))
    while queue:
        node_rows, depth, parent, side = queue.popleft()
        split = None
        if depth < params.max_depth and node_rows.size >= 2 * params.min_samples_leaf:
            split = _best_split_hist(X, binned, res, node_rows,
                                     params.min_samples_leaf)
        if split is None:
            pointer = ~len(leaf_value)
            leaf_value.append(params.learning_rate * float(res[node_rows].mean()))
            leaf_rows.append(node_rows)
        else:
            f, value_t, _ = split
            pointer = len(feature)
            feature.append(f)
            threshold.append(value_t)
            left.append(0)
            right.append(0)
            go_left = X.take(node_rows, [f])[:, 0] <= value_t
            queue.append((node_rows[go_left], depth + 1, pointer, 0))
            queue.append((node_rows[~go_left], depth + 1, pointer, 1))
        if parent < 0:
            root = pointer
        elif side == 0:
            left[parent] = pointer
        else:
            right[parent] = pointer
    return Tree(root=root, feature=tuple(feature), threshold=tuple(threshold),
                left=tuple(left), right=tuple(right),
                leaf_value=tuple(leaf_value)), leaf_rows


def _check_matrix(X, y=None):
    X = FeatureStore.of(X)
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise DimensionMismatchError(f"feature matrix is empty: {X.shape}")
    if not np.isfinite(X.dense).all():
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


def _add_leaves(F, tree: Tree, X: FeatureStore, rows: list[int]) -> None:
    """F[i] += the value of the leaf that row i of X routes to, i in rows."""
    for value, part in _leaves(tree, X.features(), rows):
        F[part] += value


def train(X, y, params: TrainParams = TrainParams(), valid=None):
    """Fit a boosted model on a FeatureStore or a 2-D array.  Returns
    (model, metrics).

    metrics carries per-iteration train squared loss, and when a (X, y)
    validation pair is given, per-iteration validation MAE plus the best
    iteration.  With early_stopping_rounds set, boosting stops after that
    many rounds without improvement and the model is truncated to the best
    iteration.  A constant target short-circuits to a flagged base-only
    model.
    """
    X, y = _check_matrix(X, y)
    Xv = yv = None
    if valid is not None:
        Xv, yv = _check_matrix(valid[0], valid[1])
        if Xv.shape[1] != X.shape[1]:
            raise DimensionMismatchError("validation width differs from train")

    base = float(y.mean())
    metrics: dict = {"train_loss": [], "valid_mae": [], "best_iteration": None,
                     "stopped_early": False, "degenerate": False}
    if float(y.min()) == float(y.max()):
        metrics["degenerate"] = True
        model = GbdtModel(base_score=base, trees=(), feature_count=X.shape[1],
                          params=params, degenerate=True)
        if yv is not None:
            metrics["valid_mae"].append(float(np.abs(yv - base).mean()))
            metrics["best_iteration"] = 0
        return model, metrics

    binned = _bin_columns(X, params.n_histogram_bins)

    rng = np.random.Generator(np.random.PCG64(params.seed))
    n = len(X)
    bag_size = max(1, int(round(params.subsample * n)))
    F = np.full(n, base, dtype=np.float64)
    Fv = np.full(len(Xv), base, dtype=np.float64) if Xv is not None else None

    trees: list[Tree] = []
    best_mae = math.inf
    best_iter = None
    for it in range(params.n_trees):
        res = y - F
        if params.subsample < 1.0:
            bag = np.sort(rng.permutation(n)[:bag_size])
        else:
            bag = np.arange(n, dtype=np.intp)
        tree, leaf_rows = _grow_tree(X, binned, res, bag, params)
        trees.append(tree)
        for value, rows in zip(tree.leaf_value, leaf_rows):
            F[rows] += value
        if len(bag) < n:
            _add_leaves(F, tree, X, np.setdiff1d(np.arange(n), bag).tolist())
        metrics["train_loss"].append(float(np.mean((y - F) ** 2)))
        if Fv is not None:
            _add_leaves(Fv, tree, Xv, list(range(len(Xv))))
            mae = float(np.abs(yv - Fv).mean())
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


# --- on-disk feature directory -------------------------------------------------


def write_features(outdir, X: FeatureStore, y, ids, sidecar: dict) -> None:
    """Write a feature directory: the dense block of X as descriptors.npy,
    its packed bit block as fingerprints.npy, y.npy, ids.txt (one pair key
    per line) and the sidecar as featurize.json."""
    os.makedirs(outdir, exist_ok=True)
    np.save(os.path.join(outdir, DENSE_FILE), X.dense)
    np.save(os.path.join(outdir, BITS_FILE), X.bits)
    np.save(os.path.join(outdir, "y.npy"), y)
    with open(os.path.join(outdir, "ids.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("".join(i + "\n" for i in ids))
    with open(os.path.join(outdir, "featurize.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_features(path) -> tuple[FeatureStore, np.ndarray | None]:
    """Read a feature directory written by write_features, with every check
    of model.read_features.  Returns (X, y), with y None when there is no
    y.npy; both are read-only arrays over the bytes of the files."""
    X, y = read_features(path)
    dense = np.frombuffer(X.dense, dtype=np.float64).reshape(len(X), X.n_dense)
    bits = np.frombuffer(X.bits, dtype=np.uint8).reshape(len(X),
                                                         (X.nbits + 7) // 8)
    return (FeatureStore(dense=dense, bits=bits, nbits=X.nbits),
            None if y is None else np.frombuffer(y, dtype="<f8"))
