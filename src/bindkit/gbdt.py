"""Least-squares gradient boosting over regression trees.

Stagewise boosting on the squared loss: each tree fits the current
residuals, leaves store learning_rate * mean(residual), and the model
prediction is base_score plus the sum of routed leaf values.

Split search is histogram-based: features are binned once on the training
matrix into at most n_histogram_bins quantile bins whose upper bounds are
actual data values (columns with few distinct values get exact bins).  A
split is "x <= t goes left" with t the upper bound of the left bin, so
routing by bin code and routing by raw value agree on every training row.
An exact splitter that scans every distinct value boundary is available as
params.splitter="exact"; on columns with at most n_histogram_bins distinct
values both splitters see the same candidate set.

The variance gain of a split is sum_L^2/n_L + sum_R^2/n_R - sum^2/n over
residuals, maximized; ties resolve to the first candidate in (feature,
threshold) scan order.  Gains <= 0 make the node a leaf.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "TrainParams",
    "Tree",
    "GbdtModel",
    "GbdtError",
    "DimensionMismatchError",
    "ModelFormatError",
    "ModelVersionError",
    "train",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "bindkit-gbdt"
MODEL_VERSION = "1"


class GbdtError(ValueError):
    pass


class DimensionMismatchError(GbdtError):
    pass


class ModelFormatError(GbdtError):
    pass


class ModelVersionError(ModelFormatError):
    pass


@dataclass(frozen=True)
class TrainParams:
    n_trees: int = 500
    max_depth: int = 6
    learning_rate: float = 0.05
    min_samples_leaf: int = 20
    n_histogram_bins: int = 256
    subsample: float = 1.0
    early_stopping_rounds: int | None = None
    seed: int = 0
    splitter: str = "histogram"

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not (2 <= self.n_histogram_bins <= 65536):
            raise ValueError("n_histogram_bins must be in [2, 65536]")
        if not (0.0 < self.subsample <= 1.0):
            raise ValueError("subsample must be in (0, 1]")
        if self.early_stopping_rounds is not None and self.early_stopping_rounds < 1:
            raise ValueError("early_stopping_rounds must be >= 1 or None")
        if self.splitter not in ("histogram", "exact"):
            raise ValueError("splitter must be 'histogram' or 'exact'")


@dataclass(frozen=True, eq=False)
class Tree:
    """Flat-array tree.  Child pointers >= 0 index internal nodes; negative
    pointers encode leaves as the bitwise complement of the leaf index."""
    root: int
    feature: np.ndarray        # int32, per internal node
    threshold: np.ndarray      # float64
    left: np.ndarray           # int32 child pointers
    right: np.ndarray
    leaf_value: np.ndarray     # float64, already learning-rate scaled


def _route(tree: Tree, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X), dtype=np.float64)
    stack = [(tree.root, np.arange(len(X), dtype=np.intp))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node < 0:
            out[rows] = tree.leaf_value[~node]
        else:
            go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
            stack.append((int(tree.left[node]), rows[go_left]))
            stack.append((int(tree.right[node]), rows[~go_left]))
    return out


@dataclass(frozen=True, eq=False)
class GbdtModel:
    base_score: float
    trees: tuple[Tree, ...]
    feature_count: int
    params: TrainParams
    degenerate: bool = False

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise DimensionMismatchError(
                f"expected {self.feature_count} features, got shape {X.shape}")
        pred = np.full(len(X), self.base_score, dtype=np.float64)
        for tree in self.trees:
            pred += _route(tree, X)
        return pred


# --- binning -----------------------------------------------------------------


def _bin_columns(X: np.ndarray, n_bins: int):
    """Per-feature ascending bin upper bounds (actual data values) and the
    per-row bin codes.  Columns with at most n_bins distinct values bin
    exactly; wider columns keep quantile-ranked values."""
    n, d = X.shape
    uppers: list[np.ndarray] = []
    codes = np.empty((n, d), dtype=np.int32)
    for f in range(d):
        col = X[:, f]
        distinct = np.unique(col)
        if len(distinct) > n_bins:
            qs = np.linspace(0.0, 1.0, n_bins)
            distinct = np.unique(np.quantile(col, qs, method="lower"))
        uppers.append(distinct)
        codes[:, f] = np.searchsorted(distinct, col, side="left")
    return codes, uppers


# --- split search ------------------------------------------------------------


def _best_split_hist(codes, res, rows, uppers, offsets, max_bins, bins_per_f,
                     min_leaf):
    """Best (feature, code threshold, value threshold, gain) on a node, or
    None.  One flat bincount accumulates counts and residual sums for every
    (feature, bin) cell at once."""
    m = rows.size
    sub = codes[rows]
    flat = (sub + offsets).ravel()
    cnt = np.bincount(flat, minlength=offsets[-1] + max_bins).reshape(-1, max_bins)
    ssum = np.bincount(flat, weights=np.repeat(res[rows], sub.shape[1]),
                       minlength=offsets[-1] + max_bins).reshape(-1, max_bins)
    n_left = np.cumsum(cnt, axis=1)
    s_left = np.cumsum(ssum, axis=1)
    total = float(res[rows].sum())
    n_right = m - n_left
    s_right = total - s_left
    splittable = np.arange(max_bins)[None, :] < (bins_per_f - 1)[:, None]
    valid = splittable & (n_left >= min_leaf) & (n_right >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (s_left * s_left) / n_left + (s_right * s_right) / n_right \
            - (total * total) / m
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))          # first best in (feature, bin) order
    best_gain = gain.ravel()[best]
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None
    f, code_t = divmod(best, max_bins)
    return f, code_t, float(uppers[f][code_t]), float(best_gain)


def _best_split_exact(X, res, rows, min_leaf):
    """Scan every distinct-value boundary of every feature.  Candidate order
    (feature, ascending threshold) matches the histogram scan, thresholds are
    data values, and the gain formula is identical."""
    m = rows.size
    total = float(res[rows].sum())
    base = (total * total) / m
    best = None
    for f in range(X.shape[1]):
        col = X[rows, f]
        order = np.argsort(col, kind="stable")
        sc = col[order]
        sr = res[rows][order]
        boundary = np.flatnonzero(sc[:-1] != sc[1:])
        if boundary.size == 0:
            continue
        n_left = boundary + 1
        s_left = np.cumsum(sr)[boundary]
        n_right = m - n_left
        s_right = total - s_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not ok.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = (s_left * s_left) / n_left + (s_right * s_right) / n_right - base
        gain = np.where(ok, gain, -np.inf)
        k = int(np.argmax(gain))
        if gain[k] > 0.0 and (best is None or gain[k] > best[3]):
            best = (f, None, float(sc[boundary[k]]), float(gain[k]))
    return best


def _grow_tree(X, codes, uppers, offsets, max_bins, bins_per_f, res, rows,
               params: TrainParams) -> Tree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_value: list[float] = []
    root = 0

    queue = deque()
    queue.append((rows, 0, -1, 0))
    while queue:
        node_rows, depth, parent, side = queue.popleft()
        split = None
        if depth < params.max_depth and node_rows.size >= 2 * params.min_samples_leaf:
            if params.splitter == "histogram":
                split = _best_split_hist(codes, res, node_rows, uppers, offsets,
                                         max_bins, bins_per_f,
                                         params.min_samples_leaf)
            else:
                split = _best_split_exact(X, res, node_rows,
                                          params.min_samples_leaf)
        if split is None:
            pointer = ~len(leaf_value)
            leaf_value.append(params.learning_rate * float(res[node_rows].mean()))
        else:
            f, code_t, value_t, _ = split
            pointer = len(feature)
            feature.append(f)
            threshold.append(value_t)
            left.append(0)
            right.append(0)
            if params.splitter == "histogram":
                go_left = codes[node_rows, f] <= code_t
            else:
                go_left = X[node_rows, f] <= value_t
            queue.append((node_rows[go_left], depth + 1, pointer, 0))
            queue.append((node_rows[~go_left], depth + 1, pointer, 1))
        if parent < 0:
            root = pointer
        elif side == 0:
            left[parent] = pointer
        else:
            right[parent] = pointer
    return Tree(root=root,
                feature=np.asarray(feature, dtype=np.int32),
                threshold=np.asarray(threshold, dtype=np.float64),
                left=np.asarray(left, dtype=np.int32),
                right=np.asarray(right, dtype=np.int32),
                leaf_value=np.asarray(leaf_value, dtype=np.float64))


def _check_matrix(X, y=None):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise DimensionMismatchError(f"feature matrix must be 2-D, got {X.shape}")
    if not np.isfinite(X).all():
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


def train(X, y, params: TrainParams = TrainParams(), valid=None):
    """Fit a boosted model.  Returns (model, metrics).

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

    codes = uppers = offsets = bins_per_f = None
    max_bins = 0
    if params.splitter == "histogram":
        codes, uppers = _bin_columns(X, params.n_histogram_bins)
        bins_per_f = np.array([len(u) for u in uppers], dtype=np.int64)
        max_bins = int(bins_per_f.max())
        offsets = np.arange(X.shape[1], dtype=np.int64) * max_bins

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
        tree = _grow_tree(X, codes, uppers, offsets, max_bins, bins_per_f,
                          res, bag, params)
        trees.append(tree)
        F += _route(tree, X)
        metrics["train_loss"].append(float(np.mean((y - F) ** 2)))
        if Fv is not None:
            Fv += _route(tree, Xv)
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


# --- persistence ---------------------------------------------------------------


def save_model(model: GbdtModel, path) -> None:
    """Versioned JSON; floats survive bit-exactly (shortest-repr round trip)."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "feature_count": model.feature_count,
        "base_score": model.base_score,
        "degenerate": model.degenerate,
        "params": asdict(model.params),
        "trees": [
            {
                "root": t.root,
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "leaf_value": t.leaf_value.tolist(),
            }
            for t in model.trees
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> GbdtModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a bindkit-gbdt model file")
    if doc.get("version") != MODEL_VERSION:
        raise ModelVersionError(
            f"unsupported model version {doc.get('version')!r}")
    try:
        params = TrainParams(**{k: (tuple(v) if isinstance(v, list) else v)
                                for k, v in doc["params"].items()})
        trees = tuple(
            Tree(root=int(t["root"]),
                 feature=np.asarray(t["feature"], dtype=np.int32),
                 threshold=np.asarray(t["threshold"], dtype=np.float64),
                 left=np.asarray(t["left"], dtype=np.int32),
                 right=np.asarray(t["right"], dtype=np.int32),
                 leaf_value=np.asarray(t["leaf_value"], dtype=np.float64))
            for t in doc["trees"])
        model = GbdtModel(base_score=float(doc["base_score"]), trees=trees,
                          feature_count=int(doc["feature_count"]),
                          params=params, degenerate=bool(doc.get("degenerate",
                                                                 False)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc
    for k, tree in enumerate(model.trees):
        _check_tree(tree, model.feature_count, k)
    return model


def _check_tree(tree: Tree, feature_count: int, k: int) -> None:
    """Reject a tree that routing could not walk to a leaf: arrays of
    unequal length, a pointer or feature index out of range, or an internal
    node not reached exactly once from the root (a cycle, a shared subtree
    or an orphan)."""
    n = len(tree.feature)
    if tree.leaf_value.ndim != 1 or any(
            a.ndim != 1 or len(a) != n
            for a in (tree.feature, tree.threshold, tree.left, tree.right)):
        raise ModelFormatError(f"tree {k}: node arrays differ in length")
    if n and not (tree.feature.min() >= 0 and tree.feature.max() < feature_count):
        raise ModelFormatError(f"tree {k}: feature index outside [0, {feature_count})")
    reached = np.zeros(n, dtype=bool)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not -len(tree.leaf_value) <= node < n:    # leaf i is stored as ~i
            raise ModelFormatError(f"tree {k}: pointer {node} out of range")
        if node >= 0:
            if reached[node]:
                raise ModelFormatError(f"tree {k}: node {node} is reached twice")
            reached[node] = True
            stack += (int(tree.left[node]), int(tree.right[node]))
    if not reached.all():
        raise ModelFormatError(f"tree {k}: node {int(np.argmin(reached))} "
                               "is not reached from the root")
