"""The boosted-tree model (grown by gbdt): its trees, its JSON file and its
predictions, which are base_score plus, tree by tree, the value of the leaf
each row routes to; a row goes left where its value is <= the threshold.

The module imports without numpy, so predict starts without it.  It routes
the checked buffers of a feature directory (read_features): dense columns
through a float64 memoryview, bit columns from the packed bytes as 0 or 1,
so a bit column routes as its dense float column would.  The float64 sums
take numpy's terms in numpy's order, so predictions are the same bits.
"""
from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import asdict, dataclass
from functools import cache
from itertools import compress
from operator import itemgetter, not_

from .config import TrainParams
from .errors import (DatasetError, DimensionMismatchError,
                     FingerprintFormatError, GbdtError)
from .metrics import _doubles, _npy_payload

__all__ = ["Features", "Tree", "GbdtModel", "ModelFormatError",
           "ModelVersionError", "save_model", "load_model", "read_features"]

MODEL_FORMAT = "bindkit-gbdt"
MODEL_VERSION = "2"
DENSE_FILE = "descriptors.npy"
BITS_FILE = "fingerprints.npy"


class ModelFormatError(GbdtError):
    pass


class ModelVersionError(ModelFormatError):
    pass


@dataclass(frozen=True, eq=False)
class Features:
    """A feature matrix as flat row-major buffers: n_dense float64 columns,
    then nbits bit columns; column n_dense + j of row i is bit j % 8 of byte
    i * ceil(nbits / 8) + j // 8 of bits."""
    n_rows: int
    dense: memoryview          # float64 values, n_rows * n_dense
    n_dense: int
    bits: memoryview           # bytes, n_rows * ceil(nbits / 8)
    nbits: int

    def __len__(self) -> int:
        return self.n_rows

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_dense + self.nbits


@dataclass(frozen=True, eq=False)
class Tree:
    """Flat tree.  Child pointers >= 0 index internal nodes; negative
    pointers encode leaves as the bitwise complement of the leaf index."""
    root: int
    feature: tuple[int, ...]           # per internal node
    threshold: tuple[float, ...]
    left: tuple[int, ...]              # child pointers
    right: tuple[int, ...]
    leaf_value: tuple[float, ...]      # already learning-rate scaled


@cache
def _goes_left(k: int, zero: bool, one: bool) -> bytes:
    """The translate table that maps a byte to whether its bit k, compared
    as 0 or 1 with a threshold, goes left: zero when it is 0, one when 1."""
    return bytes(one if b >> k & 1 else zero for b in range(256))


def _leaves(tree: Tree, X: Features, rows: list[int]) -> list:
    """(leaf value, the rows routed to it) for each leaf rows reach."""
    out = []
    stack = [(tree.root, rows)]
    while stack:
        node, rows = stack.pop()
        if not rows:
            continue
        if node < 0:
            out.append((tree.leaf_value[~node], rows))
            continue
        f, t = tree.feature[node], tree.threshold[node]
        get = itemgetter(*rows, 0)      # 0 keeps one row a tuple; compress drops it
        if f < X.n_dense:
            go_left = [v <= t for v in get(X.dense[f::X.n_dense])]
        else:
            f -= X.n_dense
            table = _goes_left(f & 7, 0 <= t, 1 <= t)
            go_left = bytes(get(X.bits[f >> 3::(X.nbits + 7) >> 3])).translate(table)
        stack.append((tree.left[node], list(compress(rows, go_left))))
        stack.append((tree.right[node], list(compress(rows, map(not_, go_left)))))
    return out


@dataclass(frozen=True, eq=False)
class GbdtModel:
    base_score: float
    trees: tuple[Tree, ...]
    feature_count: int
    params: TrainParams
    degenerate: bool = False

    def predict(self, X) -> array:
        """Predictions for the rows of Features, a FeatureStore, a 2-D array,
        or one row as a 1-D array."""
        if not isinstance(X, Features):
            import numpy as np
            from .gbdt import FeatureStore
            if not isinstance(X, FeatureStore):
                X = np.asarray(X, dtype=np.float64)
                X = FeatureStore.of(X.reshape(1, -1) if X.ndim == 1 else X)
            X = X.features()
        if X.shape[1] != self.feature_count:
            raise DimensionMismatchError(
                f"expected {self.feature_count} features, got shape {X.shape}")
        pred = [self.base_score] * len(X)
        for tree in self.trees:
            for value, rows in _leaves(tree, X, list(range(len(X)))):
                for i in rows:
                    pred[i] += value
        return array("d", pred)


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
            {"root": t.root, "feature": t.feature, "threshold": t.threshold,
             "left": t.left, "right": t.right, "leaf_value": t.leaf_value}
            for t in model.trees
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> GbdtModel:
    doc = _read_json(path, ModelFormatError)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a bindkit-gbdt model file")
    if doc.get("version") != MODEL_VERSION:
        raise ModelVersionError(
            f"unsupported model version {doc.get('version')!r}")
    if not isinstance(doc.get("params"), dict):
        raise ModelFormatError("params must be a JSON object")
    if not isinstance(doc.get("trees"), list):
        raise ModelFormatError("trees must be a JSON list")
    try:
        params = TrainParams(**doc["params"])
        trees = tuple(
            Tree(root=_integer(t["root"], "root"),
                 feature=_integers(t["feature"], "feature"),
                 threshold=_numbers(t["threshold"], "threshold"),
                 left=_integers(t["left"], "left"),
                 right=_integers(t["right"], "right"),
                 leaf_value=_numbers(t["leaf_value"], "leaf_value"))
            for t in doc["trees"])
        degenerate = doc.get("degenerate", False)
        if type(degenerate) is not bool:
            raise ModelFormatError("degenerate must be a JSON boolean")
        model = GbdtModel(base_score=_number(doc["base_score"], "base_score"),
                          trees=trees,
                          feature_count=_integer(doc["feature_count"],
                                                 "feature_count"),
                          params=params, degenerate=degenerate)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc
    # predict adds these terms in this order, and rounding is monotone, so
    # no prediction is larger in magnitude than bound
    bound = abs(model.base_score)
    for k, tree in enumerate(model.trees):
        _check_tree(tree, model.feature_count, k)
        bound += max(map(abs, tree.leaf_value), default=0.0)
    if not math.isfinite(bound):
        raise ModelFormatError("non-finite base_score, or leaf values whose "
                               "sum can overflow")
    return model


def _integer(value, what: str) -> int:
    """A JSON integer; int() would truncate a float and read a boolean as
    0 or 1, which turns a damaged pointer into another valid one."""
    if type(value) is not int:
        raise ModelFormatError(f"{what} must be a JSON integer")
    return value


def _integers(value, what: str) -> tuple[int, ...]:
    """A list of JSON integers; _check_tree checks their range."""
    if not isinstance(value, list):
        raise ModelFormatError(f"{what} must be a JSON list")
    return tuple(_integer(v, what) for v in value)


def _number(value, what: str) -> float:
    """A JSON number; float() would also read a boolean as 0 or 1 and a
    numeric string as its value."""
    if type(value) not in (int, float):
        raise ModelFormatError(f"{what} must be a JSON number")
    return float(value)


def _numbers(value, what: str) -> tuple[float, ...]:
    """A list of JSON numbers as floats."""
    if not isinstance(value, list):
        raise ModelFormatError(f"{what} must be a JSON list")
    return tuple(_number(v, what) for v in value)


def _check_tree(tree: Tree, feature_count: int, k: int) -> None:
    """Reject a tree that routing could not walk to a leaf, or that would
    route to a non-finite prediction: node lists of unequal length, a
    pointer or feature index out of range, a NaN or infinite threshold or
    leaf value, or an internal node not reached exactly once from the root
    (a cycle, a shared subtree or an orphan)."""
    n = len(tree.feature)
    if any(len(a) != n for a in (tree.threshold, tree.left, tree.right)):
        raise ModelFormatError(f"tree {k}: node arrays differ in length")
    if n and not (min(tree.feature) >= 0 and max(tree.feature) < feature_count):
        raise ModelFormatError(f"tree {k}: feature index outside [0, {feature_count})")
    if not all(map(math.isfinite, tree.threshold + tree.leaf_value)):
        raise ModelFormatError(f"tree {k}: non-finite threshold or leaf value")
    reached = [False] * n
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not -len(tree.leaf_value) <= node < n:    # leaf i is stored as ~i
            raise ModelFormatError(f"tree {k}: pointer {node} out of range")
        if node >= 0:
            if reached[node]:
                raise ModelFormatError(f"tree {k}: node {node} is reached twice")
            reached[node] = True
            stack += (tree.left[node], tree.right[node])
    if not all(reached):
        raise ModelFormatError(f"tree {k}: node {reached.index(False)} "
                               "is not reached from the root")


def _read_json(path, error):
    """The document of a JSON file.  Text that is not JSON, too long an
    integer or too deep a nesting raises error naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: not valid JSON ({exc})") from exc


# --- on-disk feature directory -------------------------------------------------


def read_features(path) -> tuple[Features, bytes | None]:
    """Read a feature directory written by gbdt.write_features.  Returns its
    matrix and the little-endian float64 data of its y.npy, None when there
    is no y.npy.

    Feature files are untrusted.  A missing featurize.json, descriptors.npy
    or fingerprints.npy raises the OSError of its open.  An array of the
    wrong dtype, rank, order or byte count, or under a header np.save would
    not write (an object array included; see metrics._npy_payload), row
    counts that differ among the blocks, y.npy, ids.txt and featurize.json,
    a width that is not featurize.json's n_columns, or a non-finite dense
    value raises DatasetError, or FingerprintFormatError for the bit block,
    naming the file."""
    def at(name):
        return os.path.join(path, name)

    meta = _read_json(at("featurize.json"), DatasetError)
    if not isinstance(meta, dict) or not all(
            type(meta.get(k)) is int and meta[k] >= 0
            for k in ("n_rows", "n_columns", "nbits")):
        raise DatasetError(f"{at('featurize.json')}: n_rows, n_columns and "
                           "nbits must be integers >= 0")
    nbits = meta["nbits"]
    (n, d), dense = _npy_payload(at(DENSE_FILE), "<f8", 2, DatasetError)
    shape, bits = _npy_payload(at(BITS_FILE), "|u1", 2, FingerprintFormatError)
    if shape[1] != (nbits + 7) // 8:
        raise FingerprintFormatError(
            f"{at(BITS_FILE)}: {shape[1]} bytes per row, "
            f"{nbits} bits need {(nbits + 7) // 8}")
    if meta["n_columns"] != d + nbits:
        raise DatasetError(
            f"{at('featurize.json')}: n_columns {meta['n_columns']} is not "
            f"{d} dense columns + {nbits} bits")
    rows = {at(DENSE_FILE): n, at(BITS_FILE): shape[0],
            at("featurize.json"): meta["n_rows"]}
    y = None
    if os.path.exists(at("y.npy")):
        (n_y,), y = _npy_payload(at("y.npy"), "<f8", 1, DatasetError)
        rows[at("y.npy")] = n_y
    if os.path.exists(at("ids.txt")):
        with open(at("ids.txt"), "rb") as fh:
            rows[at("ids.txt")] = sum(1 for _ in fh)
    if len(set(rows.values())) > 1:
        raise DatasetError("feature row counts disagree: " + ", ".join(
            f"{name} {n}" for name, n in rows.items()))
    dense = _doubles(dense)
    # a finite sum has finite terms; an overflowed one is checked termwise
    if not (math.isfinite(sum(dense)) or all(map(math.isfinite, dense))):
        raise DatasetError(f"{at(DENSE_FILE)}: non-finite feature value")
    return Features(n, dense, d, memoryview(bits), nbits), y
