"""The boosted-tree model (grown by gbdt): its oblivious trees, its JSON
file and its predictions, base_score plus, tree by tree, the value of the
leaf each row routes to, added in the order numpy's pred += would add them.

The module imports without numpy, so predict starts without it.  It routes
the checked buffers of a feature directory (read_features), a block of
distinct dense rows, a CSR of the set bits of each distinct bit row and a
per-row index into both: dense columns through a float64 memoryview, bit
columns by membership in each distinct bit row's set of bits, read as 0
or 1, so a bit column routes as its dense float column would.  It also
writes that directory (write_features), with the .npy writer of _formats,
and takes the rows of one split from a dataset's feature store
(Features.take), so featurize can serve a split without numpy.
"""
from __future__ import annotations

import json
import math
import os
import zlib
from array import array
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import compress, count
from operator import ge, gt

from ._formats import (STORE_DIR, STORE_VERSION, _little, _native, _npy_payload,
                       _read_json, _remove, _write, _write_json, _write_npy)
from .config import MAX_DEPTH, MAX_NBITS, TrainParams
from .errors import (DatasetError, DimensionMismatchError,
                     FingerprintFormatError, GbdtError)

__all__ = ["Features", "Tree", "GbdtModel", "ModelFormatError",
           "ModelVersionError", "STORE_DIR", "STORE_VERSION", "column_names",
           "save_model", "load_model", "read_features", "write_features"]

MODEL_FORMAT = "bindkit-gbdt"
MODEL_VERSION = "3"
DENSE_FILE = "descriptors.npy"
BITS_FILE = "fingerprints.npy"
OFFSETS_FILE = "fingerprint_offsets.npy"
INDEX_FILE = "pairs.npy"
# The files of a feature directory, in the order write_features writes them
FEATURE_FILES = (DENSE_FILE, BITS_FILE, OFFSETS_FILE, INDEX_FILE, "y.npy",
                 "ids.txt", "featurize.json")


class ModelFormatError(GbdtError):
    pass


class ModelVersionError(ModelFormatError):
    pass


@dataclass(frozen=True, eq=False)
class Features:
    """A feature matrix of n_dense float64 columns, then nbits bit columns,
    stored factored: two blocks of distinct rows and one index.  Row i of
    the matrix is dense row index[2 * i] followed by bit row index[2 * i +
    1].  The dense block holds dense_rows rows of n_dense values, row-major;
    the bit block is a CSR, as ligand_features.ecfp returns it: bit row k
    sets the columns n_dense + j for the ascending j of
    indices[offsets[k]:offsets[k + 1]], and no other.  featurize_pairs
    builds one with a dense row per distinct receptor and a bit row per
    distinct ligand, from_array one with an identity index, write_features
    writes it, read_features reads it, train and predict take it.  Buffers
    of another length than the sizes need, or an index entry outside its
    block, raise DimensionMismatchError; offsets that do not run from 0 to
    len(indices) without decreasing, a bit not below nbits, or a row whose
    bits do not strictly ascend raise FingerprintFormatError."""
    dense: memoryview          # float64 values, dense_rows * n_dense
    dense_rows: int
    n_dense: int
    offsets: memoryview        # integers, bit_rows + 1 row starts into indices
    indices: memoryview        # integers, the set bits of each bit row
    nbits: int
    index: memoryview          # integers, per row its dense row, its bit row
    schema: str | None = None  # of the featurize.json it was read with

    def __post_init__(self):
        if (len(self.dense) != self.dense_rows * self.n_dense
                or len(self.index) % 2):
            raise DimensionMismatchError(
                f"{self.dense_rows} rows of {self.n_dense} dense columns need "
                f"{self.dense_rows * self.n_dense} values, and the index two "
                f"entries per row; got {len(self.dense)} and {len(self.index)}")
        # checked in place: a list of every bit would take ~40 bytes a bit
        offsets, bits = self.offsets, self.indices
        if (not offsets or offsets[0] != 0
                or any(map(gt, offsets, offsets[1:]))):
            raise FingerprintFormatError(
                "offsets: bit row offsets must start at 0 and never decrease")
        if offsets[-1] != len(bits):
            raise FingerprintFormatError(
                f"indices, offsets: {len(bits)} set bits, but the bit row "
                f"offsets end at {offsets[-1]}")
        if bits and not (min(bits) >= 0 and max(bits) < self.nbits):
            raise FingerprintFormatError(
                f"indices: bit {max(bits) if min(bits) >= 0 else min(bits)} "
                f"is outside the {self.nbits} bits")
        # a fall from one bit to the next is allowed only where a row starts
        falls = set(compress(count(1), map(ge, bits, bits[1:]))).difference(offsets)
        if falls:
            raise FingerprintFormatError(
                f"indices: the bits of bit row "
                f"{bisect_right(offsets, min(falls)) - 1} do not strictly ascend")
        for block, rows, column in (("dense", self.dense_rows, self.index[0::2]),
                                    ("bit", self.bit_rows, self.index[1::2])):
            low, high = min(column, default=0), max(column, default=-1)
            if low < 0 or high >= rows:
                raise DimensionMismatchError(
                    f"index: {block} row {low if low < 0 else high} is outside "
                    f"the {rows} rows of the {block} block")

    @classmethod
    def from_array(cls, X) -> Features:
        """A 2-D array as float64 dense columns, no bit columns and an
        identity index (ravel copies only an array that is not a
        C-contiguous float64 one)."""
        import numpy as np
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionMismatchError(
                f"feature matrix must be 2-D, got shape {X.shape}")
        n = len(X)
        return cls(memoryview(X.ravel()), n, X.shape[1],
                   memoryview(np.zeros(n + 1, dtype=np.int32)),
                   memoryview(np.zeros(0, dtype=np.uint16)), 0,
                   memoryview(np.arange(n, dtype=np.int32).repeat(2)))

    def take(self, rows) -> Features:
        """The matrix of the given rows of this one, in that order, holding
        only the distinct dense and bit rows they use, each numbered by the
        first row that uses it, as featurize_pairs numbers those of a
        subset."""
        n, pairs, offsets = self.n_dense, self.index.tolist(), self.offsets.tolist()
        dense_new: dict[int, int] = {}
        bit_new: dict[int, int] = {}
        index = array("i")
        for r in rows:
            index.append(dense_new.setdefault(pairs[2 * r], len(dense_new)))
            index.append(bit_new.setdefault(pairs[2 * r + 1], len(bit_new)))
        dense, bits, starts = array("d"), array("H"), array("i", [0])
        for d in dense_new:
            dense.extend(self.dense[d * n:(d + 1) * n])
        for b in bit_new:
            bits.extend(self.indices[offsets[b]:offsets[b + 1]])
            starts.append(len(bits))
        return Features(memoryview(dense), len(dense_new), n, memoryview(starts),
                        memoryview(bits), self.nbits, memoryview(index))

    @property
    def bit_rows(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def _bit_sets(self) -> list[frozenset]:
        """The set bits of each bit row, for routing by membership."""
        bits, offsets = self.indices.tolist(), self.offsets.tolist()
        return [frozenset(bits[a:b]) for a, b in zip(offsets, offsets[1:])]

    def __len__(self) -> int:
        return len(self.index) >> 1

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.n_dense + self.nbits

    @property
    def nbytes(self) -> int:
        return (self.dense.nbytes + self.offsets.nbytes + self.indices.nbytes
                + self.index.nbytes)


@dataclass(frozen=True, eq=False)
class Tree:
    """Oblivious tree, as CatBoost grows them: every node of level i splits
    on feature[i] and threshold[i].  A row's leaf index takes one bit per
    level, level 0 the high bit, 1 where the row's value is > threshold."""
    feature: tuple[int, ...]           # per level
    threshold: tuple[float, ...]
    leaf_value: tuple[float, ...]      # 2**depth, already learning-rate scaled


def _leaves(tree: Tree, X: Features) -> list[int]:
    """The leaf index of each row of X.  Each level's bit is worked out once
    per distinct row of the block its column lies in, at the level's place
    value, so a row's leaf index is the partial index of its dense row plus
    that of its bit row."""
    dense, bits = [0] * X.dense_rows, [0] * X.bit_rows
    place = 1 << len(tree.feature)
    for f, t in zip(tree.feature, tree.threshold):
        place >>= 1
        if f < X.n_dense:
            values = X.dense[f::X.n_dense].tolist()
            dense = [i + place if v > t else i for i, v in zip(dense, values)]
        else:
            f -= X.n_dense
            unset, set_ = 0 > t, 1 > t          # whether 0 and 1 are above t
            bits = [i + place if (set_ if f in row else unset) else i
                    for i, row in zip(bits, X._bit_sets)]
    return [dense[r] + bits[b]
            for r, b in zip(X.index[0::2].tolist(), X.index[1::2].tolist())]


def _finite(values) -> bool:
    """Whether every float of values is finite: a finite sum has finite
    terms, and an overflowed one is checked termwise."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


@dataclass(frozen=True, eq=False)
class GbdtModel:
    base_score: float
    trees: tuple[Tree, ...]
    feature_count: int
    params: TrainParams
    degenerate: bool = False
    schema: str | None = None          # Features.schema of the training features

    def predict(self, X) -> array:
        """Predictions for the rows of Features or a 2-D array.  A
        non-finite value in the distinct dense rows raises GbdtError, as
        train does."""
        if not isinstance(X, Features):
            X = Features.from_array(X)
        if X.shape[1] != self.feature_count:
            raise DimensionMismatchError(
                f"expected {self.feature_count} features, got shape {X.shape}")
        if not _finite(X.dense):        # NaN would route as "not above"
            raise GbdtError("feature matrix contains non-finite values")
        pred = [self.base_score] * len(X)
        for tree in self.trees:
            value = tree.leaf_value
            pred = [p + value[i] for p, i in zip(pred, _leaves(tree, X))]
        return array("d", pred)


# --- persistence ---------------------------------------------------------------


def save_model(model: GbdtModel, path) -> None:
    """Versioned JSON of the model's fields; a NaN or inf is a ModelFormatError."""
    doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION, **asdict(model)}
    _write_json(path, doc, ModelFormatError, indent=1)


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
            Tree(feature=_list(t["feature"], "feature", _integer),
                 threshold=_list(t["threshold"], "threshold", _number),
                 leaf_value=_list(t["leaf_value"], "leaf_value", _number))
            for t in doc["trees"])
        degenerate = doc.get("degenerate", False)
        if type(degenerate) is not bool:
            raise ModelFormatError("degenerate must be a JSON boolean")
        schema = doc["schema"]
        if schema is not None and type(schema) is not str:
            raise ModelFormatError("schema must be a JSON string or null")
        model = GbdtModel(base_score=_number(doc["base_score"], "base_score"),
                          trees=trees,
                          feature_count=_integer(doc["feature_count"],
                                                 "feature_count"),
                          params=params, degenerate=degenerate, schema=schema)
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
    0 or 1, which turns a damaged feature index into another valid one."""
    if type(value) is not int:
        raise ModelFormatError(f"{what} must be a JSON integer")
    return value


def _number(value, what: str) -> float:
    """A JSON number; float() would also read a boolean as 0 or 1 and a
    numeric string as its value."""
    if type(value) not in (int, float):
        raise ModelFormatError(f"{what} must be a JSON number")
    return float(value)


def _list(value, what: str, item) -> tuple:
    """A JSON list, each element read by item (_integer or _number);
    _check_tree checks the range of feature indices."""
    if not isinstance(value, list):
        raise ModelFormatError(f"{what} must be a JSON list")
    return tuple(item(v, what) for v in value)


def _check_tree(tree: Tree, feature_count: int, k: int) -> None:
    """Reject a tree that routing could not index, or that would route to a
    non-finite prediction: more levels than MAX_DEPTH, level lists of
    unequal length, a leaf count other than 2**depth, a feature index out
    of range, or a NaN or infinite threshold or leaf value."""
    depth = len(tree.feature)
    if depth > MAX_DEPTH:        # checked before 2**depth is computed
        raise ModelFormatError(f"tree {k}: depth {depth} is above {MAX_DEPTH}")
    if len(tree.threshold) != depth or len(tree.leaf_value) != 1 << depth:
        raise ModelFormatError(f"tree {k}: {depth} levels need {depth} "
                               f"thresholds and {1 << depth} leaf values")
    if depth and not (min(tree.feature) >= 0 and max(tree.feature) < feature_count):
        raise ModelFormatError(f"tree {k}: feature index outside [0, {feature_count})")
    if not all(map(math.isfinite, tree.threshold + tree.leaf_value)):
        raise ModelFormatError(f"tree {k}: non-finite threshold or leaf value")


# --- on-disk feature directory -------------------------------------------------


def column_names(dense_names, nbits: int) -> tuple[str, ...]:
    """The names of a matrix's columns: its dense columns' names, then
    fp_j for bit column j, the column n_dense + j."""
    return tuple(dense_names) + tuple(f"fp_{j}" for j in range(nbits))


def write_features(outdir, X: Features, y, ids, sidecar: dict) -> None:
    """Write a feature directory: the distinct dense rows of X as
    descriptors.npy (<f8, dense_rows by n_dense), the set bits of its
    distinct bit rows as fingerprints.npy (<u2) and their row offsets as
    fingerprint_offsets.npy (<i4, bit_rows + 1 of them), its index as
    pairs.npy (<i4, one row per matrix row: its dense row, its bit row),
    y as y.npy (<f8), ids.txt (one pair key per line) and featurize.json,
    the sidecar with the n_rows, n_columns and nbits of X.  Each .npy file
    holds the bytes np.save writes of that array.  featurize.json goes
    last, and an existing one is removed first, so a directory whose
    writing stopped midway has none, which read_features refuses.
    sidecar["columns"], when given, names the dense columns of X, as
    featurize_pairs does (column_names adds the bit columns' names); another
    count of names raises ValueError.  A non-finite dense value, which
    read_features would refuse, raises DatasetError naming the file and the
    first such column (by name, when given) before anything is written."""
    meta = {**sidecar, "n_rows": X.shape[0], "n_columns": X.shape[1],
            "nbits": X.nbits}
    names = sidecar.get("columns")
    if names is not None and len(names) != X.n_dense:
        raise ValueError(f"columns must name the {X.n_dense} dense columns, "
                         f"not {len(names)}")
    if not _finite(X.dense):
        f = min(i % X.n_dense for i, v in enumerate(X.dense.tolist())
                if not math.isfinite(v))
        raise DatasetError(
            f"cannot write {os.path.join(outdir, DENSE_FILE)}: non-finite "
            f"value in column {f}" + (f" ({names[f]})" if names else ""))
    targets = _little(y, "d")
    os.makedirs(outdir, exist_ok=True)
    *npy, ids_txt, meta_json = [os.path.join(outdir, n) for n in FEATURE_FILES]
    _remove(meta_json)
    for path, (descr, shape, data) in zip(npy, (
            ("<f8", (X.dense_rows, X.n_dense), _little(X.dense, "d")),
            ("<u2", (len(X.indices),), _little(X.indices, "H")),
            ("<i4", (len(X.offsets),), _little(X.offsets, "i")),
            ("<i4", (len(X), 2), _little(X.index, "i")),
            ("<f8", (len(targets) // 8,), targets))):
        _write_npy(path, descr, shape, data)
    _write(ids_txt, (i + "\n" for i in ids))
    _write_json(meta_json, meta, DatasetError)


# The fields of featurize.json that fix what the columns mean
SCHEMA_FIELDS = ("radius", "nbits", "table_version", "columns")


def read_features(path) -> tuple[Features, memoryview | None]:
    """Read a feature directory written by write_features.  Returns its
    matrix and the float64 values of its y.npy (_formats._native), None
    when there is no y.npy.  The matrix's schema is the CRC-32, as 8 hex
    digits, of the canonical JSON of the SCHEMA_FIELDS of featurize.json (a
    missing one as null), its columns, the dense names, rebuilt by
    column_names into the name of every column: a CRC catches a changed
    featurization without loading hashlib into predict.

    Feature files are untrusted.  A missing featurize.json,
    descriptors.npy, fingerprints.npy, fingerprint_offsets.npy or pairs.npy
    raises the OSError of its open.  An array of the wrong dtype, rank,
    order or byte count, or under a header np.save would not write (an
    object array included; see _formats._npy_payload), an index that is not
    two columns wide or that names a row outside its block, row counts that
    differ among the index, y.npy, ids.txt and featurize.json, a width that
    is not featurize.json's n_columns, an nbits above config.MAX_NBITS, a
    columns that is not a JSON list of strings or not n_columns - nbits
    long (a list of every column's name included), or a non-finite dense
    value raises DatasetError, naming the file.  The bit block raises
    FingerprintFormatError, naming its files, where fingerprints.npy is
    not 1-D <u2 (the packed uint8 rows of the former layout included) or
    fingerprint_offsets.npy not 1-D <i4, or where the pair breaks a rule of
    Features: offsets from 0 to the number of bits, never decreasing, each
    bit below nbits and each row's bits strictly ascending.  Only the
    distinct rows are checked for finite values."""
    def at(name):
        return os.path.join(path, name)

    meta = _read_json(at("featurize.json"), DatasetError)
    if not isinstance(meta, dict) or not all(
            type(meta.get(k)) is int and meta[k] >= 0
            for k in ("n_rows", "n_columns", "nbits")):
        raise DatasetError(f"{at('featurize.json')}: n_rows, n_columns and "
                           "nbits must be integers >= 0")
    nbits = meta["nbits"]
    if nbits > MAX_NBITS:       # training sizes arrays by nbits
        raise DatasetError(f"{at('featurize.json')}: nbits {nbits} is above "
                           f"{MAX_NBITS}")
    names = meta.get("columns")
    if names is not None:
        if not (type(names) is list and all(type(c) is str for c in names)):
            raise DatasetError(f"{at('featurize.json')}: columns must be a "
                               "JSON list of strings")
        if len(names) != meta["n_columns"] - nbits:
            raise DatasetError(
                f"{at('featurize.json')}: {len(names)} columns named, expected "
                f"the names of the {meta['n_columns'] - nbits} dense columns "
                "(n_columns - nbits)")
        names = list(column_names(names, nbits))
    (dense_rows, d), dense = _npy_payload(at(DENSE_FILE), "<f8", 2, DatasetError)
    _, bits = _npy_payload(at(BITS_FILE), "<u2", 1, FingerprintFormatError)
    (n_offsets,), offsets = _npy_payload(at(OFFSETS_FILE), "<i4", 1,
                                         FingerprintFormatError)
    (n, pair), index = _npy_payload(at(INDEX_FILE), "<i4", 2, DatasetError)
    if pair != 2:
        raise DatasetError(f"{at(INDEX_FILE)}: {pair} columns, expected 2 "
                           "(a dense row and a bit row per matrix row)")
    if meta["n_columns"] != d + nbits:
        raise DatasetError(
            f"{at('featurize.json')}: n_columns {meta['n_columns']} is not "
            f"{d} dense columns + {nbits} bits")
    rows = {at(INDEX_FILE): n, at("featurize.json"): meta["n_rows"]}
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
    dense = _native(dense, "d")
    if not _finite(dense):
        raise DatasetError(f"{at(DENSE_FILE)}: non-finite feature value")
    text = json.dumps({k: meta.get(k) for k in SCHEMA_FIELDS} | {"columns": names},
                      sort_keys=True, separators=(",", ":"))
    schema = format(zlib.crc32(text.encode("utf-8")), "08x")
    try:
        X = Features(dense, dense_rows, d, _native(offsets, "i"),
                     _native(bits, "H"), nbits, _native(index, "i"), schema)
    except FingerprintFormatError as exc:     # "<fields of Features>: why"
        fields, _, why = str(exc).partition(": ")
        files = {"offsets": OFFSETS_FILE, "indices": BITS_FILE}
        raise FingerprintFormatError(", ".join(
            at(files[f]) for f in fields.split(", ")) + f": {why}") from None
    except DimensionMismatchError as exc:
        raise DatasetError(f"{at(INDEX_FILE)}: {exc} ({at(DENSE_FILE)} has "
                           f"{dense_rows} rows, {at(OFFSETS_FILE)} "
                           f"{n_offsets - 1})") from None
    return X, None if y is None else _native(y, "d")
