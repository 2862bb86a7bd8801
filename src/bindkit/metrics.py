"""Evaluation metrics: MAE, affinity-binned MAE, threshold classification.

The binned report partitions samples by their TRUE log-affinity into
half-open bins [lo, hi) of the given width, each truth in the bin whose
printed edges hold it; anything outside [start, stop) is pooled into an
out-of-range cell.  Since the cells partition the samples, the weighted
recombination of cell MAEs reproduces the overall MAE.

The module imports no numpy, so the evaluate command starts without it.
Every mean is math.fsum of its errors, the correctly rounded sum (Shewchuk,
Discrete Comput. Geom. 18, 1997), divided by the count; an accuracy is an
exact count over n.  The JSON reader and writer of every bindkit module,
the checked .npy reader and the .npy writer live here, so evaluate reads
without numpy, and so do the checks of a dataset.tsv row, so featurize
reads a dataset's feature store without it.
"""
from __future__ import annotations

import json
import math
import re
import sys
from array import array
from bisect import bisect_right

from .errors import (DataError, DatasetError, DatasetFormatError,
                     DimensionMismatchError)

__all__ = [
    "MetricsError",
    "mae",
    "binned_mae",
    "classify_accuracy",
    "build_report",
    "write_report",
    "DEFAULT_BIN_START",
    "DEFAULT_BIN_STOP",
    "DEFAULT_BIN_WIDTH",
    "DEFAULT_THRESHOLD",
    "MAX_BINS",
]

DEFAULT_BIN_START = -2.0
DEFAULT_BIN_STOP = 12.0
DEFAULT_BIN_WIDTH = 0.5
DEFAULT_THRESHOLD = 4.0
MAX_BINS = 10_000


class MetricsError(DataError):
    pass


def _mean(errors: list[float]) -> float:
    """The mean of a non-empty list of non-negative errors: their correctly
    rounded sum over their count, or inf where that sum passes the float
    range (math.fsum raises OverflowError there)."""
    try:
        return math.fsum(errors) / len(errors)
    except OverflowError:
        return math.inf


def _pair(y_true, y_pred):
    """The truths and predictions as lists of floats, checked once: equal
    lengths, at least one sample, every value finite.  The public scorers
    each call it; build_report calls it once and passes the lists on to
    the unchecked _mae, _binned and _accuracy."""
    t, p = [float(v) for v in y_true], [float(v) for v in y_pred]
    if len(t) != len(p):
        raise DimensionMismatchError(
            f"length mismatch: {len(t)} true vs {len(p)} predicted")
    if len(t) == 0:
        raise MetricsError("cannot score an empty sample")
    if not (all(map(math.isfinite, t)) and all(map(math.isfinite, p))):
        raise MetricsError("scores require finite values")
    return t, p


def mae(y_true, y_pred) -> float:
    return _mae(*_pair(y_true, y_pred))


def _mae(t: list[float], p: list[float]) -> float:
    return _mean([abs(a - b) for a, b in zip(t, p)])


def binned_mae(
    y_true, y_pred,
    start: float = DEFAULT_BIN_START,
    stop: float = DEFAULT_BIN_STOP,
    width: float = DEFAULT_BIN_WIDTH,
) -> tuple[list[dict], dict]:
    """MAE within half-open truth bins [lo, hi): the report's "bins", a
    {"lo", "hi", "count", "mae"} per bin, and its "out_of_range", the
    {"count", "mae"} of truths outside [start, stop).  An empty cell has
    count 0 and a None MAE, so the bin axis is stable across datasets."""
    return _binned(*_pair(y_true, y_pred), _bin_edges(start, stop, width))


def _binned(t: list[float], p: list[float],
            edges: list[float]) -> tuple[list[dict], dict]:
    n_bins = len(edges) - 1
    cells = [[] for _ in range(n_bins + 1)]     # the last: out of range
    for a, b in zip(t, p):
        i = bisect_right(edges, a) - 1
        cells[i if 0 <= i < n_bins else n_bins].append(abs(a - b))
    means = [{"count": len(c), "mae": _mean(c) if c else None} for c in cells]
    bins = [{"lo": lo, "hi": hi, **m}
            for lo, hi, m in zip(edges, edges[1:], means)]
    return bins, means[n_bins]


def _bin_edges(start: float, stop: float, width: float) -> list[float]:
    """The edges of the n bins of the given width that tile [start, stop):
    edge i is (start * (n - i) + stop * i) / n, correctly rounded for
    integer start and stop, and the ends are start and stop.  MetricsError
    unless all three are finite, stop > start, width > 0, the bins tile the
    range within float tolerance, n <= MAX_BINS and the edges increase."""
    if not all(map(math.isfinite, (start, stop, width))):
        raise MetricsError("bin start, stop and width must be finite")
    if width <= 0 or stop <= start:
        raise MetricsError("need stop > start and width > 0")
    n_bins = (stop - start) / width        # inf when stop - start overflows
    if not n_bins <= MAX_BINS:
        raise MetricsError(f"{n_bins:.6g} bins; at most {MAX_BINS} allowed")
    count = round(n_bins)
    if count < 1 or abs(n_bins - count) > 1e-9:
        raise MetricsError("width must tile the [start, stop) range")
    edges = [(start * (count - i) + stop * i) / count for i in range(count + 1)]
    edges[0], edges[-1] = float(start), float(stop)
    if not all(lo < hi for lo, hi in zip(edges, edges[1:])):
        raise MetricsError(f"the {count} bin edges of [{start!r}, {stop!r}) "
                           "do not strictly increase in float arithmetic")
    return edges


def classify_accuracy(y_true, y_pred, threshold: float = DEFAULT_THRESHOLD) -> float:
    """Agreement of the binary strong-binder call (value < threshold).

    Values exactly at the threshold are 'not below' on both sides, so a
    prediction equal to the threshold agrees with a truth equal to it.
    """
    return _accuracy(*_pair(y_true, y_pred), threshold)


def _accuracy(t: list[float], p: list[float], threshold: float) -> float:
    return sum((a < threshold) == (b < threshold) for a, b in zip(t, p)) / len(t)


def build_report(
    y_true, y_pred,
    start: float = DEFAULT_BIN_START,
    stop: float = DEFAULT_BIN_STOP,
    width: float = DEFAULT_BIN_WIDTH,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    t, p = _pair(y_true, y_pred)
    bins, out_of_range = _binned(t, p, _bin_edges(start, stop, width))
    return {
        "n": len(t),
        "mae": _mae(t, p),
        "threshold": threshold,
        "accuracy_at_threshold": _accuracy(t, p, threshold),
        "bins": bins,
        "out_of_range": out_of_range,
    }


def write_report(report: dict, json_path, csv_path=None) -> None:
    """JSON report plus an optional per-bin CSV for plotting.  Empty-bin MAEs
    are null in JSON and empty cells in CSV.  JSON (RFC 8259) has no inf or
    nan, so a report holding one, such as the inf MAE of errors summing
    past the float range, raises MetricsError and no file is written."""
    # errors are non-negative: a bin whose sum overflows overflows the MAE
    if not math.isfinite(report["mae"]):
        raise MetricsError(f"cannot write {json_path}: MAE {report['mae']!r} is not JSON")
    _write_json(json_path, report, MetricsError)
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("bin_lo,bin_hi,count,mae\n")
            for cell in report["bins"]:
                mae_cell = "" if cell["mae"] is None else repr(cell["mae"])
                fh.write(f"{cell['lo']!r},{cell['hi']!r},{cell['count']},{mae_cell}\n")


def _write_json(path, doc, error, indent: int = 2) -> None:
    """Write doc to path as strict JSON (RFC 8259): keys sorted, indented by
    indent, floats in shortest repr, a final newline.  JSON has no inf or
    nan: a doc holding one raises error naming the file, writing no file."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise error(f"cannot write {path}: {exc} (JSON has no inf or nan)") from exc
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _read_json(path, error):
    """The document of a JSON file.  Text that is not JSON, too long an
    integer or too deep a nesting raises error naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: not valid JSON ({exc})") from exc


# The header np.save writes: the array's dict with its keys in sorted
# order, padded with spaces and ended by a newline.
_NPY_HEADER = re.compile(
    rb"\{'descr': '([^']*)', 'fortran_order': (False|True), "
    rb"'shape': \(((?:\d{1,18}, )*(?:\d{1,18},?)?)\), \} *\n")
_NPY_MAGIC = {b"\x93NUMPY\x01\x00": 2, b"\x93NUMPY\x02\x00": 4}


def _npy_payload(path, descr: str, ndim: int, error) -> tuple[tuple, bytes]:
    """(shape, data bytes) of a .npy file that np.save wrote (format 1.0 or
    2.0) from a C-order array of dtype descr, such as '<f8', and rank ndim.
    A file of another form, dtype, order or rank, or whose data is not
    exactly the bytes its shape needs, raises error naming the file."""
    with open(path, "rb", buffering=0) as fh:     # read() copies no buffer
        width = _NPY_MAGIC.get(fh.read(8))
        if width is None:
            raise error(f"{path}: not a .npy array (no format 1.0 or 2.0 magic)")
        # np.save writes a header of a few hundred bytes at most; a read of a
        # claimed length of up to 4 GiB would allocate that much first
        length = int.from_bytes(fh.read(width), "little")
        header = length < 1 << 16 and _NPY_HEADER.fullmatch(fh.read(length))
        shape = header and tuple(map(int, re.findall(rb"\d+", header[3])))
        if not header or repr(shape).encode() != b"(" + header[3] + b")":
            raise error(f"{path}: not a .npy array (no header np.save writes)")
        found, fortran = header[1].decode("latin-1"), header[2] == b"True"
        if found == "|O":
            raise error(f"{path}: holds an object (pickled) array")
        if found != descr or fortran or len(shape) != ndim:
            raise error(f"{path}: expected a {ndim}-D {descr} array in C order, "
                        f"got {found} of shape {shape}"
                        + " in Fortran order" * fortran)
        data = fh.read()
    if len(data) != math.prod(shape) * int(descr[2:]):
        raise error(f"{path}: data size does not match shape {shape}")
    return shape, data


def _write_npy(path, descr: str, shape: tuple, data: bytes) -> None:
    """Write data, the C-order bytes of an array of dtype descr and the
    given shape, as np.save writes that array: format 1.0, its header dict
    with the keys sorted, 21 - len(repr(shape[0])) spaces of room for the
    first axis to grow, then spaces and a newline to a multiple of 64
    bytes.  (np.save turns to format 2.0 only for a header past 64 KiB,
    which no shape of rank 2 reaches.)"""
    header = f"{{'descr': '{descr}', 'fortran_order': False, 'shape': {shape!r}, }}"
    header += " " * (21 - len(repr(shape[0]))) if shape else ""
    pad = 64 - (len(header) + 11) % 64       # magic, length and newline: 11
    with open(path, "wb") as fh:
        fh.write(b"\x93NUMPY\x01\x00" + (len(header) + pad + 1).to_bytes(2, "little")
                 + header.encode("latin-1") + b" " * pad + b"\n" + data)


def _load_vector(path) -> list[float]:
    """Read a vector of predictions or truths as floats: a .npy file of a
    1-D little-endian float64 array, as featurize writes y.npy, or a text
    file of one number per line.  An unreadable file, a .npy file of any
    other array, or a non-numeric line raises DatasetError naming the
    file."""
    if not path.endswith(".npy"):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return [float(line) for line in fh if line.strip()]
            except ValueError as exc:
                raise DatasetError(f"non-numeric line in {path}: {exc}") from exc
    return _native(_npy_payload(path, "<f8", 1, DatasetError)[1], "d").tolist()


def _native(data: bytes, typecode: str) -> memoryview:
    """The little-endian values in data, float64 for typecode 'd', int32
    for 'i' or uint16 for 'H', as a memoryview of native values, with no
    copy on a little-endian machine."""
    if sys.byteorder == "little":
        return memoryview(data).cast(typecode)
    values = array(typecode, data)
    values.byteswap()
    return memoryview(values)


def _little(values, typecode: str) -> bytes:
    """The inverse of _native: values, a buffer or an iterable of numbers,
    as the little-endian bytes of float64 ('d'), int32 ('i') or uint16
    ('H') values, copied once where values already is a C-contiguous
    buffer of that type on a little-endian machine."""
    try:
        view = memoryview(values)
    except TypeError:
        view = None
    if (view is not None and view.format == typecode and view.c_contiguous
            and sys.byteorder == "little"):
        return view.tobytes()
    data = array(typecode, values if view is None else view.tolist())
    if sys.byteorder != "little":
        data.byteswap()
    return data.tobytes()


# --- dataset.tsv and provenance.json, as dataset.write_dataset writes them ----

SPLIT_NAMES = ("train", "valid", "test")
DATASET_COLUMNS = ("pair_key", "split", "receptor_id", "receptor_fasta",
                   "ligand_smiles", "ki_nm", "log_ki")
TSV_DIGEST = "dataset_tsv_sha256"       # the provenance.json key


def file_digest(path) -> str:
    """The sha256 of a file's bytes, as hex."""
    import hashlib                      # only ingest and featurize digest files
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _read_provenance(path) -> dict:
    """The document of a provenance.json; one that is not JSON, is not a
    JSON object, or holds a source_digest that is not a string raises
    DatasetFormatError naming the file."""
    provenance = _read_json(path, DatasetFormatError)
    if not isinstance(provenance, dict) or not isinstance(
            provenance.get("source_digest", ""), str):
        raise DatasetFormatError(f"{path}: expected a JSON object whose "
                                 "source_digest is a string")
    return provenance


def _dataset_rows(fh):
    """(line number, cells) of each row of an open dataset.tsv, blank lines
    skipped, after the checks every row gets: a header other than
    DATASET_COLUMNS, or a row with a wrong column count, an unknown split or
    the pair key of an earlier line, raises DatasetFormatError naming the
    line."""
    header = tuple(fh.readline().rstrip("\n").split("\t"))
    if header != DATASET_COLUMNS:
        raise DatasetFormatError(f"unexpected dataset columns {header}")
    key_lines: dict[str, int] = {}
    for line_no, raw in enumerate(fh, start=2):
        line = raw.rstrip("\n")
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(DATASET_COLUMNS):
            raise DatasetFormatError(f"bad row at line {line_no}")
        if cells[1] not in SPLIT_NAMES + ("unassigned",):
            raise DatasetFormatError(f"bad split {cells[1]!r} at line {line_no}")
        first = key_lines.setdefault(cells[0], line_no)
        if first != line_no:
            raise DatasetFormatError(
                f"duplicate pair_key {cells[0]} at line {line_no} "
                f"(first at line {first})")
        yield line_no, cells


def _checked_log_ki(ki_nm: str, log_ki: str, line_no: int, bounds) -> float:
    """The log_ki cell of a dataset.tsv row as a float; DatasetFormatError
    naming the line unless it is finite, the ki_nm cell is the
    repr(10.0 ** log_ki) that write_dataset writes, and it lies within the
    log10 of bounds, a config.KiBounds (ingest keeps a Ki within bounds as
    log10(Ki), and 10.0 ** that can round just outside them)."""
    try:
        value = float(log_ki)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DatasetFormatError(f"bad log_ki {log_ki!r} at line {line_no}")
    try:
        expected = repr(10.0 ** value)
    except OverflowError:
        expected = None
    if ki_nm != expected:
        raise DatasetFormatError(
            f"ki_nm {ki_nm!r} does not match log_ki {log_ki!r} "
            f"at line {line_no}")
    if not math.log10(bounds.min_nm) <= value <= math.log10(bounds.max_nm):
        raise DatasetFormatError(
            f"ki_nm {ki_nm!r} outside the curation window "
            f"[{bounds.min_nm!r}, {bounds.max_nm!r}] at line {line_no}")
    return value
