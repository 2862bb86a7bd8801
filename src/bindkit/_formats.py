"""bindkit's file formats, read and written without numpy: strict JSON,
.npy arrays, the vector files evaluate scores, and an ingested dataset
directory's dataset.tsv, provenance.json and feature store stamp, which
_read_dataset alone reads.  Every output file reaches disk through _write,
whole or not at all, and _remove is the one removal of a file.  Only the
standard library and bindkit.errors are imported, and hashlib only when a
file is digested or a store stamped.
"""
from __future__ import annotations

import errno
import json
import math
import os
import re
import stat
import sys
from array import array
from contextlib import suppress

from .errors import DatasetError, DatasetFormatError, EmptyAfterFilteringError


def _write(path, parts) -> None:
    """Write parts, str (as UTF-8) and bytes, to path whole: to NAME.<pid>.part
    beside os.path.realpath(path), then os.replace'd onto it, unsynced.  A
    replaced output keeps its mode; one the user may not write is refused,
    as open(path, "w") would refuse it.  Any exception removes the .part
    file and leaves path as it was; an OSError names path.  No other code
    of bindkit opens a file for writing."""
    target = os.path.realpath(path)
    part = f"{target}.{os.getpid()}.part"
    try:
        with open(part, "wb") as fh:
            with suppress(FileNotFoundError):
                mode = stat.S_IMODE(os.stat(target).st_mode)
                if not os.access(target, os.W_OK):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), target)
                os.fchmod(fh.fileno(), mode)
            for chunk in parts:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(part, target)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(part)
        if isinstance(exc, OSError) and exc.filename in (part, target):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _remove(path) -> None:
    """Remove path, where it exists: the one removal of a file by bindkit."""
    with suppress(FileNotFoundError):
        os.remove(path)


def _write_json(path, doc, error, indent: int = 2) -> None:
    """Write doc to path as strict JSON (RFC 8259): keys sorted, indented by
    indent, floats in shortest repr, a final newline.  JSON has no inf or
    nan: a doc holding one raises error naming the file, writing no file."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise error(f"cannot write {path}: {exc} (JSON has no inf or nan)") from exc
    _write(path, (text, "\n"))


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
    _write(path, (b"\x93NUMPY\x01\x00" + (len(header) + pad + 1).to_bytes(2, "little")
                  + header.encode("latin-1") + b" " * pad + b"\n", data))


def _load_vector(path) -> list[float]:
    """Read a vector of predictions or truths as floats: a .npy file of a
    1-D little-endian float64 array, as featurize writes y.npy, or a text
    file of one number per line.  An unreadable file, a .npy file of any
    other array, or a non-numeric line raises DatasetError naming the
    file."""
    if not path.endswith(".npy"):
        with open(path, "r", encoding="utf-8-sig") as fh:
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


# --- an ingested dataset directory, as dataset.write_dataset writes it -------

SPLIT_NAMES = ("train", "valid", "test")
DATASET_COLUMNS = ("pair_key", "split", "receptor_id", "receptor_fasta",
                   "ligand_smiles", "ki_nm", "log_ki")
TSV_DIGEST = "dataset_tsv_sha256"       # the provenance.json and store key
# A dataset directory's feature store: a feature directory of every record,
# in dataset.tsv order, that ingest writes and featurize selects a split
# from.  STORE_VERSION changes with any change to the bytes of its files.
STORE_DIR = "features"
STORE_VERSION = "1"


def store_stamp(cfg) -> dict:
    """The featurize.json fields that fix a feature store's bytes under the
    config cfg: STORE_VERSION, radius, nbits and the property table's
    sha256.  ingest writes them into the store; featurize reads with them."""
    import hashlib
    from .config import property_table_bytes
    table = property_table_bytes(cfg.property_table)
    return {"store_version": STORE_VERSION, "radius": cfg.radius,
            "nbits": cfg.nbits, "table_sha256": hashlib.sha256(table).hexdigest()}


def _dataset_files(path) -> list:
    """The dataset.tsv, provenance.json and store directory of a dataset."""
    return [os.path.join(path, name)
            for name in ("dataset.tsv", "provenance.json", STORE_DIR)]


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


def _stale(path, reason: str) -> DatasetError:
    """A DatasetError asking for the dataset at path to be ingested again."""
    return DatasetError(f"{path}: {reason}; re-run bindkit ingest with this "
                        "config to write its feature store")


def _read_store(path, stamp) -> dict:
    """The featurize.json of the feature store of the dataset at path, a
    JSON object with columns and table_version that records stamp."""
    meta_path = os.path.join(path, STORE_DIR, "featurize.json")
    meta = _read_json(meta_path, DatasetError)
    if not (isinstance(meta, dict) and isinstance(meta.get("columns"), list)
            and isinstance(meta.get("table_version"), str)):
        raise DatasetError(f"{meta_path}: expected a JSON object with a "
                           "columns list and a table_version string")
    if meta.get("store_version") != stamp["store_version"]:
        raise _stale(path, "the feature store is version "
                     f"{meta.get('store_version')!r}, not {stamp['store_version']!r}")
    for key in ("radius", "nbits"):
        if meta.get(key) != stamp[key]:
            raise _stale(path, f"the feature store has {key} "
                         f"{meta.get(key)!r}, not {stamp[key]!r}")
    if meta.get("table_sha256") != stamp["table_sha256"]:
        raise _stale(path, "the feature store was written with another "
                     "property table")
    return meta


def _read_dataset(path, bounds, subset: str, stamp=None):
    """(provenance less TSV_DIGEST, record count, rows, store) of the
    dataset directory path, a row being the (record index, cells, log_ki)
    of each record of subset ("all" or a split name), in file order.

    Only the dataset.tsv whose sha256 provenance.json records, as
    write_dataset wrote it, is read; else _stale names the reason.  Every
    row gets _dataset_rows' and _checked_log_ki's checks under bounds, the
    curation window in force; ingest validated the rest.  ValueError for
    an unknown subset, EmptyAfterFilteringError for an empty one.

    Given a store_stamp, featurize's, the feature store must exist and
    record stamp and this dataset.tsv's sha256; store is its _read_store."""
    tsv, prov_path, store_dir = _dataset_files(path)
    if stamp is not None and not os.path.exists(
            os.path.join(store_dir, "featurize.json")):
        raise _stale(path, "the dataset has no feature store")
    if subset != "all" and subset not in SPLIT_NAMES:
        raise ValueError(f"unknown subset {subset!r}")
    if not os.path.exists(prov_path):
        raise _stale(path, "the dataset has no provenance.json")
    provenance = _read_provenance(prov_path)
    store = None if stamp is None else _read_store(path, stamp)
    digest = file_digest(tsv)
    if provenance.pop(TSV_DIGEST, None) != digest:
        raise _stale(path, "dataset.tsv is not the file provenance.json records")
    if store is not None and store.get(TSV_DIGEST) != digest:
        raise _stale(path, "the feature store was written for another dataset.tsv")
    rows, n_records = [], 0
    with open(tsv, "r", encoding="utf-8") as fh:
        for line_no, cells in _dataset_rows(fh):
            log_ki = _checked_log_ki(cells[5], cells[6], line_no, bounds)
            if subset in ("all", cells[1]):
                rows.append((n_records, cells, log_ki))
            n_records += 1
    if not rows:
        raise EmptyAfterFilteringError(f"subset {subset!r} is empty")
    return provenance, n_records, rows, store
