"""Evaluation metrics: MAE, affinity-binned MAE, threshold classification.

The binned report partitions samples by their TRUE log-affinity into
half-open bins [lo, hi) of the given width, each truth in the bin whose
printed edges hold it; anything outside [start, stop) is pooled into an
out-of-range cell.  Since the cells partition the samples, the weighted
recombination of cell MAEs reproduces the overall MAE.

The module imports no numpy, so the evaluate command starts without it.
Every mean is math.fsum of its errors, the correctly rounded sum (Shewchuk,
Discrete Comput. Geom. 18, 1997), divided by the count; an accuracy is an
exact count over n.
"""
from __future__ import annotations

import math
from bisect import bisect_right

from ._formats import _write, _write_json
from .errors import DataError, DimensionMismatchError

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
        _write(csv_path, ["bin_lo,bin_hi,count,mae\n"] + [
            f"{cell['lo']!r},{cell['hi']!r},{cell['count']},"
            + ("" if cell["mae"] is None else repr(cell["mae"])) + "\n"
            for cell in report["bins"]])
