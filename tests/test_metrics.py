"""Metric tests.

The central oracle: binned cells partition the samples, so recombining cell
MAEs weighted by counts must reproduce the overall MAE to float precision.
"""
import json
import math
import struct
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bindkit.metrics as metrics_module
from bindkit._formats import _load_vector, _npy_payload, _write_npy
from bindkit.dataset import DatasetError
from bindkit.gbdt import DimensionMismatchError
from bindkit.metrics import (
    DEFAULT_BIN_START,
    DEFAULT_BIN_STOP,
    DEFAULT_BIN_WIDTH,
    DEFAULT_THRESHOLD,
    MAX_BINS,
    MetricsError,
    binned_mae,
    build_report,
    classify_accuracy,
    mae,
    write_report,
)
from testutil import binned_columns


def _read_npy(path, dtype, ndim):
    """The numpy reader: the array np.frombuffer makes of the checked
    payload of a .npy file."""
    descr = np.dtype(dtype).newbyteorder("<").str
    shape, data = _npy_payload(path, descr, ndim, DatasetError)
    return np.frombuffer(data, dtype=descr).reshape(shape)


# Each dtype and rank write_features writes: descriptors.npy (<f8, 2-D),
# y.npy (<f8, 1-D), fingerprints.npy (<u2, 1-D), fingerprint_offsets.npy
# (<i4, 1-D) and pairs.npy (<i4, 2-D), empty ones included.
WRITTEN_ARRAYS = [("<f8", (0, 78)), ("<f8", (3, 78)), ("<f8", (2, 0)),
                  ("<f8", (0,)), ("<f8", (22,)), ("<u2", (0,)), ("<u2", (417,)),
                  ("<i4", (0,)), ("<i4", (13,)), ("<i4", (0, 2)), ("<i4", (22, 2)),
                  ("<i4", (100_000, 2))]


@pytest.mark.parametrize("descr, shape", WRITTEN_ARRAYS)
def test_npy_writer_writes_the_bytes_of_np_save(tmp_path, descr, shape):
    rng = np.random.default_rng(sum(shape))
    if descr == "<f8":
        array_ = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        array_.flat[:3] = [-0.0, 5e-324, 1.7976931348623157e308][:array_.size]
    else:
        info = np.iinfo(descr)
        array_ = rng.integers(info.min, info.max, shape, endpoint=True, dtype=descr)
    np.save(tmp_path / "numpy.npy", array_)
    _write_npy(tmp_path / "bindkit.npy", descr, shape, array_.tobytes())
    assert (tmp_path / "bindkit.npy").read_bytes() == \
        (tmp_path / "numpy.npy").read_bytes()
    assert _npy_payload(tmp_path / "bindkit.npy", descr, len(shape), DatasetError) \
        == (shape, array_.tobytes())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from(("<f8", "<i4", "<u2")), st.integers(0, 10 ** 18))
def test_npy_writer_pads_every_header_as_np_save_does(tmp_path_factory, descr, n):
    """The header grows with the digits of the first axis; an n x 0 array
    holds no data, so any n is cheap to save."""
    path = tmp_path_factory.mktemp("npy")
    np.save(path / "numpy.npy", np.zeros((n, 0), dtype=descr))
    _write_npy(path / "bindkit.npy", descr, (n, 0), b"")
    assert (path / "bindkit.npy").read_bytes() == (path / "numpy.npy").read_bytes()


def test_mae_hand_values():
    assert mae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert mae([0.0, 0.0], [1.0, -1.0]) == 1.0
    assert mae([4.0], [2.5]) == 1.5
    assert mae([1.0, 5.0], [2.0, 3.0]) == 1.5


def test_defaults():
    assert (DEFAULT_BIN_START, DEFAULT_BIN_STOP) == (-2.0, 12.0)
    assert DEFAULT_BIN_WIDTH == 0.5
    assert DEFAULT_THRESHOLD == 4.0
    edges, counts, _, _, _ = binned_columns(binned_mae([0.0], [0.0]))
    assert len(counts) == 28
    assert edges[0] == -2.0 and edges[-1] == 12.0
    # the default edges are start + i * width, bit for bit
    assert edges == tuple(-2.0 + i * 0.5 for i in range(29))


def test_recombination_reproduces_overall_mae():
    rng = np.random.default_rng(17)
    t = rng.uniform(-4.0, 14.0, size=2000)      # some mass out of range
    p = t + rng.standard_normal(2000)
    _, counts, maes, out_count, out_mae = binned_columns(binned_mae(t, p))
    total = sum(counts) + out_count
    assert total == 2000
    acc = 0.0
    for count, cell_mae in zip(counts, maes):
        if count:
            acc += count * cell_mae
    acc += out_count * out_mae
    assert abs(acc / total - mae(t, p)) <= 1e-12


def test_bin_edges_are_half_open():
    # truth exactly on an inner edge belongs to the right bin
    _, counts, _, _, _ = binned_columns(binned_mae(
        [0.5, 0.5 - 1e-9], [0.0, 0.0], start=0.0, stop=1.0, width=0.5))
    assert counts == (1, 1)
    # truth exactly at stop is out of range, start is in
    _, counts, _, out_count, _ = binned_columns(binned_mae(
        [0.0, 1.0], [0.0, 0.0], start=0.0, stop=1.0, width=0.5))
    assert counts == (1, 0)
    assert out_count == 1


def test_empty_bins_are_none_not_dropped():
    _, counts, maes, out_count, out_mae = binned_columns(binned_mae(
        [0.1, 0.9], [0.0, 1.0], start=0.0, stop=2.0, width=0.5))
    assert counts == (1, 1, 0, 0)
    assert maes[2] is None and maes[3] is None
    assert out_count == 0
    assert out_mae is None


def test_out_of_range_pooling():
    _, counts, _, out_count, out_mae = binned_columns(binned_mae(
        [-5.0, 20.0, 1.0], [-4.0, 22.0, 1.0], start=0.0, stop=2.0, width=1.0))
    assert out_count == 2
    assert out_mae == pytest.approx(1.5)
    assert counts == (0, 1)


def test_binning_validation():
    with pytest.raises(MetricsError):
        binned_mae([1.0], [1.0], start=0.0, stop=1.0, width=0.3)
    with pytest.raises(MetricsError):
        binned_mae([1.0], [1.0], start=1.0, stop=0.0, width=0.5)
    with pytest.raises(MetricsError):
        binned_mae([1.0], [1.0], start=0.0, stop=1.0, width=0.0)
    # a width that tiles only within float tolerance is accepted
    binned_mae([1.0], [1.0], start=0.0, stop=0.3, width=0.1)


@pytest.mark.parametrize("start, stop, width, message", [
    (float("nan"), 12.0, 0.5, "finite"),
    (-2.0, float("inf"), 0.5, "finite"),
    (-2.0, 12.0, float("nan"), "finite"),
    (-2.0, 12.0, 1e-9, "at most"),
    (-1e308, 1e308, 1.0, "at most"),          # stop - start overflows
    (0.0, 1.0, 1e30, "tile"),                 # no whole bin fits
])
def test_binning_rejects_non_finite_and_too_many_bins(start, stop, width, message):
    with pytest.raises(MetricsError, match=message):
        binned_mae([1.0], [1.0], start=start, stop=stop, width=width)
    bins, _ = binned_mae([1.0], [1.0], start=0.0, stop=MAX_BINS, width=1.0)
    assert len(bins) == MAX_BINS


@pytest.mark.parametrize("truth, start, stop, width, lo, hi", [
    (-1.8, -2.0, 12.0, 0.1, -1.8, -1.7),
    (7.3, -2.0, 12.0, 0.1, 7.3, 7.4),
    (math.log10(0.9999999999999999), -2.0, 12.0, 0.5, -0.5, 0.0),
])
def test_truth_is_counted_in_the_bin_whose_printed_edges_hold_it(
        truth, start, stop, width, lo, hi):
    """Binning by floor((truth - start) / width) beside edges printed as
    start + i * width counts -1.8 in [-1.9, -1.8), 7.3 in
    [7.300000000000001, 7.4) and -4.8e-17 in [0.0, 0.5)."""
    report = build_report([truth], [0.0], start=start, stop=stop, width=width)
    (cell,) = [cell for cell in report["bins"] if cell["count"]]
    assert (cell["lo"], cell["hi"]) == (lo, hi)
    assert cell["lo"] <= truth < cell["hi"]


def test_bin_edges_must_strictly_increase():
    # 10,000 bins between two floats 16 apart: many edges round alike
    with pytest.raises(MetricsError, match="strictly increase"):
        binned_mae([1e17], [1e17], start=1e17, stop=1e17 + 16, width=0.0016)


# Lengths on each side of the block sizes of numpy's pairwise summation (8
# and 128 values) and of its 8,192-element reduction buffer, where a sum
# whose rounding depends on the order of addition changes that order.
EDGE_LENGTHS = [1, 7, 8, 9, 127, 128, 129, 8193]
summands = st.one_of(
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, -1.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def float_vectors(draw):
    n = draw(st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(1, 600)))
    head = draw(st.lists(summands, min_size=min(n, 64), max_size=min(n, 64)))
    seed = draw(st.integers(0, 2**32 - 1))
    # beyond 64 values, a seeded mix of the same kinds of summand
    rng = np.random.default_rng(seed)
    tail = rng.choice([0.0, -0.0, 1e16, -1e16, 1.0], size=n - len(head))
    tail = np.where(rng.random(len(tail)) < 0.5, rng.normal(0, 1e3, len(tail)), tail)
    return head + tail.tolist()


def exact_mean(errors):
    """The exact rational sum of errors, rounded once, over their count."""
    return float(sum(map(Fraction, errors))) / len(errors)


pack = struct.Struct("<d").pack


def bits(value):
    """A float's bytes, so that 0.0 and -0.0 differ; None stays None."""
    return None if value is None else pack(value)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(float_vectors())
def test_report_means_are_the_exact_mean_rounded_once(values):
    """Scored against the reversed vector, every mean of the report is the
    exactly rounded sum of its errors over their count, bit for bit; the
    report bins each truth in the bin whose printed [lo, hi) holds it."""
    t, p = values, values[::-1]
    report = build_report(t, p)
    cells = [[] for _ in report["bins"]]
    outside = []
    for a, b in zip(t, p):
        held = [i for i, cell in enumerate(report["bins"])
                if cell["lo"] <= a < cell["hi"]]
        (cells[held[0]] if held else outside).append(abs(a - b))
    assert [cell["count"] for cell in report["bins"]] == list(map(len, cells))
    assert report["out_of_range"]["count"] == len(outside)
    got = [report["mae"], *(cell["mae"] for cell in report["bins"]),
           report["out_of_range"]["mae"]]
    want = [exact_mean([abs(a - b) for a, b in zip(t, p)]),
            *(exact_mean(errors) if errors else None for errors in cells),
            exact_mean(outside) if outside else None]
    assert list(map(bits, got)) == list(map(bits, want))
    assert pack(mae(values, values)) == pack(0.0)


@pytest.mark.parametrize("n", EDGE_LENGTHS + [16385])
def test_sum_of_negative_zeros_is_positive_zero_as_in_numpy(n):
    """Negative-zero truths scored against zero predictions: the MAE, the
    bin MAE and the out-of-range MAE are +0.0, as numpy's mean is."""
    t, p = [-0.0] * n, [0.0] * n
    zero = pack(np.abs(np.array(t) - np.array(p)).mean())
    assert zero == pack(0.0)
    assert pack(mae(t, p)) == zero
    _, _, maes, _, _ = binned_columns(binned_mae(t, p))
    assert pack(maes[4]) == zero                             # bin [0.0, 0.5)
    _, _, _, _, out_mae = binned_columns(
        binned_mae(t, p, start=1.0, stop=2.0, width=1.0))
    assert pack(out_mae) == zero


def test_errors_summing_past_the_float_range_give_inf():
    """math.fsum raises OverflowError where finite errors sum past the float
    range; the report's means are inf there, as a running sum gives."""
    report = build_report([0.0, 0.0], [1e308, 1e308])
    assert report["mae"] == math.inf
    assert [cell["mae"] for cell in report["bins"] if cell["count"]] == [math.inf]
    report = build_report([0.0, 0.0], [1e308, 1e308], start=1.0, stop=2.0, width=1.0)
    assert report["out_of_range"]["mae"] == math.inf


def test_input_is_read_as_a_flat_sequence_of_floats():
    """Lists, tuples, array('d') and 1-D arrays score alike; nested input
    is not flattened."""
    t, p = [1.0, 2.0, 4.0], [1.5, 2.0, 3.0]
    for kind in (list, tuple, lambda v: array("d", v), np.array):
        assert mae(kind(t), kind(p)) == 0.5
    with pytest.raises(TypeError):
        mae([[1.0, 2.0]], [[1.0, 2.0]])


@pytest.mark.parametrize("array", [
    np.array([0.5, -1.25, 3.0]),                  # the form featurize writes
    np.array([], dtype=np.float64),
    np.arange(6.0).reshape(2, 3),                 # rejected by both readers
    np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    np.array([3, -1, 7], dtype=np.int64),
    np.array([True, False]),
    np.array([0.5, -1.25], dtype=">f8"),
    np.array([0.5, 2.0], dtype=np.float32),
], ids=["f8", "empty", "2d", "fortran", "int64", "bool", "big-endian", "f4"])
def test_load_vector_reads_npy_as_the_numpy_reader_does(tmp_path, array):
    path = str(tmp_path / "v.npy")
    np.save(path, array)
    if array.ndim == 1 and array.dtype.str == "<f8":
        assert _load_vector(path) == _read_npy(path, np.float64, 1).tolist()
        assert _load_vector(path) == array.tolist()
        assert all(type(v) is float for v in _load_vector(path))
        return
    with pytest.raises(DatasetError) as expected:
        _read_npy(path, np.float64, 1)
    with pytest.raises(DatasetError) as got:
        _load_vector(path)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"{path}: expected a 1-D <f8 array")


def test_load_vector_errors_are_the_numpy_readers(tmp_path):
    good = tmp_path / "good.npy"
    np.save(good, np.arange(4.0))
    np.save(tmp_path / "obj.npy", np.array([1.0, "x"], dtype=object))
    cases = {
        "truncated": good.read_bytes()[:-3],
        "padded": good.read_bytes() + b"\0" * 8,
        "garbage": b"not an array",
        "bad-header": good.read_bytes().replace(b"'shape': (4,)", b"'shape': (4.)"),
        "object": (tmp_path / "obj.npy").read_bytes(),
    }
    for name, blob in cases.items():
        path = tmp_path / f"{name}.npy"
        path.write_bytes(blob)
        with pytest.raises(DatasetError) as expected:
            _read_npy(str(path), np.float64, 1)
        with pytest.raises(DatasetError) as got:
            _load_vector(str(path))
        assert str(got.value) == str(expected.value), name
        assert str(path) in str(got.value), name
    with pytest.raises(DatasetError, match="pickled"):
        _load_vector(str(tmp_path / "object.npy"))
    text = tmp_path / "v.txt"
    text.write_text("1.5\n\n-2\nx\n")
    with pytest.raises(DatasetError, match="non-numeric line"):
        _load_vector(str(text))


def test_classification_accuracy_hand_fixture():
    truth = [3.0, 5.0, 3.0, 5.0]
    pred = [3.5, 4.5, 4.5, 4.2]
    assert classify_accuracy(truth, pred) == 0.75


def test_threshold_equality_is_not_below():
    assert classify_accuracy([4.0], [4.0]) == 1.0
    assert classify_accuracy([4.0], [3.999999]) == 0.0
    assert classify_accuracy([3.999999], [4.0]) == 0.0
    assert classify_accuracy([5.0, 1.0], [9.0, 0.5], threshold=2.0) == 1.0


def test_input_validation():
    with pytest.raises(DimensionMismatchError):
        mae([1.0, 2.0], [1.0])
    with pytest.raises(MetricsError):
        mae([], [])
    with pytest.raises(MetricsError):
        mae([np.nan], [1.0])
    with pytest.raises(MetricsError):
        classify_accuracy([1.0], [np.inf])


def test_report_structure():
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 10.0, 50)
    p = t + 0.25
    report = build_report(t, p)
    assert report["n"] == 50
    assert report["mae"] == pytest.approx(0.25)
    assert report["threshold"] == 4.0
    assert len(report["bins"]) == 28
    assert report["bins"][0]["lo"] == -2.0
    assert report["bins"][-1]["hi"] == 12.0
    assert sum(cell["count"] for cell in report["bins"]) == 50
    assert report["out_of_range"]["count"] == 0


def test_report_checks_its_input_once(monkeypatch):
    """build_report converts and checks the two vectors in one _pair pass
    and scores those floats, where it once made four; its report is that
    of the public scorers, each checking on its own."""
    calls = []

    def counting(y_true, y_pred):
        calls.append(1)
        return pair(y_true, y_pred)

    pair = metrics_module._pair
    monkeypatch.setattr(metrics_module, "_pair", counting)
    rng = np.random.default_rng(5)
    t = rng.uniform(-3.0, 13.0, 200)
    p = t + rng.standard_normal(200)
    report = build_report(t, p, threshold=5.0)
    assert len(calls) == 1
    bins, out = binned_mae(t, p)
    assert report == {"n": 200, "mae": mae(t, p), "threshold": 5.0,
                      "accuracy_at_threshold": classify_accuracy(t, p, 5.0),
                      "bins": bins, "out_of_range": out}


def test_write_report_files(tmp_path):
    t = [1.0, 1.2, 3.0]
    p = [1.1, 1.0, 3.5]
    report = build_report(t, p, start=0.0, stop=4.0, width=1.0)
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    write_report(report, json_path, csv_path)

    parsed = json.loads(json_path.read_text())
    assert parsed == report
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,mae"
    assert len(lines) == 5
    cells = lines[2].split(",")            # bin [1, 2) holds the first two
    assert cells[2] == "2"
    assert float(cells[3]) == pytest.approx(0.15)
    empty = lines[1].split(",")            # bin [0, 1) is empty
    assert empty[2] == "0" and empty[3] == ""

    # byte stability
    again_json = tmp_path / "again.json"
    again_csv = tmp_path / "again.csv"
    write_report(report, again_json, again_csv)
    assert again_json.read_bytes() == json_path.read_bytes()
    assert again_csv.read_bytes() == csv_path.read_bytes()
