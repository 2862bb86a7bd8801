"""Boosted-tree regressor tests.

Training behavior is checked against closed-form expectations on tiny
constructed problems (where leaf means are dyadic rationals and thus exact
in binary floating point), plus structural contracts on realistic data.
"""
import tempfile
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bindkit.gbdt import (
    DimensionMismatchError,
    GbdtError,
    GbdtModel,
    ModelFormatError,
    ModelVersionError,
    TrainParams,
    Tree,
    load_model,
    save_model,
    train,
    Q,
    _above,
    _best_split,
    _bin_columns,
    _gain,
    _histograms,
)
from bindkit.errors import FingerprintFormatError
from bindkit.model import Features, _leaves, read_features, write_features
from testutil import csr_rows, dense_matrix


def regression_problem(n=300, d=6, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = 2.0 * X[:, 0] - 1.5 * X[:, 1] + 0.5 * X[:, 2] + noise * rng.standard_normal(n)
    return X, y


def leaf_of(tree, x):
    """The leaf index of row x: one bit per level, level 0 the high bit."""
    leaf = 0
    for f, t in zip(tree.feature, tree.threshold):
        leaf = 2 * leaf + int(x[f] > t)
    return leaf


def test_step_function_is_fit_exactly():
    # 50/50 binary feature, y = x: base 0.5, one split, leaves -0.5/+0.5.
    # every quantity is dyadic so the fit is bit-exact; the second tree then
    # sees all-zero residuals, whose quantization must not divide by zero
    X = np.zeros((100, 1))
    X[50:, 0] = 1.0
    y = X[:, 0].copy()
    params = TrainParams(n_trees=2, max_depth=1, learning_rate=1.0,
                         min_samples_leaf=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, metrics = train(X, y, params)
    assert model.base_score == 0.5
    assert len(model.trees) == 2
    tree = model.trees[0]
    assert len(tree.feature) == 1 and tree.threshold[0] == 0.0
    assert sorted(tree.leaf_value) == [-0.5, 0.5]
    still = model.trees[1]
    assert still.feature == still.threshold == () and still.leaf_value == (0.0,)
    assert np.array_equal(model.predict(X), y)
    assert metrics["train_loss"] == [0.0, 0.0]


def test_zero_gain_nodes_become_leaves():
    # balanced checkerboard: every root split has exactly zero gain, and
    # zero gain means leaf, so the greedy tree stays a stump at any depth
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 25)
    y = (X[:, 0] != X[:, 1]).astype(float)
    model, _ = train(X, y, TrainParams(n_trees=1, max_depth=4,
                                       learning_rate=1.0, min_samples_leaf=1))
    assert len(model.trees[0].feature) == 0
    assert list(model.predict(X)) == [0.5] * len(X)


def test_unbalanced_checkerboard_fits_at_depth_two():
    # tilting the cell counts (all dyadic) gives the root a positive gain on
    # the second feature; depth 2 then isolates each cell and the leaf means
    # are exactly +-0.5, so the fit is bit-exact
    blocks = ([[0.0, 0.0]] * 32 + [[0.0, 1.0]] * 32
              + [[1.0, 0.0]] * 16 + [[1.0, 1.0]] * 16)
    X = np.array(blocks)
    y = (X[:, 0] != X[:, 1]).astype(float)
    shallow, _ = train(X, y, TrainParams(n_trees=1, max_depth=1,
                                         learning_rate=1.0, min_samples_leaf=1))
    assert not np.array_equal(shallow.predict(X), y)
    deep, _ = train(X, y, TrainParams(n_trees=1, max_depth=2,
                                      learning_rate=1.0, min_samples_leaf=1))
    assert deep.trees[0].feature == (1, 0)
    assert np.array_equal(deep.predict(X), y)


def test_train_loss_never_increases():
    X, y = regression_problem()
    _, metrics = train(X, y, TrainParams(n_trees=60, max_depth=3,
                                         learning_rate=0.1, min_samples_leaf=5))
    losses = metrics["train_loss"]
    assert len(losses) == 60
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev + 1e-12
    assert losses[-1] < losses[0]


def test_min_samples_leaf_is_respected():
    # Where a level's split leaves a node a side of fewer than 7 rows, both
    # children take the node's value, so each leaf value is the scaled mean
    # residual of a node of at least 7 rows, although some leaves hold fewer.
    X, y = regression_problem(n=200)
    params = TrainParams(n_trees=3, max_depth=6, learning_rate=0.3,
                         min_samples_leaf=7)
    model, _ = train(X, y, params)
    F = np.full(len(X), model.base_score)
    for tree in model.trees:
        depth = len(tree.feature)
        assert depth == 6
        leaves = np.array([leaf_of(tree, row) for row in X])
        res = y - F
        for j, value in enumerate(tree.leaf_value):
            def rows_of(level, side=0):         # j's node on level, or its sibling
                shift = depth - level
                return leaves >> shift == (j >> shift) ^ side
            source = 0                          # the level of the node that gives the value
            for level in range(1, depth + 1):
                if min(rows_of(level, side).sum() for side in (0, 1)) >= 7:
                    source = level
            assert rows_of(source).sum() >= 7
            assert value == pytest.approx(0.3 * res[rows_of(source)].mean(), rel=1e-12)
        assert np.bincount(leaves, minlength=2 ** depth).min() < 7
        F += np.asarray(tree.leaf_value)[leaves]


def test_max_depth_bounds_tree_shape():
    X, y = regression_problem(n=400)
    model, _ = train(X, y, TrainParams(n_trees=2, max_depth=3,
                                       learning_rate=0.5, min_samples_leaf=1))
    for tree in model.trees:
        assert len(tree.feature) == len(tree.threshold) == 3
        assert len(tree.leaf_value) == 2 ** 3
    shallow, _ = train(X, y, TrainParams(n_trees=2, max_depth=1,
                                         learning_rate=0.5, min_samples_leaf=1))
    assert [len(t.leaf_value) for t in shallow.trees] == [2, 2]


def test_thresholds_are_training_values():
    X, y = regression_problem(n=150)
    model, _ = train(X, y, TrainParams(n_trees=4, max_depth=4,
                                       learning_rate=0.2, min_samples_leaf=4))
    for tree in model.trees:
        for i, f in enumerate(tree.feature):
            assert tree.threshold[i] in X[:, f]


# --- reference: the dense (row, column) bincount split search ----------------


def reference_bins(X, n_bins):
    """Per-column ascending bin upper bounds and the full code matrix."""
    uppers = []
    codes = np.empty(X.shape, dtype=np.int32)
    for f in range(X.shape[1]):
        distinct = np.unique(X[:, f])
        if len(distinct) > n_bins:
            qs = np.linspace(0.0, 1.0, n_bins)
            distinct = np.unique(np.quantile(X[:, f], qs, method="lower"))
        uppers.append(distinct)
        codes[:, f] = np.searchsorted(distinct, X[:, f], side="left")
    return codes, uppers


def row_order_sum(values):
    """values added one by one from 0.0, as a bincount accumulates a cell."""
    return float(np.bincount(np.zeros(len(values), dtype=np.intp),
                             weights=values, minlength=1)[0])


def reference_level(codes, bins_per_f, res, nodes, min_leaf):
    """(feature, code threshold) of the best split of a level, or None: one
    flat bincount of the (integer) residuals res over every (row, column)
    cell of each node, and each candidate's gain summed, in node order, over
    the nodes where both sides keep min_leaf rows."""
    max_bins = int(bins_per_f.max())
    offsets = np.arange(codes.shape[1]) * max_bins
    size = codes.shape[1] * max_bins
    gain = np.zeros((codes.shape[1], max_bins))
    counted = np.zeros(gain.shape, dtype=bool)
    for rows in nodes:
        m = rows.size
        sub = codes[rows]
        flat = (sub + offsets).ravel()
        cnt = np.bincount(flat, minlength=size).reshape(-1, max_bins)
        ssum = np.bincount(flat, weights=np.repeat(res[rows], sub.shape[1]),
                           minlength=size).reshape(-1, max_bins)
        n_left = np.cumsum(cnt, axis=1)
        s_left = np.cumsum(ssum, axis=1)
        total = row_order_sum(res[rows])
        n_right = m - n_left
        s_right = total - s_left
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = (s_left * s_left) / n_left + (s_right * s_right) / n_right \
                - (total * total) / m
        gain[valid] += g[valid]
        counted |= valid
    gain = np.where(counted, gain, -np.inf).ravel()
    best = int(np.argmax(gain))
    if not np.isfinite(gain[best]) or gain[best] <= 0.0:
        return None
    return divmod(best, max_bins)


def reference_tree(codes, uppers, res, rows, params):
    """Level-wise oblivious growth over every occupied node, routing rows by
    bin code.  Splits are searched on the in-bag residuals rounded to
    integers in [-Q, Q] (train's quantized residuals), and leaf values are
    means of the float residuals.  Where a split leaves a node a side of
    fewer than min_samples_leaf rows, both children take the node's value;
    elsewhere each child takes its own."""
    bins_per_f = np.array([len(u) for u in uppers])
    rate, min_leaf = params.learning_rate, params.min_samples_leaf
    scale = np.abs(res[rows]).max()
    quantized = np.zeros(len(res))
    if scale > 0:
        quantized[rows] = np.rint(res[rows] * Q / scale)
    feature, threshold = [], []
    value = [rate * (row_order_sum(res[rows]) / rows.size)]
    nodes = {0: rows}                   # node index -> rows, of occupied nodes
    while len(feature) < params.max_depth:
        split = reference_level(codes, bins_per_f, quantized,
                                list(nodes.values()), min_leaf)
        if split is None:
            break
        f, code_t = split
        feature.append(f)
        threshold.append(float(uppers[f][code_t]))
        value = [v for v in value for _ in (0, 1)]
        children = {}
        for node, node_rows in nodes.items():
            above = codes[node_rows, f] > code_t
            sides = (node_rows[~above], node_rows[above])
            for bit, side in enumerate(sides):
                if min(s.size for s in sides) >= min_leaf:
                    value[2 * node + bit] = rate * (row_order_sum(res[side]) / side.size)
                if side.size:
                    children[2 * node + bit] = side
        nodes = children
    return Tree(feature=tuple(feature), threshold=tuple(threshold),
                leaf_value=tuple(value))


def reference_route(tree, M):
    """A numpy router: the leaf value each row of the float64 matrix M
    (dense_matrix of Features) routes to."""
    leaf = np.zeros(len(M), dtype=np.intp)
    for f, t in zip(tree.feature, tree.threshold):
        leaf = 2 * leaf + (M[:, f] > t)
    return np.asarray(tree.leaf_value, dtype=np.float64)[leaf]


def reference_predict(model, M):
    """GbdtModel.predict as numpy sums it: pred += the routed leaf values."""
    pred = np.full(len(M), model.base_score, dtype=np.float64)
    for tree in model.trees:
        pred += reference_route(tree, M)
    return pred


def reference_trees(X, y, params):
    """The boosting loop of train() around the reference tree grower."""
    codes, uppers = reference_bins(X, params.n_histogram_bins)
    rng = np.random.Generator(np.random.PCG64(params.seed))
    n = len(X)
    bag_size = max(1, int(round(params.subsample * n)))
    F = np.full(n, float(y.mean()))
    trees = []
    for _ in range(params.n_trees):
        res = y - F
        if params.subsample < 1.0:
            bag = np.sort(rng.permutation(n)[:bag_size])
        else:
            bag = np.arange(n, dtype=np.intp)
        tree = reference_tree(codes, uppers, res, bag, params)
        trees.append(tree)
        F += reference_route(tree, X)
    return trees


def mixed_matrix(seed, n=200):
    """Columns of every binning class, shuffled together: constant, sparse
    {0,1}, two-valued {-2.5, 7} (independent ones, 90% in the upper bin, and
    complements of sparse columns), one {0,1} column with exactly n/2 ones,
    small integers, and continuous columns with n distinct values, more
    than a two-bin budget allows; one integer and two continuous columns
    also come mirrored, so a split of either copy has the gain of one of
    the other in exact arithmetic."""
    rng = np.random.default_rng(seed)
    sparse = (rng.random((n, 40)) < 0.06).astype(float)
    ints = rng.integers(0, 6, (n, 3)).astype(float)
    normal = rng.standard_normal((n, 5))
    blocks = [
        np.full((n, 2), 1.5), np.zeros((n, 1)), sparse,
        np.where(rng.random((n, 4)) < 0.9, 7.0, -2.5),
        np.where(sparse[:, :6] == 1.0, -2.5, 7.0),
        (rng.permutation(n) < n // 2).astype(float)[:, None],
        ints, 5.0 - ints[:, :1], normal, -normal[:, :2],
    ]
    X = np.hstack(blocks)[:, rng.permutation(sum(b.shape[1] for b in blocks))]
    y = (X @ rng.standard_normal(X.shape[1])) + 0.3 * rng.standard_normal(n)
    return X, y


EQUIVALENCE_PARAMS = {
    "full sample": dict(min_samples_leaf=3),
    "subsample": dict(min_samples_leaf=3, subsample=0.6),
    "two bins": dict(min_samples_leaf=3, n_histogram_bins=2),
    "leaf size at the edge": dict(min_samples_leaf=100),    # root of 200 rows
    "sparse columns pruned": dict(min_samples_leaf=15),     # ~12 of 200 set
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_PARAMS))
def test_histogram_trees_match_dense_reference(case, seed):
    X, y = mixed_matrix(seed)
    params = TrainParams(n_trees=8, max_depth=5, learning_rate=0.3, seed=seed,
                         **EQUIVALENCE_PARAMS[case])
    model, _ = train(X, y, params)
    expected = reference_trees(X, y, params)
    assert sum(len(t.feature) for t in model.trees) > 0
    for got, want in zip(model.trees, expected, strict=True):
        for name in ("feature", "threshold", "leaf_value"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tree_does_not_depend_on_row_order(seed):
    """Quantized sums are exact in any order of addition, so a tree grown on
    permuted rows takes the same splits; y on a 1/64 grid keeps its mean,
    and so every residual, independent of row order.  Leaf values are means
    of float residuals, which may differ in the last bits."""
    X, y = mixed_matrix(seed)
    y = np.round(y * 64.0) / 64.0
    perm = np.random.default_rng(seed + 50).permutation(len(y))
    params = TrainParams(n_trees=1, max_depth=6, learning_rate=0.3,
                         min_samples_leaf=3, seed=seed)
    (a,), (b,) = (train(X_, y_, params)[0].trees
                  for X_, y_ in ((X, y), (X[perm], y[perm])))
    assert len(a.feature) > 1
    assert a.feature == b.feature and a.threshold == b.threshold
    assert np.allclose(a.leaf_value, b.leaf_value, rtol=0.0, atol=1e-12)


def reference_best_split(bm, q, nodes, min_leaf):
    """_best_split's choice, node by node: each candidate's gain from the
    rows at or below its cut (for a bit candidate, the rows without the
    bit), routed row by row, added in node order from 0.0 over the nodes
    where both sides keep min_leaf rows; the first largest, or None where
    it is <= 0."""
    above = np.array([_above(bm, c) for c in range(bm.col.size)])
    gain = np.zeros(bm.col.size)
    for rows in nodes:
        total = row_order_sum(q[rows])
        for c in range(bm.col.size):
            below = rows[~above[c, rows]]
            if min(below.size, rows.size - below.size) >= min_leaf:
                gain[c] += _gain(row_order_sum(q[below]), below.size, total, rows.size)
    best = int(np.argmax(gain))
    return best if gain[best] > 0.0 else None


@pytest.mark.parametrize("min_leaf", [1, 5, 20])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_best_split_matches_a_per_node_reference(seed, min_leaf):
    """On a level of nodes of 9 to 110 rows, a cut leaves min_leaf rows on
    both sides in some nodes and not in others, and at min_leaf 20 the two
    smallest nodes take no cut at all.  _best_split, which scores every
    (node, candidate) from the side _histograms gives and masks the cells
    that cannot split, picks what a per-node reference picks."""
    store, _ = packed_matrix(seed)
    bm = _bin_columns(store, 256, min_leaf)
    rng = np.random.default_rng(seed + 200)
    q = rng.integers(-Q, Q + 1, len(store)).astype(np.float64)
    sizes = np.array([9, 14, 40, 110])
    rows = rng.permutation(len(store))[:sizes.sum()]
    slot = np.repeat(np.arange(sizes.size), sizes)
    n, _ = hist = _histograms(bm, rows, q[rows], slot, sizes.size)
    takes = (n >= min_leaf) & (sizes[:, None] - n >= min_leaf)
    assert (takes.any(axis=0) & ~takes.all(axis=0)).any()
    got = _best_split(hist, sizes, np.bincount(slot, weights=q[rows]), min_leaf)
    assert got is not None
    assert got == reference_best_split(bm, q, np.split(rows, np.cumsum(sizes)[:-1]),
                                       min_leaf)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.integers(2, 2**40).flatmap(lambda m: st.tuples(
           st.just(m), st.integers(1, m - 1))).flatmap(lambda mn: st.tuples(
           st.just(mn), st.integers(-mn[1] * Q, mn[1] * Q),
           st.integers(-(mn[0] - mn[1]) * Q, (mn[0] - mn[1]) * Q))))
def test_gain_is_bit_equal_from_either_side(case):
    """A node of m rows and a side of n of them, whose quantized sums are
    exact integers: _gain from the side and from its complement give the
    same bits, so _histograms may keep either side of a candidate."""
    (m, n), s_side, s_rest = case
    total = np.array([float(s_side + s_rest)])
    side = _gain(np.array([float(s_side)]), np.array([n]), total, np.array([m]))
    rest = _gain(np.array([float(s_rest)]), np.array([m - n]), total, np.array([m]))
    assert side.tobytes() == rest.tobytes()


def packed_matrix(seed, n=200, nbits=45):
    """The mixed dense matrix beside a block of 45 sparse bits with an
    all-zero, an all-one, an exact-half and a complementary bit column.
    The exact-half bit carries the largest weight, so even a 100-row leaf
    minimum splits on a bit."""
    rng = np.random.default_rng(seed + 100)
    dense, _ = mixed_matrix(seed, n)
    bits = (rng.random((n, nbits)) < 0.08).astype(np.uint8)
    bits[:, 3] = 0
    bits[:, 17] = 1
    bits[:, 30] = 1 - bits[:, 5]
    bits[:, 44] = rng.permutation(n) < n // 2
    store = features_of(dense, bits)
    y = dense_matrix(store) @ rng.standard_normal(store.shape[1]) \
        + 8.0 * bits[:, 44] + 0.3 * rng.standard_normal(n)
    return store, y


def features_of(dense, bits, index=None):
    """Features of the float64 block dense beside the 0/1 columns of bits,
    held as the CSR of each bit row's set columns; row i takes dense row
    index[i, 0] and bit row index[i, 1], row i of each block when index is
    None."""
    rows, columns = np.nonzero(bits)
    offsets = np.zeros(len(bits) + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=len(bits)), out=offsets[1:])
    if index is None:
        index = np.arange(len(dense)).repeat(2).reshape(-1, 2)
    return Features(memoryview(dense.ravel()), len(dense), dense.shape[1],
                    memoryview(offsets), memoryview(columns.astype(np.uint16)),
                    bits.shape[1], memoryview(np.asarray(index, dtype=np.int32).ravel()))


def test_feature_store_layout():
    store, _ = packed_matrix(0)
    dense, _ = mixed_matrix(0)
    d = dense.shape[1]
    matrix = dense_matrix(store)
    assert len(store) == 200 and store.shape == matrix.shape == (200, d + 45)
    assert store.nbytes == (dense.nbytes + 201 * 4 + 2 * int(matrix[:, d:].sum())
                            + 200 * 2 * 4)
    assert np.array_equal(matrix[:, :d], dense)
    assert matrix[:, d + 3].max() == 0.0 and matrix[:, d + 17].min() == 1.0
    assert np.array_equal(matrix[:, d + 30], 1.0 - matrix[:, d + 5])
    binned = _bin_columns(store, 256, min_leaf=1)
    candidates = set(binned.col.tolist())
    assert {d - 1, d, d + 44} <= candidates and not {d + 3, d + 17} & candidates
    for c, (f, t) in enumerate(zip(binned.col, binned.threshold)):
        assert np.array_equal(_above(binned, c), matrix[:, f] > t)
    one = Features.from_array(dense[:1])
    assert one.shape == (1, d) and np.array_equal(dense_matrix(one), dense[:1])
    for shape in ((d,), (2, 2, 2)):             # a matrix is 2-D
        with pytest.raises(DimensionMismatchError):
            Features.from_array(np.zeros(shape))


# repeats, both signed zeros and extremes, among arbitrary finite floats
bin_values = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -1e308, 1e308)),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(
           st.lists(bin_values, min_size=n, max_size=n), min_size=1, max_size=4)),
       st.integers(2, 12))
def test_bin_uppers_are_numpys_unique_values_and_lower_quantiles(columns, n_bins):
    """At min_leaf 1 every bin upper but the top, the column's largest value,
    leaves a row on each side, so a column's thresholds are its uppers less
    the top one."""
    binned = _bin_columns(Features.from_array(np.array(columns).T.copy()), n_bins,
                          min_leaf=1)
    for f, column in enumerate(map(np.array, columns)):
        expected = np.unique(column)
        if len(expected) > n_bins:
            expected = np.unique(np.quantile(
                column, np.linspace(0.0, 1.0, n_bins), method="lower"))
        thresholds = binned.threshold[binned.col == f]
        assert len(thresholds) == len(expected) - 1
        assert (thresholds == expected[:-1]).all()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(
           st.lists(st.lists(bin_values, min_size=n, max_size=n),
                    min_size=1, max_size=3),
           st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                    max_size=3),
           st.integers(0, 2**32 - 1))),
       st.integers(2, 12))
def test_routing_by_code_matches_routing_by_value(case, n_bins):
    """The grower routes each training row by its bin code or its CSR row;
    every iteration's train loss equals the loss of the same trees routed
    by raw value, on signed zeros, subnormals, extremes and repeats."""
    dense, bits, seed = case
    n = len(dense[0])
    bits = np.array(bits, dtype=np.uint8).reshape(-1, n).T
    store = features_of(np.array(dense).T.copy(), bits)
    y = np.random.default_rng(seed).standard_normal(n)
    model, metrics = train(store, y, TrainParams(
        n_trees=3, max_depth=4, learning_rate=0.5, min_samples_leaf=1,
        n_histogram_bins=n_bins))
    F = np.full(n, model.base_score)
    for tree, loss in zip(model.trees, metrics["train_loss"], strict=True):
        F += reference_route(tree, dense_matrix(store))
        assert float(np.mean((y - F) ** 2)) == loss


@pytest.mark.parametrize("n_bins", [4, 256])
@pytest.mark.parametrize("min_leaf", [1, 12, 15, 100, 101])
@pytest.mark.parametrize("seed", [0, 1])
def test_binning_keeps_exactly_the_cuts_that_leave_min_leaf_rows(seed, min_leaf,
                                                                  n_bins):
    """The candidates are every (column, bin upper) that sends at least
    min_leaf of the 200 rows each way, in (column, threshold) order, with
    the reference's bin uppers ([0.0, 1.0] for a bit column set in some
    rows); a kept dense column's codes put a row at or below a cut exactly
    when its value is, a kept bit column's CSR cells are its set rows, and
    a column with no cut is in neither block."""
    store, _ = packed_matrix(seed)
    matrix = dense_matrix(store)
    n, d = matrix.shape[0], store.n_dense
    bm = _bin_columns(store, n_bins, min_leaf)
    _, uppers = reference_bins(matrix, n_bins)
    expected = [(f, float(t)) for f in range(matrix.shape[1]) for t in uppers[f]
                if min_leaf <= (matrix[:, f] > t).sum() <= n - min_leaf]
    assert list(zip(bm.col.tolist(), bm.threshold.tolist())) == expected
    dense_cols = sorted({f for f, _ in expected if f < d})
    bit_cols = [f for f, _ in expected if f >= d]
    assert bm.codes.shape == (n, len(dense_cols))
    assert len(bm.cell) == len(expected) - len(bit_cols)
    for cell, f, t in zip(bm.cell, bm.col, bm.threshold):
        assert np.array_equal(bm.codes[:, dense_cols.index(f)] <= cell,
                              matrix[:, f] <= t)
    row = np.repeat(np.arange(n), np.diff(bm.indptr))
    assert bm.indices.max(initial=-1) < len(bit_cols)
    for i, f in enumerate(bit_cols):
        assert np.array_equal(row[bm.indices == i], np.flatnonzero(matrix[:, f]))


def with_rare_columns(store, min_leaf, seed):
    """store with four dense columns and four bit columns appended after its
    own: each set (or, for a dense one, off its mode) in fewer than
    min_leaf rows, or constant.  Returns the new Features and the map from
    a feature index of store to its index in the new one."""
    rng = np.random.default_rng(seed)
    n, d = len(store), store.n_dense
    matrix = dense_matrix(store)
    rare = np.zeros((n, 4))
    for j in range(4):
        rows = rng.permutation(n)[:rng.integers(0, min_leaf)]
        rare[rows, j] = rng.standard_normal(rows.size) * 10.0 ** j
    rare[:, 3] += 4.5                     # off 4.5 in fewer than min_leaf rows
    bits = np.zeros((n, 4), dtype=np.uint8)
    bits[rng.permutation(n)[:min_leaf - 1], 0] = 1
    bits[:, 1] = 1
    bits[rng.permutation(n)[:min_leaf - 1], 2] = 1
    bits[:, 3] = 1 - bits[:, 2]           # unset in fewer than min_leaf rows
    wide = features_of(np.hstack([matrix[:, :d], rare]),
                       np.hstack([matrix[:, d:].astype(np.uint8), bits]))
    return wide, lambda f: f if f < d else f + 4


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("params", [
    dict(min_samples_leaf=3), dict(min_samples_leaf=15, subsample=0.6),
    dict(min_samples_leaf=15, n_histogram_bins=4), dict(min_samples_leaf=60),
], ids=["leaf 3", "leaf 15 subsampled", "leaf 15 four bins", "leaf 60"])
def test_columns_that_cannot_split_do_not_change_the_fit(params, seed):
    """A column with fewer than min_samples_leaf rows on one side of every
    cut can never split: adding such columns leaves base_score and every
    tree's splits and leaf values bit-equal."""
    store, y = packed_matrix(seed)
    wide, index = with_rare_columns(store, params["min_samples_leaf"], seed)
    assert _bin_columns(wide, 256, params["min_samples_leaf"]).col.size == \
        _bin_columns(store, 256, params["min_samples_leaf"]).col.size
    params = TrainParams(n_trees=6, max_depth=5, learning_rate=0.3, seed=seed, **params)
    (narrow_model, _), (wide_model, _) = train(store, y, params), train(wide, y, params)
    assert sum(len(t.feature) for t in narrow_model.trees) > 0
    assert wide_model.base_score == narrow_model.base_score
    for got, want in zip(wide_model.trees, narrow_model.trees, strict=True):
        assert got.feature == tuple(map(index, want.feature))
        assert np.array_equal(got.threshold, want.threshold)
        assert np.array_equal(got.leaf_value, want.leaf_value)


@pytest.mark.parametrize("case", ["constant columns", "rare columns",
                                  "leaf too large"])
def test_no_cut_left_grows_depth_zero_trees(case):
    """With no cut that leaves min_samples_leaf rows on each side, split
    search has no candidate and every tree is a single leaf."""
    rng = np.random.default_rng(7)
    y = rng.standard_normal(200)
    if case == "constant columns":
        X, min_leaf = Features.from_array(np.full((200, 3), 2.5)), 1
    elif case == "rare columns":
        X, min_leaf = with_rare_columns(
            Features.from_array(np.full((200, 1), 2.5)), 9, 7)[0], 9
    else:
        X, min_leaf = packed_matrix(0)[0], 101
    assert _bin_columns(X, 256, min_leaf).col.size == 0
    model, _ = train(X, y, TrainParams(n_trees=3, max_depth=4, learning_rate=0.5,
                                       min_samples_leaf=min_leaf))
    assert [(t.feature, len(t.leaf_value)) for t in model.trees] == [((), 1)] * 3


@pytest.mark.parametrize("dense, nbits, bits, error", [
    ([0.0, 2.0], 0, [], DimensionMismatchError),
    ([0.0, 2.0, 1.0, 4.0], 0, [], DimensionMismatchError),
    ([0.0, 2.0, 1.0], 9, [4, 8], FingerprintFormatError),
], ids=["short dense", "long dense", "short bits"])
def test_features_check_their_buffer_lengths(dense, nbits, bits, error):
    """Three rows of one dense column and nbits bits, one set in each bit
    row, need 3 values and 3 set bits; routing a row count the buffers do
    not hold gave as many predictions as the shorter buffer has rows."""
    identity = memoryview(array("i", [0, 0, 1, 1, 2, 2]))
    offsets = memoryview(array("i", [0, 1, 2, 3] if nbits else [0, 0, 0, 0]))
    with pytest.raises(error):
        Features(memoryview(array("d", dense)), 3, 1, offsets,
                 memoryview(array("H", bits)), nbits, identity)
    fits = Features(memoryview(array("d", [0.0, 2.0, 1.0])), 3, 1, offsets,
                    memoryview(array("H", [4, 8, 0][:3 if nbits else 0])), nbits,
                    identity)
    model = GbdtModel(base_score=0.5, params=TrainParams(), feature_count=1 + nbits,
                      trees=(Tree(feature=(0,), threshold=(1.0,),
                                  leaf_value=(0.0, 1.0)),))
    assert len(model.predict(fits)) == 3


@pytest.mark.parametrize("index", [
    [0, 0, 1], [0, 0, 2, 0], [0, 0, 0, 3], [-1, 0], [0, -1],
], ids=["odd length", "dense row 2 of 2", "bit row 3 of 3", "negative dense row",
        "negative bit row"])
def test_features_check_their_index(index):
    """Two dense rows and three bit rows: each index entry must name a row
    of its block; a negative one would wrap around a Python list."""
    offsets, bits = memoryview(array("i", [0, 0, 0, 0])), memoryview(array("H"))
    with pytest.raises(DimensionMismatchError):
        Features(memoryview(array("d", [0.0, 1.0])), 2, 1, offsets, bits, 8,
                 memoryview(array("i", index)))
    Features(memoryview(array("d", [0.0, 1.0])), 2, 1, offsets, bits, 8,
             memoryview(array("i", [1, 2, 0, 0])))


def test_reading_a_store_takes_under_12_bytes_per_set_bit(tmp_path):
    """read_features checks the bit block in place.  A store of 4,000
    ligand rows of 36 set bits each, 2.8 bytes per set bit on disk, is read
    with a tracemalloc peak of 5 to 8 bytes per set bit (the files' bytes
    and a set of row starts); checking Python lists of the offsets and bits
    took 46 to 49 (CPython 3.11)."""
    n, per_row = 4_000, 36
    bits = np.sort((np.arange(n)[:, None] + 57 * np.arange(per_row)) % 2048,
                   axis=1).astype(np.uint16)
    offsets = np.arange(0, n * per_row + 1, per_row, dtype=np.int32)
    index = np.stack([np.arange(n) % 10, np.arange(n)], axis=1).astype(np.int32)
    X = Features(memoryview(np.ones(10 * 78)), 10, 78, memoryview(offsets),
                 memoryview(bits.ravel()), 2048, memoryview(index.ravel()))
    write_features(tmp_path, X, np.zeros(n), [f"p{i}" for i in range(n)], {})
    tracemalloc.start()
    try:
        Y, _ = read_features(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Y.shape == (n, 78 + 2048) and len(Y.indices) == n * per_row
    assert peak / (n * per_row) < 12, f"{peak / (n * per_row):.1f} bytes per set bit"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_PARAMS))
def test_packed_trees_match_dense_trees(case, seed):
    store, y = packed_matrix(seed)
    dense = dense_matrix(store)
    params = TrainParams(n_trees=8, max_depth=5, learning_rate=0.3, seed=seed,
                         **EQUIVALENCE_PARAMS[case])
    packed_model, packed_metrics = train(store, y, params, valid=(store, y))
    dense_model, dense_metrics = train(dense, y, params, valid=(dense, y))
    assert any(f >= store.n_dense
               for t in packed_model.trees for f in t.feature)
    assert packed_metrics == dense_metrics
    for got, want in zip(packed_model.trees, dense_model.trees, strict=True):
        for name in ("feature", "threshold", "leaf_value"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(packed_model.predict(store), dense_model.predict(dense))


def test_training_is_deterministic():
    X, y = regression_problem()
    Xq, _ = regression_problem(n=50, seed=9)
    params = TrainParams(n_trees=20, max_depth=4, learning_rate=0.1,
                         min_samples_leaf=5, subsample=0.7, seed=123)
    a, _ = train(X, y, params)
    b, _ = train(X, y, params)
    assert np.array_equal(a.predict(Xq), b.predict(Xq))


def test_subsample_seed_changes_the_model():
    X, y = regression_problem()
    base = dict(n_trees=10, max_depth=3, learning_rate=0.1,
                min_samples_leaf=5, subsample=0.5)
    a, _ = train(X, y, TrainParams(seed=1, **base))
    b, _ = train(X, y, TrainParams(seed=2, **base))
    assert not np.array_equal(a.predict(X), b.predict(X))


def test_validation_tracking_and_early_stopping():
    rng = np.random.default_rng(5)
    X = rng.random((60, 4))
    y = rng.standard_normal(60)          # pure noise invites overfitting
    Xv = rng.random((60, 4))
    yv = rng.standard_normal(60)
    params = TrainParams(n_trees=400, max_depth=6, learning_rate=0.5,
                         min_samples_leaf=1, early_stopping_rounds=5)
    model, metrics = train(X, y, params, valid=(Xv, yv))
    assert metrics["stopped_early"]
    best = metrics["best_iteration"]
    maes = metrics["valid_mae"]
    assert len(model.trees) == best + 1
    assert maes[best] == min(maes)
    assert len(maes) < 400
    # rebuilding with exactly best+1 trees reproduces the truncated model
    retrain, _ = train(X, y, TrainParams(n_trees=best + 1, max_depth=6,
                                         learning_rate=0.5, min_samples_leaf=1))
    assert np.array_equal(model.predict(Xv), retrain.predict(Xv))


def test_validation_without_early_stopping_keeps_all_trees():
    X, y = regression_problem(n=120)
    Xv, yv = regression_problem(n=40, seed=1)
    model, metrics = train(X, y, TrainParams(n_trees=15, max_depth=3,
                                             learning_rate=0.1,
                                             min_samples_leaf=5),
                           valid=(Xv, yv))
    assert len(model.trees) == 15
    assert len(metrics["valid_mae"]) == 15
    assert metrics["best_iteration"] is not None
    assert not metrics["stopped_early"]


def test_constant_target_short_circuits():
    X = np.random.default_rng(0).random((30, 3))
    y = np.full(30, 4.25)
    model, metrics = train(X, y)
    assert metrics["degenerate"] and model.degenerate
    assert model.trees == ()
    assert np.array_equal(model.predict(X), np.full(30, 4.25))


def test_predict_input_handling():
    X, y = regression_problem(n=50)
    model, _ = train(X, y, TrainParams(n_trees=3, max_depth=2,
                                       learning_rate=0.5, min_samples_leaf=2))
    single = model.predict(X[0][None])
    assert len(single) == 1
    assert single[0] == model.predict(X[:2])[0]
    with pytest.raises(DimensionMismatchError):     # one row is 2-D too
        model.predict(X[0])
    as_list = model.predict(X[:4].tolist())
    assert np.array_equal(as_list, model.predict(X[:4]))
    with pytest.raises(DimensionMismatchError):
        model.predict(X[:, :3])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_predict_refuses_non_finite_rows(value):
    """NaN is never above a threshold, so it would route down the 0 side of
    every level; predict refuses it, and inf, with train's error."""
    X, y = regression_problem(n=50)
    model, _ = train(X, y, TrainParams(n_trees=3, max_depth=2,
                                       learning_rate=0.5, min_samples_leaf=2))
    bad = X[:4].copy()
    bad[2, 0] = value
    with pytest.raises(GbdtError, match="feature matrix contains non-finite"):
        model.predict(bad)
    with pytest.raises(GbdtError, match="feature matrix contains non-finite"):
        model.predict(bad[2:3])


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_PARAMS))
def test_trees_on_repeated_rows_match_dense_trees(case):
    """A store whose 200 rows repeat 9 dense rows and 23 bit rows grows the
    trees of its decoded matrix: a bit column's set rows are counted per
    matrix row, and each row's bits gathered from its bit row.  Bit 44,
    set in bit rows 0 to 10 and so in exactly 100 matrix rows, carries the
    largest weight, so even a 100-row leaf minimum splits on a bit."""
    rng = np.random.default_rng(11)
    dense, _ = mixed_matrix(11, n=9)
    bits = rng.random((23, 45)) < 0.3
    bits[:, 44] = np.arange(23) < 11
    index = np.column_stack([rng.integers(0, 9, 200), np.concatenate(
        [rng.integers(0, 11, 100), rng.integers(11, 23, 100)])])
    store = features_of(dense, bits, index)
    matrix = dense_matrix(store)
    y = matrix @ rng.standard_normal(matrix.shape[1]) + 8.0 * matrix[:, -1] \
        + 0.3 * rng.standard_normal(200)
    params = TrainParams(n_trees=6, max_depth=5, learning_rate=0.3, seed=2,
                         **EQUIVALENCE_PARAMS[case])
    got, want = train(store, y, params)[0], train(matrix, y, params)[0]
    assert any(f >= store.n_dense for t in got.trees for f in t.feature)
    for a, b in zip(got.trees, want.trees, strict=True):
        for name in ("feature", "threshold", "leaf_value"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


# --- the router against the numpy reference ----------------------------------


def routing_store(rng, n=120, nbits=13):
    """A store whose dense columns repeat a few values, -0.0 and 0.0 among
    them, beside continuous columns and nbits bit columns."""
    few = rng.choice([-0.0, 0.0, 1.0, -1.5, 2.25], size=(n, 4))
    dense = np.hstack([few, rng.standard_normal((n, 3))])
    return features_of(dense, rng.random((n, nbits)) < 0.4)


def random_tree(rng, M, d, depth):
    """A tree of depth levels on random columns of the matrix M, whose first
    d columns are dense and the rest bits.  Dense thresholds are values of
    their column, +-0.0 or random; bit thresholds lie below, at, between
    and above 0 and 1."""
    feature, threshold = [], []
    for _ in range(depth):
        f = int(rng.integers(M.shape[1]))
        if f < d:
            t = rng.choice([M[rng.integers(len(M)), f], 0.0, -0.0,
                            rng.standard_normal()])
        else:
            t = rng.choice([-0.5, -0.0, 0.0, 0.5, 1.0, 1.5])
        feature.append(f)
        threshold.append(float(t))
    return Tree(feature=tuple(feature), threshold=tuple(threshold),
                leaf_value=tuple(rng.standard_normal(2 ** depth).tolist()))


@pytest.mark.parametrize("seed", range(6))
def test_router_matches_numpy_reference(seed):
    rng = np.random.default_rng(seed)
    X = routing_store(rng, nbits=(13, 16)[seed % 2])
    M, d = dense_matrix(X), X.n_dense
    trees = tuple(random_tree(rng, M, d, int(rng.integers(0, 7)))
                  for _ in range(8))
    model = GbdtModel(base_score=float(rng.standard_normal()), trees=trees,
                      feature_count=X.shape[1], params=TrainParams())
    want = reference_predict(model, M).tobytes()
    for given in (X, M):
        got = model.predict(given)
        assert isinstance(got, array) and got.typecode == "d"
        assert got.tobytes() == want
    dense = M[:, :d]
    dense_model = GbdtModel(base_score=0.25, params=TrainParams(),
                            feature_count=d,
                            trees=tuple(random_tree(rng, dense, d, 3)
                                        for _ in range(4)))
    for i in (0, len(X) - 1):
        assert dense_model.predict(dense[i][None]).tobytes() == \
            reference_predict(dense_model, dense[i:i + 1]).tobytes()


@pytest.mark.parametrize("base", [-0.0, 0.0, 4.25])
def test_degenerate_model_predicts_its_base_bits(base):
    X = routing_store(np.random.default_rng(0))
    model = GbdtModel(base_score=base, trees=(), feature_count=X.shape[1],
                      params=TrainParams(), degenerate=True)
    assert model.predict(X).tobytes() == \
        reference_predict(model, dense_matrix(X)).tobytes() == \
        np.full(len(X), base).tobytes()


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_PARAMS))
def test_training_sums_match_numpy_routing(case):
    """train adds each training row's leaf, in-bag or out-of-bag, from the
    grower, which routes every training row, and routes validation rows
    through the model's router; the losses it reports are those of routing
    every row through the numpy reference."""
    store, y = packed_matrix(3)
    Xv, yv = packed_matrix(4, n=90)
    params = TrainParams(n_trees=6, max_depth=5, learning_rate=0.3, seed=3,
                         **EQUIVALENCE_PARAMS[case])
    model, metrics = train(store, y, params, valid=(Xv, yv))
    F = np.full(len(store), model.base_score)
    Fv = np.full(len(Xv), model.base_score)
    for k, tree in enumerate(model.trees):
        F += reference_route(tree, dense_matrix(store))
        Fv += reference_route(tree, dense_matrix(Xv))
        assert metrics["train_loss"][k] == float(np.mean((y - F) ** 2))
        assert metrics["valid_mae"][k] == float(np.abs(yv - Fv).mean())


# --- the factored router against the per-row router -------------------------


def per_row_leaves(tree, X):
    """The router of the one-row-per-pair store, kept as the reference for
    the factored one: every row is routed level by level, one comparison
    per row and level, over its own dense values and its own set bits
    (the blocks expanded through the index)."""
    index = np.asarray(X.index).reshape(len(X), 2)
    dense = np.frombuffer(X.dense, dtype=np.float64).reshape(
        X.dense_rows, X.n_dense)[index[:, 0]].ravel().tolist()
    rows = csr_rows(X.offsets, X.indices)
    bits = [rows[b] for b in index[:, 1].tolist()]
    leaf = [0] * len(X)
    for f, t in zip(tree.feature, tree.threshold):
        if f < X.n_dense:
            values = dense[f::X.n_dense]
        else:
            values = [int(f - X.n_dense in on) for on in bits]
        leaf = [i + i + (v > t) for i, v in zip(leaf, values)]
    return leaf


def per_row_predict(model, X):
    """GbdtModel.predict over per_row_leaves, summed in the same order."""
    pred = [model.base_score] * len(X)
    for tree in model.trees:
        pred = [p + tree.leaf_value[i] for p, i in zip(pred, per_row_leaves(tree, X))]
    return array("d", pred)


# dense values: repeats, both signed zeros, extremes and arbitrary floats
route_values = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.5, 2.25, 5e-324, -1e308, 1e308)),
    st.floats(allow_nan=False, allow_infinity=False))
# bit thresholds below 0, at and between 0 and 1, and at or above 1
bit_thresholds = st.sampled_from(
    (-1e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1.0 - 2 ** -53, 1.0, 1.5, 1e308))


@st.composite
def factored_store(draw):
    """Features whose index repeats its dense and bit rows, over an nbits
    that may be 0 or not a power of 2."""
    n_dense = draw(st.integers(0, 3))
    nbits = draw(st.sampled_from((0, 1, 5, 8, 13, 16)))
    dense_rows, bit_rows = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    values = draw(st.lists(route_values, min_size=dense_rows * n_dense,
                           max_size=dense_rows * n_dense))
    rows = [sorted(draw(st.sets(st.integers(0, nbits - 1)) if nbits
                        else st.just(set()))) for _ in range(bit_rows)]
    offsets = [0]
    for row in rows:
        offsets.append(offsets[-1] + len(row))
    index = draw(st.lists(st.tuples(st.integers(0, dense_rows - 1),
                                    st.integers(0, bit_rows - 1)), max_size=40))
    return Features(memoryview(array("d", values)), dense_rows, n_dense,
                    memoryview(array("i", offsets)),
                    memoryview(array("H", [j for row in rows for j in row])), nbits,
                    memoryview(array("i", [k for pair in index for k in pair])))


@st.composite
def routed_case(draw):
    """(model, Features): either a factored_store or Features.from_array of
    a dense matrix, with its identity index; and a model of trees from
    depth 0 up, on thresholds of the block's values, +-0.0 or arbitrary
    ones."""
    if draw(st.booleans()):
        X = draw(factored_store())
        values = X.dense.tolist()
    else:
        n, d = draw(st.integers(0, 12)), draw(st.integers(1, 3))
        values = draw(st.lists(route_values, min_size=n * d, max_size=n * d))
        X = Features.from_array(np.array(values, dtype=np.float64).reshape(n, d))
        values = values or [0.0]
    width = X.n_dense + X.nbits
    trees = []
    for _ in range(draw(st.integers(0, 4))):
        feature, threshold = [], []
        for _ in range(draw(st.integers(0, 6)) if width else 0):
            f = draw(st.integers(0, width - 1))
            feature.append(f)
            threshold.append(draw(bit_thresholds) if f >= X.n_dense else draw(
                st.one_of(st.sampled_from(values or [0.0]), route_values)))
        leaves = draw(st.lists(route_values, min_size=2 ** len(feature),
                               max_size=2 ** len(feature)))
        trees.append(Tree(feature=tuple(feature), threshold=tuple(threshold),
                          leaf_value=tuple(leaves)))
    model = GbdtModel(base_score=draw(route_values), trees=tuple(trees),
                      feature_count=width, params=TrainParams())
    return model, X


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(routed_case())
def test_factored_router_matches_per_row_router(case):
    model, X = case
    want = per_row_predict(model, X).tobytes()
    for tree in model.trees:
        assert _leaves(tree, X) == per_row_leaves(tree, X)
    assert model.predict(X).tobytes() == want
    assert model.predict(dense_matrix(X)).tobytes() == want


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(factored_store())
def test_feature_directory_round_trip(X):
    """read_features gives back the blocks and index write_features wrote:
    the same dense bytes, the same set bits of each bit row."""
    y = np.arange(len(X), dtype=np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        write_features(tmp, X, y, [f"pair{i}" for i in range(len(X))], {})
        got, got_y = read_features(tmp)
    assert (got.dense_rows, got.n_dense, got.nbits) == (X.dense_rows, X.n_dense, X.nbits)
    assert bytes(got.dense) == bytes(X.dense)
    assert csr_rows(got.offsets, got.indices) == csr_rows(X.offsets, X.indices)
    assert got.index.tolist() == X.index.tolist()
    assert got_y.tolist() == y.tolist()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(factored_store(), st.data())
def test_take_keeps_the_rows_and_numbers_blocks_by_first_use(X, data):
    """X.take(rows) is the matrix of those rows of X, in that order, with
    only the dense and bit rows they use, numbered by first use."""
    rows = data.draw(st.lists(st.integers(0, len(X) - 1), unique=True)
                     if len(X) else st.just([]))
    got = X.take(rows)
    assert (got.n_dense, got.nbits, len(got)) == (X.n_dense, X.nbits, len(rows))
    assert np.array_equal(dense_matrix(got), dense_matrix(X)[rows])
    for column in (got.index[0::2].tolist(), got.index[1::2].tolist()):
        firsts = list(dict.fromkeys(column))
        assert firsts == list(range(len(firsts)))
    assert (got.dense_rows, got.bit_rows) == (
        len(set(X.index[0::2].tolist()[r] for r in rows)),
        len(set(X.index[1::2].tolist()[r] for r in rows)))


def test_validation_through_the_factored_router():
    """train routes a factored validation set, whose 90 rows repeat 7 dense
    rows and 11 bit rows, through _leaves: its MAEs and best iteration are
    those of the same rows given one per row, and those the per-row router
    gives."""
    store, y = packed_matrix(3)
    rng = np.random.default_rng(8)
    dense, _ = mixed_matrix(8, n=7)
    index = np.column_stack([rng.integers(0, 7, 90), rng.integers(0, 11, 90)])
    Xv = features_of(dense, rng.random((11, 45)) < 0.3, index)
    yv = rng.standard_normal(90)
    params = TrainParams(n_trees=12, max_depth=4, learning_rate=0.3, seed=1,
                         min_samples_leaf=3)
    model, metrics = train(store, y, params, valid=(Xv, yv))
    assert train(store, y, params, valid=(dense_matrix(Xv), yv))[1] == metrics
    Fv = np.full(len(Xv), model.base_score)
    maes = []
    for tree in model.trees:
        Fv += np.asarray(tree.leaf_value)[per_row_leaves(tree, Xv)]
        maes.append(float(np.abs(yv - Fv).mean()))
    assert metrics["valid_mae"] == maes
    assert metrics["best_iteration"] == int(np.argmin(maes))


def test_input_validation():
    X, y = regression_problem(n=20)
    with pytest.raises(DimensionMismatchError):
        train(X, y[:10])
    with pytest.raises(DimensionMismatchError):
        train(y, y)
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(GbdtError):
        train(bad, y)
    bad_y = y.copy()
    bad_y[0] = np.inf
    with pytest.raises(GbdtError):
        train(X, bad_y)
    with pytest.raises(DimensionMismatchError):
        train(X, y, valid=(X[:, :2], y))


_STEP = np.array([[0.0], [1.0], [0.0], [1.0]])


@pytest.mark.parametrize("y, valid, what", [
    ([1e308] * 4, None, "the mean target"),          # a constant target too
    (([1e308] * 4 + [-1e308] * 4) * 2, None, "the mean target"),    # NaN
    ([1.7e308, -1.7e308, 1.7e308, 0.0], None, "a residual"),
    ([1e308, -1e308, 1e308, -1e308], None, "a leaf value"),   # the sum overflows
    ([1e200, -1e200, 1e200, -1e200], None, "the train loss"),
    ([1.0, 2.0, 1.0, 2.0], [1.7e308] * 4, "the validation MAE"),
    ([1.0] * 4, [1.7e308, -1.7e308, 1.7e308, 1.7e308], "the validation MAE"),
], ids=["inf-base", "nan-base", "residual", "leaf", "loss", "valid", "valid-constant"])
def test_fit_leaving_the_float_range_raises(y, valid, what):
    """Finite targets can overflow a fit; train raises GbdtError rather than
    return a model that JSON cannot hold and load_model rejects, and no
    numpy overflow warning escapes (pyproject turns them into errors)."""
    X = np.vstack([_STEP] * (len(y) // 4))
    valid = None if valid is None else (_STEP, np.array(valid))
    with pytest.raises(GbdtError, match=f"float range: {what} is not finite"):
        train(X, np.array(y), TrainParams(n_trees=3, max_depth=2, min_samples_leaf=1),
              valid=valid)


def test_params_validation():
    for kwargs in (dict(n_trees=0), dict(max_depth=0), dict(max_depth=11),
                   dict(learning_rate=0.0),
                   dict(learning_rate=1.5), dict(min_samples_leaf=0),
                   dict(n_histogram_bins=1), dict(subsample=0.0),
                   dict(subsample=1.2), dict(early_stopping_rounds=0)):
        with pytest.raises(ValueError):
            TrainParams(**kwargs)


def test_save_load_round_trip(tmp_path):
    X, y = regression_problem()
    Xq, _ = regression_problem(n=33, seed=4)
    model, _ = train(X, y, TrainParams(n_trees=12, max_depth=4,
                                       learning_rate=0.1, min_samples_leaf=5,
                                       subsample=0.8, seed=7))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(model.predict(Xq), loaded.predict(Xq))
    assert loaded.params == model.params
    again = tmp_path / "model2.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_degenerate_model_round_trip(tmp_path):
    X = np.ones((5, 2))
    model, _ = train(X, np.full(5, 1.5))
    path = tmp_path / "flat.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.degenerate and loaded.trees == ()
    assert loaded.predict(X)[0] == 1.5


def test_load_rejects_bad_files(tmp_path):
    X, y = regression_problem(n=30)
    model, _ = train(X, y, TrainParams(n_trees=2, max_depth=2,
                                       learning_rate=0.5, min_samples_leaf=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    import json
    doc = json.loads(path.read_text())

    # version 1 documents also carried params.splitter, which no longer
    # exists; version 2 documents held pointer trees
    assert doc["version"] == "3" and "splitter" not in doc["params"]
    for old, params in (("99", doc["params"]), ("2", doc["params"]),
                        ("1", {**doc["params"], "splitter": "histogram"})):
        wrong_version = tmp_path / "v.json"
        wrong_version.write_text(json.dumps({**doc, "version": old,
                                             "params": params}))
        with pytest.raises(ModelVersionError, match=repr(old)):
            load_model(wrong_version)

    wrong_format = tmp_path / "f.json"
    wrong_format.write_text(json.dumps({**doc, "format": "other-model"}))
    with pytest.raises(ModelFormatError):
        load_model(wrong_format)

    not_json = tmp_path / "x.json"
    not_json.write_text("{[")
    with pytest.raises(ModelFormatError):
        load_model(not_json)

    incomplete = tmp_path / "i.json"
    incomplete.write_text(json.dumps({"format": doc["format"],
                                      "version": doc["version"]}))
    with pytest.raises(ModelFormatError):
        load_model(incomplete)

    bad_params = tmp_path / "p.json"
    bad_params.write_text(json.dumps(
        {**doc, "params": {**doc["params"], "splitter": "greedy"}}))
    with pytest.raises(ModelFormatError):
        load_model(bad_params)

    for field, value, complaint in (("params", None, "params"),
                                    ("params", [], "params"),
                                    ("trees", {}, "trees"),
                                    ("base_score", "1.5", "JSON number"),
                                    ("base_score", True, "JSON number"),
                                    ("degenerate", "no", "JSON boolean"),
                                    ("degenerate", 0, "JSON boolean"),
                                    ("schema", 5, "JSON string or null")):
        wrong_type = tmp_path / "t.json"
        wrong_type.write_text(json.dumps({**doc, field: value}))
        with pytest.raises(ModelFormatError, match=complaint):
            load_model(wrong_type)


# Edits of a saved tree of depth 3 that routing could not index safely, or
# that would route to a non-finite value, with the complaint each must raise.
BROKEN_TREES = {
    "short threshold array": (lambda t: {"threshold": t["threshold"][:-1]},
                              "3 levels need 3 thresholds and 8 leaf values"),
    "leaf count other than 2**depth": (
        lambda t: {"leaf_value": t["leaf_value"][:-1]},
        "3 levels need 3 thresholds and 8 leaf values"),
    "extra level": (lambda t: {"feature": t["feature"] + [0]},
                    "4 levels need 4 thresholds and 16 leaf values"),
    "depth above the cap": (lambda t: {"feature": [0] * 11, "threshold": [0.5] * 11,
                                       "leaf_value": [0.0] * 2**11},
                            "depth 11 is above 10"),
    "nested arrays": (lambda t: {"feature": [[f] for f in t["feature"]]},
                      "feature must be a JSON integer"),
    "negative feature": (lambda t: {"feature": [-1] + t["feature"][1:]},
                         "feature index"),
    "feature beyond int32": (lambda t: {"feature": [2**40] + t["feature"][1:]},
                             "feature index outside"),
    "NaN leaf value": (lambda t: {"leaf_value": [float("nan")] + t["leaf_value"][1:]},
                       "non-finite"),
    "infinite threshold": (lambda t: {"threshold": [float("inf")] + t["threshold"][1:]},
                           "non-finite"),
    "fractional feature index": (lambda t: {"feature": [v + 0.5 for v in t["feature"]]},
                                 "JSON integer"),
    "boolean feature index": (lambda t: {"feature": [False] + t["feature"][1:]},
                              "JSON integer"),
    "feature list as an object": (lambda t: {"feature": {"0": 1}}, "JSON list"),
    "boolean leaf value": (lambda t: {"leaf_value": [True] + t["leaf_value"][1:]},
                           "JSON number"),
    "string threshold": (lambda t: {"threshold": ["0.5"] + t["threshold"][1:]},
                         "JSON number"),
    "threshold list as a number": (lambda t: {"threshold": 0.5}, "JSON list"),
}


@pytest.mark.parametrize("what", sorted(BROKEN_TREES))
def test_load_rejects_broken_tree_topology(tmp_path, what):
    import json
    X, y = regression_problem(n=60)
    model, _ = train(X, y, TrainParams(n_trees=1, max_depth=3,
                                       learning_rate=0.5, min_samples_leaf=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    tree = doc["trees"][0]
    assert sorted(tree) == ["feature", "leaf_value", "threshold"]
    assert len(tree["feature"]) == 3 and len(tree["leaf_value"]) == 8
    edit, complaint = BROKEN_TREES[what]
    path.write_text(json.dumps({**doc, "trees": [{**tree, **edit(tree)}]}))
    with pytest.raises(ModelFormatError, match=complaint):
        load_model(path)


@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_load_rejects_non_finite_base_score(tmp_path, value):
    import json
    X, y = regression_problem(n=30)
    model, _ = train(X, y, TrainParams(n_trees=1, max_depth=2,
                                       min_samples_leaf=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(json.dumps({**json.loads(path.read_text()),
                                "base_score": value}))
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(path)


def test_load_rejects_leaf_values_whose_sum_overflows(tmp_path):
    import json
    X, y = regression_problem(n=30)
    model, _ = train(X, y, TrainParams(n_trees=2, max_depth=2,
                                       min_samples_leaf=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    big = [{**t, "leaf_value": [1e308] * len(t["leaf_value"])}
           for t in doc["trees"]]
    path.write_text(json.dumps({**doc, "trees": big[:1] + doc["trees"][1:]}))
    assert np.isfinite(load_model(path).predict(X)).all()    # 1e308 + small
    path.write_text(json.dumps({**doc, "trees": big}))        # 2e308 is inf
    with pytest.raises(ModelFormatError, match="sum can overflow"):
        load_model(path)


def test_learnable_signal_is_learned():
    X, y = regression_problem(n=500, noise=0.05)
    Xv, yv = regression_problem(n=200, seed=2, noise=0.05)
    model, _ = train(X, y, TrainParams(n_trees=150, max_depth=4,
                                       learning_rate=0.1, min_samples_leaf=5))
    mae = float(np.abs(model.predict(Xv) - yv).mean())
    baseline = float(np.abs(yv - y.mean()).mean())
    assert mae < 0.5 * baseline
