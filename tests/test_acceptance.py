"""Release acceptance gate.

One test per shipping criterion.  Each test prints a single
"criterion N ...: PASS/FAIL" line (run with -s or -rA to see them all)
and enforces its own runtime budget where one applies.  Expected values
come from independent oracles computed inside this file, never from the
code under test: a breadth-first ball enumerator for fingerprint
environments, closed-form statistics for the synthetic screen, and
direct recombination arithmetic for the metrics.
"""
import contextlib
import csv
import filecmp
import json
import os
import pathlib
import random
import time

import numpy as np
import pytest

from bindkit.cli import main
from bindkit.dataset import RawRecord, ingest, read_raw_tsv, split
from bindkit.dataset import featurize_pairs
from bindkit.fasta import ProteinSequence, format_fasta, parse_fasta
from bindkit.gbdt import TrainParams, train
from bindkit.ligand_features import morgan_environments
from bindkit.metrics import binned_mae, classify_accuracy, mae
from bindkit.protein_features import DESCRIPTOR_LAYOUT, receptor_descriptor
from bindkit.smiles import (
    DuplicateBondError,
    EmptyInputError,
    ParseError,
    UnbalancedParenError,
    UnclosedRingError,
    UnknownSymbolError,
    from_smiles,
    parse_smiles,
)
from testutil import binned_columns, fingerprint_bits, reserialize

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

ERROR_CLASSES = {
    "EmptyInput": EmptyInputError,
    "UnclosedRing": UnclosedRingError,
    "UnbalancedParen": UnbalancedParenError,
    "UnknownSymbol": UnknownSymbolError,
    "DuplicateBond": DuplicateBondError,
}


@contextlib.contextmanager
def gate(number, label, budget=None):
    """Time a criterion body, print one verdict line, enforce the budget."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} overran {budget}s budget"


def _read_tsv(name):
    with open(FIXTURES / name, encoding="utf-8") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


# --- criterion 1: parser corpus -------------------------------------------------


def test_criterion_1_parser_corpus():
    corpus = _read_tsv("corpus.tsv")
    malformed = _read_tsv("malformed.tsv")
    assert len(corpus) >= 50 and len(malformed) >= 10
    with gate(1, "parser corpus", budget=1.0):
        for row in corpus:
            mol = parse_smiles(row["smiles"])
            assert len(mol.atoms) == int(row["atoms"]), row["name"]
            assert len(mol.bonds) == int(row["bonds"]), row["name"]
            assert len(mol.components) == int(row["components"]), row["name"]
            assert mol.stereo_warnings == int(row["stereo"]), row["name"]
        for row in malformed:
            with pytest.raises(ERROR_CLASSES[row["error"]]) as info:
                parse_smiles(row["smiles"])
            assert info.value.offset == int(row["offset"]), row["smiles"]


# --- criterion 2: fingerprint environments --------------------------------------


def _distinct_ball_count(mol, radius):
    """Independent oracle: count distinct closed neighborhoods B(atom, r)
    for r = 0..radius, via plain breadth-first distances.  Every kept
    fingerprint environment corresponds to exactly one such atom set.
    """
    n = len(mol.atoms)
    adjacency = [[] for _ in range(n)]
    for b in mol.bonds:
        adjacency[b.a].append(b.b)
        adjacency[b.b].append(b.a)
    balls = set()
    for start in range(n):
        dist = {start: 0}
        frontier = [start]
        depth = 0
        while frontier and depth < radius:
            depth += 1
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in dist:
                        dist[v] = depth
                        nxt.append(v)
            frontier = nxt
        for r in range(radius + 1):
            balls.add(frozenset(a for a, d in dist.items() if d <= r))
    return len(balls)


def test_criterion_2_fingerprint_oracle():
    corpus = [r for r in _read_tsv("corpus.tsv") if int(r["atoms"]) >= 6]
    corpus = corpus[:20]
    assert len(corpus) == 20
    rng = random.Random(20240819)
    with gate(2, "fingerprint oracle", budget=5.0):
        for row in corpus:
            mol = from_smiles(row["smiles"])
            envs = morgan_environments(mol, radius=2)
            assert len(envs) == _distinct_ball_count(mol, 2), row["name"]
            reference = fingerprint_bits(mol, radius=2, nbits=2048)
            for _ in range(5):
                order = list(range(len(mol.atoms)))
                rng.shuffle(order)
                again = from_smiles(reserialize(mol, order))
                other = fingerprint_bits(again, radius=2, nbits=2048)
                assert other.tobytes() == reference.tobytes(), \
                    row["name"]


# --- criterion 3: receptor descriptors ------------------------------------------

ALPHABET = "ACDEFGHIKLMNPQRSTVWYXBZU"


def _random_sequence(rng, lo=3, hi=80):
    length = rng.randrange(lo, hi + 1)
    return "".join(rng.choice(ALPHABET) for _ in range(length))


def test_criterion_3_descriptor_laws():
    layout = list(DESCRIPTOR_LAYOUT)
    frac_cols = [i for i, c in enumerate(layout) if c.startswith("frac_")]
    sum_cols = [i for i, c in enumerate(layout)
                if c.endswith("_sum") or c == "length"]
    min_cols = [i for i, c in enumerate(layout) if c.endswith("_min")]
    max_cols = [i for i, c in enumerate(layout) if c.endswith("_max")]
    mean_cols = [i for i, c in enumerate(layout)
                 if c.endswith("_mean") or c.startswith("frac_")]
    rng = random.Random(77)
    with gate(3, "descriptor laws"):
        for trial in range(100):
            res_a = _random_sequence(rng)
            res_b = _random_sequence(rng)
            a = receptor_descriptor(ProteinSequence("a", res_a))
            b = receptor_descriptor(ProteinSequence("b", res_b))
            ab = receptor_descriptor(ProteinSequence("ab", res_a + res_b))
            assert abs(a[frac_cols].sum() - 1.0) <= 1e-9
            assert abs(ab[frac_cols].sum() - 1.0) <= 1e-9
            na, nb = len(res_a), len(res_b)
            assert np.allclose(ab[sum_cols], a[sum_cols] + b[sum_cols],
                               atol=1e-9)
            assert np.allclose(ab[min_cols],
                               np.minimum(a[min_cols], b[min_cols]), atol=0)
            assert np.allclose(ab[max_cols],
                               np.maximum(a[max_cols], b[max_cols]), atol=0)
            assert np.allclose(ab[mean_cols],
                               (na * a[mean_cols] + nb * b[mean_cols])
                               / (na + nb), atol=1e-9)
        # line wrapping must not change any descriptor
        records = [ProteinSequence(f"s{i}", _random_sequence(rng))
                   for i in range(5)]
        baseline = [receptor_descriptor(r).tobytes() for r in records]
        for width in (1, 7, 60, 9999):
            text = format_fasta(records, width=width)
            reparsed = parse_fasta(text)
            got = [receptor_descriptor(r).tobytes() for r in reparsed]
            assert got == baseline


# --- criterion 4: curation ------------------------------------------------------


def _receptor_pool(count):
    base = "ACDEFGHIKLMNPQRSTVWY"
    return [(base[i:] + base[:i])[:12] for i in range(count)]


def test_criterion_4_curation():
    with gate(4, "curation"):
        # exact unit conversion: 10 micromolar is 10000 nM, log10 gives 4.0
        one = ingest([RawRecord("ACDEFGHIKL", "Cc1ccccc1", 10000.0)])
        assert one.records[0].log_ki == 4.0

        # merging duplicates is idempotent
        dup_rows = [
            RawRecord("ACDEFGHIKL", "OCC", 120.0),
            RawRecord("ACDEFGHIKL", "CCO", 180.0),
            RawRecord("acdefghikl", "OCC", 95.0),
            RawRecord("ACDEFGHIKL", "CC(=O)O", 50.0),
            RawRecord("MKTWQENLGS", "CCO", 50.0),
        ]
        first = ingest(dup_rows)
        assert first.provenance["duplicates_merged"] == 2
        rebuilt = [RawRecord(r.receptor.residues, r.ligand.source,
                             10.0 ** r.log_ki) for r in first.records]
        second = ingest(rebuilt)
        assert second.provenance["duplicates_merged"] == 0
        assert [r.pair_key for r in second.records] == \
            [r.pair_key for r in first.records]
        for before, after in zip(first.records, second.records):
            assert abs(after.log_ki - before.log_ki) <= 1e-12

        # 80:10:10 of n=1000 comes out exactly 800/100/100, stable per seed
        receptors = _receptor_pool(20)
        rows = [RawRecord(receptors[i], "C" * (j + 1), float(10 + i + j))
                for i in range(20) for j in range(50)]
        dataset = ingest(rows)
        assert len(dataset.records) == 1000
        split_a = split(dataset, seed=2024)
        sizes = split_a.provenance["split_sizes"]
        assert sizes == {"train": 800, "valid": 100, "test": 100}
        labels_a = [r.split for r in split_a.records]
        assert labels_a.count("train") == 800
        assert labels_a.count("valid") == 100
        assert labels_a.count("test") == 100
        labels_b = [r.split for r in split(dataset, seed=2024).records]
        assert labels_a == labels_b


# --- criterion 5: regression model ----------------------------------------------


def _synthetic_screen(seed=2024, n=5000):
    """Linear signal over 24 binary and 6 continuous features plus
    N(0, 0.3) noise.  The irreducible MAE of a perfect regressor is
    0.3 * sqrt(2/pi), about 0.2394.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = (rng.random((n, 24)) < 0.5).astype(np.float64)
    cont = rng.random((n, 6))
    w_bits = np.linspace(-0.6, 0.6, 24)
    w_cont = np.array([1.0, -0.8, 0.6, -0.4, 0.2, 0.1])
    y = bits @ w_bits + cont @ w_cont + rng.normal(0.0, 0.3, size=n)
    X = np.hstack([bits, cont])
    return X[:4000], y[:4000], X[4000:], y[4000:]


def test_criterion_5_regression_model():
    with gate(5, "regression model", budget=120.0):
        # constant target collapses to the base score exactly
        Xc = np.arange(12.0).reshape(6, 2)
        model_const, metrics_const = train(Xc, np.full(6, 3.25))
        assert metrics_const["degenerate"]
        assert np.array_equal(model_const.predict(Xc), np.full(6, 3.25))

        # a one dimensional step fits exactly with a single depth-1 tree
        Xs = np.array([[0.0], [1.0], [2.0], [3.0]])
        ys = np.array([0.0, 0.0, 1.0, 1.0])
        model_step, _ = train(Xs, ys, TrainParams(
            n_trees=1, max_depth=1, learning_rate=1.0, min_samples_leaf=1))
        assert np.array_equal(model_step.predict(Xs), ys)

        # synthetic screen: large margin over the mean predictor
        Xtr, ytr, Xte, yte = _synthetic_screen()
        params = TrainParams(n_trees=500, max_depth=4, learning_rate=0.1,
                             min_samples_leaf=20, seed=7)
        model, history = train(Xtr, ytr, params)
        losses = history["train_loss"]
        assert len(losses) == 500
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        test_mae = mae(yte, model.predict(Xte))
        baseline = mae(yte, np.full(len(yte), ytr.mean()))
        print(f"  screen test MAE {test_mae:.4f}, "
              f"mean-predictor baseline {baseline:.4f}")
        assert test_mae <= 0.36
        assert test_mae <= 0.75 * baseline


# --- criterion 6: metrics -------------------------------------------------------


def test_criterion_6_metrics():
    rng = np.random.Generator(np.random.PCG64(606))
    with gate(6, "metrics"):
        for trial in range(100):
            n = int(rng.integers(1, 400))
            truth = rng.uniform(-4.0, 14.0, size=n)   # spills out of range
            pred = truth + rng.normal(0.0, 1.0, size=n)
            _, counts, maes, out_count, out_mae = binned_columns(
                binned_mae(truth, pred))
            total = 0.0
            count = 0
            for c, m in zip(counts, maes):
                if c:
                    total += c * m
                    count += c
            if out_count:
                total += out_count * out_mae
                count += out_count
            assert count == n
            assert abs(total / count - mae(truth, pred)) <= 1e-12
        truth = [3.0, 5.0, 3.0, 5.0]
        pred = [3.5, 4.5, 4.5, 4.2]
        assert classify_accuracy(truth, pred, threshold=4.0) == 0.75


# --- criterion 7: end to end determinism ----------------------------------------


def _run_pipeline(root, cfg):
    data = str(root / "dataset")
    outputs = [os.path.join(data, "dataset.tsv"),
               os.path.join(data, "provenance.json")]
    raw = str(FIXTURES / "raw_affinities.tsv")
    assert main(["--config", cfg, "--quiet", "ingest",
                 "--in", raw, "--out", data]) == 0
    feats = {}
    for name in ("train", "valid", "test"):
        outdir = str(root / f"feat-{name}")
        assert main(["--config", cfg, "--quiet", "featurize",
                     "--dataset", data, "--subset", name,
                     "--out", outdir]) == 0
        feats[name] = outdir
        outputs += [os.path.join(outdir, f) for f in sorted(os.listdir(outdir))]
    model = str(root / "model.json")
    assert main(["--config", cfg, "--quiet", "train",
                 "--train", feats["train"], "--valid", feats["valid"],
                 "--out", model]) == 0
    outputs += [model, model + ".metrics.json"]
    preds = str(root / "predictions.txt")
    assert main(["--config", cfg, "--quiet", "predict", "--model", model,
                 "--features", feats["test"], "--out", preds]) == 0
    outputs.append(preds)
    report = str(root / "report.json")
    assert main(["--config", cfg, "--quiet", "evaluate", "--pred", preds,
                 "--truth", feats["test"], "--out", report]) == 0
    outputs += [report, str(root / "report.csv")]
    graphs = str(root / "graphs.jsonl")
    assert main(["--config", cfg, "--quiet", "export-graphs",
                 "--dataset", data, "--subset", "test",
                 "--out", graphs]) == 0
    outputs.append(graphs)
    return outputs


def test_criterion_7_end_to_end_determinism(tmp_path):
    cfg = tmp_path / "pipeline.toml"
    cfg.write_text(
        "seed = 11\n"
        "\n"
        "[fingerprint]\n"
        "nbits = 256\n"
        "\n"
        "[gbdt]\n"
        "n_trees = 40\n"
        "max_depth = 3\n"
        "learning_rate = 0.2\n"
        "min_samples_leaf = 2\n"
        "\n"
        "[paths]\n"
        f'fasta = "{FIXTURES / "receptors.fasta"}"\n')
    with gate(7, "end to end determinism"):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_a.mkdir()
        run_b.mkdir()
        files_a = _run_pipeline(run_a, str(cfg))
        files_b = _run_pipeline(run_b, str(cfg))
        # pairs.npy and fingerprint_offsets.npy in each of 3 feature dirs
        assert len(files_a) == len(files_b) == 29
        for fa, fb in zip(files_a, files_b):
            assert filecmp.cmp(fa, fb, shallow=False), \
                f"stage output differs: {os.path.basename(fa)}"


# --- criterion 8: real data (optional) ------------------------------------------


def test_criterion_8_real_data():
    path = os.environ.get("BINDKIT_REAL_DATA")
    if not path:
        print("criterion 8 (real data): SKIP, set BINDKIT_REAL_DATA to a "
              "raw affinity TSV to enable")
        pytest.skip("no real dataset provided (BINDKIT_REAL_DATA unset)")
    with gate(8, "real data"):
        rows, reader_drops, digest = read_raw_tsv(path)
        dataset = ingest(rows, source_digest=digest,
                         initial_drops=reader_drops)
        dataset = split(dataset, seed=2024)
        Xtr, ytr, _, _ = featurize_pairs(dataset, which="train")
        Xte, yte, _, _ = featurize_pairs(dataset, which="test")
        model, _ = train(Xtr, ytr, TrainParams(seed=2024))
        test_mae = mae(yte, model.predict(Xte))
        baseline = mae(yte, np.full(len(yte), ytr.mean()))
        print(f"  real data MAE {test_mae:.4f} vs baseline {baseline:.4f}")
        assert test_mae <= 0.8 * baseline
