"""End-to-end command-line tests over a small mixed-quality affinity table.

The fixture TSV has hand-classified rows: 45 data rows of which the reader
drops 3 (2 structural, 1 unparseable number) and curation drops 11 more,
leaving 31 surviving rows that merge into 28 unique pairs (25 when the
FASTA references cannot resolve).
"""
import ast
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import shutil
import stat
import subprocess
import sys
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bindkit.cli
import bindkit.smiles
from bindkit.cli import _COMMANDS, _block_json, build_parser, main
from bindkit.config import DEFAULT_PROPERTY_TABLE, load_config, property_table_bytes
from bindkit.dataset import featurize_pairs, load_dataset
from bindkit.errors import DataError, EmptyAfterFilteringError, FingerprintFormatError
from bindkit.gbdt import load_model
from bindkit.ligand_features import GraphFeatures, graph_block
from bindkit.model import (STORE_DIR, STORE_VERSION, Features, read_features,
                           write_features)
from bindkit.protein_features import (
    DESCRIPTOR_LAYOUT,
    PROPERTIES,
    RECEPTOR_NODE_FEATURE_NAMES,
    STANDARD_ORDER,
    default_table,
    load_property_table,
    receptor_graph_features,
)
from testutil import csr_rows, dense_matrix

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
RAW = str(FIXTURES / "raw_affinities.tsv")

EXPECTED_DROPS = {
    "bad_row": 2,
    "bad_number": 2,
    "bad_receptor": 1,
    "unknown_receptor_ref": 1,
    "bad_smiles": 3,
    "nonpositive_ki": 2,
    "ki_out_of_bounds": 2,
}


def packed_features(outdir, X):
    """A feature directory of the dense matrix X, with no bit columns, as
    write_features writes it."""
    X = Features.from_array(X)
    write_features(outdir, X, np.zeros(len(X)), [f"p{i}" for i in range(len(X))], {})
    return outdir


def write_config(tmp_path, seed=11):
    path = tmp_path / "pipeline.toml"
    path.write_text(
        f"seed = {seed}\n"
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
    return str(path)


def test_entry_runs_openblas_on_one_thread_unless_the_user_chose(monkeypatch):
    """entry(), the process boundary, sets OPENBLAS_NUM_THREADS=1 and nothing
    else before main() runs, and keeps a value the user set."""
    seen = []

    def record_environment():
        seen.append(dict(os.environ))
        return 0

    monkeypatch.setattr(bindkit.cli, "main", record_environment)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    user = dict(os.environ)
    with pytest.raises(SystemExit) as kept:
        bindkit.cli.entry()
    # delenv after setenv is undone in turn, so the test leaves the
    # variable as it found it
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    unset = dict(os.environ)
    with pytest.raises(SystemExit) as chosen:
        bindkit.cli.entry()
    assert kept.value.code == chosen.value.code == 0
    assert seen == [user, dict(unset, OPENBLAS_NUM_THREADS="1")]


# Operations that numpy hands to BLAS.  cli.entry() runs OpenBLAS on one
# thread because bindkit calls none of them.
_BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg",
               "cov", "corrcoef", "polyfit", "lstsq"}


def test_no_bindkit_code_calls_blas():
    found = []
    for path in sorted(pathlib.Path(bindkit.cli.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names = ["@"]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [*(node.module or "").split("."), *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                names = [part for a in node.names for part in a.name.split(".")]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name == "@" or name in _BLAS_NAMES]
    assert not found, (
        f"BLAS-backed operations in bindkit: {found}.  cli.entry() runs "
        "OpenBLAS on one thread (OPENBLAS_NUM_THREADS=1) because no bindkit "
        "code called BLAS; re-measure these with single-threaded BLAS first.")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole command chain once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(root)
    data = str(root / "dataset")
    feats = {name: str(root / f"feat-{name}") for name in ("train", "valid", "test")}
    model = str(root / "model.json")
    preds = str(root / "predictions.txt")
    report = str(root / "report.json")
    graphs = str(root / "graphs.jsonl")

    assert main(["--config", cfg, "--quiet", "ingest",
                 "--in", RAW, "--out", data]) == 0
    for name, outdir in feats.items():
        assert main(["--config", cfg, "--quiet", "featurize",
                     "--dataset", data, "--subset", name, "--out", outdir]) == 0
    assert main(["--config", cfg, "--quiet", "train", "--train", feats["train"],
                 "--valid", feats["valid"], "--out", model]) == 0
    assert main(["--config", cfg, "--quiet", "predict", "--model", model,
                 "--features", feats["test"], "--out", preds]) == 0
    assert main(["--config", cfg, "--quiet", "evaluate", "--pred", preds,
                 "--truth", feats["test"], "--out", report]) == 0
    assert main(["--config", cfg, "--quiet", "export-graphs", "--dataset", data,
                 "--subset", "test", "--out", graphs]) == 0
    return {"root": root, "cfg": cfg, "data": data, "feats": feats,
            "model": model, "preds": preds, "report": report, "graphs": graphs}


def test_ingest_provenance(pipeline):
    prov = json.loads(
        (pathlib.Path(pipeline["data"]) / "provenance.json").read_text())
    assert prov["drops"] == EXPECTED_DROPS
    assert prov["n_input_rows"] == 42            # 45 minus the reader drops
    assert prov["n_records"] == 28
    assert prov["duplicates_merged"] == 4
    assert prov["stereo_warnings_total"] == 2
    assert prov["seed"] == 11
    assert prov["split_sizes"] == {"train": 22, "valid": 3, "test": 3}
    assert prov["config_digest"] == load_config(pipeline["cfg"]).digest()


def test_ingest_dataset_contents(pipeline):
    lines = (pathlib.Path(pipeline["data"]) / "dataset.tsv").read_text().splitlines()
    assert lines[0].split("\t") == ["pair_key", "split", "receptor_id",
                                    "receptor_fasta", "ligand_smiles", "ki_nm",
                                    "log_ki"]
    assert len(lines) == 29
    by_pair = {}
    for line in lines[1:]:
        cells = line.split("\t")
        by_pair[(cells[3], cells[4])] = cells
    # exact decimal-power affinity survives conversion exactly
    toluene = by_pair[("ACDEFGHIKLMNPQRSTVWY", "Cc1ccccc1")]
    assert toluene[6] == "4.0"
    # triple-reported pair keeps its median
    aspirin = by_pair[("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ",
                       "CC(=O)Oc1ccccc1C(=O)O")]
    assert float(aspirin[5]) == pytest.approx(120.0)
    # FASTA-resolved receptors carry their record ids
    assert by_pair[("MKTWQENLGSHMAAALDEFKR",
                    "CC(=O)Oc1ccccc1C(=O)O")][2] == "recA"


def test_ingest_without_fasta_drops_references(tmp_path):
    out = str(tmp_path / "dataset")
    assert main(["--quiet", "ingest", "--in", RAW, "--out", out]) == 0
    prov = json.loads((pathlib.Path(out) / "provenance.json").read_text())
    assert prov["drops"]["unknown_receptor_ref"] == 4
    assert prov["n_records"] == 25


def test_non_ascii_digit_in_smiles_is_a_bad_smiles_drop(tmp_path):
    # str.isdigit accepts the superscript two, which int() then rejects
    raw = tmp_path / "raw.tsv"
    raw.write_text(pathlib.Path(RAW).read_text(encoding="utf-8")
                   + "ACDEFGHIKLMNPQRSTVWY\tC\u00b2\t10.0\n", encoding="utf-8")
    out = tmp_path / "dataset"
    assert main(["--quiet", "ingest", "--in", str(raw), "--out", str(out)]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["drops"]["bad_smiles"] == EXPECTED_DROPS["bad_smiles"] + 1


def test_featurize_artifacts(pipeline):
    train_dir = pathlib.Path(pipeline["feats"]["train"])
    assert sorted(p.name for p in train_dir.iterdir()) == [
        "descriptors.npy", "featurize.json", "fingerprint_offsets.npy",
        "fingerprints.npy", "ids.txt", "pairs.npy", "y.npy"]
    dense = np.load(train_dir / "descriptors.npy")
    bits = np.load(train_dir / "fingerprints.npy")
    offsets = np.load(train_dir / "fingerprint_offsets.npy")
    index = np.load(train_dir / "pairs.npy")
    # one row per distinct receptor and per distinct ligand of the 22 pairs
    assert dense.shape == (6, 78) and dense.dtype == np.float64
    assert offsets.shape == (13,) and offsets.dtype == np.dtype("<i4")
    assert bits.shape == (offsets[-1],) and bits.dtype == np.dtype("<u2")
    rows = csr_rows(offsets, bits)
    assert index.shape == (22, 2) and index.dtype == np.dtype("<i4")
    assert len(np.unique(dense, axis=0)) == 6 and len(set(rows)) == 12
    assert index.min() == 0 and index[:, 0].max() == 5 and index[:, 1].max() == 11
    X, y = read_features(train_dir)
    assert X.shape == (22, 78 + 256)
    matrix = dense_matrix(X)
    assert np.array_equal(matrix[:, :78], dense[index[:, 0]])
    assert [tuple(np.flatnonzero(row).tolist()) for row in matrix[:, 78:]] == \
        [rows[i] for i in index[:, 1]]
    assert len(y) == 22
    assert np.array_equal(y, np.load(train_dir / "y.npy"))
    ids = (train_dir / "ids.txt").read_text().splitlines()
    assert len(ids) == 22 and all(len(i) == 64 for i in ids)
    sidecar = json.loads((train_dir / "featurize.json").read_text())
    # featurize.json names the dense columns only; nbits implies the others
    assert sidecar["n_rows"] == 22 and sidecar["n_columns"] == 78 + 256
    assert sidecar["nbits"] == 256
    assert sidecar["columns"][0] == "charge_mean"
    assert sidecar["columns"] == list(DESCRIPTOR_LAYOUT)
    assert sidecar["table_version"] == "bindkit-aa-v1"
    assert sidecar["config_digest"] == load_config(pipeline["cfg"]).digest()
    assert read_features(pipeline["feats"]["test"])[0].shape[0] == 3


# --- the dataset's feature store ------------------------------------------------


def files(path):
    """The bytes of each file of a directory, by name."""
    return {p.name: p.read_bytes() for p in pathlib.Path(path).iterdir()}


def featurized(cfg, data, out, capsys, subset="test"):
    """The files featurize writes of subset and its progress line."""
    capsys.readouterr()
    assert main(["--config", str(cfg), "featurize", "--dataset", str(data),
                 "--subset", subset, "--out", str(out)]) == 0
    return files(out), capsys.readouterr().err


def computed(cfg, data, out, subset="test"):
    """The files write_features writes of featurize_pairs of the records of
    subset, as load_dataset reads them from data, with the sidecar featurize
    writes: the bytes featurize selects from the store."""
    config = load_config(str(cfg))
    dataset = load_dataset(data, config.bounds, subset)
    table = (default_table() if config.property_table is None
             else load_property_table(config.property_table))
    X, y, columns, ids = featurize_pairs(dataset, which=subset,
                                         radius=config.radius,
                                         nbits=config.nbits, table=table)
    write_features(out, X, y, ids, {
        "columns": columns, "config_digest": config.digest(),
        "dataset_digest": dataset.provenance["source_digest"],
        "radius": config.radius, "subset": subset,
        "table_version": table.version})
    return files(out)


def child_main(argv, cwd=None):
    """The exit code, whether numpy loaded, and the stderr of main(argv) in
    a child python -S, run in cwd, with bindkit's and numpy's directories
    on its path."""
    paths = [str(pathlib.Path(module.__file__).parent.parent)
             for module in (bindkit.cli, np)]
    code = ("import sys\n"
            f"sys.path[:0] = {paths!r}\n"
            "from bindkit.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, cwd=cwd)
    code, numpy = proc.stdout.split()
    return int(code), numpy == "True", proc.stderr


# The refusal featurize gives when dataset.tsv is not the file ingest wrote
STALE = "dataset.tsv is not the file provenance.json records"


def assert_refused(err, reason):
    """err holds featurize's refusal of a dataset that its feature store
    cannot serve: a data error naming reason and asking for an ingest."""
    assert "data error" in err and reason in err, err
    assert "re-run bindkit ingest with this config" in err, err


def test_ingest_writes_the_feature_store(pipeline):
    """The store is the feature directory of every record in dataset.tsv
    order, stamped with the dataset.tsv digest that provenance.json
    records, the radius and nbits, the property table's digest and the
    store version."""
    data = pathlib.Path(pipeline["data"])
    store = json.loads((data / "features" / "featurize.json").read_text())
    prov = json.loads((data / "provenance.json").read_text())
    shipped = pathlib.Path(DEFAULT_PROPERTY_TABLE).read_bytes()
    assert store["dataset_tsv_sha256"] == prov["dataset_tsv_sha256"]
    assert (store["radius"], store["nbits"], store["subset"]) == (2, 256, "all")
    assert store["table_sha256"] == hashlib.sha256(shipped).hexdigest()
    assert store["store_version"] == STORE_VERSION
    keys = [line.split("\t")[0] for line in
            (data / "dataset.tsv").read_text().splitlines()[1:]]
    assert (data / "features" / "ids.txt").read_text().splitlines() == keys


@pytest.mark.parametrize("subset", ["train", "valid", "test", "all"])
def test_store_and_computed_features_are_the_same_bytes(pipeline, tmp_path,
                                                        capsys, subset):
    """featurize reads its split from the store into the bytes that
    write_features writes of featurize_pairs of the split's records; the
    store's arrays and ids are those of the computed "all" directory."""
    cfg = pipeline["cfg"]
    read, err = featurized(cfg, pipeline["data"], tmp_path / "read", capsys, subset)
    assert "read from the dataset's feature store" in err, err
    assert read == computed(cfg, pipeline["data"], tmp_path / "computed", subset)
    if subset == "all":
        store = files(pathlib.Path(pipeline["data"]) / "features")
        assert {k: v for k, v in store.items() if k != "featurize.json"} == \
            {k: v for k, v in read.items() if k != "featurize.json"}


def _config_with(old, new):
    def edit(data, tmp_path, pipeline):
        text = pathlib.Path(pipeline["cfg"]).read_text()
        assert old in text
        return text.replace(old, new)
    return edit


def _table_with_a_comment(data, tmp_path, pipeline):
    table = tmp_path / "table.csv"
    table.write_text("# the shipped values\n"
                     + pathlib.Path(DEFAULT_PROPERTY_TABLE).read_text())
    return pathlib.Path(pipeline["cfg"]).read_text() + f"property_table = '{table}'\n"


def _edited(edit):
    def damage(data, tmp_path, pipeline):
        edit(data, tmp_path, pipeline)
        return pathlib.Path(pipeline["cfg"]).read_text()
    return damage


def _append_blank_line(data, tmp_path, pipeline):
    with open(data / "dataset.tsv", "a", encoding="utf-8") as fh:
        fh.write("\n")


def _store_of_another_split(data, tmp_path, pipeline):
    other = tmp_path / "other"
    assert main(["--quiet", "--config", pipeline["cfg"], "--seed", "12", "ingest",
                 "--in", RAW, "--out", str(other)]) == 0
    shutil.rmtree(data / "features")
    shutil.copytree(other / "features", data / "features")


def _store_version(data, tmp_path, pipeline):
    path = data / "features" / "featurize.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()),
                                    store_version="0")))


# Why the feature store cannot serve featurize, by how the dataset directory
# or the config differs from the fixture's: the edit (it returns the config
# text), the reason featurize's refusal names, and whether the features of
# a new ingest keep the bytes of the fixture's test directory (a config edit
# changes the config_digest of featurize.json, if nothing else).  featurize
# once computed the features itself in each of these cases.
STORE_MISSES = {
    "no store": (_edited(lambda data, *_: shutil.rmtree(data / "features")),
                 "the dataset has no feature store", True),
    "no provenance.json": (
        _edited(lambda data, *_: os.remove(data / "provenance.json")),
        "the dataset has no provenance.json", True),
    "dataset.tsv edited": (_edited(_append_blank_line), STALE, True),
    "digest edited": (_edited(lambda data, *_: set_tsv_digest(data, "0" * 64)),
                      STALE, True),
    "store of another dataset.tsv": (
        _edited(_store_of_another_split),
        "the feature store was written for another dataset.tsv", True),
    "radius": (_config_with("nbits = 256", "nbits = 256\nradius = 1"),
               "the feature store has radius 2, not 1", False),
    "nbits": (_config_with("nbits = 256", "nbits = 512"),
              "the feature store has nbits 256, not 512", False),
    "property table": (_table_with_a_comment,
                       "the feature store was written with another property table",
                       False),
    "store version": (_edited(_store_version),
                      f"the feature store is version '0', not '{STORE_VERSION}'",
                      True),
}


@pytest.mark.parametrize("reason", sorted(STORE_MISSES))
def test_each_reason_to_compute_gives_the_computed_bytes(pipeline, tmp_path,
                                                         capsys, reason):
    """Each reason featurize once had to compute the features itself is a
    refusal: exit 2, a data error naming the reason and asking for an
    ingest with this config, no --out, and no numpy loaded.  The ingest it
    asks for then makes featurize write the computed bytes."""
    edit, message, unchanged = STORE_MISSES[reason]
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    cfg = tmp_path / "edited.toml"
    cfg.write_text(edit(data, tmp_path, pipeline))
    out = tmp_path / "got"
    code, numpy, err = child_main(["--config", str(cfg), "featurize", "--dataset",
                                   str(data), "--subset", "test", "--out", str(out)])
    assert (code, numpy) == (2, False), err
    assert_refused(err, message)
    assert not out.exists()
    assert main(["--quiet", "--config", str(cfg), "ingest", "--in", RAW,
                 "--out", str(data)]) == 0
    got = featurized(cfg, data, out, capsys)[0]
    assert got == computed(cfg, data, tmp_path / "want")
    assert (got == files(pipeline["feats"]["test"])) is unchanged


def _storeless_with_an_empty_valid(data, tmp_path, pipeline):
    """The dataset of three records, whose 80:10:10 split leaves valid
    empty, with no feature store."""
    raw = tmp_path / "raw.tsv"
    raw.write_text("receptor_fasta\tligand_smiles\tki_nm\n"
                   "ACDEFGHIKL\tCCO\t10\nACDEFGHIKL\tCCN\t20\n"
                   "ACDEFGHIKL\tc1ccccc1\t30\n")
    shutil.rmtree(data)
    assert main(["--quiet", "ingest", "--in", str(raw), "--out", str(data)]) == 0
    shutil.rmtree(data / "features")
    return pathlib.Path(pipeline["cfg"]).read_text()


def _window_below_the_largest_ki(data, tmp_path, pipeline):
    lines = (data / "dataset.tsv").read_text().splitlines()[1:]
    window = max(float(line.split("\t")[5]) for line in lines) / 2
    return (pathlib.Path(pipeline["cfg"]).read_text()
            + f"\n[curation]\nki_max_nm = {window!r}\n")


def _both(first, second):
    """The edit of first and then second; the config text second returns."""
    def edit(data, tmp_path, pipeline):
        first(data, tmp_path, pipeline)
        return second(data, tmp_path, pipeline)
    return edit


# Two faults at once, by the order in which featurize checks them: the edit
# (it returns the config text), the subset, and the reasons featurize gives
# for the first fault, which it names, and for the second, which it must not.
REFUSAL_ORDER = {
    "no store, then an empty subset": (
        _storeless_with_an_empty_valid, "valid",
        "the dataset has no feature store", "subset 'valid' is empty"),
    "malformed provenance.json, then nbits": (
        _both(lambda data, *_: (data / "provenance.json").write_text("[]"),
              _config_with("nbits = 256", "nbits = 512")), "test",
        "provenance.json: expected a JSON object", "nbits"),
    "radius, then an edited dataset.tsv": (
        _both(_append_blank_line,
              _config_with("nbits = 256", "nbits = 256\nradius = 1")), "test",
        "the feature store has radius 2, not 1", STALE),
    "store of another dataset.tsv, then the curation window": (
        _both(_store_of_another_split, _window_below_the_largest_ki), "test",
        "the feature store was written for another dataset.tsv",
        "outside the curation window"),
}


@pytest.mark.parametrize("case", sorted(REFUSAL_ORDER))
def test_featurize_names_the_first_of_two_faults(pipeline, tmp_path, capsys, case):
    """featurize checks a dataset in one order: the store's presence, the
    subset's name, provenance.json, the store's stamp, the dataset.tsv
    digest, the store's dataset.tsv, each line, then the subset's size.  Of
    two faults, it exits 2 naming the first only."""
    edit, subset, first, second = REFUSAL_ORDER[case]
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    cfg = tmp_path / "edited.toml"
    cfg.write_text(edit(data, tmp_path, pipeline))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["--quiet", "--config", str(cfg), "featurize", "--dataset",
                 str(data), "--subset", subset, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and first in err and second not in err, err
    assert not out.exists()


def _stamp_store(**fields):
    def edit(store):
        path = store / "featurize.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **fields)))
    return edit


@pytest.mark.parametrize("damage", [
    shutil.rmtree, _stamp_store(radius=1), _stamp_store(nbits=512),
    _stamp_store(dataset_tsv_sha256="0" * 64),
], ids=["deleted", "radius", "nbits", "another dataset.tsv"])
def test_only_featurize_reads_the_store(pipeline, tmp_path, capsys, damage):
    """export-graphs and load_dataset never open the feature store: with it
    deleted, or stamped for another radius, nbits or dataset.tsv, they
    give the graphs and the records of the fixture's dataset."""
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    damage(data / "features")
    out = tmp_path / "graphs.jsonl"
    assert main(["--quiet", "--config", pipeline["cfg"], "export-graphs",
                 "--dataset", str(data), "--subset", "test", "--out", str(out)]) == 0
    assert out.read_bytes() == pathlib.Path(pipeline["graphs"]).read_bytes()

    def records(path):
        dataset = load_dataset(path, load_config(pipeline["cfg"]).bounds, "test")
        return dataset.provenance, [
            (r.pair_key, r.split, r.receptor, r.ligand.source, r.log_ki)
            for r in dataset.records]
    assert records(data) == records(pipeline["data"])


# Each case runs in a working directory holding copies of the fixture's
# dataset, model, test and valid features and predictions, the raw TSV as
# raw/dataset.tsv, and one config, saved as cfg.toml, cfg.csv and
# conf/provenance.json, whose [paths] name receptors.fasta and table.csv
# there.  The symlinks dataset.tsv, provenance.json, features and
# features-ids.txt point into the dataset.  Hard links share a file with
# one that is read: model-link.json with model.json, cfg-link.toml with
# cfg.toml, ilink/dataset.tsv with the raw TSV and flink/descriptors.npy
# with the store's.  afile is a file, and adir a directory holding the
# directories m.json.metrics.json and r.csv and the file features.
# A case is the argv and the
# middle of the refusal: "is NAME" when --out is NAME, a file read, and
# "writes PATH" when the file at risk is written beside or under --out.
CFG = ["--config", "cfg.toml"]


def _spelled(name):
    """The four spellings of the dataset's file name, by their ids: the
    path itself, with a trailing separator, through dataset/split/.., and
    through the symlink in the working directory."""
    return {"same path": os.path.join("dataset", name),
            "trailing separator": os.path.join("dataset", name, ""),
            "dot-dot": os.path.join("dataset", "split", "..", name),
            "symlink": name.replace(os.sep, "-")}


OVERWRITES = {
    "predict --out is --model": (
        [*CFG, "predict", "--model", "model.json", "--features", "ftest",
         "--out", "model.json"], "is model.json"),
    "predict --out by another path is --model": (
        [*CFG, "predict", "--model", "model.json", "--features", "ftest",
         "--out", os.path.join("ftest", "..", "model.json")], "is model.json"),
    "predict --out is the truth": (
        [*CFG, "predict", "--model", "model.json", "--features", "ftest",
         "--out", os.path.join("ftest", "y.npy")],
        f"is {os.path.join('ftest', 'y.npy')}"),
    "train --out is the sidecar": (
        [*CFG, "train", "--train", "ftest",
         "--out", os.path.join("ftest", "featurize.json")],
        f"is {os.path.join('ftest', 'featurize.json')}"),
    "train --out is a file of --valid": (
        [*CFG, "train", "--train", "ftest", "--valid", "fvalid",
         "--out", os.path.join("fvalid", "ids.txt")],
        f"is {os.path.join('fvalid', 'ids.txt')}"),
    "train .metrics.json is a file of --train": (
        [*CFG, "train", "--train", "ftest", "--out", os.path.join("ftest", "pairs")],
        f"writes {os.path.join('ftest', 'pairs.metrics.json')}"),
    "evaluate --out is --pred": (
        [*CFG, "evaluate", "--pred", "pred.csv", "--truth", "ftest",
         "--out", "pred.csv"], "is pred.csv"),
    "evaluate .csv is --pred": (
        [*CFG, "evaluate", "--pred", "pred.csv", "--truth", "ftest",
         "--out", "pred.json"], "writes pred.csv"),
    "evaluate --out is the truth": (
        [*CFG, "evaluate", "--pred", "pred.csv", "--truth", "ftest",
         "--out", os.path.join("ftest", "y.npy")],
        f"is {os.path.join('ftest', 'y.npy')}"),
    "ingest writes its --in": (
        [*CFG, "ingest", "--in", os.path.join("raw", "dataset.tsv"), "--out", "raw"],
        f"writes {os.path.join('raw', 'dataset.tsv')}"),
    "ingest writes --config": (
        ["--config", os.path.join("conf", "provenance.json"), "ingest",
         "--in", os.path.join("raw", "dataset.tsv"), "--out", "conf"],
        f"writes {os.path.join('conf', 'provenance.json')}"),
    "train --out is --config": (
        [*CFG, "train", "--train", "ftest", "--out", "cfg.toml"], "is cfg.toml"),
    "predict --out is --config": (
        [*CFG, "predict", "--model", "model.json", "--features", "ftest",
         "--out", "cfg.toml"], "is cfg.toml"),
    "evaluate --out is --config": (
        [*CFG, "evaluate", "--pred", "pred.csv", "--truth", "ftest",
         "--out", "cfg.toml"], "is cfg.toml"),
    "evaluate .csv is --config": (
        ["--config", "cfg.csv", "evaluate", "--pred", "pred.csv", "--truth",
         "ftest", "--out", "cfg.json"], "writes cfg.csv"),
    "export-graphs --out is --config": (
        [*CFG, "export-graphs", "--dataset", "dataset", "--subset", "test",
         "--out", "cfg.toml"], "is cfg.toml"),
    "export-graphs --out is the [paths] fasta": (
        [*CFG, "export-graphs", "--dataset", "dataset", "--subset", "test",
         "--out", "receptors.fasta"], "is receptors.fasta"),
    "export-graphs --out is the [paths] property_table": (
        [*CFG, "export-graphs", "--dataset", "dataset", "--subset", "test",
         "--out", "table.csv"], "is table.csv"),
    # featurize used to replace the 28-row store with the 3 rows of its split
    "predict --out is a hard link to --model": (
        [*CFG, "predict", "--model", "model.json", "--features", "ftest",
         "--out", "model-link.json"], "is model.json"),
    "export-graphs --out is a hard link to --config": (
        [*CFG, "export-graphs", "--dataset", "dataset", "--subset", "test",
         "--out", "cfg-link.toml"], "is cfg.toml"),
    "ingest writes a hard link to its --in": (
        [*CFG, "ingest", "--in", os.path.join("raw", "dataset.tsv"), "--out", "ilink"],
        f"writes {os.path.join('ilink', 'dataset.tsv')}"),
    "featurize writes a hard link to the store": (
        [*CFG, "featurize", "--dataset", "dataset", "--subset", "test",
         "--out", "flink"], f"writes {os.path.join('flink', 'descriptors.npy')}"),
    **{f"featurize --out is the store, {how}": (
        [*CFG, "featurize", "--dataset", "dataset", "--subset", "test",
         "--out", out], f"writes {os.path.join(out, 'descriptors.npy')}")
       for how, out in _spelled(STORE_DIR).items()},
    # export-graphs used to write its graphs over dataset.tsv
    **{f"export-graphs --out is {name}, {how}": (
        [*CFG, "export-graphs", "--dataset", "dataset", "--subset", "test",
         "--out", out], f"is {os.path.join('dataset', name)}")
       for name in ("dataset.tsv", "provenance.json", os.path.join(STORE_DIR, "ids.txt"))
       for how, out in _spelled(name).items()},
}


def out_tree(pipeline, tmp_path):
    """The working directory the OVERWRITES and OUT_KINDS cases run in."""
    shutil.copy(pipeline["model"], tmp_path / "model.json")
    shutil.copy(pipeline["preds"], tmp_path / "pred.csv")
    for name in ("test", "valid"):
        shutil.copytree(pipeline["feats"][name], tmp_path / f"f{name}")
    # the train .metrics.json case needs a file of that name to overwrite
    (tmp_path / "ftest" / "pairs.metrics.json").write_text("{}\n")
    shutil.copytree(pipeline["data"], tmp_path / "dataset")
    for name in ("dataset.tsv", "provenance.json", STORE_DIR,
                 os.path.join(STORE_DIR, "ids.txt")):
        (tmp_path / name.replace(os.sep, "-")).symlink_to(tmp_path / "dataset" / name)
    (tmp_path / "raw").mkdir()
    shutil.copy(RAW, tmp_path / "raw" / "dataset.tsv")
    shutil.copy(FIXTURES / "receptors.fasta", tmp_path / "receptors.fasta")
    (tmp_path / "table.csv").write_bytes(property_table_bytes(None))
    config = (pathlib.Path(pipeline["cfg"]).read_text().split("[paths]")[0]
              + '[paths]\nfasta = "receptors.fasta"\nproperty_table = "table.csv"\n')
    (tmp_path / "conf").mkdir()
    for name in ("cfg.toml", "cfg.csv", os.path.join("conf", "provenance.json")):
        (tmp_path / name).write_text(config)
    for link, name in (("model-link.json", "model.json"), ("cfg-link.toml", "cfg.toml"),
                       ("ilink/dataset.tsv", "raw/dataset.tsv"),
                       ("flink/descriptors.npy", f"dataset/{STORE_DIR}/descriptors.npy")):
        (tmp_path / link).parent.mkdir(exist_ok=True)
        os.link(tmp_path / name, tmp_path / link)
    (tmp_path / "afile").write_text("a file\n")
    for name in ("m.json.metrics.json", "r.csv"):
        (tmp_path / "adir" / name).mkdir(parents=True)
    (tmp_path / "adir" / "features").write_text("a file\n")


def assert_refused_in_child(tmp_path, argv, message):
    """main(argv) in a numpy-free child, run in tmp_path, exits 2 with a data
    error holding message, and every file under tmp_path keeps its bytes."""
    before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    code, numpy, err = child_main(["--quiet", *argv], cwd=tmp_path)
    assert (code, numpy) == (2, False), err
    assert "data error" in err, err
    assert message in err, err
    assert {p: p.read_bytes() if p.is_file() else None
            for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("case", sorted(OVERWRITES))
def test_out_naming_an_input_exits_2(pipeline, tmp_path, case):
    """A command whose --out, or a file it writes beside or under --out,
    names, by whatever path or hard link, a file the command reads (an
    input, a file of an input directory or of the dataset's store, the
    --config file or a [paths] file) exits 2 naming both, before anything
    is read or written and without numpy; every file keeps its bytes.
    Each case used to write over the file it names, but for the featurize
    and export-graphs dataset cases, which two other checks refused."""
    argv, victim = OVERWRITES[case]
    out_tree(pipeline, tmp_path)
    out = argv[argv.index("--out") + 1]
    assert_refused_in_child(tmp_path, argv, f"--out {out} {victim}, which "
                                            f"{argv[2]} reads; choose another file")


def _cannot(out, path, why):
    return f"--out {out} cannot write {path}: {why}; choose another path"


# An --out of the wrong kind, and the refusal: a directory where a file is
# written, a file where a directory is, or a .npy name for predict's text
OUT_KINDS = {
    "ingest --out is a file": (
        [*CFG, "ingest", "--in", os.path.join("raw", "dataset.tsv"), "--out", "afile"],
        _cannot("afile", os.path.join("afile", "dataset.tsv"),
                "afile is not a directory")),
    "ingest --out is under a file": (
        [*CFG, "ingest", "--in", os.path.join("raw", "dataset.tsv"),
         "--out", os.path.join("afile", "ds")],
        _cannot(os.path.join("afile", "ds"), os.path.join("afile", "ds", "dataset.tsv"),
                "afile is not a directory")),
    "ingest --out holds a file where the store goes": (
        [*CFG, "ingest", "--in", os.path.join("raw", "dataset.tsv"), "--out", "adir"],
        _cannot("adir", os.path.join("adir", STORE_DIR, "descriptors.npy"),
                f"{os.path.join('adir', STORE_DIR)} is not a directory")),
    "featurize --out is a file": (
        [*CFG, "featurize", "--dataset", "dataset", "--subset", "test",
         "--out", "afile"],
        _cannot("afile", os.path.join("afile", "descriptors.npy"),
                "afile is not a directory")),
    "train --out is a directory": (
        [*CFG, "train", "--train", "ftest", "--out", "adir"],
        _cannot("adir", "adir", "it names a directory")),
    "train .metrics.json is a directory": (
        [*CFG, "train", "--train", "ftest", "--out", os.path.join("adir", "m.json")],
        _cannot(os.path.join("adir", "m.json"),
                os.path.join("adir", "m.json.metrics.json"), "it names a directory")),
    "predict --out is a directory": (
        [*CFG, "predict", "--model", "model.json", "--features", "ftest",
         "--out", "adir"], _cannot("adir", "adir", "it names a directory")),
    "predict --out ends in a separator": (
        [*CFG, "predict", "--model", "model.json", "--features", "ftest",
         "--out", os.path.join("new", "")],
        _cannot(os.path.join("new", ""), os.path.join("new", ""),
                "it names a directory")),
    "predict --out is a .npy file": (
        [*CFG, "predict", "--model", "model.json", "--features", "ftest",
         "--out", "pred.npy"],
        "--out pred.npy names a .npy file, but predict writes text, one "
        "prediction a line; choose another file"),
    "evaluate --out is a directory": (
        [*CFG, "evaluate", "--pred", "pred.csv", "--truth", "ftest", "--out", "adir"],
        _cannot("adir", "adir", "it names a directory")),
    "evaluate .csv is a directory": (
        [*CFG, "evaluate", "--pred", "pred.csv", "--truth", "ftest",
         "--out", os.path.join("adir", "r.json")],
        _cannot(os.path.join("adir", "r.json"), os.path.join("adir", "r.csv"),
                "it names a directory")),
    "export-graphs --out is a directory": (
        [*CFG, "export-graphs", "--dataset", "dataset", "--subset", "test",
         "--out", "adir"], _cannot("adir", "adir", "it names a directory")),
}


@pytest.mark.parametrize("case", sorted(OUT_KINDS))
def test_out_of_the_wrong_kind_exits_2(pipeline, tmp_path, case):
    """A command whose --out names a directory where it writes a file (an
    existing one, or any path ending in a separator), or an existing file
    where it writes a directory, or that writes a file under an existing
    file, exits 2 naming --out before anything is
    read or written and without numpy; so does predict --out naming a .npy
    file, which evaluate would read as one.  Every file keeps its bytes.
    ingest and featurize used to do all their work before failing on the
    store's path, and predict wrote text that evaluate could not read."""
    argv, message = OUT_KINDS[case]
    out_tree(pipeline, tmp_path)
    assert_refused_in_child(tmp_path, argv, message)


def test_export_graphs_may_add_a_file_to_the_store(pipeline, tmp_path):
    """export-graphs --out naming a new file inside the dataset's feature
    store replaces nothing there, so it runs; once written, that file is an
    existing store file, which a second run refuses like any other."""
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    before = files(data / STORE_DIR)
    out = str(data / STORE_DIR / "graphs.jsonl")
    argv = ["--quiet", "--config", pipeline["cfg"], "export-graphs",
            "--dataset", str(data), "--subset", "test", "--out", out]
    assert main(argv) == 0
    graphs = pathlib.Path(out).read_bytes()
    assert graphs == pathlib.Path(pipeline["graphs"]).read_bytes()
    assert files(data / STORE_DIR) == dict(before, **{"graphs.jsonl": graphs})
    code, numpy, err = child_main(argv)
    assert (code, numpy) == (2, False), err
    assert f"--out {out} is {out}, which export-graphs reads" in err, err
    assert files(data / STORE_DIR) == dict(before, **{"graphs.jsonl": graphs})


# A nonexistent input of each command, and the error its reader gives
MISSING_INPUTS = {
    "ingest --in": (
        ["ingest", "--in", "missing"], "[Errno 2] No such file or directory: 'missing'"),
    "featurize --dataset": (
        ["featurize", "--dataset", "missing", "--subset", "test"],
        "missing: the dataset has no feature store; re-run bindkit ingest "
        "with this config to write its feature store"),
    "export-graphs --dataset": (
        ["export-graphs", "--dataset", "missing", "--subset", "test"],
        "missing: the dataset has no provenance.json; re-run bindkit ingest "
        "with this config to write its feature store"),
    "train --train": (
        ["train", "--train", "missing"],
        "[Errno 2] No such file or directory: "
        f"{os.path.join('missing', 'featurize.json')!r}"),
    "predict --model": (
        ["predict", "--model", "missing", "--features", "ftest"],
        "[Errno 2] No such file or directory: 'missing'"),
    "evaluate --pred": (
        ["evaluate", "--pred", "missing", "--truth", "ftest"],
        "[Errno 2] No such file or directory: 'missing'"),
    "evaluate --truth": (
        ["evaluate", "--pred", "pred.csv", "--truth", "missing"],
        "[Errno 2] No such file or directory: 'missing'"),
}


@pytest.mark.parametrize("case", sorted(MISSING_INPUTS))
def test_missing_input_keeps_its_own_refusal(pipeline, tmp_path, capsys,
                                             monkeypatch, case):
    """A nonexistent input exits 2 with the error of the command's own
    reader, as it did before one overwrite check ran in every command:
    that check passes over a file that does not exist."""
    argv, message = MISSING_INPUTS[case]
    shutil.copy(pipeline["preds"], tmp_path / "pred.csv")
    shutil.copytree(pipeline["feats"]["test"], tmp_path / "ftest")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["--quiet", "--config", pipeline["cfg"], *argv, "--out", "out"]) == 2
    assert capsys.readouterr().err == f"bindkit: data error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_paths_resolve_against_the_working_directory(tmp_path, monkeypatch):
    """[paths] fasta and property_table name files relative to the working
    directory, not to the config file's directory: ingest run elsewhere
    reads the working directory's receptors.fasta, whose references resolve
    (28 records, as in the fixture pipeline), and table.csv, which only the
    working directory holds, not the config directory's decoy FASTA."""
    conf, work = tmp_path / "conf", tmp_path / "work"
    conf.mkdir()
    work.mkdir()
    cfg = conf / "cfg.toml"
    cfg.write_text('[paths]\nfasta = "receptors.fasta"\nproperty_table = "table.csv"\n')
    (conf / "receptors.fasta").write_text(">other\nMKT\n")
    shutil.copy(FIXTURES / "receptors.fasta", work / "receptors.fasta")
    (work / "table.csv").write_bytes(property_table_bytes(None))
    monkeypatch.chdir(work)
    assert main(["--quiet", "--config", str(cfg), "ingest", "--in", RAW,
                 "--out", "data"]) == 0
    prov = json.loads((work / "data" / "provenance.json").read_text())
    assert prov["drops"] == EXPECTED_DROPS
    assert prov["n_records"] == 28


def _store_of_the_test_split(store, pipeline):
    """The arrays of the fixture's 3-row test directory under the store's
    featurize.json, its n_rows set to 3: a consistent feature directory of
    another row count than dataset.tsv."""
    meta = json.loads((store / "featurize.json").read_text())
    for name in os.listdir(store):
        os.remove(store / name)
    for name, data in files(pipeline["feats"]["test"]).items():
        (store / name).write_bytes(data)
    (store / "featurize.json").write_text(json.dumps(dict(meta, n_rows=3)))


@pytest.mark.parametrize("name, damage", [
    ("fingerprints.npy", lambda store, _: (store / "fingerprints.npy").write_bytes(
        (store / "fingerprints.npy").read_bytes()[:-2])),
    ("pairs.npy", lambda store, _: os.remove(store / "pairs.npy")),
    ("descriptors.npy", lambda store, _: np.save(
        store / "descriptors.npy", np.load(store / "descriptors.npy").astype("<f4"))),
    ("ids.txt", lambda store, _: (store / "ids.txt").write_text("extra\n")),
    ("featurize.json", lambda store, _: (store / "featurize.json").write_text("{")),
    ("featurize.json", lambda store, _: (store / "featurize.json").write_text("[]")),
    ("featurize.json", _store_of_the_test_split),
], ids=["truncated bits", "no index", "float32 descriptors", "ids count",
        "not JSON", "not an object", "row count"])
def test_damaged_store_exits_2_naming_the_file(pipeline, tmp_path, capsys, name,
                                               damage):
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    damage(data / "features", pipeline)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["--quiet", "--config", pipeline["cfg"], "featurize", "--dataset",
                 str(data), "--subset", "test", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(data / "features" / name) in err, err
    assert not out.exists()


def test_empty_subset_exits_2_with_or_without_a_store(tmp_path, capsys):
    """Three records split 80:10:10 leave valid empty.  featurize and
    export-graphs exit 2 naming the empty subset, both by the one reader's
    EmptyAfterFilteringError and message; featurize refuses the dataset
    without a store first."""
    raw = tmp_path / "raw.tsv"
    raw.write_text("receptor_fasta\tligand_smiles\tki_nm\n"
                   "ACDEFGHIKL\tCCO\t10\nACDEFGHIKL\tCCN\t20\n"
                   "ACDEFGHIKL\tc1ccccc1\t30\n")
    data = tmp_path / "dataset"
    assert main(["--quiet", "ingest", "--in", str(raw), "--out", str(data)]) == 0
    assert json.loads((data / "provenance.json").read_text())["split_sizes"]["valid"] == 0
    bare = tmp_path / "bare"
    shutil.copytree(data, bare)
    shutil.rmtree(bare / "features")
    for dataset in (data, bare):
        for command in ("featurize", "export-graphs"):
            out = tmp_path / "out"
            capsys.readouterr()
            assert main(["--quiet", command, "--dataset", str(dataset),
                         "--subset", "valid", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            if command == "featurize" and dataset == bare:
                assert_refused(err, "the dataset has no feature store")
            else:
                assert "subset 'valid' is empty" in err, err
            assert not out.exists()
    raised = set()
    for command in ("featurize", "export-graphs"):
        args = build_parser().parse_args([command, "--dataset", str(data),
                                          "--subset", "valid", "--out", str(out)])
        with pytest.raises(DataError) as info:
            _COMMANDS[command](args, load_config(None))
        raised.add((type(info.value), str(info.value)))
    assert raised == {(EmptyAfterFilteringError, "subset 'valid' is empty")}


def test_train_artifacts(pipeline):
    model = load_model(pipeline["model"])
    assert model.feature_count == 334
    assert len(model.trees) == 40
    metrics = json.loads((pathlib.Path(pipeline["model"] + ".metrics.json"))
                         .read_text())
    assert len(metrics["train_loss"]) == 40
    assert metrics["train_loss"][-1] <= metrics["train_loss"][0]
    assert len(metrics["valid_mae"]) == 40


def test_train_valid_mae_matches_numpy_routing(pipeline):
    """train --valid routes the factored validation features: the
    valid_mae and best_iteration it writes are those of routing each
    decoded row through a numpy router, tree by tree."""
    model = load_model(pipeline["model"])
    metrics = json.loads(pathlib.Path(pipeline["model"] + ".metrics.json")
                         .read_text())
    Xv, yv = read_features(pipeline["feats"]["valid"])
    M, F = dense_matrix(Xv), np.full(len(Xv), model.base_score)
    maes = []
    for tree in model.trees:
        leaf = np.zeros(len(M), dtype=np.intp)
        for f, t in zip(tree.feature, tree.threshold):
            leaf = 2 * leaf + (M[:, f] > t)
        F += np.asarray(tree.leaf_value)[leaf]
        maes.append(float(np.abs(np.asarray(yv) - F).mean()))
    assert metrics["valid_mae"] == maes
    assert metrics["best_iteration"] == int(np.argmin(maes))


def test_train_log_reports_tree_shape(pipeline, tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    for valid in ([], ["--valid", pipeline["feats"]["valid"]]):
        assert main(["--config", pipeline["cfg"], "train", "--train",
                     pipeline["feats"]["train"], *valid, "--out", model_path]) == 0
        err = capsys.readouterr().err
        model = load_model(model_path)
        levels = sum(len(t.feature) for t in model.trees)
        leaves = sum(2 ** len(t.feature) for t in model.trees)
        assert f"trained 40 trees, {levels} levels, {leaves} leaves" in err
        assert ("best iteration" in err) == bool(valid)
    best = json.loads(pathlib.Path(model_path + ".metrics.json")
                      .read_text())["best_iteration"]
    assert f"best iteration {best} with 40 trees kept" in err
    assert pathlib.Path(model_path).read_bytes() == \
        pathlib.Path(pipeline["model"]).read_bytes()


def test_predict_artifacts(pipeline):
    lines = pathlib.Path(pipeline["preds"]).read_text().splitlines()
    assert len(lines) == 3
    model = load_model(pipeline["model"])
    X, _ = read_features(pipeline["feats"]["test"])
    assert np.array_equal(np.array([float(v) for v in lines]), model.predict(X))
    assert np.array_equal(model.predict(dense_matrix(X)), model.predict(X))


def test_evaluate_artifacts(pipeline):
    report = json.loads(pathlib.Path(pipeline["report"]).read_text())
    assert report["n"] == 3
    assert report["threshold"] == 4.0
    assert len(report["bins"]) == 28
    y = np.load(pathlib.Path(pipeline["feats"]["test"]) / "y.npy")
    preds = [float(v) for v in
             pathlib.Path(pipeline["preds"]).read_text().split()]
    assert report["mae"] == pytest.approx(np.abs(y - preds).mean())
    csv = pathlib.Path(pipeline["report"][:-5] + ".csv")
    assert csv.exists()
    assert csv.read_text().splitlines()[0] == "bin_lo,bin_hi,count,mae"


def test_export_graph_artifacts(pipeline):
    lines = pathlib.Path(pipeline["graphs"]).read_text().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"id", "ligand", "receptor"}
    assert len(rec["ligand"]["node_features"][0]) == 30
    assert len(rec["ligand"]["edge_features"]) == len(rec["ligand"]["edge_list"])
    assert len(rec["receptor"]["node_features"][0]) == 29
    assert rec["receptor"]["edge_features"] == []
    n_res = len(rec["receptor"]["node_features"])
    assert len(rec["receptor"]["edge_list"]) == n_res - 1


def test_block_json_keys_rows_by_their_bytes():
    nodes = np.zeros((3, 29))
    nodes[:, 1] = 1.0
    nodes[0, 0] = -0.0
    features = GraphFeatures(nodes, ((0, 1), (1, 2)), np.zeros((0, 0)),
                             RECEPTOR_NODE_FEATURE_NAMES, ())
    rows = {}
    text = _block_json(features, rows)
    # -0.0 == 0.0, so a cache keyed by value would write row 0 twice
    assert text == json.dumps(graph_block(features), sort_keys=True)
    assert text.count("[-0.0, 1.0, ") == 1 and text.count("[0.0, 1.0, ") == 2
    assert len(rows) == 2


def test_export_graphs_keeps_the_sign_of_zero(pipeline, tmp_path):
    # A and G share every property but the sign of a zero charge.
    rows = dict(default_table().rows)
    rows["A"] = (-0.0,) + tuple(rows["A"][1:])
    rows["G"] = (0.0,) + tuple(rows["A"][1:])
    table = tmp_path / "table.csv"
    table.write_text("\n".join(
        ["code," + ",".join(PROPERTIES)]
        + [aa + "," + ",".join(map(repr, rows[aa])) for aa in STANDARD_ORDER])
        + "\n")
    cfg = tmp_path / "table.toml"
    cfg.write_text(f'[paths]\nproperty_table = "{table}"\n')
    out = tmp_path / "graphs.jsonl"
    assert main(["--config", str(cfg), "--quiet", "export-graphs", "--dataset",
                 pipeline["data"], "--subset", "all", "--out", str(out)]) == 0
    text = out.read_text()
    records = load_dataset(pipeline["data"]).records
    assert len(text.splitlines()) == len(records)
    loaded = load_property_table(table)
    for line, rec in zip(text.splitlines(), records):
        receptor = json.dumps(graph_block(receptor_graph_features(
            rec.receptor, loaded)), sort_keys=True)
        assert line.endswith(f'"receptor": {receptor}}}')
    assert "[-0.0, " in text


def table_lines():
    """The built-in property table as CSV lines, header first."""
    rows = default_table().rows
    return (["code," + ",".join(PROPERTIES)]
            + [aa + "," + ",".join(map(repr, rows[aa])) for aa in STANDARD_ORDER])


@pytest.mark.parametrize("command", ["featurize", "export-graphs"])
@pytest.mark.parametrize("line, text", [
    (1, "code,charge"),
    (4, ",".join(["N", "abc"] + table_lines()[3].split(",")[2:])),
    (6, table_lines()[5] + ",1.0"),
    (3, table_lines()[2].rsplit(",", 1)[0] + ",nan"),
    (22, table_lines()[1]),
], ids=["header", "non-numeric", "extra-cell", "nan", "duplicate-code"])
def test_malformed_property_table_exits_2(pipeline, tmp_path, capsys, command,
                                          line, text):
    lines = table_lines() + [""]
    lines[line - 1] = text
    table = tmp_path / "table.csv"
    table.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "table.toml"      # the fixture's config and this table
    cfg.write_text(pathlib.Path(pipeline["cfg"]).read_text()
                   + f"property_table = '{table}'\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["--config", str(cfg), "--quiet", command, "--dataset",
                 pipeline["data"], "--subset", "all", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if command == "featurize":      # only ingest and export-graphs read it
        assert_refused(err, "the feature store was written with another property table")
    else:
        assert f"{table}: line {line}: " in err, err
    assert not out.exists()


def test_overflowing_property_table_writes_no_features(tmp_path):
    """A table of finite but huge values overflows the receptor descriptors.
    ingest, which featurizes every record for the feature store, exits 2
    naming descriptors.npy and its first non-finite column, creates no
    --out directory, and no numpy RuntimeWarning reaches stderr; featurize
    used to exit 0 and leave train to refuse the directory."""
    lines = table_lines()
    for i, line in enumerate(lines[1:], start=1):
        code, _, rest = line.split(",", 2)
        lines[i] = f"{code},1e308,{rest}"
    table = tmp_path / "table.csv"
    table.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "table.toml"
    cfg.write_text(f"[paths]\nproperty_table = '{table}'\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "bindkit.cli", "--quiet", "--config", str(cfg),
         "ingest", "--in", RAW, "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "descriptors.npy" in proc.stderr and "column 0 (charge_mean)" in proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("table, message", [
    (lambda lines: lines[:3] + [lines[3] + ",1.0"] + lines[4:], "line 4: "),
    (lambda lines: [lines[0]] + [f"{line.split(',', 1)[0]},1e308,"
                                 + line.split(",", 2)[2] for line in lines[1:]],
     "column 0 (charge_mean)"),
], ids=["malformed", "overflowing"])
def test_ingest_refuses_a_table_featurize_refuses(tmp_path, capsys, table,
                                                 message):
    """ingest featurizes every record for the dataset's feature store, so a
    property table that featurize refuses exits 2 before any file is
    written."""
    path = tmp_path / "table.csv"
    path.write_text("\n".join(table(table_lines())) + "\n")
    cfg = tmp_path / "table.toml"
    cfg.write_text(f"[paths]\nproperty_table = '{path}'\n")
    out = tmp_path / "dataset"
    capsys.readouterr()
    assert main(["--quiet", "--config", str(cfg), "ingest", "--in", RAW,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and message in err, err
    assert not out.exists()


def overflowing_table_dataset(tmp_path):
    """A dataset holding a receptor with an X, and a config whose property
    table, with the first property 1e308 for every residue, averages that
    X's row to inf: the (dataset, config) export-graphs cannot write."""
    lines = pathlib.Path(RAW).read_text().splitlines()
    receptor, rest = lines[1].split("\t", 1)
    raw = tmp_path / "raw.tsv"
    raw.write_text("\n".join(lines + [f"MKX{receptor[3:]}\t{rest}"]) + "\n")
    data = tmp_path / "dataset"
    assert main(["--quiet", "ingest", "--in", str(raw), "--out", str(data)]) == 0
    assert any("X" in rec.receptor.residues for rec in load_dataset(data).records)
    table_rows = table_lines()
    for i, line in enumerate(table_rows[1:], start=1):
        code, _, rest = line.split(",", 2)
        table_rows[i] = f"{code},1e308,{rest}"
    table = tmp_path / "table.csv"
    table.write_text("\n".join(table_rows) + "\n")
    cfg = tmp_path / "table.toml"
    cfg.write_text(f"[paths]\nproperty_table = '{table}'\n")
    return data, cfg


def export_graphs_child(data, out, *config):
    """The completed python -m bindkit.cli export-graphs of every record."""
    return subprocess.run(
        [sys.executable, "-m", "bindkit.cli", "--quiet", *config,
         "export-graphs", "--dataset", str(data), "--subset", "all",
         "--out", str(out)], capture_output=True, text=True)


def test_overflowing_property_table_writes_no_graphs(tmp_path):
    """With the first property 1e308 for every residue, the code table's
    averaged row for X overflows to inf, which JSON cannot hold.
    export-graphs exits 2 naming the output file and the receptor, and
    leaves no --out file; it used to write the non-JSON token Infinity."""
    data, cfg = overflowing_table_dataset(tmp_path)
    out = tmp_path / "graphs.jsonl"
    proc = export_graphs_child(data, out, "--config", str(cfg))
    assert proc.returncode == 2, proc.stderr
    assert f"cannot write {out}: the graph of receptor seq-" in proc.stderr, proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr
    assert not out.exists()


def test_failed_export_graphs_rerun_keeps_the_old_output(tmp_path):
    """A re-run of export-graphs that fails midway, here on the overflowing
    property table, exits 2 and leaves the graphs.jsonl of the run before
    with its bytes, and no other new file.  It used to delete it."""
    data, cfg = overflowing_table_dataset(tmp_path)
    out = tmp_path / "graphs.jsonl"
    assert export_graphs_child(data, out).returncode == 0
    names, graphs = sorted(os.listdir(tmp_path)), out.read_bytes()
    proc = export_graphs_child(data, out, "--config", str(cfg))
    assert proc.returncode == 2, proc.stderr
    assert f"cannot write {out}: the graph of receptor seq-" in proc.stderr, proc.stderr
    assert sorted(os.listdir(tmp_path)) == names
    assert out.read_bytes() == graphs


@pytest.mark.parametrize("command", ["ingest", "featurize"])
def test_out_naming_an_existing_file_exits_2(pipeline, tmp_path, capsys,
                                             command):
    """--out naming a regular file, where the command makes a directory, is
    a data error (FileExistsError), not an internal failure."""
    out = tmp_path / "out"
    out.write_text("kept\n")
    args = {"ingest": ["--in", RAW],
            "featurize": ["--dataset", pipeline["data"], "--subset", "test"]}
    assert main(["--quiet", "--config", pipeline["cfg"], command,
                 *args[command], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err, err
    assert out.read_text() == "kept\n"


def test_featurize_runs_through_runpy(pipeline, tmp_path):
    """runpy.run_module, as cProfile -m uses it, runs this module's code in
    a namespace that sys.modules holds under no name; featurize still finds
    the names it imports on first use, and writes what main() writes."""
    out = tmp_path / "feats"
    argv = ["bindkit", "--quiet", "--config", pipeline["cfg"], "featurize",
            "--dataset", pipeline["data"], "--subset", "test", "--out", str(out)]
    code = ("import runpy, sys\n"
            f"sys.argv = {argv!r}\n"
            "runpy.run_module('bindkit.cli', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    want = pathlib.Path(pipeline["feats"]["test"]) / "featurize.json"
    assert (out / "featurize.json").read_bytes() == want.read_bytes()


def counted(monkeypatch, module, name, calls):
    """Wrap module.name, where its callers look it up, in a call counter,
    as the perfbench tracer does."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def test_traced_names_are_called_once_per_distinct_object(pipeline, tmp_path,
                                                          monkeypatch):
    calls = collections.Counter()
    counted(monkeypatch, bindkit.smiles, "parse_smiles", calls)
    records = load_dataset(pipeline["data"]).records
    ligands = {rec.ligand.source for rec in records}
    receptors = {rec.receptor.residues for rec in records}
    assert calls["parse_smiles"] == len(ligands) < len(records)
    for name in ("ligand_graph_features", "receptor_graph_features"):
        counted(monkeypatch, bindkit.cli, name, calls)
    calls.clear()
    assert main(["--config", pipeline["cfg"], "--quiet", "export-graphs",
                 "--dataset", pipeline["data"], "--subset", "all",
                 "--out", str(tmp_path / "g.jsonl")]) == 0
    assert calls == {"parse_smiles": len(ligands),
                     "ligand_graph_features": len(ligands),
                     "receptor_graph_features": len(receptors)}


def test_pipeline_is_deterministic(pipeline, tmp_path):
    cfg = pipeline["cfg"]
    data2 = str(tmp_path / "dataset2")
    feat2 = str(tmp_path / "feat2")
    model2 = str(tmp_path / "model2.json")
    preds2 = str(tmp_path / "preds2.txt")
    assert main(["--config", cfg, "--quiet", "ingest",
                 "--in", RAW, "--out", data2]) == 0
    for name in ("dataset.tsv", "provenance.json"):
        assert (pathlib.Path(data2) / name).read_bytes() == \
            (pathlib.Path(pipeline["data"]) / name).read_bytes()
    assert main(["--config", cfg, "--quiet", "featurize", "--dataset", data2,
                 "--subset", "train", "--out", feat2]) == 0
    written = sorted(p.name for p in pathlib.Path(feat2).iterdir())
    assert len(written) == 7
    for name in written:
        assert (pathlib.Path(feat2) / name).read_bytes() == \
            (pathlib.Path(pipeline["feats"]["train"]) / name).read_bytes()
    assert main(["--config", cfg, "--quiet", "train", "--train", feat2,
                 "--valid", pipeline["feats"]["valid"], "--out", model2]) == 0
    assert pathlib.Path(model2).read_bytes() == \
        pathlib.Path(pipeline["model"]).read_bytes()
    assert main(["--config", cfg, "--quiet", "predict", "--model", model2,
                 "--features", pipeline["feats"]["test"], "--out", preds2]) == 0
    assert pathlib.Path(preds2).read_bytes() == \
        pathlib.Path(pipeline["preds"]).read_bytes()


def test_seed_flag_overrides_config(pipeline, tmp_path):
    out = str(tmp_path / "reseeded")
    assert main(["--config", pipeline["cfg"], "--seed", "99", "--quiet",
                 "ingest", "--in", RAW, "--out", out]) == 0
    prov = json.loads((pathlib.Path(out) / "provenance.json").read_text())
    assert prov["seed"] == 99
    assert prov["config_digest"] == \
        load_config(pipeline["cfg"]).with_seed(99).digest()
    assert prov["config_digest"] != load_config(pipeline["cfg"]).digest()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["ingest", "--output", "x"]) == 1   # unknown flag
    assert main(["ingest"]) == 1           # missing required flags
    assert main(["featurize", "--dataset", "d", "--subset", "bogus",
                 "--out", "o"]) == 1
    capsys.readouterr()


def test_config_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text("[fancy]\nx = 1\n")
    assert main(["--config", str(bad), "ingest", "--in", RAW,
                 "--out", str(tmp_path / "d")]) == 1
    missing = str(tmp_path / "absent.toml")
    assert main(["--config", missing, "ingest", "--in", RAW,
                 "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    removed = tmp_path / "splitter.toml"        # the exact splitter is gone
    removed.write_text('[gbdt]\nsplitter = "histogram"\n')
    assert main(["--config", str(removed), "ingest", "--in", RAW,
                 "--out", str(tmp_path / "d")]) == 1
    assert "unknown key 'splitter'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_data_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["--quiet", "ingest", "--in", str(tmp_path / "absent.tsv"),
                 "--out", out]) == 2

    bad_tsv = tmp_path / "bad.tsv"
    bad_tsv.write_text("wrong\theader\nMKV\tCCO\t10\n")
    assert main(["--quiet", "ingest", "--in", str(bad_tsv), "--out", out]) == 2

    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    assert main(["--quiet", "featurize", "--dataset", str(empty_dir),
                 "--subset", "all", "--out", out]) == 2

    not_model = tmp_path / "nm.json"
    not_model.write_text("{}")
    feats = packed_features(tmp_path / "feats", np.zeros((2, 3)))
    (feats / "y.npy").unlink()
    capsys.readouterr()
    assert main(["--quiet", "predict", "--model", str(not_model),
                 "--features", str(feats), "--out", str(tmp_path / "p")]) == 2
    assert "not a bindkit-gbdt model file" in capsys.readouterr().err

    assert main(["--quiet", "train", "--train", str(feats),
                 "--out", str(tmp_path / "m.json")]) == 2
    assert "no y.npy" in capsys.readouterr().err

    bad_pred = tmp_path / "preds.txt"
    bad_pred.write_text("1.0\ntwo\n")
    truth = tmp_path / "truth.txt"
    truth.write_text("1.0\n2.0\n")
    assert main(["--quiet", "evaluate", "--pred", str(bad_pred),
                 "--truth", str(truth), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err


def _fail(*args, **kwargs):
    raise RuntimeError("planted failure")


@pytest.mark.parametrize("name", ["load_config", "train"])
def test_unexpected_failures_exit_3(tmp_path, capsys, monkeypatch, name):
    """An exception no handler names exits 3 with a traceback, whether it
    is raised while the config loads or inside a command."""
    feats = packed_features(tmp_path / "feats", np.zeros((2, 3)))
    monkeypatch.setattr(bindkit.cli, name, _fail)
    assert main(["--quiet", "train", "--train", str(feats),
                 "--out", str(tmp_path / "m.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "RuntimeError: planted failure" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_bad_log_ki_in_dataset_exits_2(pipeline, tmp_path, capsys, bad):
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    lines = (data / "dataset.tsv").read_text().splitlines()
    cells = lines[4].split("\t")
    cells[-1] = bad
    lines[4] = "\t".join(cells)
    (data / "dataset.tsv").write_text("\n".join(lines) + "\n")
    for command in ("featurize", "export-graphs"):
        out = tmp_path / command
        assert main(["--quiet", "--config", pipeline["cfg"], command,
                     "--dataset", str(data), "--subset", "all",
                     "--out", str(out)]) == 2
        assert_refused(capsys.readouterr().err, STALE)
        assert not out.exists()


@pytest.mark.parametrize("column,bad,message", [
    (4, "C1CC", "unclosed ring bond"),
    (4, "C\u00b2", "unknown symbol"),
    (4, "[C+99999999999999999999]", "charge longer than 9 digits"),
    (3, "MKV1", "illegal residue"),
])
def test_bad_structure_in_dataset_names_its_line(pipeline, tmp_path, capsys,
                                                 column, bad, message):
    """A receptor or ligand cell that ingest would drop (message) is an edit
    of dataset.tsv, which both commands refuse before reading a row."""
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    lines = (data / "dataset.tsv").read_text().splitlines()
    cells = lines[7].split("\t")            # line 8 of the file
    cells[column] = bad
    lines[7] = "\t".join(cells)
    (data / "dataset.tsv").write_text("\n".join(lines) + "\n")
    for command in ("featurize", "export-graphs"):
        out = tmp_path / command
        assert main(["--quiet", "--config", pipeline["cfg"], command,
                     "--dataset", str(data), "--subset", "all",
                     "--out", str(out)]) == 2
        assert_refused(capsys.readouterr().err, STALE)
        assert not out.exists()


def with_cell(lines, row, column, value):
    cells = lines[row].split("\t")
    cells[column] = value
    return lines[:row] + ["\t".join(cells)] + lines[row + 1:]


def swap_smiles(lines, a, b):
    """lines with the SMILES cells of rows a and b exchanged."""
    smiles_a, smiles_b = lines[a].split("\t")[4], lines[b].split("\t")[4]
    assert smiles_a != smiles_b
    return with_cell(with_cell(lines, a, 4, smiles_b), b, 4, smiles_a)


@pytest.mark.parametrize("damage,message,line", [
    (lambda lines: lines + [lines[3]], "duplicate pair_key", 30),
    (lambda lines: with_cell(lines, 3, 5, "123.0"), "does not match", 4),
    (lambda lines: with_cell(lines, 5, 0, "0" * 64),
     "is not the key of its receptor and ligand", 6),
    (lambda lines: swap_smiles(lines, 6, 9),
     "is not the key of its receptor and ligand", 7),
])
def test_inconsistent_dataset_row_exits_2(pipeline, tmp_path, capsys, damage,
                                          message, line):
    """Each damage gives a row that a check of a hand-made dataset.tsv
    would refuse (message, at line); both commands refuse the edited file
    before reading a row."""
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    lines = damage((data / "dataset.tsv").read_text().splitlines())
    (data / "dataset.tsv").write_text("\n".join(lines) + "\n")
    for command in ("featurize", "export-graphs"):
        out = tmp_path / command
        assert main(["--quiet", "--config", pipeline["cfg"], command,
                     "--dataset", str(data), "--subset", "all", "--out", str(out)]) == 2
        assert_refused(capsys.readouterr().err, STALE)
        assert not out.exists()


def set_tsv_digest(data, value):
    """Replace, or with value None delete, the dataset.tsv digest that
    provenance.json records."""
    path = data / "provenance.json"
    prov = json.loads(path.read_text())
    if value is None:
        del prov["dataset_tsv_sha256"]
    else:
        prov["dataset_tsv_sha256"] = value
    path.write_text(json.dumps(prov))


@pytest.mark.parametrize("digest", ["as ingest wrote it", "edited"])
@pytest.mark.parametrize("damage,line", [
    (lambda lines: with_cell(lines, 5, 0, "0" * 64), 6),
    (lambda lines: swap_smiles(lines, 6, 9), 7),
])
def test_damaged_train_rows_fail_a_test_subset_load(pipeline, tmp_path, capsys,
                                                   damage, line, digest):
    """An edit of train rows breaks the dataset.tsv digest, so both
    commands refuse a load of the test subset, whether provenance.json
    keeps the digest ingest wrote or records another."""
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    lines = (data / "dataset.tsv").read_text().splitlines()
    damaged = damage(lines)
    assert {lines[i].split("\t")[1] for i in range(len(lines))
            if damaged[i] != lines[i]} == {"train"}
    (data / "dataset.tsv").write_text("\n".join(damaged) + "\n")
    if digest == "edited":
        set_tsv_digest(data, "0" * 64)
    for command in ("featurize", "export-graphs"):
        out = tmp_path / command
        assert main(["--quiet", "--config", pipeline["cfg"], command,
                     "--dataset", str(data), "--subset", "test", "--out", str(out)]) == 2
        assert_refused(capsys.readouterr().err, STALE)
        assert not out.exists()


def distinct_ligands(data, split_name):
    rows = [line.split("\t") for line in
            (pathlib.Path(data) / "dataset.tsv").read_text().splitlines()[1:]]
    return {cells[4] for cells in rows if split_name in ("all", cells[1])}


@pytest.mark.parametrize("digest", ["as ingest wrote it", "edited", "deleted"])
def test_only_a_trusted_load_skips_the_other_subsets(pipeline, tmp_path,
                                                     monkeypatch, capsys, digest):
    """export-graphs --subset test of the dataset ingest wrote parses each
    distinct test ligand once and no other, and writes the fixture's
    graphs; with the digest edited or deleted it refuses the dataset
    before parsing any ligand."""
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    if digest != "as ingest wrote it":
        set_tsv_digest(data, "0" * 64 if digest == "edited" else None)
    calls = collections.Counter()
    counted(monkeypatch, bindkit.smiles, "parse_smiles", calls)
    out = tmp_path / "graphs.jsonl"
    capsys.readouterr()
    code = main(["--quiet", "--config", pipeline["cfg"], "export-graphs",
                 "--dataset", str(data), "--subset", "test", "--out", str(out)])
    if digest != "as ingest wrote it":
        assert code == 2
        assert_refused(capsys.readouterr().err, STALE)
        assert calls["parse_smiles"] == 0 and not out.exists()
        return
    assert code == 0
    assert calls["parse_smiles"] == len(distinct_ligands(data, "test"))
    assert len(distinct_ligands(data, "test")) < len(distinct_ligands(data, "all"))
    assert out.read_bytes() == pathlib.Path(pipeline["graphs"]).read_bytes()


def _above(ki_max):
    """The first log_ki above log10(ki_max) whose 10.0 ** log_ki, the ki_nm
    the row then holds, is above ki_max."""
    log_ki = math.nextafter(math.log10(ki_max), math.inf)
    while 10.0 ** log_ki <= ki_max:
        log_ki = math.nextafter(log_ki, math.inf)
    return log_ki


@pytest.mark.parametrize("case", ["ki_nm 0.0", "just above ki_max_nm",
                                  "unedited, ki_max_nm below the largest"])
def test_dataset_row_outside_the_curation_window_exits_2(pipeline, tmp_path,
                                                         capsys, case):
    """With the configured window ending at the largest ki_nm in the
    dataset, the unedited dataset passes, and both commands refuse the
    dataset.tsv edited to move one row outside the window.  With the
    window ending below the largest ki_nm, the unedited dataset fails both
    commands, naming the first line outside it."""
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    lines = (data / "dataset.tsv").read_text().splitlines()
    ki_max = max(float(line.split("\t")[5]) for line in lines[1:])
    edited = not case.startswith("unedited")
    window = ki_max if edited else ki_max / 2
    cfg = tmp_path / "window.toml"
    cfg.write_text(pathlib.Path(pipeline["cfg"]).read_text()
                   + f"\n[curation]\nki_max_nm = {window!r}\n")
    argv = ["--quiet", "--config", str(cfg)]
    if edited:
        assert main([*argv, "featurize", "--dataset", str(data), "--subset", "all",
                     "--out", str(tmp_path / "control")]) == 0
        log_ki = -400.0 if case == "ki_nm 0.0" else _above(ki_max)
        lines = with_cell(lines, 4, 5, repr(10.0 ** log_ki))
        (data / "dataset.tsv").write_text(
            "\n".join(with_cell(lines, 4, 6, repr(log_ki))) + "\n")
        line = 5
    else:
        line = next(n for n, text in enumerate(lines[1:], start=2)
                    if float(text.split("\t")[5]) > window)
    for command in ("featurize", "export-graphs"):
        out = tmp_path / command
        assert main([*argv, command, "--dataset", str(data), "--subset", "all",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if edited:
            assert_refused(err, STALE)
        else:
            assert "outside the curation window" in err, err
            assert f"line {line}" in err, err
        assert not out.exists()


@pytest.mark.parametrize("bound", ["ki_min_nm = 0.05", "ki_max_nm = 20000.0"])
def test_ki_at_a_window_bound_loads_although_its_ki_nm_rounds_outside(
        tmp_path, bound):
    """log10 and back takes 0.05 to 0.049999999999999996 and 20000.0 to
    20000.000000000004; ingest keeps a Ki equal to a bound, so featurize and
    export-graphs load the row it writes."""
    ki = bound.split(" = ")[1]
    raw = tmp_path / "raw.tsv"
    raw.write_text(pathlib.Path(RAW).read_text() + f"ACDEFGHIKL\tCCCO\t{ki}\n")
    cfg = tmp_path / "window.toml"
    cfg.write_text(f"[curation]\n{bound}\n")
    argv = ["--quiet", "--config", str(cfg)]
    data = tmp_path / "dataset"
    assert main([*argv, "ingest", "--in", str(raw), "--out", str(data)]) == 0
    stored = repr(10.0 ** math.log10(float(ki)))
    assert stored != ki
    assert f"\t{stored}\t" in (data / "dataset.tsv").read_text()
    for command in ("featurize", "export-graphs"):
        assert main([*argv, command, "--dataset", str(data), "--subset", "all",
                     "--out", str(tmp_path / command)]) == 0


def test_wrong_width_prediction_exits_2(pipeline, tmp_path, capsys):
    feats = packed_features(tmp_path / "narrow", np.zeros((2, 10)))
    assert main(["--quiet", "predict", "--model", pipeline["model"],
                 "--features", str(feats), "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert "expected 334 features, got shape (2, 10)" in err, err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("feats", ["legacy", "legacy/X.npy"])
def test_dense_x_inputs_are_not_feature_directories(pipeline, tmp_path, capsys,
                                                    feats):
    # a directory holding only a dense X.npy and y.npy, the form featurize
    # wrote before the packed store, and a bare dense .npy file
    (tmp_path / "legacy").mkdir()
    np.save(tmp_path / "legacy" / "X.npy", np.zeros((4, 334)))
    np.save(tmp_path / "legacy" / "y.npy", np.arange(4.0))
    for argv in (["predict", "--model", pipeline["model"], "--features",
                  str(tmp_path / feats), "--out", str(tmp_path / "p")],
                 ["train", "--train", str(tmp_path / feats), "--out",
                  str(tmp_path / "m.json")]):
        assert main(["--quiet", "--config", pipeline["cfg"], *argv]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "featurize.json" in err, err
    assert not (tmp_path / "p").exists()
    assert not (tmp_path / "m.json").exists()


def test_evaluate_hand_fixture(tmp_path):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("3.5\n4.5\n4.5\n4.2\n")
    truth.write_text("3.0\n5.0\n3.0\n5.0\n")
    out = tmp_path / "report.json"
    assert main(["--quiet", "evaluate", "--pred", str(pred),
                 "--truth", str(truth), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["accuracy_at_threshold"] == 0.75
    assert report["mae"] == pytest.approx(0.825)


def test_evaluate_of_errors_summing_past_the_float_range_exits_2(tmp_path,
                                                                 capsys):
    """Two finite errors of 1e308 sum past the float range, so the MAE is
    inf, which JSON cannot hold: evaluate exits 2 and writes no report."""
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("1e308\n1e308\n")
    truth.write_text("0\n0\n")
    out = tmp_path / "report.json"
    assert main(["--quiet", "evaluate", "--pred", str(pred),
                 "--truth", str(truth), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "MAE inf" in err, err
    assert not out.exists()
    assert not (tmp_path / "report.csv").exists()


def test_train_on_overflowing_targets_exits_2(pipeline, tmp_path, capsys):
    """Finite targets of +-1e308 have no finite mean: train exits 2 and
    writes neither the model nor its metrics, where it wrote a model of 501
    NaN tokens that predict then rejected."""
    feats = tmp_path / "feats"
    shutil.copytree(pipeline["feats"]["train"], feats)
    y = np.load(feats / "y.npy")
    np.save(feats / "y.npy", np.where(np.arange(len(y)) % 2, -1e308, 1e308))
    model = tmp_path / "model.json"
    assert main(["--quiet", "train", "--train", str(feats), "--out", str(model)]) == 2
    err = capsys.readouterr().err
    assert "data error: training left the float range" in err, err
    assert not model.exists()
    assert not (tmp_path / "model.json.metrics.json").exists()


def test_every_json_artifact_is_strict_json(pipeline):
    """RFC 8259 has no NaN or Infinity: every JSON file the pipeline writes
    parses without them."""
    def reject(constant):
        raise AssertionError(f"non-finite token {constant}")

    paths = sorted(pipeline["root"].rglob("*.json"))
    # three feature directories and the dataset's feature store
    assert sorted(path.name for path in paths) == [
        "featurize.json", "featurize.json", "featurize.json", "featurize.json",
        "model.json", "model.json.metrics.json", "provenance.json", "report.json"]
    for path in paths:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _nan_model(tmp_path, monkeypatch):
    from bindkit.gbdt import GbdtModel, TrainParams, save_model
    save_model(GbdtModel(base_score=math.nan, trees=(), feature_count=1,
                         params=TrainParams()), tmp_path / "model.json")


def _nan_sidecar(tmp_path, monkeypatch):
    write_features(tmp_path, Features.from_array(np.zeros((2, 1))), np.zeros(2),
                   ["a", "b"], {"radius": math.inf})


def _nan_provenance(tmp_path, monkeypatch):
    from bindkit.dataset import Dataset, write_dataset
    write_dataset(Dataset(records=(), provenance={"seed": math.nan}), tmp_path)


def _nan_train_metrics(tmp_path, monkeypatch):
    from bindkit.gbdt import GbdtModel, TrainParams
    model = GbdtModel(base_score=0.0, trees=(), feature_count=2, params=TrainParams())
    monkeypatch.setattr(bindkit.cli, "train", lambda *args, **kwargs: (
        model, {"train_loss": [math.nan], "best_iteration": None}))
    feats = packed_features(tmp_path / "feats", np.arange(8.0).reshape(4, 2))
    args = bindkit.cli.build_parser().parse_args(
        ["train", "--train", str(feats), "--out", str(tmp_path / "model")])
    bindkit.cli.cmd_train(args, load_config(None))


def _nan_report(tmp_path, monkeypatch):
    from bindkit.metrics import build_report, write_report
    report = dict(build_report([1.0, 2.0], [1.5, 2.0]), threshold=math.nan)
    write_report(report, tmp_path / "report.json", tmp_path / "report.csv")


@pytest.mark.parametrize("write, name, error", [
    (_nan_model, "model.json", "ModelFormatError"),
    (_nan_sidecar, "featurize.json", "DatasetError"),
    (_nan_provenance, "provenance.json", "DatasetFormatError"),
    (_nan_train_metrics, "model.metrics.json", "GbdtError"),
    (_nan_report, "report.json", "MetricsError"),
], ids=["model", "features", "dataset", "train-metrics", "report"])
def test_json_writers_refuse_non_finite_values(tmp_path, monkeypatch, write,
                                               name, error):
    """Each JSON artifact is written by _formats._write_json: a NaN or inf
    raises the writer's DataError, naming the file, and leaves no file."""
    with pytest.raises(DataError) as raised:
        write(tmp_path, monkeypatch)
    assert type(raised.value).__name__ == error
    assert f"cannot write {tmp_path / name}:" in str(raised.value)
    assert not (tmp_path / name).exists()


def _object_truth_dir(tmp_path):
    truth = tmp_path / "truth"
    truth.mkdir()
    np.save(truth / "y.npy", np.arange(4.0).astype(object), allow_pickle=True)
    return truth, truth / "y.npy"


def _truncated_npy(tmp_path):
    path = tmp_path / "pred.npy"
    np.save(path, np.arange(4.0))
    path.write_bytes(path.read_bytes()[:-5])
    return path, path


def _text_npy(tmp_path):
    path = tmp_path / "pred.npy"
    np.save(path, np.array(["3.0", "5.0", "3.0", "5.0"]))
    return path, path


@pytest.mark.parametrize("arg,make", [
    ("--truth", _object_truth_dir),
    ("--pred", _truncated_npy),
    ("--pred", _text_npy),
])
def test_evaluate_rejects_unreadable_npy_vectors(tmp_path, capsys, arg, make):
    vector, named = make(tmp_path)
    text = tmp_path / "vector.txt"
    text.write_text("3.5\n4.5\n4.5\n4.2\n")
    paths = {"--pred": str(text), "--truth": str(text), arg: str(vector)}
    assert main(["--quiet", "evaluate", "--pred", paths["--pred"], "--truth",
                 paths["--truth"], "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(named) in err, err
    assert not (tmp_path / "r.json").exists()


def test_console_entry_point_smoke(tmp_path):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("1.0\n2.0\n")
    truth.write_text("1.5\n2.5\n")
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bindkit.cli", "--quiet", "evaluate",
         "--pred", str(pred), "--truth", str(truth), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["mae"] == pytest.approx(0.5)


def test_evaluate_loads_neither_numpy_nor_the_pipeline_modules(pipeline, tmp_path):
    # a feature directory whose y.npy is 2-D is rejected without them too
    rejected = tmp_path / "rejected"
    rejected.mkdir()
    np.save(rejected / "y.npy", np.load(
        pathlib.Path(pipeline["feats"]["test"]) / "y.npy").reshape(-1, 1))
    argv = ["--quiet", "--config", pipeline["cfg"], "evaluate",
            "--pred", pipeline["preds"], "--truth", pipeline["feats"]["test"],
            "--out", str(tmp_path / "report.json")]
    bad = argv[:7] + [str(rejected), "--out", str(tmp_path / "bad.json")]
    code = ("import sys\n"
            "from bindkit.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"assert main({bad!r}) == 2\n"
            "print(sorted(name for name in ('numpy', 'bindkit.gbdt', "
            "'bindkit.dataset', 'bindkit.smiles') if name in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert str(rejected / "y.npy") in proc.stderr
    assert not (tmp_path / "bad.json").exists()
    assert (tmp_path / "report.json").read_bytes() == \
        pathlib.Path(pipeline["report"]).read_bytes()


def test_train_and_predict_load_no_featurization_module(pipeline, tmp_path):
    """train then predict in one process load no featurization module and
    write the chain's bytes; test_command_loads_only_its_modules pins the
    full module list of each command."""
    model, preds = tmp_path / "model.json", tmp_path / "pred.txt"
    train = ["--quiet", "--config", pipeline["cfg"], "train", "--train",
             pipeline["feats"]["train"], "--valid", pipeline["feats"]["valid"],
             "--out", str(model)]
    predict = ["--quiet", "--config", pipeline["cfg"], "predict", "--model",
               str(model), "--features", pipeline["feats"]["test"],
               "--out", str(preds)]
    code = ("import sys\n"
            "from bindkit.cli import main\n"
            f"assert main({train!r}) == 0\n"
            f"assert main({predict!r}) == 0\n"
            "print([name for name in ('dataset', 'fasta', 'ligand_features',\n"
            "                         'protein_features', 'smiles')\n"
            "       if 'bindkit.' + name in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert model.read_bytes() == pathlib.Path(pipeline["model"]).read_bytes()
    assert preds.read_bytes() == pathlib.Path(pipeline["preds"]).read_bytes()


def test_train_loads_neither_numpy_ma_nor_numpy_random(pipeline, tmp_path):
    """Without subsampling, training draws no random numbers, and binning
    takes distinct values without np.unique, which imports numpy.ma."""
    wanted = "print([m for m in ('numpy.ma', 'numpy.random') if m in sys.modules])\n"
    bare = subprocess.run([sys.executable, "-c", "import sys, numpy\n" + wanted],
                          capture_output=True, text=True)
    if bare.stdout != "[]\n":
        pytest.skip(f"import numpy alone loads {bare.stdout.strip()}")
    argv = ["--quiet", "--config", pipeline["cfg"], "train", "--train",
            pipeline["feats"]["train"], "--out", str(tmp_path / "model.json")]
    code = ("import sys\n"
            "from bindkit.cli import main\n"
            f"assert main({argv!r}) == 0\n" + wanted)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_PIPELINE_MODULES = """_formats cli config dataset errors fasta ligand_features
    metrics model protein_features smiles"""

# For each command: whether it loads numpy, and the bindkit modules it loads.
# The numpy-free commands also load neither traceback (nor logging, which
# imports traceback) nor, but for featurize, which digests dataset.tsv and
# the property table, hashlib.  No command loads statistics (with decimal
# and fractions) or importlib.resources (with pathlib, tempfile and
# zipfile).
COMMAND_MODULES = {
    "ingest": (True, _PIPELINE_MODULES),
    "featurize": (False, "_formats cli config errors metrics model"),
    "export-graphs": (True, _PIPELINE_MODULES),
    "train": (True, "_formats cli config errors gbdt metrics model"),
    "predict": (False, "_formats cli config errors metrics model"),
    "evaluate": (False, "_formats cli config errors metrics"),
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_its_modules(pipeline, tmp_path, command):
    feats, out = pipeline["feats"], str(tmp_path / "out")
    args = {
        "ingest": ["--in", RAW],
        "featurize": ["--dataset", pipeline["data"], "--subset", "test"],
        "export-graphs": ["--dataset", pipeline["data"], "--subset", "test"],
        "train": ["--train", feats["train"]],
        "predict": ["--model", pipeline["model"], "--features", feats["test"]],
        "evaluate": ["--pred", pipeline["preds"], "--truth", feats["test"]],
    }[command]
    argv = ["--quiet", "--config", pipeline["cfg"], command, *args, "--out", out]
    # The child runs without site (python -S), whose .pth files may import
    # modules themselves, with bindkit's and numpy's directories on its path.
    paths = [str(pathlib.Path(module.__file__).parent.parent) for module in (bindkit.cli, np)]
    code = ("import sys\n"
            f"sys.path[:0] = {paths!r}\n"
            "from bindkit.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('numpy' in sys.modules, sorted(name[8:] for name in sys.modules\n"
            "                                     if name.startswith('bindkit.')))\n"
            "print(sorted(name for name in ('hashlib', 'logging', 'traceback')\n"
            "             if name in sys.modules))\n"
            "print(sorted(name for name in ('statistics', 'decimal', 'fractions',\n"
            "                               'importlib.resources', 'shutil')\n"
            "             if name in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    numpy, modules = COMMAND_MODULES[command]
    loaded, stdlib, unwanted = proc.stdout.splitlines()
    assert loaded == f"{numpy} {sorted(modules.split())}"
    if not numpy:
        assert stdlib == ("['hashlib']" if command == "featurize" else "[]")
    assert unwanted == "[]"


# Imported first by the child, through PYTHONPATH: at exit, after main(),
# it reports the process's thread count on stderr.
_THREADS_AT_EXIT = """import atexit, sys

def _threads():
    with open("/proc/self/status", encoding="ascii") as fh:
        print([line for line in fh if line.startswith("Threads:")][0].split()[1],
              file=sys.stderr)

atexit.register(_threads)
"""


def _ingest_threads(pipeline, tmp_path, blas_threads):
    """The threads at exit of `python -m bindkit.cli ingest` of the fixture,
    a command that loads numpy, with OPENBLAS_NUM_THREADS unset or as
    given; its dataset directory must have the bytes of the in-process
    run."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status")
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(_THREADS_AT_EXIT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(hook), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = tmp_path / "dataset"
    proc = subprocess.run(
        [sys.executable, "-m", "bindkit.cli", "--quiet", "--config", pipeline["cfg"],
         "ingest", "--in", RAW, "--out", str(out)], env=env, capture_output=True,
        text=True)
    assert proc.returncode == 0, proc.stderr
    expected = pathlib.Path(pipeline["data"])
    names = sorted(str(p.relative_to(expected)) for p in expected.rglob("*")
                   if p.is_file())
    assert names == sorted(str(p.relative_to(out)) for p in out.rglob("*")
                           if p.is_file())
    for name in names:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
    return int(proc.stderr.splitlines()[-1])


def test_ingest_process_runs_one_thread(pipeline, tmp_path):
    assert _ingest_threads(pipeline, tmp_path, None) == 1


def test_ingest_process_keeps_the_users_blas_threads(pipeline, tmp_path):
    """OPENBLAS_NUM_THREADS=2 starts a second thread where OpenBLAS has two
    cores to use."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    if "openblas" not in blas or len(os.sched_getaffinity(0)) < 2:
        pytest.skip(f"numpy's BLAS is {blas} on {len(os.sched_getaffinity(0))} cores")
    assert _ingest_threads(pipeline, tmp_path, "2") == 2


def test_main_in_process_leaves_the_environment_alone(pipeline, tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert main(["--quiet", "--config", pipeline["cfg"], "featurize", "--dataset",
                 pipeline["data"], "--subset", "test", "--out", str(tmp_path / "f")]) == 0
    assert dict(os.environ) == before


@pytest.mark.parametrize("shape, dtype", [
    ((-1, 1), np.float64), ((1, -1), np.float64), ((-1,), np.int64),
    ((-1, 1), np.int32), ((-1,), np.float32)])
def test_evaluate_reads_any_numeric_npy_truth_as_its_flat_values(
        tmp_path, capsys, shape, dtype):
    """Only a 1-D little-endian float64 .npy is read as a vector: each of
    these truths exits 2 naming the file and writes no report, while its
    flat values as a text file of one number per line are read."""
    truth = np.array([3.0, 5.0, -2.0, 5.0, 13.0, 7.0]).astype(dtype).reshape(shape)
    np.save(tmp_path / "truth.npy", truth)
    (tmp_path / "truth.txt").write_text(
        "".join(f"{v!r}\n" for v in truth.astype(np.float64).ravel().tolist()))
    (tmp_path / "pred.txt").write_text("3.5\n4.5\n4.5\n4.2\n12.0\n7.25\n")
    for name, code in (("truth.npy", 2), ("truth.txt", 0)):
        assert main(["--quiet", "evaluate", "--pred", str(tmp_path / "pred.txt"),
                     "--truth", str(tmp_path / name),
                     "--out", str(tmp_path / f"{name}.json")]) == code
    err = capsys.readouterr().err
    assert "data error" in err and str(tmp_path / "truth.npy") in err, err
    assert not (tmp_path / "truth.npy.json").exists()
    assert not (tmp_path / "truth.npy.csv").exists()
    assert (tmp_path / "truth.txt.json").exists()


def _saved(array, **kwargs):
    def save(path):
        np.save(path, array(np.load(path)), **kwargs)
    return save


def _cut(edit):
    def save(path):
        path.write_bytes(edit(path.read_bytes()))
    return save


Y_VARIANTS = {
    "f8": _saved(lambda y: y),
    "column": _saved(lambda y: y.reshape(-1, 1)),
    "f4": _saved(lambda y: y.astype(np.float32)),
    "int64": _saved(lambda y: y.astype(np.int64)),
    "big-endian": _saved(lambda y: y.astype(">f8")),
    "fortran-2d": _saved(lambda y: np.asfortranarray(np.stack([y, y], axis=1))),
    "object": _saved(lambda y: y.astype(object), allow_pickle=True),
    "truncated": _cut(lambda blob: blob[:-3]),
    "padded": _cut(lambda blob: blob + b"\0" * 8),
}


@pytest.mark.parametrize("variant", list(Y_VARIANTS))
def test_evaluate_and_train_give_one_y_npy_one_verdict(pipeline, tmp_path,
                                                       capsys, variant):
    feats = tmp_path / "feats"
    shutil.copytree(pipeline["feats"]["train"], feats)
    Y_VARIANTS[variant](feats / "y.npy")
    pred = tmp_path / "pred.txt"
    pred.write_text("5.0\n" * len((feats / "ids.txt").read_text().splitlines()))
    codes = [main(["--quiet", "--config", pipeline["cfg"], *argv]) for argv in (
        ["evaluate", "--pred", str(pred), "--truth", str(feats),
         "--out", str(tmp_path / "r.json")],
        ["train", "--train", str(feats), "--out", str(tmp_path / "m.json")])]
    assert codes == ([0, 0] if variant == "f8" else [2, 2])
    if variant != "f8":
        err = capsys.readouterr().err
        assert err.count(str(feats / "y.npy")) == 2, err


@pytest.mark.parametrize("text, command", [
    ("[evaluation]\nbin_start = nan", "evaluate"),
    ("[evaluation]\nbin_stop = inf", "evaluate"),
    ("[evaluation]\nbin_width = 1e-9", "evaluate"),
    ("[evaluation]\nthreshold = nan", "evaluate"),
    ("[split]\nratios = [0.8, 0.1, nan]", "ingest"),
    ("[fingerprint]\nnbits = 4611686018427387904", "featurize"),
    ("[fingerprint]\nradius = 100000", "featurize"),
    ("seed = -1", "ingest"),
])
def test_config_values_that_crashed_a_command_exit_1(pipeline, tmp_path, capsys,
                                                     text, command):
    cfg = tmp_path / "bad.toml"
    cfg.write_text(text + "\n")
    out = tmp_path / "out"
    args = {"evaluate": ["--pred", pipeline["preds"],
                         "--truth", pipeline["feats"]["test"]],
            "ingest": ["--in", RAW],
            "featurize": ["--dataset", pipeline["data"]]}[command]
    assert main(["--quiet", "--config", str(cfg), command, *args,
                 "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_exits_1(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["--quiet", "--seed", "-1", "ingest", "--in", RAW,
                 "--out", str(out)]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


# Latin-1 bytes that are not valid UTF-8.
UNDECODABLE = "Kié µM\n".encode("latin-1")


def test_undecodable_raw_tsv_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_bytes(b"receptor_fasta\tligand_smiles\tki_nm\n" + UNDECODABLE)
    assert main(["--quiet", "ingest", "--in", str(raw),
                 "--out", str(tmp_path / "d")]) == 2
    assert "data error" in capsys.readouterr().err


def test_undecodable_fasta_exits_2(tmp_path, capsys):
    fasta = tmp_path / "receptors.fasta"
    fasta.write_bytes(b">recA\nMKV" + UNDECODABLE)
    cfg = tmp_path / "pipeline.toml"
    cfg.write_text(f'[paths]\nfasta = "{fasta}"\n')
    assert main(["--quiet", "--config", str(cfg), "ingest", "--in", RAW,
                 "--out", str(tmp_path / "d")]) == 2
    assert "data error" in capsys.readouterr().err


def test_duplicate_fasta_id_exits_2(tmp_path, capsys):
    """Two records with one id would resolve `@file:ID` to the last one."""
    fasta = tmp_path / "receptors.fasta"
    fasta.write_text(">P1 first\nMKV\n>P1 second\nAAAA\n")
    raw = tmp_path / "raw.tsv"
    raw.write_text("receptor_fasta\tligand_smiles\tki_nm\n"
                   + "".join(f"@file:P1\t{smiles}\t10.0\n"
                             for smiles in ("CCO", "c1ccccc1", "CC(=O)O")))
    cfg = tmp_path / "pipeline.toml"
    cfg.write_text(f'[paths]\nfasta = "{fasta}"\n')
    out = tmp_path / "d"
    assert main(["--quiet", "--config", str(cfg), "ingest", "--in", str(raw),
                 "--out", str(out)]) == 2
    assert "duplicate FASTA record id 'P1'" in capsys.readouterr().err
    assert not out.exists()


def test_undecodable_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "pipeline.toml"
    cfg.write_bytes(b"# " + UNDECODABLE + b"seed = 3\n")
    assert main(["--quiet", "--config", str(cfg), "ingest", "--in", RAW,
                 "--out", str(tmp_path / "d")]) == 1
    assert "config error" in capsys.readouterr().err


BOM = b"\xef\xbb\xbf"


def bom_twin(path, tmp_path) -> pathlib.Path:
    """A copy of the file at path that begins with a UTF-8 byte-order mark."""
    twin = tmp_path / f"bom-{pathlib.Path(path).name}"
    twin.write_bytes(BOM + pathlib.Path(path).read_bytes())
    return twin


@pytest.mark.parametrize("which", ["raw TSV", "FASTA", "property table"])
def test_byte_order_mark_is_nothing_to_ingest(tmp_path, which):
    """Some Windows editors and spreadsheet exports begin a UTF-8 file with
    a byte-order mark.  A raw TSV, FASTA file or property table that holds
    one ingests as its twin without: the same dataset.tsv bytes, the same
    store arrays and the same featurize.json less the fields that digest an
    input file or the config."""
    inputs = {"raw TSV": RAW, "FASTA": FIXTURES / "receptors.fasta",
              "property table": DEFAULT_PROPERTY_TABLE}

    def ingested(name, raw, fasta, table):
        cfg = tmp_path / f"{name}.toml"
        cfg.write_text(f'[paths]\nfasta = "{fasta}"\nproperty_table = "{table}"\n')
        out = tmp_path / name
        assert main(["--quiet", "--config", str(cfg), "ingest", "--in", str(raw),
                     "--out", str(out)]) == 0
        store = files(out / STORE_DIR)
        meta = json.loads(store.pop("featurize.json"))
        for key in ("config_digest", "dataset_digest", "table_sha256"):
            meta.pop(key)
        return (out / "dataset.tsv").read_bytes(), store, meta

    plain = ingested("plain", *inputs.values())
    inputs[which] = bom_twin(inputs[which], tmp_path)
    assert ingested("bom", *inputs.values()) == plain


def test_byte_order_mark_is_nothing_to_a_config(tmp_path):
    cfg = write_config(tmp_path)
    assert load_config(str(bom_twin(cfg, tmp_path))) == load_config(cfg)


def test_byte_order_mark_is_nothing_to_evaluate(tmp_path):
    """Text vectors with a byte-order mark score as their twins without."""
    pred, truth = tmp_path / "pred.txt", tmp_path / "truth.txt"
    pred.write_text("3.5\n4.5\n4.5\n4.2\n")
    truth.write_text("3.0\n5.0\n3.0\n5.0\n")
    reports = []
    for name, p, t in (("plain", pred, truth),
                       ("bom", bom_twin(pred, tmp_path), bom_twin(truth, tmp_path))):
        out = tmp_path / f"{name}.json"
        assert main(["--quiet", "evaluate", "--pred", str(p), "--truth", str(t),
                     "--out", str(out)]) == 0
        reports.append((out.read_bytes(), (tmp_path / f"{name}.csv").read_bytes()))
    assert reports[0] == reports[1]


def small_model(tmp_path, n_trees=3):
    """A 5-column model file, its JSON document and a feature directory that
    the unedited model predicts from with exit code 0."""
    from bindkit.gbdt import TrainParams, save_model, train
    rng = np.random.default_rng(0)
    X = rng.random((40, 5))
    model, _ = train(X, X[:, 0] - X[:, 3],
                     TrainParams(n_trees=n_trees, max_depth=3, min_samples_leaf=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    feats = packed_features(tmp_path / "feats", X)
    out = tmp_path / "control.txt"
    assert main(["--quiet", "predict", "--model", str(path), "--features",
                 str(feats), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 40
    out.unlink()
    return path, json.loads(path.read_text()), feats


def test_model_with_too_few_leaves_exits_2(tmp_path, capsys):
    from bindkit.gbdt import ModelFormatError
    path, doc, feats = small_model(tmp_path)
    tree = doc["trees"][0]
    assert len(tree["feature"]) == 3 and len(tree["leaf_value"]) == 8
    tree["leaf_value"].pop()                 # the last leaf's index is unbacked
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):    # rejected before routing indexes it
        load_model(path)
    assert main(["--quiet", "predict", "--model", str(path), "--features",
                 str(feats), "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "3 levels need 3 thresholds and 8 leaf values" in err, err


def test_model_with_out_of_range_feature_exits_2(tmp_path, capsys):
    path, doc, feats = small_model(tmp_path)
    doc["trees"][0]["feature"][0] = 99
    path.write_text(json.dumps(doc))
    assert main(["--quiet", "predict", "--model", str(path), "--features",
                 str(feats), "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "feature index outside [0, 5)" in err, err


def test_model_with_nan_leaf_exits_2(tmp_path, capsys):
    path, doc, feats = small_model(tmp_path, n_trees=2)
    doc["trees"][1]["leaf_value"][0] = float("nan")
    path.write_text(json.dumps(doc))             # written as a bare NaN token
    out = tmp_path / "p"
    assert main(["--quiet", "predict", "--model", str(path), "--features",
                 str(feats), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def radius3_features(pipeline, tmp_path, subset):
    """The features of subset of the fixture ingested with radius 3."""
    cfg = tmp_path / "radius3.toml"
    cfg.write_text(pathlib.Path(pipeline["cfg"]).read_text()
                   .replace("[fingerprint]\n", "[fingerprint]\nradius = 3\n"))
    data, radius3 = tmp_path / "radius3-dataset", tmp_path / "radius3"
    for argv in (["ingest", "--in", RAW, "--out", str(data)],
                 ["featurize", "--dataset", str(data), "--subset", subset,
                  "--out", str(radius3)]):
        assert main(["--quiet", "--config", str(cfg), *argv]) == 0
    return radius3


def test_predict_checks_the_feature_schema(pipeline, tmp_path, capsys):
    """train stamps the schema of its features into the model.  Features of
    another radius have the same width, yet predict exits 2 naming both
    files; features of the training config predict with exit 0.  A model
    with no schema, as the Python API trains it, predicts from both.  The
    schema is the CRC-32 of the canonical JSON of the featurize.json fields
    that fix what the columns mean, its columns rebuilt into the name of
    every column: the dense names, then fp_j for bit j."""
    feats = pipeline["feats"]
    doc = json.loads(pathlib.Path(pipeline["model"]).read_text())
    meta = json.loads((pathlib.Path(feats["train"]) / "featurize.json").read_text())
    names = meta["columns"] + [f"fp_{j}" for j in range(meta["nbits"])]
    assert len(names) == meta["n_columns"]
    text = json.dumps({**{k: meta[k] for k in ("radius", "nbits",
                                               "table_version")},
                       "columns": names},
                      sort_keys=True, separators=(",", ":"))
    assert doc["schema"] == format(zlib.crc32(text.encode()), "08x") == \
        read_features(feats["train"])[0].schema == \
        read_features(feats["test"])[0].schema
    radius3 = radius3_features(pipeline, tmp_path, "test")
    assert read_features(radius3)[0].shape == read_features(feats["test"])[0].shape
    assert read_features(radius3)[0].schema != doc["schema"]
    out = tmp_path / "pred.txt"
    assert main(["--quiet", "predict", "--model", pipeline["model"],
                 "--features", str(radius3), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and pipeline["model"] in err, err
    assert str(radius3 / "featurize.json") in err, err
    assert not out.exists()
    assert main(["--quiet", "predict", "--model", pipeline["model"],
                 "--features", feats["test"], "--out", str(out)]) == 0
    assert out.read_bytes() == pathlib.Path(pipeline["preds"]).read_bytes()
    unstamped = tmp_path / "unstamped.json"
    unstamped.write_text(json.dumps({**doc, "schema": None}))
    for features in (radius3, feats["test"]):
        assert main(["--quiet", "predict", "--model", str(unstamped),
                     "--features", str(features), "--out", str(out)]) == 0


def test_train_checks_the_validation_schema(pipeline, tmp_path, capsys):
    """Validation features of another radius have the training width, yet
    train --valid exits 2 naming both featurize.json files and writes no
    model; early stopping would score columns that mean something else."""
    radius3 = radius3_features(pipeline, tmp_path, "valid")
    out = tmp_path / "model.json"
    assert main(["--quiet", "--config", pipeline["cfg"], "train", "--train",
                 pipeline["feats"]["train"], "--valid", str(radius3),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(radius3 / "featurize.json") in err, err
    assert str(pathlib.Path(pipeline["feats"]["train"]) / "featurize.json") in err, err
    assert not out.exists()
    assert main(["--quiet", "--config", pipeline["cfg"], "train", "--train",
                 pipeline["feats"]["train"], "--valid", pipeline["feats"]["valid"],
                 "--out", str(out)]) == 0
    assert out.read_bytes() == pathlib.Path(pipeline["model"]).read_bytes()


def test_max_depth_above_the_cap_exits_1(pipeline, tmp_path, capsys):
    cfg = tmp_path / "deep.toml"
    cfg.write_text("[gbdt]\nmax_depth = 11\n")
    out = tmp_path / "model.json"
    assert main(["--quiet", "--config", str(cfg), "train", "--train",
                 pipeline["feats"]["train"], "--out", str(out)]) == 1
    assert "max_depth must be in [1, 10]" in capsys.readouterr().err
    assert not out.exists()


# Edits of a saved model document that loaded, or crashed, before the model
# reader checked JSON types, and the message each must now exit 2 with.
MODEL_EDITS = {
    "null params": (lambda doc: {**doc, "params": None},
                    "params must be a JSON object"),
    "list params": (lambda doc: {**doc, "params": []},
                    "params must be a JSON object"),
    "trees as an object": (lambda doc: {**doc, "trees": {}},
                           "trees must be a JSON list"),
    "fractional feature index": (lambda doc: {**doc, "trees": [
        {**t, "feature": [v + 0.5 for v in t["feature"]]} for t in doc["trees"]]},
        "feature must be a JSON integer"),
    "version 1": (lambda doc: {**doc, "version": "1"},
                  "unsupported model version '1'"),
    "version 2": (lambda doc: {**doc, "version": "2"},
                  "unsupported model version '2'"),
    "leaf count other than 2**depth": (lambda doc: _first_tree(
        doc, "leaf_value", lambda leaves: leaves + leaves),
        "tree 0: 3 levels need 3 thresholds and 8 leaf values"),
    "depth above the cap": (lambda doc: {**doc, "trees": [
        {"feature": [0] * 11, "threshold": [0.5] * 11, "leaf_value": [0.0] * 2**11}]},
        "tree 0: depth 11 is above 10"),
    "feature index out of range": (lambda doc: _first_tree(
        doc, "feature", lambda levels: levels[:-1] + [5]),
        "tree 0: feature index outside [0, 5)"),
    "schema of another type": (lambda doc: {**doc, "schema": 7},
                               "schema must be a JSON string or null"),
    "boolean leaf value": (lambda doc: {**doc, "trees": [
        {**t, "leaf_value": [True] + t["leaf_value"][1:]} for t in doc["trees"]]},
        "leaf_value must be a JSON number"),
    "string base score": (lambda doc: {**doc, "base_score": "1.5"},
                          "base_score must be a JSON number"),
    "string degenerate flag": (lambda doc: {**doc, "degenerate": "no"},
                               "degenerate must be a JSON boolean"),
}


def _first_tree(doc, field, edit):
    """doc with the level or leaf list field of its first tree replaced by
    edit of it."""
    tree = doc["trees"][0]
    return {**doc, "trees": [{**tree, field: edit(tree[field])}] + doc["trees"][1:]}


# Tree lists that numpy's int32 and float64 conversion rejected when the
# model reader built arrays; the reader that keeps them as tuples of Python
# numbers rejects each with the message given.
for _power in (31, 63):
    MODEL_EDITS[f"feature 2**{_power}"] = (
        lambda doc, v=2**_power: _first_tree(doc, "feature",
                                             lambda nodes: [v] + nodes[1:]),
        "feature index outside [0, 5)")
MODEL_EDITS["equal-length nested list"] = (
    lambda doc: _first_tree(doc, "feature", lambda nodes: [[f] for f in nodes]),
    "feature must be a JSON integer")
MODEL_EDITS["ragged nested list"] = (
    lambda doc: _first_tree(doc, "threshold",
                            lambda nodes: [nodes[:2]] + [[t] for t in nodes[1:]]),
    "threshold must be a JSON number")


@pytest.mark.parametrize("edit", sorted(MODEL_EDITS))
def test_untrusted_model_json_exits_2(tmp_path, capsys, edit):
    path, doc, feats = small_model(tmp_path)
    damage, message = MODEL_EDITS[edit]
    path.write_text(json.dumps(damage(doc)))
    out = tmp_path / "p"
    assert main(["--quiet", "predict", "--model", str(path), "--features",
                 str(feats), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and message in err, err
    assert not out.exists()


# Values a damaged model document may hold in place of any of its values.
# A "<deep N>" string stands for an array nested N deep, written as text: the
# JSON encoder itself would overflow the recursion limit on the deep ones.
HOSTILE_MODEL_VALUES = (
    None, True, False, "", "0.5", "bindkit-gbdt", "2", 1.5, float("nan"),
    float("inf"), float("-inf"), 1e308, -1, -2, -10**9, 2**31, 2**63, 10**30,
    -10**30, 10**400, [], [[]], [[0]], [[1, 2], [3]], [[[0.5]]], {},
    "<deep 40>", "<deep 100>", "<deep 100000>",
)


def _value_paths(value, path=()):
    """Paths to value and to every value nested in it."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _value_paths(child, path + (key,))


def _replaced(value, path, new):
    """value with the value at path replaced by new; value itself when an
    earlier replacement removed path."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(value, dict) and key in value:
        return {**value, key: _replaced(value[key], rest, new)}
    if isinstance(value, list) and isinstance(key, int) and key < len(value):
        return value[:key] + [_replaced(value[key], rest, new)] + value[key + 1:]
    return value


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    return small_model(tmp_path_factory.mktemp("fuzz-model"))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_model_json_never_exits_3(fuzz_model, data):
    path, doc, feats = fuzz_model
    paths = list(_value_paths(doc))
    edits = data.draw(st.lists(st.tuples(st.sampled_from(paths),
                                         st.sampled_from(HOSTILE_MODEL_VALUES)),
                               min_size=1, max_size=3))
    for where, value in edits:
        doc = _replaced(doc, where, value)
    text = json.dumps(doc)
    for depth in (40, 100, 100000):
        text = text.replace(f'"<deep {depth}>"', "[" * depth + "]" * depth)
    with tempfile.TemporaryDirectory() as tmp:
        model, out = pathlib.Path(tmp) / "model.json", pathlib.Path(tmp) / "p"
        model.write_text(text)
        code = main(["--quiet", "predict", "--model", str(model),
                     "--features", str(feats), "--out", str(out)])
        assert code in (0, 2)
        assert out.exists() == (code == 0)
        if code == 0:
            predictions = [float(v) for v in out.read_text().split()]
            assert len(predictions) == 40
            assert all(math.isfinite(v) for v in predictions)


# Documents the JSON decoder cannot read: arrays nested past its recursion
# limit, and an integer literal longer than int() converts.
UNREADABLE_JSON = {"deep": "[" * 200_000 + "]" * 200_000, "long integer": "1" * 5000}


@pytest.mark.parametrize("text", sorted(UNREADABLE_JSON))
@pytest.mark.parametrize("filename", ["model.json", "featurize.json",
                                      "provenance.json"])
def test_unreadable_json_exits_2_naming_the_file(pipeline, tmp_path, capsys,
                                                 filename, text):
    model, feats, data = (tmp_path / "model.json", tmp_path / "feats",
                          tmp_path / "dataset")
    shutil.copy(pipeline["model"], model)
    shutil.copytree(pipeline["feats"]["train"], feats)
    shutil.copytree(pipeline["data"], data)
    target = {"model.json": model, "featurize.json": feats / "featurize.json",
              "provenance.json": data / "provenance.json"}[filename]
    target.write_text(UNREADABLE_JSON[text])
    out = tmp_path / "out"
    argv = {"model.json": ["predict", "--model", str(model),
                           "--features", str(feats)],
            "featurize.json": ["train", "--train", str(feats)],
            "provenance.json": ["featurize", "--dataset", str(data)]}[filename]
    assert main(["--quiet", "--config", pipeline["cfg"], *argv,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"{target}: not valid JSON" in err, err
    assert not out.exists()


@pytest.mark.parametrize("text", ["[]", '"provenance"', '{"source_digest": 5}',
                                  '{"source_digest": null}'])
def test_provenance_must_be_an_object_with_a_string_digest(pipeline, tmp_path,
                                                           capsys, text):
    data = tmp_path / "dataset"
    shutil.copytree(pipeline["data"], data)
    (data / "provenance.json").write_text(text)
    for command in ("featurize", "export-graphs"):
        out = tmp_path / command
        assert main(["--quiet", command, "--dataset", str(data), "--subset",
                     "test", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "provenance.json" in err, err
        assert not out.exists()


# --- feature directories are untrusted input -----------------------------------


def damaged_features(pipeline, tmp_path, damage):
    """A copy of the train feature directory after damage(directory)."""
    feats = tmp_path / "feats"
    shutil.copytree(pipeline["feats"]["train"], feats)
    damage(feats)
    return feats


def assert_features_rejected(pipeline, tmp_path, capsys, feats, filename):
    """predict and train both exit 2 with a data error naming filename."""
    for argv in (["predict", "--model", pipeline["model"], "--features",
                  str(feats), "--out", str(tmp_path / "p")],
                 ["train", "--train", str(feats), "--out",
                  str(tmp_path / "m.json")]):
        assert main(["--quiet", "--config", pipeline["cfg"], *argv]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and filename in err, err
    assert not (tmp_path / "p").exists()


def edit_sidecar(feats, **fields):
    path = feats / "featurize.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


@pytest.mark.parametrize("filename,damage", [
    ("y.npy", lambda d: np.save(d / "y.npy", np.load(d / "y.npy")[:-1])),
    ("ids.txt", lambda d: (d / "ids.txt").write_text(
        "".join((d / "ids.txt").read_text().splitlines(True)[:-1]))),
    ("featurize.json", lambda d: edit_sidecar(d, n_rows=23)),
    ("fingerprints.npy", lambda d: np.save(d / "fingerprints.npy",
                                           np.load(d / "fingerprints.npy")[1:])),
    # a block one row short leaves the index naming a row it does not hold
    ("descriptors.npy", lambda d: np.save(d / "descriptors.npy",
                                          np.load(d / "descriptors.npy")[:-1])),
])
def test_feature_row_counts_must_agree(pipeline, tmp_path, capsys, filename,
                                       damage):
    feats = damaged_features(pipeline, tmp_path, damage)
    assert_features_rejected(pipeline, tmp_path, capsys, feats, filename)


def test_feature_width_must_match_sidecar(pipeline, tmp_path, capsys):
    feats = damaged_features(pipeline, tmp_path,
                             lambda d: edit_sidecar(d, n_columns=333))
    assert_features_rejected(pipeline, tmp_path, capsys, feats,
                             "featurize.json")


def test_every_columns_list_is_the_descriptor_layout(pipeline):
    """featurize_pairs, the dataset's feature store and a split's
    featurize.json all name the dense columns alone; read_features names
    the bit columns from nbits."""
    dataset = load_dataset(pipeline["data"])
    assert featurize_pairs(dataset, nbits=256)[2] == DESCRIPTOR_LAYOUT
    for path in (pathlib.Path(pipeline["data"], STORE_DIR),
                 pathlib.Path(pipeline["feats"]["train"])):
        meta = json.loads((path / "featurize.json").read_text())
        assert meta["columns"] == list(DESCRIPTOR_LAYOUT), path


@pytest.mark.parametrize("columns", [
    "charge_mean",                               # not a list
    {"charge_mean": 0},
    [*DESCRIPTOR_LAYOUT[:-1], 7],                # not all strings
    [*DESCRIPTOR_LAYOUT, None],
    list(DESCRIPTOR_LAYOUT[:-1]),                # one dense name short
    [*DESCRIPTOR_LAYOUT, "fp_0"],                # one name too many
    # every column's name, as featurize.json once listed them
    [*DESCRIPTOR_LAYOUT, *(f"fp_{j}" for j in range(256))],
    [],
])
def test_sidecar_columns_are_checked(pipeline, tmp_path, capsys, columns):
    """featurize.json's columns name the n_columns - nbits dense columns;
    any other value is refused with exit 2 naming featurize.json."""
    feats = damaged_features(pipeline, tmp_path,
                             lambda d: edit_sidecar(d, columns=columns))
    assert_features_rejected(pipeline, tmp_path, capsys, feats,
                             "featurize.json")


def test_write_features_lists_the_dense_names_only(tmp_path):
    """write_features takes the names of the dense columns, as
    featurize_pairs gives them, and lists them in featurize.json; another
    count of names, the name of every column included, raises ValueError
    and writes nothing."""
    X = Features(memoryview(np.zeros(2)), 1, 2,
                 memoryview(np.array([0, 2], dtype=np.int32)),
                 memoryview(np.array([1, 3], dtype=np.uint16)), 4,
                 memoryview(np.zeros(4, dtype=np.int32)))
    names = ["a", "b", "fp_0", "fp_1", "fp_2", "fp_3"]
    write_features(tmp_path / "ok", X, np.zeros(2), ["p0", "p1"],
                   {"columns": ("a", "b")})
    sidecar = json.loads((tmp_path / "ok" / "featurize.json").read_text())
    assert sidecar["columns"] == ["a", "b"]
    assert (sidecar["n_columns"], sidecar["nbits"]) == (6, 4)
    text = json.dumps({"columns": names, "nbits": 4, "radius": None,
                       "table_version": None}, separators=(",", ":"))
    assert read_features(tmp_path / "ok")[0].schema == \
        format(zlib.crc32(text.encode()), "08x")
    for bad in (["a"], ["a", "b", "c"], names):
        with pytest.raises(ValueError):
            write_features(tmp_path / "bad", X, np.zeros(2), ["p0", "p1"],
                           {"columns": bad})
        assert not (tmp_path / "bad").exists()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6),
       st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29),
                          st.sampled_from((math.nan, math.inf, -math.inf, 1e308))),
                max_size=4))
def test_write_features_names_the_first_non_finite_column(rows, columns, cells):
    """write_features refuses a non-finite dense value naming the lowest
    column that holds one, the column np.flatnonzero finds, and writes
    nothing; finite values whose sum overflows are written."""
    dense = np.arange(rows * columns, dtype=np.float64).reshape(rows, columns)
    for r, c, value in cells:
        dense[r % rows, c % columns] = value
    bad = np.flatnonzero(~np.isfinite(dense).all(axis=0))
    X = Features.from_array(dense)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "feats")
        if not bad.size:
            write_features(out, X, np.zeros(rows), ["p"] * rows, {})
            assert bytes(read_features(out)[0].dense) == dense.tobytes()
            return
        with pytest.raises(DataError, match=f"non-finite value in column {bad[0]}$"):
            write_features(out, X, np.zeros(rows), ["p"] * rows, {})
        assert not os.path.exists(out)


def test_sidecar_nbits_above_the_cap_is_rejected(pipeline, tmp_path, capsys):
    """The bit block no longer ties nbits to a file's width, and training
    sizes arrays by nbits, so an nbits past config.MAX_NBITS that
    n_columns agrees with is refused before anything is allocated."""
    nbits = 2 ** 40
    feats = damaged_features(pipeline, tmp_path, lambda d: edit_sidecar(
        d, nbits=nbits, n_columns=78 + nbits))
    assert_features_rejected(pipeline, tmp_path, capsys, feats,
                             "featurize.json")


@pytest.mark.parametrize("bits", [
    lambda b: b.astype(np.int16),                # not uint16
    lambda b: b.astype(np.float64),
    lambda b: b[:-1],                            # one bit short of the offsets
    lambda b: np.concatenate([b, b[:1]]),        # one bit too many
])
def test_fingerprint_block_layout_is_checked(pipeline, tmp_path, capsys, bits):
    feats = damaged_features(pipeline, tmp_path, lambda d: np.save(
        d / "fingerprints.npy", bits(np.load(d / "fingerprints.npy"))))
    assert_features_rejected(pipeline, tmp_path, capsys, feats,
                             "fingerprints.npy")


def _edit_bits(edit):
    """Damage that saves the (offsets, bits) that edit returns in place of
    the bit block's two files."""
    def damage(d):
        offsets, bits = edit(np.load(d / "fingerprint_offsets.npy"),
                             np.load(d / "fingerprints.npy"))
        np.save(d / "fingerprint_offsets.npy", offsets)
        np.save(d / "fingerprints.npy", bits)
    return damage


def _packed_layout(d):
    """The directory as the former layout wrote it: fingerprints.npy the
    packed uint8 rows, and no fingerprint_offsets.npy."""
    rows = csr_rows(np.load(d / "fingerprint_offsets.npy"),
                    np.load(d / "fingerprints.npy"))
    on = np.zeros((len(rows), 256), dtype=np.uint8)
    for i, row in enumerate(rows):
        on[i, list(row)] = 1
    np.save(d / "fingerprints.npy", np.packbits(on, axis=1, bitorder="little"))
    (d / "fingerprint_offsets.npy").unlink()


def _swap(a, i, j):
    a[[i, j]] = a[[j, i]]
    return a


# the train bit block holds 12 ligand rows of 256 bits, each several bits long
@pytest.mark.parametrize("filename,damage", [
    ("fingerprint_offsets.npy", _edit_bits(lambda o, b: (o + 1, np.concatenate([b[:1], b])))),
    ("fingerprint_offsets.npy", _edit_bits(lambda o, b: (_swap(o, 3, 4), b))),
    ("fingerprint_offsets.npy", _edit_bits(lambda o, b: (_set(o, -1, o[-1] - 1), b))),
    ("fingerprints.npy", _edit_bits(lambda o, b: (o, _set(b, 0, 256)))),
    ("fingerprints.npy", _edit_bits(lambda o, b: (o, _set(b, 1, b[0])))),
    ("fingerprints.npy", _edit_bits(lambda o, b: (o, _swap(b, 0, 1)))),
    ("fingerprints.npy", _edit_bits(lambda o, b: (o, b.astype("<i4")))),
    ("fingerprints.npy", _edit_bits(lambda o, b: (o, b[None]))),
    ("fingerprint_offsets.npy", _edit_bits(lambda o, b: (o.astype("<u2"), b))),
    ("fingerprint_offsets.npy", _edit_bits(lambda o, b: (o[:, None], b))),
    ("fingerprints.npy", _packed_layout),
], ids=["offsets-not-from-0", "offsets-decrease", "offsets-end-short",
        "bit-at-nbits", "duplicate-bit", "descending-bits", "bits-int32",
        "bits-2-D", "offsets-uint16", "offsets-2-D", "packed-layout"])
def test_bit_block_is_checked(pipeline, tmp_path, capsys, filename, damage):
    """Each damage of the bit block raises FingerprintFormatError naming
    the file, and exits 2 through train and predict."""
    feats = damaged_features(pipeline, tmp_path, damage)
    with pytest.raises(FingerprintFormatError, match=filename):
        read_features(feats)
    assert_features_rejected(pipeline, tmp_path, capsys, feats, filename)


@pytest.mark.parametrize("filename", ["descriptors.npy", "fingerprints.npy",
                                      "fingerprint_offsets.npy", "y.npy"])
def test_object_arrays_are_rejected(pipeline, tmp_path, capsys, filename):
    def pickle_it(d):
        values = np.load(d / filename)
        np.save(d / filename, values.astype(object), allow_pickle=True)
    feats = damaged_features(pipeline, tmp_path, pickle_it)
    assert_features_rejected(pipeline, tmp_path, capsys, feats, filename)


def _save_index(edit, **kwargs):
    """Damage that saves edit(pairs.npy) in place of pairs.npy."""
    def damage(d):
        np.save(d / "pairs.npy", edit(np.load(d / "pairs.npy")), **kwargs)
    return damage


def _set(i, at, value):
    i[at] = value
    return i


@pytest.mark.parametrize("filename,damage", [
    # the train blocks hold 6 receptor rows and 12 ligand rows
    ("pairs.npy", _save_index(lambda i: _set(i, (3, 0), 6))),
    ("pairs.npy", _save_index(lambda i: _set(i, (3, 1), 12))),
    ("pairs.npy", _save_index(lambda i: _set(i, (0, 0), -1))),
    ("pairs.npy", _save_index(lambda i: _set(i, (21, 1), -2**31))),
    ("pairs.npy", _save_index(lambda i: i.astype(np.int64))),
    ("pairs.npy", _save_index(lambda i: i.astype(">i4"))),
    ("pairs.npy", _save_index(lambda i: i.astype(np.float64))),
    ("pairs.npy", _save_index(lambda i: i.ravel())),
    ("pairs.npy", _save_index(lambda i: i[None])),
    ("pairs.npy", _save_index(lambda i: np.hstack([i, i[:, :1]]))),
    ("pairs.npy", _save_index(np.asfortranarray)),
    ("pairs.npy", _save_index(lambda i: i[:-1])),
    ("pairs.npy", _save_index(lambda i: np.vstack([i, i[:1]]))),
    ("pairs.npy", _save_index(lambda i: i.astype(object), allow_pickle=True)),
    ("descriptors.npy", lambda d: np.save(d / "descriptors.npy",
                                          np.load(d / "descriptors.npy")[:0])),
    ("fingerprint_offsets.npy", lambda d: (
        np.save(d / "fingerprints.npy", np.load(d / "fingerprints.npy")[:0]),
        np.save(d / "fingerprint_offsets.npy",
                np.load(d / "fingerprint_offsets.npy")[:1]))),
], ids=["dense-row-out-of-range", "bit-row-out-of-range", "negative",
        "int32-min", "int64", "big-endian", "float64", "1-D", "3-D",
        "three-columns", "fortran", "short", "long", "object",
        "no-dense-rows", "no-bit-rows"])
def test_feature_index_is_checked(pipeline, tmp_path, capsys, filename, damage):
    """Each damage of the index, or a block left without rows while the
    index names some, exits 2 naming the file; none reaches the router."""
    feats = damaged_features(pipeline, tmp_path, damage)
    assert_features_rejected(pipeline, tmp_path, capsys, feats, filename)


def test_feature_index_must_exist(pipeline, tmp_path, capsys):
    feats = damaged_features(pipeline, tmp_path,
                             lambda d: (d / "pairs.npy").unlink())
    assert_features_rejected(pipeline, tmp_path, capsys, feats, "pairs.npy")


def _rewrite_header(name, old, new):
    def damage(d):
        blob = (d / name).read_bytes()
        assert old in blob
        (d / name).write_bytes(blob.replace(old, new, 1))
    return damage


def _save_as_fortran_order(name):
    def damage(d):
        values = np.load(d / name)
        with open(d / name, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": values.dtype.str, "fortran_order": True,
                "shape": values.shape})
            fh.write(values.tobytes())
    return damage


def _save_as_version_3(d):
    y = np.load(d / "y.npy")
    with open(d / "y.npy", "wb") as fh:
        np.lib.format.write_array(fh, y, version=(3, 0))


@pytest.mark.parametrize("filename,damage", [
    ("descriptors.npy", lambda d: np.save(d / "descriptors.npy", np.asfortranarray(
        np.load(d / "descriptors.npy")))),
    # np.save writes a 1-D array with fortran_order False
    ("fingerprints.npy", _save_as_fortran_order("fingerprints.npy")),
    # headers np.save would not write, over the same data bytes
    ("descriptors.npy", _rewrite_header(
        "descriptors.npy", b"{'descr': '<f8', 'fortran_order': False, ",
        b"{'fortran_order': False, 'descr': '<f8', ")),
    ("descriptors.npy", _rewrite_header("descriptors.npy", b"'shape': (6, 78)",
                                        b"'shape': (6,78) ")),
    ("y.npy", _rewrite_header("y.npy", b"'descr': '<f8'", b"'descr': 'f8' ")),
    ("y.npy", _rewrite_header("y.npy", b"'descr': '<f8'", b'"descr": "<f8"')),
    ("y.npy", _save_as_version_3),
], ids=["fortran-dense", "fortran-bits", "key-order", "shape-spacing",
        "native-descr", "quotes", "version-3"])
def test_feature_arrays_must_be_as_np_save_writes_them(pipeline, tmp_path, capsys,
                                                     filename, damage):
    feats = damaged_features(pipeline, tmp_path, damage)
    np.load(feats / filename)                      # numpy itself reads them
    assert_features_rejected(pipeline, tmp_path, capsys, feats, filename)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_descriptor_is_rejected(pipeline, tmp_path, capsys, value):
    def poison(d):
        dense = np.load(d / "descriptors.npy")
        dense[5, 17] = value
        np.save(d / "descriptors.npy", dense)
    feats = damaged_features(pipeline, tmp_path, poison)
    assert_features_rejected(pipeline, tmp_path, capsys, feats,
                             "descriptors.npy")


FEATURE_ARRAYS = ("descriptors.npy", "fingerprints.npy", "fingerprint_offsets.npy",
                  "pairs.npy", "y.npy")
DTYPES = ("float64", "float32", "uint8", "int64", "bool", "<U2", ">f8")


@st.composite
def damaged_array(draw):
    """(file name, damage): truncate the file to a byte count (the largest,
    descriptors.npy, holds 3,872 bytes), or save an array of a small shape
    and dtype in its place."""
    name = draw(st.sampled_from(FEATURE_ARRAYS))
    if draw(st.booleans()):
        return name, ("truncate", draw(st.integers(0, 4000)))
    shape = tuple(draw(st.lists(st.integers(0, 40), max_size=3)))
    return name, ("replace", shape, draw(st.sampled_from(DTYPES)))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(damaged_array())
def test_damaged_feature_arrays_never_exit_3(pipeline, damage):
    name, how = damage
    with tempfile.TemporaryDirectory() as tmp:
        feats = pathlib.Path(tmp) / "feats"
        shutil.copytree(pipeline["feats"]["train"], feats)
        path = feats / name
        if how[0] == "truncate":
            path.write_bytes(path.read_bytes()[:how[1]])
        else:
            np.save(path, np.ones(how[1], dtype=how[2]))
        for argv in (["predict", "--model", pipeline["model"], "--features",
                      str(feats), "--out", str(pathlib.Path(tmp) / "p")],
                     ["train", "--train", str(feats), "--out",
                      str(pathlib.Path(tmp) / "m.json")]):
            assert main(["--quiet", "--config", pipeline["cfg"], *argv]) in (0, 2)


# --- raw TSV: long digit runs and fuzzing ----------------------------------

LONG_DIGIT_LIGANDS = ("[" + "1" * 5000 + "C]", "[CH" + "1" * 5000 + "]",
                      "[C+" + "1" * 5000 + "]", "[C+99999999999999999999]")


def test_long_bracket_digit_runs_are_bad_smiles(pipeline, tmp_path):
    raw = tmp_path / "raw.tsv"
    raw.write_text(pathlib.Path(RAW).read_text() + "".join(
        f"ACDEFGHIKL\t{smiles}\t10\n" for smiles in LONG_DIGIT_LIGANDS))
    out = tmp_path / "dataset"
    assert main(["--config", pipeline["cfg"], "--quiet", "ingest",
                 "--in", str(raw), "--out", str(out)]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["drops"] == dict(EXPECTED_DROPS, bad_smiles=3 + 4)
    assert (out / "dataset.tsv").read_text() == \
        (pathlib.Path(pipeline["data"]) / "dataset.tsv").read_text()


def test_ligand_past_max_atoms_is_a_bad_smiles_drop_and_a_bad_dataset_line(
        pipeline, tmp_path, capsys):
    huge = "C" * 24000
    raw = tmp_path / "raw.tsv"
    raw.write_text(pathlib.Path(RAW).read_text() + f"ACDEFGHIKL\t{huge}\t10\n")
    out = tmp_path / "dataset"
    assert main(["--config", pipeline["cfg"], "--quiet", "ingest",
                 "--in", str(raw), "--out", str(out)]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["drops"] == dict(EXPECTED_DROPS, bad_smiles=3 + 1)
    assert (out / "dataset.tsv").read_text() == \
        (pathlib.Path(pipeline["data"]) / "dataset.tsv").read_text()
    lines = (out / "dataset.tsv").read_text().splitlines()
    (out / "dataset.tsv").write_text("\n".join(with_cell(lines, 7, 4, huge)) + "\n")
    for command in ("featurize", "export-graphs"):
        target = tmp_path / command
        assert main(["--quiet", "--config", pipeline["cfg"], command,
                     "--dataset", str(out), "--subset", "all",
                     "--out", str(target)]) == 2
        assert_refused(capsys.readouterr().err, STALE)
        assert not target.exists()


def test_receptor_past_max_residues_is_a_bad_receptor_drop_and_a_bad_dataset_line(
        pipeline, tmp_path, capsys):
    huge = "A" * (bindkit.fasta.MAX_RESIDUES + 1)
    raw = tmp_path / "raw.tsv"
    raw.write_text(pathlib.Path(RAW).read_text() + f"{huge}\tCCO\t10\n")
    out = tmp_path / "dataset"
    assert main(["--config", pipeline["cfg"], "--quiet", "ingest",
                 "--in", str(raw), "--out", str(out)]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["drops"] == dict(EXPECTED_DROPS, bad_receptor=1 + 1)
    assert (out / "dataset.tsv").read_text() == \
        (pathlib.Path(pipeline["data"]) / "dataset.tsv").read_text()
    lines = (out / "dataset.tsv").read_text().splitlines()
    (out / "dataset.tsv").write_text("\n".join(with_cell(lines, 7, 3, huge)) + "\n")
    for command in ("featurize", "export-graphs"):
        target = tmp_path / command
        assert main(["--quiet", "--config", pipeline["cfg"], command,
                     "--dataset", str(out), "--subset", "all",
                     "--out", str(target)]) == 2
        assert_refused(capsys.readouterr().err, STALE)
        assert not target.exists()


def test_fasta_record_past_max_residues_exits_2(tmp_path, capsys):
    fasta = tmp_path / "receptors.fasta"
    fasta.write_text(">P1\nMKV\n>P2 long\n"
                     + "A" * (bindkit.fasta.MAX_RESIDUES + 1) + "\n")
    raw = tmp_path / "raw.tsv"
    raw.write_text("receptor_fasta\tligand_smiles\tki_nm\n"
                   + "".join(f"@file:P1\t{smiles}\t10.0\n"
                             for smiles in ("CCO", "c1ccccc1", "CC(=O)O")))
    cfg = tmp_path / "pipeline.toml"
    cfg.write_text(f'[paths]\nfasta = "{fasta}"\n')
    out = tmp_path / "d"
    assert main(["--quiet", "--config", str(cfg), "ingest", "--in", str(raw),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "'P2'" in err, err
    assert f"more than {bindkit.fasta.MAX_RESIDUES}" in err
    assert not out.exists()


# SMILES pieces: valid atoms and bonds, broken brackets, long digit runs,
# huge and nine-digit charges, and non-ASCII digits, letters and spaces.
SMILES_PIECES = (
    "C", "c1ccccc1", "N", "O", "Cl", "(", ")", "(=O)", "=", "#", "1", "%12",
    ".", "[NH4+]", "[O-]", "[13CH3]", "[C@@H]", "[", "]", "[C+999999999]",
    "[C-99999999999]", "[C+99999999999999999999]", "[CH1234567890]",
    "[" + "1" * 5000 + "C]", "[123456789C]", "*", " ", "²", "٣",
    "é", "\u00a0",
)
RECEPTOR_CELLS = ("ACDEFGHIKL", "mktwqenlgs", "@file:recA", "@file:recB",
                  "@file:nope", "@file:", "MKV1", "ACDÉ", "")
KI_CELLS = ("10", "3.5e4", "0.002", "0", "-5", "abc", "", "nan", "inf",
            "1e999", "1e-9", "1e12", "٣")
raw_row = st.tuples(
    st.sampled_from(RECEPTOR_CELLS),
    st.lists(st.sampled_from(SMILES_PIECES), max_size=8).map("".join),
    st.sampled_from(KI_CELLS),
    st.sampled_from(((), (), (), ("1",))),             # a fourth cell
).map(lambda r: "\t".join(r[:3] + r[3]))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.lists(raw_row, max_size=12))
def test_fuzzed_raw_tsv_never_exits_3_and_accounts_every_row(pipeline, rows):
    # three distinct pairs survive, so the split always succeeds
    rows = [f"ACDEFGHIKL\t{smiles}\t10" for smiles in ("CCO", "CCN", "CCC")] + rows
    with tempfile.TemporaryDirectory() as tmp:
        raw = pathlib.Path(tmp) / "raw.tsv"
        raw.write_text("receptor_fasta\tligand_smiles\tki_nm\n"
                       + "".join(row + "\n" for row in rows), encoding="utf-8")
        out = pathlib.Path(tmp) / "dataset"
        assert main(["--config", pipeline["cfg"], "--quiet", "ingest",
                     "--in", str(raw), "--out", str(out)]) == 0
        prov = json.loads((out / "provenance.json").read_text())
        assert (sum(prov["drops"].values()) + prov["n_records"]
                + prov["duplicates_merged"]) == len(rows)


# --- dataset.tsv fuzzing --------------------------------------------------------

# Bytes added to a cell: non-ASCII letters and space, and bytes that are not
# UTF-8 (a lone continuation byte, a Latin-1 e-acute, an invalid lead byte).
ODD_BYTES = ("é".encode(), " ".encode(), "٣".encode(), b"\x80", b"\xe9",
             b"\xff")
row_no = st.integers(0, 28)                 # 0 is the header
col_no = st.integers(0, 6)
dataset_edit = st.one_of(
    st.tuples(st.sampled_from(("swap-cells", "copy-cell")), row_no, col_no,
              row_no, col_no),
    st.tuples(st.just("empty-cell"), row_no, col_no),
    st.tuples(st.sampled_from(("swap-lines", "copy-line")), row_no, row_no),
    st.tuples(st.sampled_from(("empty-line", "crlf", "huge-ligand")), row_no),
    st.tuples(st.just("odd-bytes"), row_no, col_no, st.sampled_from(ODD_BYTES)),
    st.tuples(st.just("log-ki"), row_no, st.sampled_from((b"1e308", b"-400")),
              st.booleans()),
)


def edit_dataset_lines(lines: list[bytes], edit) -> None:
    """Apply one edit, in place, to the lines of a dataset.tsv (no line
    ends).  A cell index wraps round the cells its line has."""
    def cells(row):
        return lines[row].split(b"\t")

    def put(row, col, value):
        parts = cells(row)
        parts[col % len(parts)] = value
        lines[row] = b"\t".join(parts)

    def get(row, col):
        parts = cells(row)
        return parts[col % len(parts)]

    kind, *args = edit
    if kind == "swap-cells":
        r1, c1, r2, c2 = args
        a, b = get(r1, c1), get(r2, c2)
        put(r1, c1, b)
        put(r2, c2, a)
    elif kind == "copy-cell":
        r1, c1, r2, c2 = args
        put(r2, c2, get(r1, c1))
    elif kind == "empty-cell":
        put(*args, b"")
    elif kind == "swap-lines":
        r1, r2 = args
        lines[r1], lines[r2] = lines[r2], lines[r1]
    elif kind == "copy-line":
        r1, r2 = args
        lines.insert(r2 + 1, lines[r1])
    elif kind == "empty-line":
        lines[args[0]] = b""
    elif kind == "crlf":
        lines[args[0]] += b"\r"
    elif kind == "huge-ligand":
        put(args[0], 4, b"C" * (bindkit.smiles.MAX_ATOMS + 1))
    elif kind == "odd-bytes":
        row, col, extra = args
        put(row, col, get(row, col) + extra)
    else:                                   # a log_ki, with a matching ki_nm
        row, value, matching = args
        put(row, 6, value)
        if matching:
            try:
                put(row, 5, repr(10.0 ** float(value)).encode())
            except OverflowError:
                put(row, 5, b"inf")


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.lists(dataset_edit, min_size=1, max_size=3))
def test_fuzzed_dataset_tsv_never_exits_3_and_keeps_every_row(pipeline, edits):
    """featurize and export-graphs serve only the dataset.tsv that ingest
    wrote: each exits 0 exactly when the edits leave the file unchanged,
    and otherwise 2, naming the stale file and writing no --out."""
    original = (pathlib.Path(pipeline["data"]) / "dataset.tsv").read_bytes()
    lines = original.split(b"\n")[:-1]
    for edit in edits:
        edit_dataset_lines(lines, edit)
    blob = b"".join(line + b"\n" for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        data = tmp / "dataset"
        shutil.copytree(pipeline["data"], data)
        (data / "dataset.tsv").write_bytes(blob)
        feats, graphs = tmp / "feats", tmp / "graphs.jsonl"
        codes, errs = [], []
        for command, out in (("featurize", feats), ("export-graphs", graphs)):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                codes.append(main(["--quiet", "--config", pipeline["cfg"], command,
                                   "--dataset", str(data), "--subset", "all",
                                   "--out", str(out)]))
            errs.append(err.getvalue())
        if blob != original:
            assert codes == [2, 2], (codes, errs)
            for err in errs:
                assert_refused(err, STALE)
            assert not feats.exists() and not graphs.exists()
            return
        assert codes == [0, 0], errs
        keys = [row.split("\t")[0] for row in blob.decode().split("\n")[1:] if row]
        assert (feats / "ids.txt").read_text(encoding="utf-8").split("\n") == \
            keys + [""]
        X, y = read_features(str(feats))
        assert X.shape[0] == len(y) == len(keys)
        with open(graphs, encoding="utf-8") as fh:
            assert [json.loads(line)["id"] for line in fh] == keys


# --- every output written whole, by _formats._write --------------------------


def _writing_call(node):
    """Why the ast.Call node writes or removes a file, or None: an open with
    a mode that writes, appends, creates or updates (or a mode that is not
    a literal), os.open, or a call that removes, renames or saves."""
    func = node.func
    name = getattr(func, "attr", getattr(func, "id", None))
    owner = getattr(getattr(func, "value", None), "id", None)
    if name == "open":
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if owner == "os" or (mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))):
            return "opens a file for writing"
    if owner in ("os", "shutil") and name in (
            "remove", "unlink", "rmdir", "rename", "replace", "copy",
            "copyfile", "move", "rmtree"):
        return f"calls {owner}.{name}"
    if name in ("write_text", "write_bytes", "unlink", "tofile", "save",
                "savez", "savetxt"):
        return f"calls .{name}"
    return None


def test_only_the_one_writer_writes_or_removes_files():
    """_formats._write is the only code of bindkit that opens a file for
    writing, so every output reaches disk whole, under one failure rule,
    and _formats._remove the only other code that removes one."""
    package = pathlib.Path(bindkit.cli.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "_formats.py":
            writer, remover = [
                fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                and fn.name in ("_write", "_remove")]
            allowed = {id(node) for node in ast.walk(writer)}
            allowed |= {id(node) for node in ast.walk(remover)
                        if isinstance(node, ast.Call)
                        and _writing_call(node) == "calls os.remove"}
        found += [f"{path.name}:{node.lineno} {why}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and (why := _writing_call(node))]
    assert found == []


def test_one_writer_guard_sees_each_kind_of_write():
    """The guard above flags what it is meant to, and passes over reads."""
    calls = {
        "open(p, 'w')": True, "open(p, mode='ab')": True, "open(p, 'r+')": True,
        "open(p, 'x')": True, "open(p, m)": True, "os.open(p, 0)": True,
        "os.remove(p)": True, "os.unlink(p)": True, "os.replace(p, q)": True,
        "p.write_text(t)": True, "np.save(p, a)": True, "shutil.move(p, q)": True,
        "open(p)": False, "open(p, 'rb')": False, "s.replace('a', 'b')": False,
        "os.path.join(p, q)": False, "os.makedirs(p)": False,
    }
    for code, writes in calls.items():
        call = ast.parse(code).body[0].value
        assert (_writing_call(call) is not None) == writes, code


@pytest.mark.parametrize("old", [b"old bytes\n", None], ids=["replaced", "new"])
def test_interrupted_write_leaves_the_output_as_it_was(tmp_path, old):
    """A write interrupted midway, even by KeyboardInterrupt, leaves the
    output with its old bytes, or absent, and leaves no temporary file."""
    from bindkit._formats import _write
    out = tmp_path / "out.txt"
    if old is not None:
        out.write_bytes(old)

    def parts():
        yield "new "
        yield b"bytes"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _write(out, parts())
    assert os.listdir(tmp_path) == ([] if old is None else ["out.txt"])
    assert old is None or out.read_bytes() == old
    _write(out, ["new ", b"bytes\n"])
    assert os.listdir(tmp_path) == ["out.txt"]
    assert out.read_bytes() == b"new bytes\n"


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o755])
def test_replaced_output_keeps_its_mode(tmp_path, mode):
    """A replaced output keeps the mode it had, so an output its user
    restricted stays restricted; a new one gets a new file's mode."""
    from bindkit._formats import _write
    out, new = tmp_path / "out.txt", tmp_path / "new.txt"
    out.write_bytes(b"old\n")
    out.chmod(mode)
    _write(out, ["new\n"])
    _write(new, ["new\n"])
    assert out.read_bytes() == b"new\n"
    assert stat.S_IMODE(out.stat().st_mode) == mode
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask


def test_output_its_user_may_not_write_is_refused(tmp_path, monkeypatch):
    """An output its user may not write is refused, naming it, and keeps its
    bytes, as when it was opened in place; no .part file is left.  (The
    check is os.access, which passes every file for root, so it is faked.)"""
    from bindkit._formats import _write
    out = tmp_path / "out.txt"
    out.write_bytes(b"old\n")
    out.chmod(0o444)
    monkeypatch.setattr(os, "access", lambda p, m: p != os.path.realpath(out))
    with pytest.raises(PermissionError) as info:
        _write(out, ["new\n"])
    assert info.value.filename == out
    assert out.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_error_names_the_output_path(pipeline, tmp_path, capsys,
                                           monkeypatch):
    """An OSError of an output names the output path as given, not the
    temporary file written beside it."""
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["--quiet", "--config", pipeline["cfg"], "predict", "--model",
                 pipeline["model"], "--features", pipeline["feats"]["test"],
                 "--out", os.path.join("nodir", "p.txt")]) == 2
    assert capsys.readouterr().err == (
        "bindkit: data error: [Errno 2] No such file or directory: "
        f"{os.path.join('nodir', 'p.txt')!r}\n")
    assert os.listdir(tmp_path) == []


def test_out_hard_linked_to_another_file_leaves_that_file(pipeline, tmp_path):
    """An --out that is a hard link to a file the command does not read gets
    the new bytes under a new inode; the file's other name keeps its own."""
    other, out = tmp_path / "other.txt", tmp_path / "pred.txt"
    other.write_bytes(b"kept\n")
    os.link(other, out)
    assert main(["--quiet", "--config", pipeline["cfg"], "predict", "--model",
                 pipeline["model"], "--features", pipeline["feats"]["test"],
                 "--out", str(out)]) == 0
    assert other.read_bytes() == b"kept\n"
    assert out.read_bytes() == pathlib.Path(pipeline["preds"]).read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["other.txt", "pred.txt"]


def test_symlinked_out_stays_a_symlink_to_the_new_bytes(pipeline, tmp_path):
    """The new bytes of a symlinked --out land in the file it points to, in
    its directory, and the link stays a link."""
    target_dir = tmp_path / "target"
    target_dir.mkdir()
    target, link = target_dir / "pred.txt", tmp_path / "link.txt"
    target.write_bytes(b"old\n")
    link.symlink_to(target)
    assert main(["--quiet", "--config", pipeline["cfg"], "predict", "--model",
                 pipeline["model"], "--features", pipeline["feats"]["test"],
                 "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == pathlib.Path(pipeline["preds"]).read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "target"]
    assert os.listdir(target_dir) == ["pred.txt"]


def test_interrupted_featurize_leaves_a_directory_read_features_refuses(
        pipeline, tmp_path, monkeypatch):
    """featurize --subset train over the features of test, interrupted at
    its second .npy file, leaves the new descriptors.npy beside the old
    pairs.npy, but no featurize.json: write_features removes the old one
    first and writes the new one last, so read_features, and predict,
    refuse the directory rather than pair the old sidecar with new rows.
    A dataset directory needs no such step: write_dataset writes its
    provenance.json last, and _read_dataset refuses a dataset.tsv or store
    whose digest it does not record."""
    import bindkit._formats
    from bindkit.model import BITS_FILE, DENSE_FILE
    out = tmp_path / "ft"
    shutil.copytree(pipeline["feats"]["test"], out)
    old = files(out)
    write = bindkit._formats._write

    def interrupted(path, parts):
        if os.path.basename(path) == BITS_FILE:
            raise KeyboardInterrupt
        write(path, parts)
    monkeypatch.setattr(bindkit._formats, "_write", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["--quiet", "--config", pipeline["cfg"], "featurize", "--dataset",
              pipeline["data"], "--subset", "train", "--out", str(out)])
    monkeypatch.undo()
    new = files(out)
    assert new[DENSE_FILE] != old[DENSE_FILE]
    assert new["pairs.npy"] == old["pairs.npy"]
    assert sorted(new) == sorted(set(old) - {"featurize.json"})
    with pytest.raises(FileNotFoundError):
        read_features(str(out))
    assert main(["--quiet", "--config", pipeline["cfg"], "predict", "--model",
                 pipeline["model"], "--features", str(out), "--out",
                 str(tmp_path / "p.txt")]) == 2
    assert not (tmp_path / "p.txt").exists()
