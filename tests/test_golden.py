"""Pinned values of the pair key and the circular fingerprint.

The key and fingerprint values were recorded from the implementation
before its refinement rounds were merged into one kernel; any change to
hashing, refinement or key assembly shows up here as a changed hex digest or
bit set.  The model digests were recorded from the dense (row, column)
bincount split search, before two-bin columns moved to a sparse layout; a
changed split, tie-break or leaf value changes the saved bytes.  The
featurize and export-graphs digests were recorded before load_dataset
shared one parsed molecule and receptor among the records that name them.
featurize wrote a dense float64 X.npy then; its digest now pins np.save of
the decoded feature store, and the models are trained on the packed store.
The two featurize.json and the two model digests were re-recorded when the
exact splitter was removed: the config digest no longer covers a splitter
key, and model.json lost its "splitter" parameter and moved to version 2.
Every other byte of both files, the trees included, was unchanged.  The
model digests were re-recorded again when trees became oblivious (version
3, with a "schema" field); they are the bytes of the trees that the
level-wise dense reference of tests/test_gbdt.py grows on these features.
The "subsampled, four bins" digest was re-recorded when split search moved
to residuals rounded to integers (gbdt.Q): on these few rows the first
tree takes another second-level split and most later trees differ.  Its
bytes are still those of the reference, which quantizes the same way.  The
"fixture config" model did not change.
The parse-outcome digests were recorded from the character-at-a-time
parser, before SMILES were cut into tokens by one regular expression.
The canonical config JSON digests were recorded when the canonical form
was built key by key, before the config fields were named after their keys.
The train/descriptors.npy and train/fingerprints.npy digests were
re-recorded when the feature store became factored: each block holds each
distinct receptor or ligand once, in order of first appearance, and
pairs.npy (digests added then) gives each pair's two rows.  The decoded
X.npy digests, both featurize.json digests and the model digests did not
change.  The valid blocks kept their digests because every valid pair has
a receptor and a ligand of its own.  The pred.txt digest was recorded
before that change, from the one-row-per-pair store and router, and still
holds after it.
The train/ and valid/fingerprints.npy digests were re-recorded, and the
fingerprint_offsets.npy digests added, when the bit block became a CSR of
each distinct ligand's set bits (<u2 bits, <i4 row offsets) in place of
packed uint8 rows; the decoded X.npy digests, which expand the CSR, and
every model and pred.txt digest did not change.
The train/ and valid/featurize.json digests were re-recorded when
featurize.json stopped listing the fp_j names of the bit columns, which
nbits implies: its columns are the 78 descriptor names alone, and
read_features rebuilds the full list before it takes the schema CRC.  That
schema (FIXTURE_SCHEMA), recorded before the change, the model and pred.txt
digests and every other file's digest did not change, and a model trained
before the change (fixtures/model_4_trees.json) still predicts.
The GOLDEN_STORE digests were recorded when ingest began writing the
dataset's feature store, from which featurize selects its split; every
other digest did not change.
"""
import csv
import hashlib
import io
import json
import pathlib
import random
import shutil
import tomllib

import numpy as np
import pytest

from bindkit.cli import main
from bindkit.config import config_from_mapping
from bindkit.dataset import pair_key
from bindkit.fasta import ProteinSequence
from bindkit.gbdt import TrainParams, save_model, train
from bindkit.model import STORE_VERSION, read_features
from bindkit.smiles import ParseError, from_smiles, parse_smiles
from testutil import FULL_TOML, dense_matrix, on_bits

CORPUS = pathlib.Path(__file__).parent / "fixtures" / "corpus.tsv"
RECEPTOR = ProteinSequence(id="recA", residues="MKTWQENLGSHMAAALDEFKR")

# name in corpus.tsv -> (pair_key with RECEPTOR, ECFP radius 2 / 2048 on-bits)
GOLDEN = {
    "acetic-acid": (
        "22e8703b43fffdb89289a0ddcb02cbf1720f431334e2d1a11bc9261ec7d42dc3",
        (496, 593, 604, 1030, 1181, 1200, 1822, 1932)),
    "pyridine": (
        "2fefd33ef91ebb550d8dc8f41a363bfd583aec27a25bc466fa02d903a781a033",
        (120, 302, 310, 398, 967, 1109, 1296, 1520, 1955)),
    "paracetamol": (
        "48b717f186f75a2ad5cdd0091af5b51473b72e2c61910ed168caa601385b61a9",
        (33, 127, 363, 479, 496, 512, 593, 604, 666, 1082, 1093, 1181, 1200,
         1244, 1276, 1296, 1424, 1491, 1664, 1822, 1994)),
    "nicotine": (
        "67402526d4cdf14bec4cc32bdbc26a84e7e0d288c48b113c93e117be758f36de",
        (100, 118, 258, 302, 310, 392, 400, 512, 593, 635, 666, 710, 717, 752,
         967, 1032, 1040, 1186, 1247, 1269, 1277, 1296, 1520, 1583, 1664, 1738,
         1862, 1888, 1955)),
    "caffeine": (
        "b16acdbaa9767f1d3b309021c4079723e6532c0bfc55f8cc57b5ffef65f19067",
        (92, 140, 399, 512, 593, 603, 604, 631, 801, 828, 1080, 1133, 1205,
         1296, 1358, 1502, 1520, 1544, 1678, 1689, 1705, 1720, 1753, 1777, 1862)),
    "acetate-methylammonium": (
        "95ea69b086103de2856b0b0ce6ca9b2b8bc678bab0642375fdacc6a933a40927",
        (120, 385, 496, 593, 604, 1049, 1200, 1822, 1857, 1859)),
}


def corpus_smiles():
    with open(CORPUS, encoding="utf-8", newline="") as fh:
        return {row["name"]: row["smiles"]
                for row in csv.DictReader(fh, delimiter="\t")}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pinned_pair_key_and_fingerprint(name):
    mol = from_smiles(corpus_smiles()[name])
    key, bits = GOLDEN[name]
    assert pair_key(RECEPTOR, mol) == key
    assert on_bits(mol, radius=2, nbits=2048) == bits


# --- canonical config JSON -------------------------------------------------------

# config -> sha256 of its canonical JSON, the config_digest that ingest and
# featurize stamp into every artifact
GOLDEN_CONFIGS = {
    "defaults": (
        "", "90c4599589f0d9bc230dd7fd67ce5f89da7b69b264934482796bc1148752378d"),
    "every key set": (
        FULL_TOML, "6f64e542da1aa1a892b476f415d079981df24071c1cf2f131fa26e4ab1b842c1"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_pinned_canonical_config_json(name):
    text, digest = GOLDEN_CONFIGS[name]
    cfg = config_from_mapping(tomllib.loads(text))
    assert hashlib.sha256(cfg.canonical_json().encode("utf-8")).hexdigest() == digest
    assert cfg.digest() == digest


# --- saved model bytes ---------------------------------------------------------

FIXTURES = CORPUS.parent
MODEL_PARAMS = dict(n_trees=40, max_depth=3, learning_rate=0.2,
                    min_samples_leaf=2, seed=11)

# TrainParams over MODEL_PARAMS -> sha256 of model.json trained on the fixture
# features
GOLDEN_MODELS = {
    "fixture config": (
        {}, "a528ca05ea0baad0a3657dbf55fff3ec80136f3a26b37fd6eef40b6b44635573"),
    "subsampled, four bins": (
        {"subsample": 0.8, "n_histogram_bins": 4},
        "d7054946ae4c6c895793ef8cbf534d9128bb72bff03359a62f528615ba82fe81"),
    "leaf minimum 4": (
        {"min_samples_leaf": 4},
        "46601327ff9d05c1e16b6a8f32d24efa91329b00b19c7ef5bc0d83de1b38367c"),
    "subsampled, leaf minimum 5": (
        {"min_samples_leaf": 5, "subsample": 0.7},
        "f8f25ab5a754ddddd362224e0c2a50d59ccfe3750323943049ae7b4d8c3601bc"),
    "leaf minimum 1, depth 6": (
        {"min_samples_leaf": 1, "max_depth": 6},
        "aa069868260ac8776186ac26b2887678feab6728cbe776c8a131d732e7f1d684"),
    "leaf minimum 1, two bins": (
        {"n_histogram_bins": 2, "min_samples_leaf": 1},
        "3cfe527cfcec3d095f27d61decbd0e4de0ae855524c80472ed5e929105120aab"),
}


# file of the fixture pipeline -> sha256; the config names the FASTA file by a
# relative path, so config_digest in featurize.json is the same in any checkout.
# X.npy stands for np.save of the decoded feature store of its directory.  The
# block digests were first derived from the dense X.npy of the implementation
# before the packed store: np.save of its 78 descriptor columns, and of its bit
# columns packed LSB-first, one row per pair.
GOLDEN_ARTIFACTS = {
    "train/X.npy":
        "ff9574e5f021e0a42b6c6d215bb70b6fb369d110d31271c8a03409f5182350aa",
    "train/descriptors.npy":
        "a56e757d91c35e2bcfff177866fa4770e15f710f2f4d7f954980e74e05a08a89",
    "train/fingerprints.npy":
        "84f9ab83df2abe4fed5627ce97f13d7633040272f130825c1db4cd9a02fb5d85",
    "train/fingerprint_offsets.npy":
        "5c25a60acd1e8632b638c11bd06415b0bfd92b4e4c0ab790bbf57518ebe1f210",
    "train/pairs.npy":
        "3db81c4e9f379c6ef57c38ff298a9e1ae957448286c502c7fb2bfd901ee1005b",
    "train/y.npy":
        "5279694543c5357bf193cb40697dbb541aec0a73a89943e6d24adaa7c7c79096",
    "train/ids.txt":
        "adc6cdcdf6e6eed7b4ab91abe12b78574792b85a107aa787385b3d51bf938076",
    "train/featurize.json":
        "b2794becbc06e73d01a99e7601006e80f0bc4218c81a5bdb12fd4636bcd7d2af",
    "valid/X.npy":
        "9fc3f9cbeb6257954b1b383831c57049fcc3097b98d216c8ecc22207ccc948a7",
    "valid/descriptors.npy":
        "7e86b0d413bdd2d4cd48c5bab360044b3ad06d2276cbb6a18103066c70011b5c",
    "valid/fingerprints.npy":
        "c1862c65f74b77ba1adde397c50afc5f8402c3805bc0f494be418e5ac02522aa",
    "valid/fingerprint_offsets.npy":
        "27db8cabd0904c8799a11ade351e9fdf7432938736ab5c56ea4fd38d42394ca6",
    "valid/pairs.npy":
        "f15fd9c0a46ad26ce85cf0771c6d4fc1e956f8d10581bc9fff98529ecb155f50",
    "valid/y.npy":
        "32db329fd329d2723ec196d5fa2d0017a9d48362cda742a5162eb88a68250f6f",
    "valid/ids.txt":
        "040f4b83206c39c76aa2ce74d9598b5659c1eb19eb787038228fe162422b0370",
    "valid/featurize.json":
        "b945c34e3f3a52fdc01056af784a546d69575e041b7d33fe9b4b2003b8271ef5",
    "graphs.jsonl":
        "563bec2e7a43ddcc29bc052dd74afd07780470bcc1aa936971e8c8cc156300a9",
    "pred.txt":
        "043428dffc8074926380a43cc070a12a9ab77e2e1f7b25facf5cdb041f2c1810",
}


# The store version, and the digests of the two blocks of the feature store
# that ingest writes into the fixture's dataset directory.  featurize serves
# a split only from a store of its own STORE_VERSION, so a change to the
# bytes of either block (another fingerprint hash, descriptor or layout)
# fails here until the version changes with it; a store written before the
# change is then computed afresh, never served stale.
GOLDEN_STORE = ("1", {
    "dataset/features/descriptors.npy":
        "a56e757d91c35e2bcfff177866fa4770e15f710f2f4d7f954980e74e05a08a89",
    "dataset/features/fingerprints.npy":
        "33b66978e02ad2490d51ce1edba30f23b574035dad0add551a43f765ade85076",
})


@pytest.fixture(scope="module")
def fixture_pipeline(tmp_path_factory):
    """Ingest the CLI fixture table, featurize train and valid (256-bit ECFP),
    export the graphs of every record, train on train with valid for
    validation and predict train; returns the output directory."""
    root = tmp_path_factory.mktemp("golden")
    shutil.copy(FIXTURES / "receptors.fasta", root / "receptors.fasta")
    (root / "pipeline.toml").write_text(
        'seed = 11\n\n[fingerprint]\nnbits = 256\n\n'
        '[paths]\nfasta = "receptors.fasta"\n')
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        cfg = ["--config", "pipeline.toml", "--quiet"]
        assert main(cfg + ["ingest", "--in", str(FIXTURES / "raw_affinities.tsv"),
                           "--out", "dataset"]) == 0
        for name in ("train", "valid"):
            assert main(cfg + ["featurize", "--dataset", "dataset",
                               "--subset", name, "--out", name]) == 0
        assert main(cfg + ["export-graphs", "--dataset", "dataset",
                           "--subset", "all", "--out", "graphs.jsonl"]) == 0
        # the boosting settings of MODEL_PARAMS, in a config of their own so
        # that the featurize.json digests keep theirs
        (root / "train.toml").write_text(
            "seed = 11\n\n[gbdt]\nn_trees = 40\nmax_depth = 3\n"
            "learning_rate = 0.2\nmin_samples_leaf = 2\n")
        fit = ["--config", "train.toml", "--quiet"]
        assert main(fit + ["train", "--train", "train", "--valid", "valid",
                           "--out", "model.json"]) == 0
        assert main(fit + ["predict", "--model", "model.json",
                           "--features", "train", "--out", "pred.txt"]) == 0
    return root


# Features.schema of the fixture's train and valid directories, the CRC of
# their full column list
FIXTURE_SCHEMA = "ba788026"

# fixtures/model_4_trees.json, 4 trees of MODEL_PARAMS trained on the train
# directory by the code that listed every column's name in featurize.json:
# directory -> sha256 of its predictions
OLD_MODEL_PREDICTIONS = {
    "train": "874a244ad4f3724f54c5059eb1fe6ef5d10182c3b88b4265832e489fcdd1d3b7",
    "valid": "a25a303878459e1d47b80453e978a7ec8598b593a5ee0c63c4ea8b1a65a0e313",
}


@pytest.fixture(scope="module")
def fixture_features(fixture_pipeline):
    """(Features, y) of the train and valid directories."""
    return {name: read_features(fixture_pipeline / name)
            for name in ("train", "valid")}


def artifact_bytes(path):
    if path.name != "X.npy":
        return path.read_bytes()
    buf = io.BytesIO()
    np.save(buf, dense_matrix(read_features(path.parent)[0]))
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_ARTIFACTS))
def test_pinned_pipeline_artifacts(name, fixture_pipeline):
    digest = hashlib.sha256(artifact_bytes(fixture_pipeline / name)).hexdigest()
    assert digest == GOLDEN_ARTIFACTS[name]


def test_pinned_store_version_and_blocks(fixture_pipeline):
    version, digests = GOLDEN_STORE
    assert STORE_VERSION == version
    assert {name: hashlib.sha256((fixture_pipeline / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_pinned_feature_schema(fixture_pipeline, fixture_features):
    """Both directories read to the schema of the full column list, which
    train stamps into model.json."""
    assert [X.schema for X, _ in fixture_features.values()] == [FIXTURE_SCHEMA] * 2
    model = json.loads((fixture_pipeline / "model.json").read_text())
    assert model["schema"] == FIXTURE_SCHEMA


@pytest.mark.parametrize("name", sorted(OLD_MODEL_PREDICTIONS))
def test_model_of_the_full_column_list_predicts(name, fixture_pipeline, tmp_path):
    """A model.json trained when featurize.json listed every column's name
    predicts with exit 0, and the same values, on features written now."""
    model = FIXTURES / "model_4_trees.json"
    assert json.loads(model.read_text())["schema"] == FIXTURE_SCHEMA
    out = tmp_path / "pred.txt"
    assert main(["--quiet", "predict", "--model", str(model), "--features",
                 str(fixture_pipeline / name), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        OLD_MODEL_PREDICTIONS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_pinned_model_bytes(name, fixture_features, tmp_path):
    extra, digest = GOLDEN_MODELS[name]
    model, _ = train(*fixture_features["train"],
                     TrainParams(**{**MODEL_PARAMS, **extra}),
                     valid=fixture_features["valid"])
    path = tmp_path / "model.json"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# --- parse outcomes --------------------------------------------------------------

# Pieces of ASCII SMILES.  Strings drawn from the first set often parse;
# strings drawn from both are mostly malformed: near-atoms, bracket parts,
# bad ring labels, whitespace and stray symbols.
VALID_PIECES = (
    "C", "C", "c", "c", "N", "n", "O", "o", "S", "s", "P", "B", "F", "I",
    "Cl", "Br", "[nH]", "[NH4+]", "[O-]", "[13CH3]", "[C@@H]", "[S+2]",
    "=", "#", ":", "/", "\\", "1", "2", "%12", "(", ")", "(C)", "(=O)", ".",
)
SOUP_PIECES = VALID_PIECES + (
    "p", "b", "Cs", "Bra", "H", "X", "a", "l", "*", "[", "]", "[C", "[13",
    "[Na", "[Xe]", "@", "H2", "+", "++", "-", "--", "+2", "-3", "0", "9",
    "%", "%1", "%01", " ", "\t", ",", "$",
)


def token_soup(n=2000, seed=20191018):
    """n strings of 1 to 14 pieces, the same on every run."""
    rng = random.Random(seed)
    return ["".join(rng.choice(pieces) for _ in range(rng.randrange(1, 15)))
            for pieces in (rng.choice((VALID_PIECES, SOUP_PIECES))
                           for _ in range(n))]


def parse_outcome(text):
    """The repr of the parsed molecule, or the error's class, offset and
    message."""
    try:
        return repr(parse_smiles(text))
    except ParseError as exc:
        return f"{type(exc).__name__} {exc.offset} {exc}"


def fixture_column(name, column):
    with open(FIXTURES / name, encoding="utf-8", newline="") as fh:
        return [row[column] for row in csv.DictReader(fh, delimiter="\t")]


# input set -> (number of inputs, sha256 of their outcomes, one line each)
GOLDEN_PARSES = {
    "corpus": (
        54, "bb1570af89efe5eef4d1c5f40252bf34d17e3f2e74146ebbe49ffe32cdc58fdb"),
    "malformed": (
        15, "47671a23b52395060b5dd35eef8b055fabd4ce6595773351befd3231a23e827b"),
    "token soup": (
        2000, "077dfbb9b2a31d7776e7f5b4853b0b70f025cb569c9de1d452d44f100a0f02b9"),
}

PARSE_INPUTS = {
    "corpus": lambda: fixture_column("corpus.tsv", "smiles"),
    "malformed": lambda: fixture_column("malformed.tsv", "smiles"),
    "token soup": token_soup,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PARSES))
def test_pinned_parse_outcomes(name):
    texts = [t for t in PARSE_INPUTS[name]() if t.isascii()]
    lines = "".join(f"{text!r}\t{parse_outcome(text)}\n" for text in texts)
    count, digest = GOLDEN_PARSES[name]
    assert len(texts) == count
    assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == digest
