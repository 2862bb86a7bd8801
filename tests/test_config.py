"""Config parsing and digest tests."""
import hashlib
import json
import tomllib
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bindkit.cli import main
from bindkit.config import (
    _SCHEMA,
    MAX_NBITS,
    MAX_RADIUS,
    ConfigError,
    PipelineConfig,
    TrainParams,
    config_from_mapping,
    load_config,
)
from testutil import FULL_TOML


def loaded(tmp_path, text):
    path = tmp_path / "pipeline.toml"
    path.write_text(text)
    return load_config(path)


def test_parse_toml_value_types(tmp_path):
    # each value reaches the schema with its TOML type
    cfg = loaded(tmp_path,
                 "seed = 3\n"
                 "[split]\nratios = [0.5, 0.25, 0.25]\n"
                 "[curation]\nki_min_nm = 1\nki_max_nm = 1e6\n"
                 "[gbdt]\nlearning_rate = 0.25\nsubsample = 1\n"
                 "[paths]\nfasta = 'receptors.fasta'\n")
    assert cfg.seed == 3 and cfg.ratios == (0.5, 0.25, 0.25)
    assert cfg.bounds.min_nm == 1.0 and cfg.bounds.max_nm == 1e6
    assert cfg.gbdt.learning_rate == 0.25 and cfg.gbdt.subsample == 1.0
    assert cfg.fasta == "receptors.fasta"
    for text, message in (('seed = "3"\n', "expected int, got str"),
                          ("seed = 3.0\n", "expected int, got float"),
                          ("seed = true\n", "unexpected boolean"),
                          ("seed = 1979-05-27\n", "expected int, got date"),
                          ("seed = [3]\n", "expected int, got list"),
                          ("[split]\nratios = []\n", "three entries"),
                          ("[paths]\nfasta = 3\n", "expected str, got int")):
        with pytest.raises(ConfigError, match=message):
            loaded(tmp_path, text)


def test_parse_toml_sections_and_comments(tmp_path):
    cfg = loaded(tmp_path,
                 "# leading comment\n"
                 "seed = 1   # trailing comment\n"
                 "\n"
                 "[paths]\n"
                 'fasta = "a # not a comment"\n'
                 "[gbdt]\n"
                 "n_trees = 2\n")
    assert cfg.seed == 1
    assert cfg.fasta == "a # not a comment"
    assert cfg.gbdt.n_trees == 2
    # an inline table is a section, as in TOML 1.0
    assert loaded(tmp_path, "gbdt = {n_trees = 5}\n").gbdt.n_trees == 5


def test_parse_toml_rejects_malformed_lines(tmp_path):
    for text in ("just words\n",
                 "[unclosed\n",
                 "[]\n",
                 "key =\n",
                 'key = "unterminated\n',
                 "key = [1, 2\n",
                 "key = what\n",
                 "seed = .5\n",
                 'seed = "C:\\data"\n',
                 "seed = 1\fn_trees = 2\n"):
        with pytest.raises(ConfigError, match="pipeline.toml: not valid TOML"):
            loaded(tmp_path, text)


def test_parse_toml_rejects_duplicates(tmp_path):
    for text in ("seed = 1\nseed = 2\n",
                 "[gbdt]\nn_trees = 1\nn_trees = 2\n",
                 "[gbdt]\n[gbdt]\n"):
        with pytest.raises(ConfigError, match="pipeline.toml: not valid TOML"):
            loaded(tmp_path, text)


def test_defaults():
    cfg = load_config(None)
    assert cfg.seed == 2024
    assert cfg.ratios == (0.8, 0.1, 0.1)
    assert cfg.bounds.min_nm == 1e-3 and cfg.bounds.max_nm == 1e10
    assert cfg.radius == 2 and cfg.nbits == 2048
    assert cfg.bin_start == -2.0 and cfg.bin_stop == 12.0
    assert cfg.bin_width == 0.5 and cfg.threshold == 4.0
    assert cfg.workers == 1
    assert cfg.property_table is None and cfg.fasta is None
    # the training seed follows the pipeline seed
    assert cfg.gbdt.seed == 2024


def test_full_config_round_trip(tmp_path):
    path = tmp_path / "pipeline.toml"
    path.write_text(FULL_TOML)
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.ratios == (0.7, 0.2, 0.1)
    assert cfg.bounds.min_nm == 0.01 and cfg.bounds.max_nm == 1e9
    assert cfg.radius == 3 and cfg.nbits == 1024
    assert cfg.gbdt.n_trees == 50
    assert cfg.gbdt.early_stopping_rounds == 10
    assert cfg.gbdt.subsample == 0.8
    assert cfg.gbdt.seed == 7
    assert cfg.bin_width == 1.0 and cfg.threshold == 5.0
    assert cfg.property_table == "custom.csv"
    assert cfg.fasta == "receptors.fasta"
    assert cfg.workers == 2


def test_unknown_names_fail_loudly():
    with pytest.raises(ConfigError, match="unknown config section"):
        config_from_mapping({"fancy": {"x": 1}})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_mapping({"fingerprint": {"radois": 2}})
    with pytest.raises(ConfigError, match="unknown key 'splitter'"):
        config_from_mapping({"gbdt": {"splitter": "histogram"}})
    with pytest.raises(ConfigError, match="unknown top-level"):
        config_from_mapping({"sede": 3})


def test_type_checking():
    with pytest.raises(ConfigError, match="expected int"):
        config_from_mapping({"seed": "7"})
    with pytest.raises(ConfigError, match="boolean"):
        config_from_mapping({"seed": True})
    with pytest.raises(ConfigError, match="expected str"):
        config_from_mapping({"paths": {"fasta": 3}})
    with pytest.raises(ConfigError, match="expected list"):
        config_from_mapping({"split": {"ratios": 0.8}})


def test_value_constraints():
    with pytest.raises(ConfigError, match="power of two"):
        config_from_mapping({"fingerprint": {"nbits": 1000}})
    with pytest.raises(ConfigError, match="radius"):
        config_from_mapping({"fingerprint": {"radius": -1}})
    with pytest.raises(ConfigError, match="sum to 1"):
        config_from_mapping({"split": {"ratios": [0.7, 0.2, 0.2]}})
    with pytest.raises(ConfigError, match="three entries"):
        config_from_mapping({"split": {"ratios": [0.5, 0.5]}})
    with pytest.raises(ConfigError, match="workers"):
        config_from_mapping({"featurize": {"workers": 0}})
    with pytest.raises(ConfigError):
        config_from_mapping({"gbdt": {"learning_rate": 2.0}})
    with pytest.raises(ConfigError):
        config_from_mapping({"curation": {"ki_min_nm": -1.0}})


@pytest.mark.parametrize("text, message", [
    ("[evaluation]\nbin_start = nan\n", "finite"),
    ("[evaluation]\nbin_stop = inf\n", "finite"),
    ("[evaluation]\nbin_width = 1e-9\n", "at most 10000"),
    ("[evaluation]\nthreshold = nan\n", "finite"),
    ("[evaluation]\nbin_width = 0.3\n", "tile"),
    ("[evaluation]\nbin_start = 12.0\n", "stop > start"),
    ("[split]\nratios = [0.8, 0.1, nan]\n", "finite"),
    ("[curation]\nki_max_nm = inf\n",
     r"^curation\.ki_max_nm: must be finite, got inf$"),
    ("[gbdt]\nlearning_rate = " + "1" + "0" * 400 + "\n", "finite"),
    ("[fingerprint]\nnbits = 4611686018427387904\n", "power of two <= 65536"),
    ("[fingerprint]\nnbits = 131072\n", "power of two <= 65536"),
    ("[fingerprint]\nradius = 100000\n", r"radius must be in \[0, 8\]"),
    ("seed = " + "[" * 3000 + "]" * 3000 + "\n", "bad.toml: not valid TOML"),
    ("seed = -1\n", "seed must be >= 0"),
    ("seed = " + "9" * 5000 + "\n", "bad.toml: not valid TOML"),
], ids=["bin_start-nan", "bin_stop-inf", "bin_width-tiny", "threshold-nan",
        "bin_width-no-tiling", "bin_start-at-stop", "ratios-nan",
        "ki_max_nm-inf", "learning_rate-huge-int", "nbits-huge",
        "nbits-above-max", "radius-huge", "deep-array", "seed-negative",
        "seed-5000-digits"])
def test_values_that_crashed_a_command_are_config_errors(tmp_path, text, message):
    path = tmp_path / "bad.toml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_maxima_admit_their_own_values():
    cfg = config_from_mapping({"fingerprint": {"radius": MAX_RADIUS,
                                               "nbits": MAX_NBITS}})
    assert (cfg.radius, cfg.nbits) == (MAX_RADIUS, MAX_NBITS)
    assert load_config(None).digest() == config_from_mapping({}).digest()


def test_canonical_json_and_digest():
    cfg = load_config(None)
    text = cfg.canonical_json()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert cfg.digest() == hashlib.sha256(text.encode()).hexdigest()
    assert cfg.digest() == load_config(None).digest()
    assert config_from_mapping({"seed": 9}).digest() != cfg.digest()


def _flat(cfg):
    """The fields of cfg, the TrainParams ones as gbdt.<name>."""
    doc = asdict(cfg)
    gbdt = doc.pop("gbdt")
    return {**doc, **{f"gbdt.{k}": v for k, v in gbdt.items()}}


def test_key_table_names_every_field_once():
    """Each PipelineConfig field but gbdt is a key of exactly one section,
    each TrainParams field but seed (which follows the pipeline seed) is a
    [gbdt] key, and setting any one key to a non-default valid value
    changes that field and the digest, and nothing else."""
    keys = [key for section, table in _SCHEMA.items() if section != "gbdt"
            for key in table]
    assert sorted(keys) == sorted(f.name for f in fields(PipelineConfig)
                                  if f.name != "gbdt")
    assert set(_SCHEMA["gbdt"]) == {f.name for f in fields(TrainParams)} - {"seed"}
    assert not set(keys) & set(_SCHEMA["gbdt"])
    full = tomllib.loads(FULL_TOML)
    default = load_config(None)
    before = _flat(default)
    for section, table in _SCHEMA.items():
        body = full if section is None else full[section]
        for key in table:
            cfg = config_from_mapping({key: body[key]} if section is None
                                      else {section: {key: body[key]}})
            changed = {name for name, value in _flat(cfg).items()
                       if value != before[name]}
            field = key if section != "gbdt" else f"gbdt.{key}"
            assert changed == ({field, "gbdt.seed"} if key == "seed" else {field})
            assert cfg.digest() != default.digest()


def test_digest_ignores_formatting(tmp_path):
    a = tmp_path / "a.toml"
    b = tmp_path / "b.toml"
    a.write_text("seed = 5\n[fingerprint]\nradius = 2\n[featurize]\nworkers = 1\n")
    b.write_text("# different layout\nseed = 5   # same\n\n"
                 "[featurize]\nworkers = 1\n[fingerprint]\nradius = 2\n")
    # same resolved settings, same digest, despite different text
    assert load_config(a).digest() == load_config(b).digest()


def test_with_seed_rewrites_both_seeds():
    cfg = load_config(None).with_seed(99)
    assert cfg.seed == 99 and cfg.gbdt.seed == 99
    assert cfg.digest() != load_config(None).digest()
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        load_config(None).with_seed(-1)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.toml")


# Value tokens that have crashed, or could crash, a loader that trusts them;
# half the values drawn are plain ones, so that many configs load and reach
# evaluate.
HOSTILE_VALUES = [
    "nan", "-nan", "inf", "-inf", "+inf", "-0.0", "1e-9", "1e308", "-1e308",
    "1e400", str(2**62), str(10**30), "9" * 5000, "true", "false", '"x"',
    '"unterminated', '"', "[]", "[0.8, 0.1, nan]", "[1, [2]]",
    "[" * 3000 + "]" * 3000, "[1, 2", "what", "",
    # TOML 1.0 tokens: a date, an inline table, literal and multi-line
    # strings, hex and underscored integers, a string with an escape TOML
    # does not define, and a float without a leading digit
    "1979-05-27", "{}", "'lit'", '"""x"""', "0x10", "1_000", '"C:\\x"', ".5",
]
PLAIN_VALUES = ["0", "1", "2", "3", "0.5", "0.25", "-2.0", "12.0", "4.0",
                "256", "2048", "[0.6, 0.2, 0.2]"]
values = st.one_of(st.sampled_from(HOSTILE_VALUES), st.sampled_from(PLAIN_VALUES))
JUNK_LINES = ["# comment", "[", "[]", "= 1", "key", "[bogus]", "stray = 1"]


@st.composite
def toml_texts(draw):
    """Sections of the schema in any order, each with some of its own keys
    set to drawn value tokens, and now and then a malformed line."""
    lines = []
    sections = draw(st.lists(st.sampled_from(list(_SCHEMA)), max_size=4,
                             unique=True))
    for section in sorted(sections, key=lambda name: name is not None):
        if section is not None:
            lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(sorted(_SCHEMA[section])),
                                 max_size=3, unique=True)):
            lines.append(f"{key} = {draw(values)}")
    if lines and draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(JUNK_LINES)))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    root = tmp_path_factory.mktemp("scored")
    truth = np.array([-3.0, 0.0, 2.5, 4.0, 4.5, 9.75, 13.0])
    np.save(root / "y.npy", truth)
    (root / "pred.txt").write_text("".join(f"{v + 0.25!r}\n"
                                           for v in truth.tolist()))
    return root


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(toml_texts())
def test_fuzzed_config_is_a_config_error_or_a_valid_evaluate(scored, text):
    path = scored / "fuzz.toml"
    path.write_text(text)
    try:
        cfg = load_config(path)
    except ConfigError:
        cfg = None
    if cfg is not None:
        text = cfg.canonical_json()
        assert "NaN" not in text and "Infinity" not in text
    out = scored / "report.json"
    code = main(["--quiet", "--config", str(path), "evaluate",
                 "--pred", str(scored / "pred.txt"),
                 "--truth", str(scored / "y.npy"), "--out", str(out)])
    assert code == (1 if cfg is None else 0)
    if cfg is not None:
        def reject(constant):
            raise AssertionError(f"report.json holds {constant}")
        json.loads(out.read_text(), parse_constant=reject)
