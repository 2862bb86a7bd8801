"""Tests of the benchmark's own code: the generator's planted counts, span
self-time arithmetic and percentile choice.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _ingest(path, fasta=None):
    from bindkit import dataset as ds
    rows, reader_drops, _ = ds.read_raw_tsv(path)
    index = None
    if fasta is not None:
        with open(fasta, encoding="utf-8") as fh:
            index = ds.build_fasta_index(fh.read())
    return ds.ingest(rows, fasta_index=index, initial_drops=reader_drops)


def test_curate_drop_tallies_equal_planted_counts(tmp_path):
    table = generate.curate_inputs(7, tmp_path, n_rows=300, n_receptors=5,
                                   n_ligands=80, per_reason=3)
    assert table["planted_drops"]["bad_smiles"] == round(0.27 * 300)
    for reason in generate.DROP_REASONS:
        if reason != "bad_smiles":
            assert table["planted_drops"][reason] == 3
    prov = _ingest(tmp_path / "raw.tsv").provenance
    assert prov["drops"] == table["planted_drops"]
    assert prov["duplicates_merged"] >= table["duplicate_rows"]
    assert (sum(prov["drops"].values()) + prov["n_records"]
            + prov["duplicates_merged"]) == table["rows"]


def test_screen_library_is_a_full_cross_product(tmp_path):
    summary = generate.screen_inputs(3, tmp_path, n_ligands=6, n_receptors=4,
                                     n_fit_ligands=5, per_reason=2)
    assert summary["screen"]["valid_rows"] == 24
    assert summary["screen"]["planted_drops"]["unknown_receptor_ref"] == 2
    prov = _ingest(tmp_path / "screen.tsv", tmp_path / "receptors.fasta").provenance
    assert prov["drops"] == summary["screen"]["planted_drops"]
    assert prov["n_input_rows"] == 26


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    generate.train_inputs(5, a, n_rows=50, n_receptors=3, n_ligands=20)
    generate.train_inputs(5, b, n_rows=50, n_receptors=3, n_ligands=20)
    generate.train_inputs(6, c, n_rows=50, n_receptors=3, n_ligands=20)
    assert (a / "raw.tsv").read_bytes() == (b / "raw.tsv").read_bytes()
    assert (a / "raw.tsv").read_bytes() != (c / "raw.tsv").read_bytes()


def test_digests_carry_across_runs_of_the_same_code_only(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", str(tmp_path / "state"))
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = tmp_path / "src" / "bindkit"
    (code / "__pycache__").mkdir(parents=True)
    (code / "cli.py").write_text("v1")
    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "raw.tsv").write_text("rows")
    art, feats = tmp_path / "pred.txt", tmp_path / "ftrain"
    feats.mkdir()

    def one_run(pred, x):
        art.write_text(pred)
        (feats / "X.npy").write_text(x)
        ck = run.Checks()
        dg = run.Digests(ck, "w", 1, str(inputs))
        dg.add({"pred.txt": str(art)})
        dg.add({"ftrain": str(feats)}, carry=False)
        dg.add({"ftrain": str(feats)}, carry=False)
        dg.save()
        return ck.failed

    assert one_run("a", "x1") == 0
    assert one_run("a", "x2") == 0          # feature directories are not carried
    (code / "__pycache__" / "cli.pyc").write_text("cache")
    assert one_run("b", "x2") == 1          # same code, other output
    (code / "cli.py").write_text("v2")
    assert one_run("b", "x2") == 0          # other code starts a fresh record


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping: 4 covered)
    # and [6, 7]; the grandchild [1.5, 2.5] is not subtracted from root.
    sp = [
        ("root", 0.0, 10.0, -1, True),
        ("a", 1.0, 3.0, 0, True),
        ("b", 2.0, 5.0, 0, True),
        ("c", 6.0, 7.0, 0, True),
        ("a.child", 1.5, 2.5, 1, True),
    ]
    assert spans.self_times(sp) == pytest.approx([5.0, 1.0, 3.0, 1.0, 1.0])


def test_covered_merges_touching_and_nested_intervals():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0, 1), (1, 2), (5, 6), (5.2, 5.5)]) == pytest.approx(3.0)


def test_nearest_rank_percentiles():
    values = list(range(1, 1001))
    assert spans.percentile(values, 50) == 500
    assert spans.percentile(values, 99) == 990
    assert spans.percentile(values[::-1], 99) == 990
    assert spans.percentile([7.0], 99) == 7.0
    assert spans.percentile([], 50) == 0.0


@pytest.mark.parametrize("n, expected", [
    (10000, 99.9), (1000, 99.0), (999, 90.0), (100, 90.0), (20, 50.0), (19, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected


def test_tracer_wraps_callers_namespace_and_restores():
    from bindkit import dataset, smiles
    original = dataset.from_smiles
    tracer = spans.Tracer()
    tracer.install()
    try:
        dataset.from_smiles("CCO")
        with pytest.raises(smiles.ParseError):
            dataset.from_smiles("C(")
    finally:
        tracer.remove()
    assert dataset.from_smiles is original
    dump = tracer.dump()
    names = [s[0] for s in dump["spans"]]
    assert names.count("smiles.from_smiles") == 2
    assert names.count("smiles.parse_smiles") == 2
    parse = dump["spans"][names.index("smiles.parse_smiles")]
    assert dump["spans"][parse[3]][0] == "smiles.from_smiles"
    assert [s[4] for s in dump["spans"] if s[0] == "smiles.from_smiles"] == [True, False]
    assert dump["counts"]["ligand_features.fnv1a32"] == 0
    m = spans.summarize(dump)
    assert m["smiles.from_smiles.calls"] == (2, "count")
    assert m["smiles.from_smiles.failed"] == (1, "count")
    assert m["smiles.parses_per_unique"] == (1.0, "ratio")


def test_summary_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in doc["per_layer"]}
    empty = {"spans": [], "counts": {}, "unique_smiles": 0, "unique_refined": 0,
             "best_iteration": None}
    got = spans.summarize(empty)
    got["tracing_overhead_s"] = (0.0, "s")
    assert {k: u for k, (_, u) in got.items()} == wanted
