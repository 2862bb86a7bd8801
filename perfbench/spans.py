"""In-process tracing of bindkit's public functions, and span arithmetic.

A Tracer replaces functions in the module namespaces their callers look
them up in (``bindkit.dataset.from_smiles``, not only
``bindkit.smiles.from_smiles``), records one span per call (name, start,
end, parent, ok) in memory, and restores every original on ``remove``.
Very hot leaf functions get a call counter instead of a span.

The functions below the Tracer turn a span list into per-layer numbers:
self time (a span minus the part of it its direct children cover) and
nearest-rank percentiles.
"""
from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time

from generate import DROP_REASONS

# (module, attribute, span name): each entry is where a caller finds it.
SPANNED = (
    ("bindkit.smiles", "parse_smiles", "smiles.parse_smiles"),
    ("bindkit.smiles", "assign_implicit_hydrogens", "smiles.assign_implicit_hydrogens"),
    ("bindkit.smiles", "perceive_rings", "smiles.perceive_rings"),
    ("bindkit.dataset", "from_smiles", "smiles.from_smiles"),
    ("bindkit.dataset", "full_refinement_ids", "ligand_features.full_refinement_ids"),
    ("bindkit.dataset", "ecfp", "ligand_features.ecfp"),
    ("bindkit.cli", "ligand_graph_features", "ligand_features.ligand_graph_features"),
    ("bindkit.dataset", "receptor_descriptor", "protein_features.receptor_descriptor"),
    ("bindkit.cli", "receptor_graph_features", "protein_features.receptor_graph_features"),
    ("bindkit.dataset", "parse_fasta", "fasta.parse_fasta"),
    ("bindkit.dataset", "read_raw_tsv", "dataset.read_raw_tsv"),
    ("bindkit.dataset", "ingest", "dataset.ingest"),
    ("bindkit.dataset", "pair_key", "dataset.pair_key"),
    ("bindkit.dataset", "split", "dataset.split"),
    ("bindkit.dataset", "write_dataset", "dataset.write_dataset"),
    ("bindkit.dataset", "load_dataset", "dataset.load_dataset"),
    ("bindkit.dataset", "featurize_pairs", "dataset.featurize_pairs"),
    ("bindkit.cli", "train", "gbdt.train"),
    ("bindkit.gbdt.GbdtModel", "predict", "gbdt.predict"),
    ("bindkit.cli", "save_model", "gbdt.save_model"),
    ("bindkit.cli", "load_model", "gbdt.load_model"),
    ("bindkit.cli", "build_report", "metrics.build_report"),
    ("bindkit.cli", "write_report", "metrics.write_report"),
    ("bindkit.cli", "load_config", "config.load_config"),
)
# Called hundreds of thousands of times per run: counted, not spanned.
COUNTED = (
    ("bindkit.ligand_features", "fnv1a32", "ligand_features.fnv1a32"),
)


def _resolve(path: str):
    """Module or class object for a dotted path such as bindkit.gbdt.GbdtModel."""
    try:
        return importlib.import_module(path)
    except ImportError:
        head, _, tail = path.rpartition(".")
        return getattr(importlib.import_module(head), tail)


class Tracer:
    """Spans and counters for one process; install, run, remove."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, bool]] = []
        self.counts: dict[str, int] = {}
        self.observed: dict[str, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name; exceptions are recorded and re-raised."""
        if name == "smiles.from_smiles":       # failed parses count as seen
            self.observed.setdefault("smiles", set()).add(args[0])
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, True))
        self._stack.append(index)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, ok)
        self._observe(name, args, result)
        return result

    def _observe(self, name, args, result) -> None:
        """Counters that need a call's arguments or result."""
        obs = self.observed
        if name == "ligand_features.full_refinement_ids":
            obs.setdefault("refined", set()).add(args[0].source)
        elif name == "fasta.parse_fasta":
            self.bump("fasta.records", len(result))
        elif name == "dataset.featurize_pairs":
            self.bump("dataset.X_bytes", int(result[0].nbytes))
        elif name == "dataset.ingest":
            for reason, n in result.provenance["drops"].items():
                self.bump(f"dataset.drops.{reason}", int(n))
        elif name == "gbdt.train":
            model, metrics = result
            self.bump("gbdt.trees", len(model.trees))
            self.bump("gbdt.nodes", sum(len(t.feature) + len(t.leaf_value)
                                        for t in model.trees))
            self.bump("gbdt.leaves", sum(len(t.leaf_value) for t in model.trees))
            if metrics.get("best_iteration") is not None:
                obs["best_iteration"] = int(metrics["best_iteration"])
        elif name == "gbdt.predict":
            model, X = args[0], args[1]
            self.bump("gbdt.predict.row_trees", len(X) * len(model.trees))
        elif name == "gbdt.save_model":
            self.bump("gbdt.model_bytes", os.path.getsize(args[1]))

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        for path, attr, name in SPANNED:
            owner = _resolve(path)
            original = getattr(owner, attr)

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.span(_name, _fn, *args, **kwargs)

            self._patch(owner, attr, original, wrapper)
        for path, attr, name in COUNTED:
            owner = _resolve(path)
            original = getattr(owner, attr)
            counts = self.counts
            counts[name] = 0

            def counter(*args, _fn=original, _name=name):
                counts[_name] += 1
                return _fn(*args)

            self._patch(owner, attr, original, counter)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        obs = self.observed
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "unique_smiles": len(obs.get("smiles", ())),
            "unique_refined": len(obs.get("refined", ())),
            "best_iteration": obs.get("best_iteration"),
        }


# --- span arithmetic ----------------------------------------------------------


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its direct children cover,
    clipped to the span's own interval."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, _ok in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, _parent, _ok), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
        out.append((end - start) - covered(clipped))
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    if not values:
        return 0.0
    return sorted(values)[_rank(q, len(values)) - 1]


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile q among n samples."""
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def tail_percentile(n: int, choices=(99.9, 99.0, 90.0, 50.0)):
    """Highest percentile with at least ten samples beyond it, or None."""
    for q in choices:
        if n - _rank(q, n) >= 10:
            return q
    return None


def summarize(dump: dict, stage_spans=("ingest", "featurize", "train", "predict",
                                       "evaluate", "export-graphs")) -> dict:
    """Per-layer metrics from a tracer dump: {name: (value, unit)}."""
    spans = dump["spans"]
    counts = dump["counts"]
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    smiles_us: list[float] = []
    ingest_desc = 0
    names = [s[0] for s in spans]
    for (name, start, end, parent, ok), self_s in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if not ok:
            failed[name] = failed.get(name, 0) + 1
        if name == "smiles.from_smiles":
            smiles_us.append((end - start) * 1e6)
        elif (name == "protein_features.receptor_descriptor" and parent >= 0
              and names[parent] == "dataset.ingest"):
            ingest_desc += 1

    def s(name):
        return (total.get(name, 0.0), "s")

    def n(name):
        return (calls.get(name, 0), "count")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    m = {
        "smiles.parse_smiles.s": s("smiles.parse_smiles"),
        "smiles.assign_implicit_hydrogens.s": s("smiles.assign_implicit_hydrogens"),
        "smiles.perceive_rings.s": s("smiles.perceive_rings"),
        "smiles.from_smiles.calls": n("smiles.from_smiles"),
        "smiles.from_smiles.failed": (failed.get("smiles.from_smiles", 0), "count"),
        "smiles.from_smiles.p50_us": (percentile(smiles_us, 50), "us"),
        "smiles.from_smiles.p99_us": (percentile(smiles_us, 99), "us"),
        "smiles.from_smiles.samples": (len(smiles_us), "count"),
        "smiles.parses_per_unique": ratio(calls.get("smiles.from_smiles", 0),
                                          dump["unique_smiles"]),
        "ligand_features.full_refinement_ids.calls":
            n("ligand_features.full_refinement_ids"),
        "ligand_features.full_refinement_ids.s": s("ligand_features.full_refinement_ids"),
        "ligand_features.refinements_per_unique": ratio(
            calls.get("ligand_features.full_refinement_ids", 0), dump["unique_refined"]),
        "ligand_features.fnv1a32.calls": (counts.get("ligand_features.fnv1a32", 0), "count"),
        "ligand_features.ecfp.s": s("ligand_features.ecfp"),
        "ligand_features.ligand_graph_features.s": s("ligand_features.ligand_graph_features"),
        "protein_features.receptor_descriptor.calls": n("protein_features.receptor_descriptor"),
        "protein_features.receptor_descriptor.ingest_calls": (ingest_desc, "count"),
        "protein_features.receptor_descriptor.s": s("protein_features.receptor_descriptor"),
        "protein_features.receptor_graph_features.s":
            s("protein_features.receptor_graph_features"),
        "fasta.parse_fasta.s": s("fasta.parse_fasta"),
        "fasta.records": (counts.get("fasta.records", 0), "count"),
        "dataset.read_raw_tsv.s": s("dataset.read_raw_tsv"),
        "dataset.ingest.self_s": (self_total.get("dataset.ingest", 0.0), "s"),
        "dataset.pair_key.calls": n("dataset.pair_key"),
        "dataset.pair_key.s": s("dataset.pair_key"),
        "dataset.split.s": s("dataset.split"),
        "dataset.write_dataset.s": s("dataset.write_dataset"),
        "dataset.load_dataset.self_s": (self_total.get("dataset.load_dataset", 0.0), "s"),
        "dataset.featurize_pairs.self_s":
            (self_total.get("dataset.featurize_pairs", 0.0), "s"),
        "dataset.X_bytes": (counts.get("dataset.X_bytes", 0), "bytes"),
    }
    for reason in DROP_REASONS:
        m[f"dataset.drops.{reason}"] = (counts.get(f"dataset.drops.{reason}", 0), "count")
    train_s = total.get("gbdt.train", 0.0)
    nodes = counts.get("gbdt.nodes", 0)
    predict_s = total.get("gbdt.predict", 0.0)
    row_trees = counts.get("gbdt.predict.row_trees", 0)
    m.update({
        "gbdt.train.s": (train_s, "s"),
        "gbdt.trees": (counts.get("gbdt.trees", 0), "count"),
        "gbdt.nodes": (nodes, "count"),
        "gbdt.leaves": (counts.get("gbdt.leaves", 0), "count"),
        "gbdt.us_per_node": (train_s * 1e6 / nodes if nodes else 0.0, "us"),
        "gbdt.best_iteration": (dump["best_iteration"] or 0, "count"),
        "gbdt.predict.s": (predict_s, "s"),
        "gbdt.predict.ns_per_row_tree":
            (predict_s * 1e9 / row_trees if row_trees else 0.0, "ns"),
        "gbdt.save_model.s": s("gbdt.save_model"),
        "gbdt.load_model.s": s("gbdt.load_model"),
        "gbdt.model_bytes": (counts.get("gbdt.model_bytes", 0), "bytes"),
        "metrics.build_report.s": s("metrics.build_report"),
        "metrics.write_report.s": s("metrics.write_report"),
        "config.load_config.s": s("config.load_config"),
    })
    for stage in stage_spans:
        m[f"cli.{stage}.self_s"] = (self_total.get(f"cli.{stage}", 0.0), "s")
    return m


def run_pass(plan_path: str, out_path: str, traced: bool) -> int:
    """Run a plan of steps in this process; bindkit stages go through
    bindkit.cli.main, inside a cli.<stage> span when traced."""
    from bindkit import cli

    with open(plan_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    config = os.path.join(doc["inputs"], "bindkit.toml")
    tracer = Tracer()
    if traced:
        tracer.install()
    stages = []
    try:
        for (stage, args), timed in doc["plan"]:
            argv = ["--quiet", "--config", config, *args]
            start = time.perf_counter()
            if traced:
                rc = tracer.span(f"cli.{stage}", cli.main, argv)
            else:
                rc = cli.main(argv)
            stages.append([stage, rc, time.perf_counter() - start, timed])
            if rc != 0:
                break
    finally:
        tracer.remove()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"stages": stages, "trace": tracer.dump() if traced else None}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(run_pass(sys.argv[1], sys.argv[2], sys.argv[3] == "1"))
