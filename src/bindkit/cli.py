"""Command-line pipeline: ingest, featurize, train, predict, evaluate,
export-graphs.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem
(unreadable/malformed inputs), 3 unexpected internal failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import sys

from array import array

from ._formats import (SPLIT_NAMES, STORE_DIR, _dataset_files, _load_vector,
                       _read_dataset, _write, _write_json, store_stamp)
from .config import ConfigError, PipelineConfig, load_config
from .errors import DataError, DatasetError, GbdtError
from .metrics import build_report, write_report

# A command imports the modules it runs when it runs, so `evaluate` and
# `predict` start without numpy.  The names below resolve on first use
# (PEP 562), and the commands call them as _cli.<name>, read from this
# module's globals at each call, so that a tracer patching bindkit.cli.<name>
# sees every call.  (Run as __main__ by python -m, runpy or cProfile, this
# code has globals of its own, which sys.modules[__name__] is not.)
_LAZY = {
    "train": "gbdt",
    "save_model": "model", "load_model": "model", "read_features": "model",
    "write_features": "model",
    "graph_block": "ligand_features", "ligand_graph_features": "ligand_features",
    "default_table": "protein_features",
    "load_property_table": "protein_features",
    "receptor_graph_features": "protein_features",
}
_DATA_ERRORS = (DataError, OSError, UnicodeDecodeError)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"bindkit.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


class _Globals:
    def __getattr__(self, name: str):
        return globals()[name] if name in globals() else __getattr__(name)


_cli = _Globals()


def _info(args, message: str) -> None:
    """A progress line on stderr, unless --quiet."""
    if not args.quiet:
        print(message, file=sys.stderr)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):           # argparse would exit(2); we want 1
        raise _UsageError(message)

    def _get_formatter(self):
        # argparse's default width, the terminal's less 2, imports shutil into
        # every command; 78 is that width where no terminal reports one
        return self.formatter_class(prog=self.prog, width=78)


def build_parser() -> _Parser:
    parser = _Parser(prog="bindkit",
                     description="receptor-ligand affinity screening pipeline")
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="TOML config file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines on stderr")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", help="curate a raw affinity TSV into a dataset")
    p.add_argument("--in", dest="input", required=True, metavar="TSV")
    p.add_argument("--out", required=True, metavar="DIR")

    p = sub.add_parser("featurize", help="build model matrices for a subset")
    p.add_argument("--dataset", required=True, metavar="DIR")
    p.add_argument("--subset", default="all", choices=[*SPLIT_NAMES, "all"])
    p.add_argument("--out", required=True, metavar="DIR")

    p = sub.add_parser("train", help="fit the boosted-tree regressor")
    p.add_argument("--train", dest="train_dir", required=True, metavar="DIR")
    p.add_argument("--valid", dest="valid_dir", default=None, metavar="DIR")
    p.add_argument("--out", required=True, metavar="MODEL_JSON")

    p = sub.add_parser("predict", help="apply a saved model to features")
    p.add_argument("--model", required=True, metavar="MODEL_JSON")
    p.add_argument("--features", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="FILE")

    p = sub.add_parser("evaluate", help="score predictions against truth")
    p.add_argument("--pred", required=True, metavar="FILE")
    p.add_argument("--truth", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="REPORT_JSON")

    p = sub.add_parser("export-graphs",
                       help="write receptor/ligand graph features as JSONL")
    p.add_argument("--dataset", required=True, metavar="DIR")
    p.add_argument("--subset", default="all", choices=[*SPLIT_NAMES, "all"])
    p.add_argument("--out", required=True, metavar="JSONL")
    return parser


def _table_for(cfg: PipelineConfig):
    """The property table in force: [paths] property_table, else the shipped one."""
    if cfg.property_table is None:
        return _cli.default_table()
    return _cli.load_property_table(cfg.property_table)


def _sidecar(cfg: PipelineConfig, columns, dataset_digest: str, subset: str,
             table_version: str) -> dict:
    """The featurize.json fields of a feature directory that featurize
    writes, less those write_features adds."""
    return {"columns": list(columns), "config_digest": cfg.digest(),
            "dataset_digest": dataset_digest, "radius": cfg.radius,
            "subset": subset, "table_version": table_version}


def _identity(path):
    """The (device, inode) of the file path names, or None where it names
    none.  realpath comes first, so dataset/split/.. and a file spelled
    with a trailing separator name the file they resolve to."""
    try:
        stat = os.stat(os.path.realpath(path))
    except OSError:
        return None
    return stat.st_dev, stat.st_ino


def _refuse_overwrite(args, cfg: PipelineConfig, reads, writes) -> None:
    """DatasetError at the first path of writes, the files args.command
    writes, that is, by any path or hard link, an existing file it reads (a
    file of reads or of a directory of reads, the --config file or a
    [paths] file), that names a directory, or that lies under an existing
    file."""
    read = {}
    for path in (*reads, args.config, cfg.property_table, cfg.fasta):
        if path is not None:
            for name in ([os.path.join(path, n) for n in os.listdir(path)]
                         if os.path.isdir(path) else [path]):
                read.setdefault(_identity(name), name)
    read.pop(None, None)                        # the paths that name no file
    for path in writes:
        name = read.get(_identity(path))
        if name is not None:
            raise DatasetError(f"--out {args.out} " + (
                f"is {name}" if path == args.out else f"writes {path}")
                + f", which {args.command} reads; choose another file")
        where = os.path.dirname(path)           # its nearest existing ancestor
        while where and not os.path.exists(where):
            where = os.path.dirname(where)
        named_dir = os.path.isdir(path) or path.endswith(os.sep)
        if named_dir or (where and not os.path.isdir(where)):
            raise DatasetError(f"--out {args.out} cannot write {path}: " + (
                "it names a directory" if named_dir
                else f"{where} is not a directory") + "; choose another path")


def cmd_ingest(args, cfg: PipelineConfig) -> int:
    from .model import FEATURE_FILES
    tsv, provenance, store_dir = _dataset_files(args.out)
    _refuse_overwrite(args, cfg, [args.input], [
        tsv, provenance, *(os.path.join(store_dir, n) for n in FEATURE_FILES)])
    from . import dataset as ds_mod
    rows, reader_drops, digest = ds_mod.read_raw_tsv(args.input)
    fasta_index = None
    if cfg.fasta is not None:
        with open(cfg.fasta, "r", encoding="utf-8-sig") as fh:
            fasta_index = ds_mod.build_fasta_index(fh.read())
    dataset = ds_mod.ingest(rows, bounds=cfg.bounds, fasta_index=fasta_index,
                            source_digest=digest, initial_drops=reader_drops)
    dataset = ds_mod.split(dataset, seed=cfg.seed, ratios=cfg.ratios)
    dataset.provenance["config_digest"] = cfg.digest()
    # The feature store, from which featurize selects a split: the features
    # of every record, stamped with what fixes their bytes.
    table = _table_for(cfg)
    X, y, columns, ids = ds_mod.featurize_pairs(
        dataset, radius=cfg.radius, nbits=cfg.nbits, table=table)
    store = {**_sidecar(cfg, columns, digest, "all", table.version),
             **store_stamp(cfg)}
    ds_mod.write_dataset(dataset, args.out, features=(X, y, ids, store))
    sizes = dataset.provenance["split_sizes"]
    _info(args, f"ingested {len(dataset.records)} records ({sizes}) -> {args.out}")
    return 0


def cmd_featurize(args, cfg: PipelineConfig) -> int:
    """Write the features of --subset, selected from the dataset's store.

    The store serves only a dataset that _formats._read_dataset reads under
    the config's store_stamp; any other dataset raises DatasetError naming the
    reason before anything is written.  The rows of the subset give ids and y,
    and select X from the store.  A store that read_features refuses, or whose
    row count is not the dataset's, raises DatasetError naming the file."""
    from .model import FEATURE_FILES
    path, subset = args.dataset, args.subset
    _refuse_overwrite(args, cfg, _dataset_files(path),
                      [os.path.join(args.out, name) for name in FEATURE_FILES])
    store = os.path.join(path, STORE_DIR)
    provenance, n_records, rows, meta = _read_dataset(path, cfg.bounds, subset,
                                                      store_stamp(cfg))
    X, _ = _cli.read_features(store)
    if len(X) != n_records:
        raise DatasetError(f"{os.path.join(store, 'featurize.json')}: {len(X)} "
                           f"rows, but {os.path.join(path, 'dataset.tsv')} "
                           f"holds {n_records} records")
    X = X.take([i for i, _, _ in rows])
    sidecar = _sidecar(cfg, meta["columns"], provenance.get("source_digest", ""),
                       subset, meta["table_version"])
    _cli.write_features(args.out, X, array("d", [log_ki for _, _, log_ki in rows]),
                        [cells[0] for _, cells, _ in rows], sidecar)
    _info(args, f"featurized {subset}: X {X.shape} read from the dataset's "
                f"feature store -> {args.out}")
    return 0


def _labelled_features(path):
    """read_features of path, whose y.npy must exist."""
    X, y = _cli.read_features(path)
    if y is None:
        raise DatasetError(f"no y.npy next to features in {path}")
    return X, y


def cmd_train(args, cfg: PipelineConfig) -> int:
    metrics_path = args.out + ".metrics.json"
    _refuse_overwrite(args, cfg, [args.train_dir, args.valid_dir],
                      [args.out, metrics_path])
    X, y = _labelled_features(args.train_dir)
    valid = None
    if args.valid_dir is not None:
        valid = _labelled_features(args.valid_dir)
        if valid[0].schema != X.schema:
            raise DatasetError(
                f"{os.path.join(args.valid_dir, 'featurize.json')} describes "
                "features of another schema than "
                f"{os.path.join(args.train_dir, 'featurize.json')} (radius, "
                "nbits, table_version or columns differ); featurize both "
                "with one config")
    model, metrics = _cli.train(X, y, params=cfg.gbdt, valid=valid)
    model = dataclasses.replace(model, schema=X.schema)
    _cli.save_model(model, args.out)
    _write_json(metrics_path, metrics, GbdtError)
    last_loss = metrics["train_loss"][-1] if metrics["train_loss"] else None
    kept = (f", best iteration {metrics['best_iteration']} with "
            f"{len(model.trees)} trees kept" if valid is not None else "")
    _info(args, f"trained {len(model.trees)} trees, "
                f"{sum(len(t.feature) for t in model.trees)} levels, "
                f"{sum(len(t.leaf_value) for t in model.trees)} leaves (final "
                f"train loss {last_loss}{kept}) -> {args.out}")
    return 0


def cmd_predict(args, cfg: PipelineConfig) -> int:
    _refuse_overwrite(args, cfg, [args.model, args.features], [args.out])
    if args.out.endswith(".npy"):       # evaluate would read it as one
        raise DatasetError(f"--out {args.out} names a .npy file, but predict "
                           "writes text, one prediction a line; choose another "
                           "file")
    model = _cli.load_model(args.model)
    X, _ = _cli.read_features(args.features)
    preds = model.predict(X)            # a width mismatch raises here
    # a model trained through the Python API has no schema to compare
    if model.schema is not None and model.schema != X.schema:
        raise DatasetError(
            f"{args.model} was trained on features of another schema than "
            f"{os.path.join(args.features, 'featurize.json')} (radius, nbits, "
            "table_version or columns differ); featurize with the training "
            "config")
    _write(args.out, (repr(float(p)) + "\n" for p in preds))
    _info(args, f"wrote {len(preds)} predictions -> {args.out}")
    return 0


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    truth = args.truth
    if os.path.isdir(truth):
        truth = os.path.join(truth, "y.npy")
    csv_path = args.out.removesuffix(".json") + ".csv"
    _refuse_overwrite(args, cfg, [args.pred, truth], [args.out, csv_path])
    preds = _load_vector(args.pred)
    y = _load_vector(truth)
    report = build_report(y, preds, start=cfg.bin_start, stop=cfg.bin_stop,
                          width=cfg.bin_width, threshold=cfg.threshold)
    write_report(report, args.out, csv_path=csv_path)
    _info(args, f"MAE {report['mae']:.4f}, accuracy@{report['threshold']:.3g} "
                f"{report['accuracy_at_threshold']:.4f} -> {args.out}")
    return 0


# json.dumps(obj, sort_keys=True, allow_nan=False), with its encoder built once
_strict_json = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _block_json(features, rows: dict[bytes, str]) -> str:
    """_strict_json(graph_block(features)), assembled with the JSON of each
    node row looked up in ``rows`` by the row's float64 bytes and
    serialized only when it is new.  Bytes, not values, are the key: -0.0
    == 0.0, but json.dumps writes them differently.  A block holding inf
    or nan raises the encoder's ValueError."""
    block = _cli.graph_block(features)
    parts = []
    for values, row in zip(features.node_features, block["node_features"]):
        key = values.tobytes()
        text = rows.get(key)
        if text is None:
            text = rows[key] = _strict_json(row)
        parts.append(text)
    nodes = "[" + ", ".join(parts) + "]"
    # json.dumps joins items with ", " and keys with ": ", in key order
    return "{" + ", ".join(
        f"{json.dumps(name)}: " + (nodes if name == "node_features" else
                                   _strict_json(value))
        for name, value in sorted(block.items())) + "}"


def cmd_export_graphs(args, cfg: PipelineConfig) -> int:
    """Write the graphs of each record of --subset that load_dataset reads."""
    _refuse_overwrite(args, cfg, _dataset_files(args.dataset), [args.out])
    from . import dataset as ds_mod
    records = ds_mod.load_dataset(args.dataset, cfg.bounds, args.subset).records
    table = _table_for(cfg)
    # Each distinct block and node row is serialized once; a line is then
    # assembled from those strings exactly as json.dumps(line,
    # sort_keys=True) writes it.
    rows: dict[bytes, str] = {}
    lig_json: dict[str, str] = {}
    rec_json: dict[str, str] = {}

    def strict(features, what: str) -> str:
        try:
            return _block_json(features, rows)
        except ValueError as exc:
            raise DatasetError(f"cannot write {args.out}: the graph of {what} "
                               "is not finite (JSON has no inf or nan)") from exc

    def lines():
        for rec in records:
            lig = lig_json.get(rec.ligand.source)
            if lig is None:
                lig = lig_json[rec.ligand.source] = strict(
                    _cli.ligand_graph_features(rec.ligand),
                    f"ligand {rec.ligand.source!r}")
            rgraph = rec_json.get(rec.receptor.residues)
            if rgraph is None:
                rgraph = rec_json[rec.receptor.residues] = strict(
                    _cli.receptor_graph_features(rec.receptor, table),
                    f"receptor {rec.receptor.id}")
            yield (f'{{"id": {json.dumps(rec.pair_key)}, "ligand": {lig}, '
                   f'"receptor": {rgraph}}}\n')

    _write(args.out, lines())
    _info(args, f"exported {len(records)} pair graphs -> {args.out}")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "export-graphs": cmd_export_graphs,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"bindkit: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"bindkit: config error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"bindkit: data error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback                # only this path prints one
        traceback.print_exc()
        return 3


def entry() -> None:                    # console-script hook
    # No bindkit code calls BLAS, yet OpenBLAS starts a thread per core when
    # numpy loads.  One thread makes each numpy stage start faster.  This
    # module loads no numpy at import, so the variable is set before it
    # loads.  Only the process boundary sets it: a value the user exported
    # wins, and main() called in-process leaves the environment alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":              # pragma: no cover
    entry()
