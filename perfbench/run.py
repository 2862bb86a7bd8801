"""Benchmark runner for the bindkit pipeline.

    python3 perfbench/run.py --workload curate --seed 1 --seconds 15 --trace 0

The runner resolves every path from this file, so it runs from any working
directory.  It generates the workload's inputs from the seed and sets up.
Then it repeats the workload's timed pipeline of `bindkit` stages until
--seconds have passed.  Each stage runs as its own child process, with
`workers = 1`.  The runner checks every output, prints each metric by name
and unit, and prints one JSON result as its last line.

With --trace 1 it instead runs the set-up and timed steps four times, each
time in-process in a fresh child process: plain, traced, traced, plain.  A
traced pass wraps bindkit's public functions in spans (see spans.py).  The
runner then prints the per-layer metrics of the first traced pass.

Scratch files live under .perfbench/ at the repository root and are
removed at the end; per-run results and artifact digests stay there.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import generate  # noqa: E402
import spans  # noqa: E402

N_COLUMNS = 78 + 2048
MAE_MARGIN = 0.2             # test MAE must beat the mean predictor by 20%
STAGE_TIMEOUT_S = 60         # a stage that runs longer is taken to hang
RUN_BUDGET_S = 120           # no new timed pass after this, whatever --seconds says
MIN_PASSES = 3
STAGE_METRICS = {"ingest": "ingest_s", "featurize": "featurize_s", "train": "train_s",
                 "predict": "predict_s", "evaluate": "evaluate_s",
                 "export-graphs": "export_s"}


# --- checks ------------------------------------------------------------------

class Checks:
    """Counts attempted and failed operations; a failure is printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, name: str, ok: bool, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return ok


def file_sha(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_sha(path) -> str:
    """Digest of a file, or of every file under a directory with its
    relative path (bytecode caches skipped)."""
    if os.path.isfile(path):
        return file_sha(path)
    names = []
    for d, dirs, files in os.walk(path):
        dirs[:] = [x for x in dirs if x != "__pycache__"]
        names += [os.path.relpath(os.path.join(d, f), path) for f in files]
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0" + file_sha(os.path.join(path, name)).encode())
    return h.hexdigest()


def dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def check_dataset(ck: Checks, ds: str, table: dict) -> dict:
    """Drop tallies equal the planted counts and every raw row is accounted
    for as dropped, kept or merged."""
    prov = read_json(os.path.join(ds, "provenance.json"))
    drops = prov["drops"]
    ck.expect("drops", drops == table["planted_drops"],
              f"{drops} != planted {table['planted_drops']}")
    accounted = sum(drops.values()) + prov["n_records"] + prov["duplicates_merged"]
    ck.expect("rows accounted", accounted == table["rows"], f"{accounted} != {table['rows']}")
    ck.expect("duplicates merged", prov["duplicates_merged"] >= table["duplicate_rows"],
              f"{prov['duplicates_merged']} < {table['duplicate_rows']}")
    sizes = prov["split_sizes"]
    ck.expect("split sizes", sum(sizes.values()) == prov["n_records"], str(sizes))
    return prov


def check_features(ck: Checks, fdir: str, n_rows: int) -> None:
    side = read_json(os.path.join(fdir, "featurize.json"))
    ids = count_lines(os.path.join(fdir, "ids.txt"))
    ck.expect("feature rows", side["n_rows"] == n_rows == ids,
              f"{side['n_rows']} rows, {ids} ids, expected {n_rows}")
    ck.expect("feature columns", side["n_columns"] == N_COLUMNS, str(side["n_columns"]))


def check_model(ck: Checks, path: str, n_trees: int) -> None:
    trees = len(read_json(path)["trees"])
    ck.expect("model trees", trees == n_trees, f"{trees} != {n_trees}")


def check_predictions(ck: Checks, it: str, y_true, base: float) -> tuple:
    """Counts match, all finite, the report agrees, and the model beats the
    mean predictor by MAE_MARGIN without beating the planted noise floor.
    Returns (test MAE, mean predictor MAE)."""
    p = np.loadtxt(os.path.join(it, "pred.txt"), dtype=np.float64, ndmin=1)
    ok = ck.expect("prediction count", len(p) == len(y_true), f"{len(p)} != {len(y_true)}")
    ck.expect("predictions finite", bool(np.isfinite(p).all()))
    mae = read_json(os.path.join(it, "report.json"))["mae"]
    if ok:
        ck.expect("report mae", abs(mae - float(np.abs(y_true - p).mean())) < 1e-9, str(mae))
    mean_mae = float(np.abs(y_true - base).mean())
    ck.expect("beats mean predictor", mae <= (1 - MAE_MARGIN) * mean_mae,
              f"mae {mae:.4f} vs mean predictor {mean_mae:.4f}")
    floor = generate.noise_floor_mae()
    ck.expect("above noise floor", mae >= 0.5 * floor, f"mae {mae:.4f} vs floor {floor:.4f}")
    return mae, mean_mae


# --- workloads ---------------------------------------------------------------

def bk(stage, *args):
    """A `bindkit` step: stage name plus its command-line arguments."""
    return (stage, [stage, *args])


class Workload:
    """Inputs, set-up steps, timed steps, and the checks on their outputs.

    Paths: `inputs` holds the generated files and bindkit.toml (and is the
    stages' working directory), `s` the set-up outputs, `it` one timed pass.
    """
    name = ""
    setup_reps = 3
    extra_config = ""

    def config(self, seed: int) -> str:
        return f"seed = {seed}\n\n[featurize]\nworkers = 1\n{self.extra_config}"

    def generate(self, seed: int, inputs: str) -> dict:
        raise NotImplementedError

    def setup_steps(self, inputs: str, s: str) -> list:
        raise NotImplementedError

    def steps(self, inputs: str, s: str, it: str) -> list:
        raise NotImplementedError

    def check_setup(self, ck: Checks, dg: "Digests", table: dict, s: str) -> None:
        raise NotImplementedError

    def check_pass(self, ck: Checks, dg: "Digests", table: dict, s: str, it: str) -> tuple:
        """Returns (pairs the timed stages curated or None, feature-store
        bytes, (test MAE, mean predictor MAE) or None)."""
        raise NotImplementedError


def featurize_splits(ds: str, out: str, subsets=("train", "valid", "test")) -> list:
    return [bk("featurize", "--dataset", ds, "--subset", sub,
               "--out", os.path.join(out, "f" + sub)) for sub in subsets]


def check_split_features(ck: Checks, out: str, prov: dict,
                         subsets=("train", "valid", "test")) -> list:
    fdirs = [os.path.join(out, "f" + sub) for sub in subsets]
    for fdir, sub in zip(fdirs, subsets):
        check_features(ck, fdir, prov["split_sizes"][sub])
    return fdirs


class Curate(Workload):
    name = "curate"

    def generate(self, seed, inputs):
        return generate.curate_inputs(seed, inputs)

    def setup_steps(self, inputs, s):
        # A warm-up ingest: the timed stages then find the interpreter, numpy
        # and bindkit's bytecode already cached, as every later run does.
        return [bk("ingest", "--in", os.path.join(inputs, "raw.tsv"),
                   "--out", os.path.join(s, "ds"))]

    def steps(self, inputs, s, it):
        ds = os.path.join(it, "ds")
        return [bk("ingest", "--in", os.path.join(inputs, "raw.tsv"), "--out", ds),
                *featurize_splits(ds, it),
                bk("export-graphs", "--dataset", ds, "--subset", "test",
                   "--out", os.path.join(it, "graphs.jsonl"))]

    def check_setup(self, ck, dg, table, s):
        check_dataset(ck, os.path.join(s, "ds"), table)
        dg.add({"setup dataset.tsv": os.path.join(s, "ds", "dataset.tsv")})

    def check_pass(self, ck, dg, table, s, it):
        ds = os.path.join(it, "ds")
        prov = check_dataset(ck, ds, table)
        fdirs = check_split_features(ck, it, prov)
        graphs = os.path.join(it, "graphs.jsonl")
        ck.expect("graph records", count_lines(graphs) == prov["split_sizes"]["test"], graphs)
        dg.add({"dataset.tsv": os.path.join(ds, "dataset.tsv"), "graphs.jsonl": graphs})
        dg.add({"ftrain": fdirs[0]}, carry=False)
        return prov["n_records"], sum(dir_bytes(d) for d in fdirs), None


class Train(Workload):
    name = "train"
    n_trees = 16
    extra_config = f"\n[gbdt]\nn_trees = {n_trees}\nlearning_rate = 0.3\nmax_depth = 6\n"

    def generate(self, seed, inputs):
        return generate.train_inputs(seed, inputs)

    def setup_steps(self, inputs, s):
        ds = os.path.join(s, "ds")
        return [bk("ingest", "--in", os.path.join(inputs, "raw.tsv"), "--out", ds),
                *featurize_splits(ds, s, ("train", "test"))]

    def steps(self, inputs, s, it):
        model, pred = os.path.join(it, "model.json"), os.path.join(it, "pred.txt")
        fx = os.path.join(s, "ftest")
        return [bk("train", "--train", os.path.join(s, "ftrain"), "--out", model),
                bk("predict", "--model", model, "--features", fx, "--out", pred),
                bk("evaluate", "--pred", pred, "--truth", fx,
                   "--out", os.path.join(it, "report.json"))]

    def check_setup(self, ck, dg, table, s):
        ds = os.path.join(s, "ds")
        fdirs = check_split_features(ck, s, check_dataset(ck, ds, table), ("train", "test"))
        dg.add({"setup dataset.tsv": os.path.join(ds, "dataset.tsv")})
        dg.add({"setup ftrain": fdirs[0]}, carry=False)

    def check_pass(self, ck, dg, table, s, it):
        check_model(ck, os.path.join(it, "model.json"), self.n_trees)
        y_train = np.load(os.path.join(s, "ftrain", "y.npy"))
        maes = check_predictions(ck, it, np.load(os.path.join(s, "ftest", "y.npy")),
                                 float(y_train.mean()))
        dg.add({"model.json": os.path.join(it, "model.json"),
                "pred.txt": os.path.join(it, "pred.txt")})
        store = dir_bytes(os.path.join(s, "ftrain")) + dir_bytes(os.path.join(s, "ftest"))
        return None, store, maes


class Screen(Workload):
    name = "screen"
    n_trees = 20
    extra_config = ("\n[paths]\nfasta = \"receptors.fasta\"\n"
                    f"\n[gbdt]\nn_trees = {n_trees}\nlearning_rate = 0.3\nmax_depth = 6\n")

    def generate(self, seed, inputs):
        return generate.screen_inputs(seed, inputs)

    def setup_steps(self, inputs, s):
        ds = os.path.join(s, "fitds")
        return [bk("ingest", "--in", os.path.join(inputs, "fit.tsv"), "--out", ds),
                *featurize_splits(ds, s, ("train",)),
                bk("train", "--train", os.path.join(s, "ftrain"),
                   "--out", os.path.join(s, "model.json"))]

    def steps(self, inputs, s, it):
        ds, fall = os.path.join(it, "ds"), os.path.join(it, "fall")
        pred = os.path.join(it, "pred.txt")
        return [bk("ingest", "--in", os.path.join(inputs, "screen.tsv"), "--out", ds),
                bk("featurize", "--dataset", ds, "--subset", "all", "--out", fall),
                bk("predict", "--model", os.path.join(s, "model.json"),
                   "--features", fall, "--out", pred),
                bk("evaluate", "--pred", pred, "--truth", fall,
                   "--out", os.path.join(it, "report.json"))]

    def check_setup(self, ck, dg, table, s):
        ds = os.path.join(s, "fitds")
        check_split_features(ck, s, check_dataset(ck, ds, table["fit"]), ("train",))
        check_model(ck, os.path.join(s, "model.json"), self.n_trees)
        dg.add({"model.json": os.path.join(s, "model.json")})

    def check_pass(self, ck, dg, table, s, it):
        prov = check_dataset(ck, os.path.join(it, "ds"), table["screen"])
        fall = os.path.join(it, "fall")
        check_features(ck, fall, prov["n_records"])
        y_fit = np.load(os.path.join(s, "ftrain", "y.npy"))
        maes = check_predictions(ck, it, np.load(os.path.join(fall, "y.npy")),
                                 float(y_fit.mean()))
        dg.add({"dataset.tsv": os.path.join(it, "ds", "dataset.tsv"),
                "pred.txt": os.path.join(it, "pred.txt")})
        return prov["n_records"], dir_bytes(fall), maes


WORKLOADS = {w.name: w for w in (Curate(), Train(), Screen())}


class Digests:
    """Artifact digests must agree within a run, and across runs of the same
    bindkit sources on the same inputs.

    The cross-run digests are kept under .perfbench/digests/, keyed by the
    digest of the generated inputs and of src/bindkit, so a run is only
    compared with earlier runs of the same code.  Artifacts added with
    carry=False, such as feature directories, whose format the program may
    change, are compared within the run only.
    """

    def __init__(self, ck: Checks, workload: str, seed: int, inputs: str):
        self.ck = ck
        key = hashlib.sha256((tree_sha(inputs) + tree_sha(os.path.join(SRC, "bindkit")))
                             .encode()).hexdigest()
        self.path = os.path.join(STATE, "digests", f"{workload}-{seed}-{key[:16]}.json")
        try:
            self.stored = read_json(self.path)
        except (OSError, ValueError):
            self.stored = {}
        self.carried: dict[str, str] = {}
        self.local: dict[str, str] = {}

    def add(self, artifacts: dict, carry: bool = True) -> None:
        for name, path in artifacts.items():
            sha = tree_sha(path)
            if carry:
                ref = self.carried.setdefault(name, self.stored.get(name, sha))
            else:
                ref = self.local.setdefault(name, sha)
            self.ck.expect(f"digest {name}", sha == ref, f"{sha[:12]} != {ref[:12]}")

    def save(self) -> None:
        if self.ck.failed:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(dict(self.stored, **self.carried), fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


# --- running steps -----------------------------------------------------------

def run_child(argv, cwd, log_path, timeout=STAGE_TIMEOUT_S):
    """Run a child process with bindkit's sources on its path.

    Returns (exit code, seconds from spawn to exit, peak RSS in MB).
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def fail_with_log(ck: Checks, name: str, rc: int, log_path: str) -> None:
    ck.expect(name, False, f"exit {rc}")
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        sys.stderr.write("".join(fh.readlines()[-20:]))
    raise RuntimeError(f"{name}: exit {rc}")


def run_steps(ck: Checks, steps, inputs, log_path) -> list:
    """Run steps in order, bindkit stages as child processes.

    Returns (stage, seconds, rss_mb) per stage; raises on a failed stage.
    """
    timings = []
    for stage, args in steps:
        argv = [sys.executable, "-m", "bindkit.cli", "--quiet", "--config",
                os.path.join(inputs, "bindkit.toml"), *args]
        rc, seconds, rss = run_child(argv, inputs, log_path)
        if rc != 0:
            fail_with_log(ck, f"{stage} exit code", rc, log_path)
        ck.expect(f"{stage} exit code", True)
        timings.append((stage, seconds, rss))
    return timings


def prepare_inputs(w: Workload, seed: int, inputs: str) -> dict:
    table = w.generate(seed, inputs)
    with open(os.path.join(inputs, "bindkit.toml"), "w", encoding="utf-8") as fh:
        fh.write(w.config(seed))
    return table


def median(values) -> float:
    return float(statistics.median(values))


def run_untraced(args, w: Workload, work: str, ck: Checks) -> tuple:
    started = time.perf_counter()
    log = os.path.join(work, "bindkit.log")
    setup_times = []
    for rep in range(w.setup_reps):
        base = os.path.join(work, f"setup{rep}")
        inputs, s = os.path.join(base, "in"), os.path.join(base, "s")
        start = time.perf_counter()
        table = prepare_inputs(w, args.seed, inputs)
        run_steps(ck, w.setup_steps(inputs, s), inputs, log)
        setup_times.append(time.perf_counter() - start)
        if rep == 0:
            digests = Digests(ck, w.name, args.seed, inputs)
        else:
            shutil.rmtree(os.path.join(work, f"setup{rep - 1}"))
        w.check_setup(ck, digests, table, s)

    t0 = time.perf_counter()
    passes = []
    while True:
        it = os.path.join(work, f"it{len(passes)}")
        os.makedirs(it)
        timings = run_steps(ck, w.steps(inputs, s, it), inputs, log)
        pairs, store, maes = w.check_pass(ck, digests, table, s, it)
        shutil.rmtree(it)
        passes.append((timings, pairs, store, maes))
        # Stop before a pass that would end past --seconds.
        elapsed = time.perf_counter() - t0
        next_end = elapsed + elapsed / len(passes)
        if len(passes) >= MIN_PASSES and (next_end > args.seconds
                                          or time.perf_counter() - started > RUN_BUDGET_S):
            break
    digests.save()

    walls = [sum(t for _, t, _ in timings) for timings, *_ in passes]
    metrics = {"wall_s": (median(walls), "s"), "setup_s": (median(setup_times), "s")}
    for stage, name in STAGE_METRICS.items():
        values = [sum(t for st, t, _ in timings if st == stage) for timings, *_ in passes]
        if any(values):
            metrics[name] = (median(values), "s")
    metrics["peak_rss_mb"] = (median([max(r for *_, r in timings)
                                      for timings, *_ in passes]), "MB")
    metrics["feature_store_mb"] = (median([p[2] for p in passes]) / 1e6, "MB")
    if passes[0][1] is not None:
        metrics["pairs_per_s"] = (median([p[1] / wall for p, wall in zip(passes, walls)]),
                                  "1/s")
    maes = [p[3] for p in passes if p[3] is not None]
    if maes:
        metrics["test_mae"] = (median([m for m, _ in maes]), "log10_nM")
        metrics["mean_predictor_mae"] = (median([b for _, b in maes]), "log10_nM")
    metrics["error_rate"] = (ck.failed / ck.attempted, "ratio")
    print(f"workload {w.name} seed {args.seed}: {len(passes)} timed passes, "
          f"{w.setup_reps} set-ups")
    return metrics, {"passes": len(passes), "walls": walls, "setup_times": setup_times}


def run_traced(args, w: Workload, work: str, ck: Checks) -> tuple:
    """Plain and traced in-process passes over the set-up and timed steps.

    The passes run plain, traced, traced, plain, so that a machine whose
    speed drifts linearly during the run adds nothing to the overhead."""
    inputs = os.path.join(work, "in")
    table = prepare_inputs(w, args.seed, inputs)
    digests = Digests(ck, w.name, args.seed, inputs)
    timed = {"plain": [], "traced": []}
    for i, mode in enumerate(("plain", "traced", "traced", "plain")):
        base = os.path.join(work, f"{i}-{mode}")
        s, it = os.path.join(base, "s"), os.path.join(base, "it")
        os.makedirs(it)
        plan = [(step, False) for step in w.setup_steps(inputs, s)]
        plan += [(step, True) for step in w.steps(inputs, s, it)]
        plan_path = os.path.join(base, "plan.json")
        out_path = os.path.join(base, "out.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump({"inputs": inputs, "plan": plan}, fh)
        argv = [sys.executable, os.path.join(HERE, "spans.py"), plan_path, out_path,
                "1" if mode == "traced" else "0"]
        log = os.path.join(base, "pass.log")
        rc, _, _ = run_child(argv, inputs, log, timeout=RUN_BUDGET_S / 2)
        if rc != 0:
            fail_with_log(ck, f"{mode} pass exit code", rc, log)
        out = read_json(out_path)
        for stage, code, _seconds, _timed in out["stages"]:
            if code != 0:
                fail_with_log(ck, f"{mode} {stage} exit code", code, log)
            ck.expect(f"{mode} {stage} exit code", True)
        w.check_setup(ck, digests, table, s)
        w.check_pass(ck, digests, table, s, it)
        timed[mode].append(sum(sec for _, _, sec, t in out["stages"] if t))
        if i == 1:
            metrics = spans.summarize(out["trace"])
        shutil.rmtree(base)
    digests.save()
    timed = {mode: statistics.fmean(v) for mode, v in timed.items()}
    metrics["tracing_overhead_s"] = (timed["traced"] - timed["plain"], "s")
    n = metrics["smiles.from_smiles.samples"][0]
    print(f"smiles.from_smiles: {n} samples support percentiles up to "
          f"p{spans.tail_percentile(n)}")
    return metrics, {"timed_plain_s": timed["plain"], "timed_traced_s": timed["traced"]}


# --- reporting -----------------------------------------------------------------

def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def emit(args, metrics: dict, ck: Checks, extra: dict, wanted) -> None:
    """Print every metric and the result line; keep a copy under .perfbench/results/."""
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"checks attempted {ck.attempted} failed {ck.failed}")
    result = {"correct": ck.failed == 0, "attempted": ck.attempted, "failed": ck.failed,
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                          for k in wanted}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=info, **extra,
                  all_metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    out_dir = os.path.join(STATE, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bindkit", "cli.py")):
        print(f"perfbench: no bindkit sources under {SRC}", file=sys.stderr)
        return 2
    doc = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    wanted = [m["name"] for m in doc["per_layer" if args.trace else "end_to_end"]]
    w = WORKLOADS[args.workload]
    work = os.path.join(STATE, "work", f"{w.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    ck = Checks()
    try:
        run = run_traced if args.trace else run_untraced
        metrics, extra = run(args, w, work, ck)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {w.name} failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    emit(args, metrics, ck, extra, wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
