"""Collect the per-run results under .perfbench/results/ into one BENCH file.

    python3 perfbench/summarize.py perfbench/results/BENCH_1.json --label "what changed"

For each workload, every untraced metric gets its median, quartiles
(statistics.quantiles, n=4) and the seeds it came from.  The per-layer
metrics of traced runs are listed per seed.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(os.path.dirname(HERE), ".perfbench", "results")


def summarize(records: list[dict]) -> dict:
    out: dict = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        w = out.setdefault(rec["workload"], {"untraced": {}, "traced": {}})
        if rec["trace"]:
            w["traced"][str(rec["seed"])] = {
                k: v["value"] for k, v in rec["all_metrics"].items()}
            continue
        for name, m in rec["all_metrics"].items():
            cell = w["untraced"].setdefault(name, {"unit": m["unit"], "seeds": [],
                                                   "values": []})
            cell["seeds"].append(rec["seed"])
            cell["values"].append(m["value"])
        w.setdefault("correct", []).append(rec["correct"])
    for w in out.values():
        for cell in w["untraced"].values():
            values = cell["values"]
            cell["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                cell["q1"], cell["q3"] = q1, q3
                cell["spread"] = (q3 - q1) / cell["median"] if cell["median"] else 0.0
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out")
    p.add_argument("--label", default="")
    args = p.parse_args()
    records = []
    for path in sorted(glob.glob(os.path.join(RESULTS, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"no results under {RESULTS}")
    doc = {"label": args.label, "machine": records[0]["machine"],
           "seconds": records[0]["seconds"], "workloads": summarize(records)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
