"""
Training and evaluating an affinity regressor
=============================================

A boosted-tree regression from start to finish on a synthetic screen:
generate pairs with a known signal, train with validation-based early
stopping, score with MAE, affinity-binned MAE and a strong-binder
accuracy, then save and reload the model bit-for-bit.
"""
import pathlib
import tempfile

import numpy as np

from bindkit import (
    TrainParams,
    binned_mae,
    build_report,
    classify_accuracy,
    load_model,
    mae,
    save_model,
    train,
)

# --- a synthetic screen --------------------------------------------------------
# 24 binary columns stand in for fingerprint bits, 6 continuous ones for
# receptor descriptor statistics.  The target is a linear blend plus
# N(0, 0.3) noise, so no model can beat MAE 0.3 * sqrt(2/pi) = 0.239.

rng = np.random.Generator(np.random.PCG64(2024))
n = 5000
bits = (rng.random((n, 24)) < 0.5).astype(np.float64)
cont = rng.random((n, 6))
w_bits = np.linspace(-0.6, 0.6, 24)
w_cont = np.array([1.0, -0.8, 0.6, -0.4, 0.2, 0.1])
y = 4.0 + bits @ w_bits + cont @ w_cont + rng.normal(0.0, 0.3, size=n)
X = np.hstack([bits, cont])

Xtr, ytr = X[:3500], y[:3500]
Xva, yva = X[3500:4000], y[3500:4000]
Xte, yte = X[4000:], y[4000:]
print(f"train {len(ytr)}, valid {len(yva)}, test {len(yte)} rows, "
      f"{X.shape[1]} features")

# --- training with early stopping ----------------------------------------------

params = TrainParams(n_trees=500, max_depth=4, learning_rate=0.1,
                     min_samples_leaf=20, early_stopping_rounds=30, seed=7)
model, history = train(Xtr, ytr, params, valid=(Xva, yva))
print(f"kept {len(model.trees)} trees "
      f"(best validation iteration {history['best_iteration']}, "
      f"stopped early: {history['stopped_early']})")
print(f"train loss went {history['train_loss'][0]:.4f} -> "
      f"{history['train_loss'][-1]:.4f}")

# --- scoring ----------------------------------------------------------------------

pred = model.predict(Xte)
baseline = mae(yte, np.full(len(yte), ytr.mean()))
print(f"\ntest MAE {mae(yte, pred):.4f}  "
      f"(mean predictor {baseline:.4f}, noise floor 0.2394)")

accuracy = classify_accuracy(yte, pred, threshold=4.0)
print(f"strong-binder accuracy at log Ki < 4.0: {accuracy:.3f}")

bins, out_of_range = binned_mae(yte, pred, start=2.0, stop=7.0, width=1.0)
print("\nMAE by affinity bin:")
for cell in bins:
    shown = f"{cell['mae']:.4f}" if cell["mae"] is not None else "(empty)"
    print(f"  [{cell['lo']:+.1f}, {cell['hi']:+.1f})  n={cell['count']:4d}  {shown}")
if out_of_range["count"]:
    print(f"  out of range   n={out_of_range['count']:4d}  "
          f"{out_of_range['mae']:.4f}")

# The weighted bins always recombine to the global number.
parts = [(c["count"], c["mae"]) for c in [*bins, out_of_range] if c["count"]]
recombined = sum(c * m for c, m in parts) / sum(c for c, _ in parts)
print(f"recombined {recombined:.10f} == global {mae(yte, pred):.10f}")

# --- the structured report ----------------------------------------------------------

report = build_report(yte, pred)
print(f"\nreport keys: {sorted(report.keys())}")

# --- persistence ----------------------------------------------------------------------
# Models serialize to versioned JSON; floats survive exactly, so a reloaded
# model is the same function.

path = pathlib.Path(tempfile.mkdtemp(prefix="gbdt-demo-")) / "model.json"
save_model(model, path)
reloaded = load_model(path)
print(f"saved {path.stat().st_size} bytes, reload predicts identically: "
      f"{np.array_equal(reloaded.predict(Xte), pred)}")

# The same pipeline is scriptable end to end from the command line:
#   python3 -m bindkit.cli ingest --in raw.tsv --out data/
#   python3 -m bindkit.cli featurize --dataset data/ --subset train --out ft/
#   python3 -m bindkit.cli train --train ft/ --valid fv/ --out model.json
#   python3 -m bindkit.cli predict --model model.json --features fx/ --out p.txt
#   python3 -m bindkit.cli evaluate --pred p.txt --truth fx/ --out report.json
