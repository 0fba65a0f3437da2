"""Train the dual-tower model with and without the swapped loss term.

Generates the misaligned synthetic benchmark, trains two models from the
same initialization (lambda = 0.3 vs lambda = 0), and compares the
representation-space diagnostics. The swapped term routes queries through
the item tower and items through the query tower, which pulls the two
embedding geometries toward each other.
"""

import numpy as np

from sci import data_io, diagnostics, encoder, training
from sci.core import make_rng

SEED = 1

data = data_io.gen_synthetic(data_io.standard_benchmark(SEED))
print(f"benchmark: {len(data.item_ids)} items, {len(data.query_ids)} queries, "
      f"dim {data.item_features.shape[1]}, rotation misalignment 0.8 rad")

base = encoder.init("linear", 16, 16, make_rng(1000 + SEED))
# (query row, first relevant item row) pairs; ids are rows
pairs = np.array([(q, min(data.qrels[q])) for q in sorted(data.qrels)])
pool = np.concatenate([data.query_features, data.item_features[:200]])

models = {}
for lam in (0.3, 0.0):
    model = encoder.DualTowerModel(
        base.arch, base.input_dim, base.output_dim, base.hidden_dim,
        base.normalize_output,
        {k: v.copy() for k, v in base.params_q.items()},
        {k: v.copy() for k, v in base.params_i.items()})
    cfg = training.TrainConfig(60, 0.05, SEED,
                               training.LossConfig(0.2, lam, "additive"))
    model, history = training.train(model, data.triplets, cfg)
    models[lam] = model
    print(f"\nlambda = {lam}:")
    for epoch, l_o, l_s, l_t in history[::15] + [history[-1]]:
        print(f"  epoch {epoch:3d}  direct {l_o:.4f}  swapped {l_s:.4f}  "
              f"total {l_t:.4f}")

print("\ndiagnostics after training:")
print(f"{'':24s}{'lambda=0.3':>12s}{'lambda=0':>12s}")
reports = {lam: diagnostics.diagnose(m, data.query_features,
                                     data.item_features, pairs, pool)
           for lam, m in models.items()}
rows = [
    ("alignment error", lambda r: r["alignment_error"]),
    ("cov Frobenius gap", lambda r: r["cov_fro_gap"]),
    ("pair mean similarity", lambda r: r["pair_stats"]["mean"]),
]
for name, get in rows:
    print(f"{name:24s}{get(reports[0.3]):>12.4f}{get(reports[0.0]):>12.4f}")
print("\nthe swapped term lowers the first two and, on most seeds, raises")
print("the third; the acceptance suite checks all three across 10 seeds.")
