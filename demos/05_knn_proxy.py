"""Does diverse selection help a downstream classifier?

Two classes, each a mixture of common and rare sub-modes.  A diverse
selection covers the rare modes that uniform sampling tends to miss, and a
nearest-neighbor classifier trained on the selected samples shows the
difference.
"""

import numpy as np

from ddpp import data, engine, metrics

rng_global = np.random.default_rng(3)
accs = {"ddpp": [], "stratified": []}

for seed in range(8):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(8, 32))
    centers *= 9.0 / np.linalg.norm(centers, axis=1, keepdims=True)
    weights = np.array([0.6, 0.3, 0.06, 0.04] * 2) / 2.0
    modes = rng.choice(8, size=1000, p=weights)
    Z = centers[modes] + 0.6 * rng.normal(size=(1000, 32))
    y = (modes >= 4).astype(int)
    train_Z, train_y, test_Z, test_y = Z[:600], y[:600], Z[600:], y[600:]

    part = data.partition(600, 5, policy="uniform_random", seed=seed)
    ds = data.Dataset(features=train_Z, partition=part, labels=train_y,
                      positivity_k=10)
    gt = engine.run_ground_truth(ds, 10)
    for strategy in accs:
        cfg = engine.ExperimentConfig(n_sources=5, dims=32, total_select=10,
                                      intervals=2, sparsity=4.0, seed=seed,
                                      strategy=strategy)
        sel = engine.run_experiment(cfg, ds, ground_truth=gt).selected_global_indices
        acc, f1 = metrics.knn_eval(train_Z[sel], train_y[sel], test_Z, test_y, 1)
        accs[strategy].append(acc)

print("10 training samples selected from 5 sources, 1-NN classification:")
for strategy, values in accs.items():
    print(f"  {strategy:11s} accuracy {np.mean(values):.4f} "
          f"(per seed: {[round(v, 3) for v in values]})")
