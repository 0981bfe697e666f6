"""Why the projector feedback helps, on a hand-checkable instance.

Two sources both hold a strong sample along e1; only one of them holds the
minor e2 content.  Without feedback both sources transmit their e1 copy
and the union collapses.  With feedback the second source's geometry is
pre-coded so the already-covered direction loses the argmax.
"""

import numpy as np

from ddpp import csi, data, engine

Z = np.array([
    [3.00, 0.00],   # source 0: strong e1
    [2.90, 0.01],   # source 0: near-duplicate
    [0.00, 1.80],   # source 0: minor e2 content
    [2.95, 0.00],   # source 1: duplicate of source 0's best
    [2.85, 0.005],  # source 1: another duplicate
    [0.00, 1.70],   # source 1: its own minor content
])
ds = data.Dataset(features=Z, partition=data.SourcePartition(((0, 1, 2), (3, 4, 5))))

# the projector off [3, 0], built in the identity frame, which holds any rows
H = csi.projector_in_frame(Z[[0]], np.eye(2))
print("projector after receiving [3, 0]:")
print(H.matrix.round(6))
# precode returns features whose Gram is the pre-coded kernel W W^T,
# W = Z (I + H^{1/2}); the local greedy reads nothing else.
A = csi.precode(Z[3:], csi.exact_packet(H), momentum=True)
print("pre-coded source-1 kernel (momentum doubles the uncovered direction,")
print("so its share of the kernel grows fourfold):")
print((A @ A.T).round(3))

fed = engine.run_experiment(engine.ExperimentConfig(
    n_sources=2, dims=2, total_select=2, intervals=2, sparsity=2.0,
    compression="none", seed=0), ds)
blind = engine.run_experiment(engine.ExperimentConfig(
    n_sources=2, dims=2, total_select=2, intervals=1, sparsity=2.0,
    strategy="greedi", seed=0), ds)

print(f"with feedback   : rows {fed.selected_global_indices}, "
      f"log-volume {fed.diversity_logdet:.4f}")
print(f"without feedback: rows {blind.selected_global_indices}, "
      f"log-volume {blind.diversity_logdet:.4f}")
