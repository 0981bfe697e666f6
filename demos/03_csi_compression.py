"""Feedback compression under an element budget.

Shows how the R*m budget splits between the dense principal block and the
spectral residual, and how reconstruction quality varies with the budget
and with the alternative compression schemes.
"""

import numpy as np

from ddpp import csi

rng = np.random.default_rng(1)
m = 48
received = rng.normal(size=(9, m))
# the projector off the received rows, in the identity frame (it holds any rows)
H = csi.projector_in_frame(received, np.eye(m))
print(f"projector: {m} dims, rank {m - len(H.basis)}")

for R in (1.0, 2.0, 4.0, 8.0, 24.0):
    r0, r1 = csi.split_budget(R, m, block_fraction=0.5)
    packet = csi.compress(H, R, block_fraction=0.5)
    err = np.linalg.norm(csi.reconstruct(packet) - H.matrix)
    print(f"R={R:5.1f}  budget={int(R * m):5d} elements  "
          f"block dims r0={r0:3d}  spectral terms r1={r1:2d}  "
          f"used={packet.element_count:5d}  frobenius error={err:8.4f}")

print("\nalternative schemes at R=4:")
for name, packet in [
        ("greedy block + residual", csi.compress(H, 4.0, 0.5)),
        ("spectral only (svd)", csi.compress(H, 4.0, block_fraction=0.0)),
        ("random sketch", csi.compress_random_sketch(H, 4.0, np.random.default_rng(2))),
]:
    err = np.linalg.norm(csi.reconstruct(packet) - H.matrix)
    print(f"  {name:26s} elements={packet.element_count:5d} error={err:8.4f}")
