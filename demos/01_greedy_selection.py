"""Greedy log-volume selection vs the exhaustive optimum.

Builds a small Gram kernel, runs the incremental-Cholesky greedy search,
and compares it against brute-force enumeration of every subset.
"""

import numpy as np

from ddpp import dpp

rng = np.random.default_rng(0)
Z = rng.normal(size=(12, 6)) * 2.0
L = Z @ Z.T

k = 4
greedy = dpp.greedy_map(L, k)
exact = dpp.brute_force_map(Z, k)  # the kernel of Z's rows, L

print(f"kernel: {L.shape[0]} samples, selecting {k}")
print(f"greedy picks    : {greedy.indices}")
print(f"  stepwise logdet: {[round(v, 4) for v in greedy.stepwise_logdets]}")
print(f"exhaustive picks: {exact.indices}")
print(f"  final logdet   : {exact.stepwise_logdets[-1]:.4f}")

gap = exact.stepwise_logdets[-1] - greedy.stepwise_logdets[-1]
print(f"optimality gap   : {gap:.6f} nats "
      f"(greedy guarantee allows up to {np.log(1 / (1 - 1 / np.e)):.4f})")

# conditioning: seed the state with two items and pick the rest
cond = dpp.greedy_map(L, 2, preselected=greedy.indices[:2])
print(f"conditioned on {greedy.indices[:2]} the next picks are {cond.indices}")
assert greedy.indices[2:] == cond.indices
