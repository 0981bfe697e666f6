"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the speed changes by up to a third, for seconds to
minutes at a time, as neighbouring load comes and goes, and kernels doing the
same kind of work slow by about the same factor.  Timings measured minutes
apart then differ more than any change worth detecting.  The benchmark times
this kernel between units and reports each timing scaled to the speed at
which the kernel takes its nominal time:

    scaled = measured * NOMINAL_S[dims] / kernel_seconds

The kernel uses numpy and the interpreter only, never ``ddpp``, so a change
to the package moves the scaled timings exactly as much as the measured
ones.  The measured values are reported beside them.
"""

import statistics
import time

import numpy as np

# Kernel time, per workload dimension, that scaled timings refer to: about
# its median on the 2-core x86_64 VM (scipy-openblas 0.3.31, one BLAS
# thread) it was set on.
NOMINAL_S = {64: 0.006, 512: 0.042}


class Reference:
    """The kernel's inputs, built once; ``seconds()`` times it.

    The kernel repeats the operations that dominate a unit of a workload with
    ``dims`` features and ``rows`` samples per source, at fixed inputs: an
    m x m ``eigh``, an n_i x n_i Gram product, an interpreter loop and many
    small numpy calls.  So it slows as much as the unit does.
    """

    def __init__(self, dims, rows):
        rng = np.random.default_rng(0)
        sym = rng.normal(size=(dims, dims))
        self._sym = sym + sym.T
        self._wide = rng.normal(size=(rows, dims))
        self._vec = rng.normal(size=64)
        self.nominal = NOMINAL_S[dims]
        self.samples = []

    def _kernel(self):
        np.linalg.eigh(self._sym)
        self._wide @ self._wide.T
        total = 0
        for i in range(40000):
            total += i * i
        for _ in range(250):
            np.argmax(np.abs(self._vec - self._vec.mean()))
        return total

    def seconds(self, repeats=2):
        """Fastest of ``repeats`` kernel runs, so a one-off stall is ignored."""
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        self.samples.append(best)
        return best

    def scale(self, before, after):
        """Factor taking a timing made between two kernel runs to nominal speed."""
        return self.nominal / ((before + after) / 2.0)

    def median(self):
        return statistics.median(self.samples) if self.samples else None
