"""Diversity-maximizing sample selection across bandwidth-constrained sources.

A center coordinates N data sources over a few transmission intervals.
Sources run greedy determinantal (log-volume) selection locally; the center
feeds back a compressed projector describing everything it has already
received, so later local picks avoid directions other sources covered.
Only finally selected samples ever travel uplink.
"""

import os

# Campaign points run in a pool of DDPP_THREADS threads; a BLAS with a
# thread per core under two or more of them oversubscribes the cores.  Such
# a pool gets one BLAS thread unless the caller chose otherwise; this has to
# happen before the submodules import numpy.
try:
    _pooled = int(os.environ.get("DDPP_THREADS", "1")) > 1
except ValueError:  # cli._worker_count reports it
    _pooled = False
if _pooled:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from . import csi, data, dpp, engine, errors, linalg, metrics, protocol  # noqa: E402
from .engine import (ExperimentConfig, ExperimentResult,  # noqa: E402
                     run_ddpp, run_experiment, run_ground_truth)

__version__ = "0.1.0"

__all__ = [
    "csi", "data", "dpp", "engine", "errors", "linalg", "metrics", "protocol",
    "ExperimentConfig", "ExperimentResult", "run_ddpp", "run_experiment",
    "run_ground_truth", "__version__",
]
