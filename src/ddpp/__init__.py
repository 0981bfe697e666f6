"""Diversity-maximizing sample selection across bandwidth-constrained sources.

A center coordinates N data sources over a few transmission intervals.
Sources run greedy determinantal (log-volume) selection locally; the center
feeds back a compressed projector describing everything it has already
received, so later local picks avoid directions other sources covered.
Only finally selected samples ever travel uplink.
"""

from . import csi, data, dpp, engine, errors, linalg, metrics, protocol
from .engine import (ExperimentConfig, ExperimentResult, run_baseline,
                     run_ddpp, run_experiment, run_ground_truth)

__version__ = "0.1.0"

__all__ = [
    "csi", "data", "dpp", "engine", "errors", "linalg", "metrics", "protocol",
    "ExperimentConfig", "ExperimentResult", "run_baseline", "run_ddpp",
    "run_experiment", "run_ground_truth", "__version__",
]
