"""Workload definitions, one campaign unit per seed, and the per-unit checks.

A campaign unit is what ``ddpp.cli._campaign_unit`` does for one seed:
generate the dataset, run the centralized ground truth, then run every
listed strategy against it.  The ``paper-*`` workloads drive ``ddpp.data``
and ``ddpp.engine`` directly; ``deep-feedback-tcp`` calls ``ddpp.cli.main``
once per unit.  Each unit returns one row per strategy run, in the format of
``ExperimentResult.to_json_dict`` (the format of ``results.jsonl``).
"""

import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass

from ddpp import cli, data, engine

# Spelled out rather than taken from engine.STRATEGIES, so that the
# benchmark's work does not change when the package's list does.
ALL_STRATEGIES = ("ddpp", "greedi", "greedymax", "maxdiv", "random", "stratified")

# Measured units use seeds base, base+1, ..., fewer than MAX_UNITS of them.
MAX_UNITS = 999
# The warm-up unit's seed: one fixed seed, so set-up time does not vary with
# the data, unless it falls inside the measured range.
WARMUP_SEED = 2**31 - 1


def warmup_seed(base):
    return WARMUP_SEED if not base <= WARMUP_SEED < base + MAX_UNITS else base + MAX_UNITS


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``sparsity`` is R = 0.75 * k_T / t_T."""

    name: str
    why: str
    dims: int
    n_sources: int
    total_select: int
    intervals: int
    strategies: tuple
    # Extra engine.run_ddpp runs with these compression ablations.
    compressions: tuple = ()
    transport: str = "loopback"
    via_cli: bool = False
    per_source_size: int = 500
    # The repeatable metrics (RDE, feedback elements, wire bytes) average the
    # first this many units, so they do not depend on how fast the run was.
    quality_units: int = 1

    @property
    def sparsity(self):
        return 0.75 * self.total_select / self.intervals

    def labels(self):
        """Row labels one unit must produce, in order."""
        return list(self.strategies) + [f"ddpp/{c}" for c in self.compressions]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper-512",
        why="Published 512-dim cell, all six strategies plus svd and "
            "random_sketch ablations; m x m eigh in csi.precode and "
            "csi.compress dominate (the csi workload).",
        dims=512, n_sources=10, total_select=120, intervals=2,
        strategies=ALL_STRATEGIES, compressions=("svd", "random_sketch"),
        quality_units=10),
    Workload(
        name="paper-64",
        why="64-dim cell, all six strategies; n_i x n_i Gram builds and greedy "
            "dominate and csi is small, so a csi-only change should not move it.",
        dims=64, n_sources=20, total_select=40, intervals=2,
        strategies=ALL_STRATEGIES, quality_units=56),
    Workload(
        name="deep-feedback-tcp",
        why="ddpp.cli run over tcp, m=512, N=2, t_T=6: five feedback rounds, "
            "real sockets, concurrent source threads, and the cli layer.",
        dims=512, n_sources=2, total_select=120, intervals=6,
        strategies=("ddpp", "greedi"), transport="tcp", via_cli=True,
        quality_units=24),
)}


class CheckFailed(Exception):
    """A unit produced output that violates one of the benchmark's checks."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__(", ".join(self.failures))


def cli_argv(spec, seed, out_dir, transport=None):
    """``ddpp run`` arguments for one unit on the calibrated generator family."""
    family = {**data.BENCHMARK_FAMILY[spec.dims], **data.BENCHMARK_COMMON}
    return [
        "run", "--out", out_dir, "--seed-list", str(seed),
        "--N", str(spec.n_sources), "--m", str(spec.dims),
        "--kT", str(spec.total_select), "--tT", str(spec.intervals),
        "--R", repr(spec.sparsity), "--strategies", ",".join(spec.strategies),
        "--transport", transport or spec.transport,
        "--ni", str(spec.per_source_size),
        "--clusters", str(family["n_clusters"]), "--spread", repr(family["spread"]),
        "--scale", repr(family["scale"]),
        "--radius-jitter", repr(family["radius_jitter"]),
        "--norm-tail", repr(family["norm_tail"]),
        "--mean-sparsity", repr(family["mean_sparsity"]),
        "--partition-policy", "cluster_skewed",
        "--skew", repr(data.BENCHMARK_SKEW),
    ]


def _config(spec, seed, strategy, compression="proposed"):
    return engine.ExperimentConfig(
        n_sources=spec.n_sources, dims=spec.dims, total_select=spec.total_select,
        intervals=spec.intervals, sparsity=spec.sparsity, strategy=strategy,
        compression=compression, seed=seed)


def _row(result):
    row = result.to_json_dict()
    row["uplink_bytes"] = result.ledger["uplink_bytes"]
    row["downlink_bytes"] = result.ledger["downlink_bytes"]
    return row


def _engine_unit(spec, seed):
    dataset = data.make_benchmark_dataset(seed, spec.n_sources, spec.dims,
                                          spec.total_select,
                                          per_source_size=spec.per_source_size)
    gt = engine.run_ground_truth(dataset, spec.total_select)
    rows = [_row(engine.run_experiment(_config(spec, seed, s), dataset,
                                       transport=spec.transport, ground_truth=gt))
            for s in spec.strategies]
    rows += [_row(engine.run_ddpp(_config(spec, seed, "ddpp", c), dataset,
                                  transport=spec.transport, ground_truth=gt))
             for c in spec.compressions]
    return rows


def cli_unit(spec, seed, out_dir, transport=None):
    """One ``ddpp run`` call; returns its result rows and ground-truth entry."""
    sink = io.StringIO()
    with redirect_stdout(sink):
        code = cli.main(cli_argv(spec, seed, out_dir, transport))
    if code != 0:
        raise CheckFailed([f"cli_exit_{code}"])
    with open(os.path.join(out_dir, "results.jsonl")) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    with open(os.path.join(out_dir, "gt_cache.json")) as fh:
        gt_cache = json.load(fh)
    if not os.path.exists(os.path.join(out_dir, "manifest.json")):
        raise CheckFailed(["cli_manifest"])
    return rows, gt_cache


def run_unit(spec, seed, work_dir):
    """Run one campaign unit and return its rows (no checks)."""
    if not spec.via_cli:
        return _engine_unit(spec, seed)
    rows, gt_cache = cli_unit(spec, seed, work_dir)
    if len(gt_cache) != 1 or not next(iter(gt_cache.values()))["logdet"] > 0:
        raise CheckFailed(["gt_cache_logdet"])
    return rows


def label_of(row):
    if row["strategy"] == "ddpp" and row["compression"] != "proposed":
        return f"ddpp/{row['compression']}"
    return row["strategy"]


def check_unit(spec, rows, ddpp_runs):
    """Names of the checks this unit fails; empty when it passes.

    ``ddpp_runs`` holds the probe's (seconds, wire bytes) for every
    ``run_ddpp`` call with the proposed compression during the unit.
    """
    k, m, N = spec.total_select, spec.dims, spec.n_sources
    n = N * spec.per_source_size
    failures = []
    if [label_of(r) for r in rows] != spec.labels():
        failures.append("strategy_rows")
    for row in rows:
        sel = row["selected_indices"]
        tag = label_of(row)
        if len(set(sel)) != len(sel) or any(not 0 <= i < n for i in sel):
            failures.append(f"{tag}:selection_distinct")
        if len(sel) != k and not (row["rank_exhausted"] and len(sel) < k):
            failures.append(f"{tag}:selection_size")
        if row["uplink_elements"] != len(sel) * m:
            failures.append(f"{tag}:uplink_elements")
        if row["strategy"] == "ddpp" and \
                row["downlink_elements"] > spec.sparsity * m * N * (spec.intervals - 1):
            failures.append(f"{tag}:downlink_budget")
        if not row["gt_logdet"] > 0:
            failures.append(f"{tag}:gt_logdet")
        if row["rde"] is None or not 0.0 <= row["rde"] <= 1.0:
            failures.append(f"{tag}:rde_range")
    if len(ddpp_runs) != 1:
        failures.append("ddpp_probe")
    else:
        wire = ddpp_runs[0][1]
        proposed = [r for r in rows if label_of(r) == "ddpp"]
        if "uplink_bytes" in (proposed[0] if proposed else {}):
            if wire != proposed[0]["uplink_bytes"] + proposed[0]["downlink_bytes"]:
                failures.append("wire_bytes_vs_ledger")
        elif wire <= 8 * k * m:
            failures.append("wire_bytes")
    return failures
