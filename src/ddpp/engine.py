"""Coordinator/source orchestration across selection intervals.

The feedback pipeline (strategy ``ddpp``) runs interval by interval: the
center summarizes what it has already received from other sources as a
projector per source, compresses it under the sparsity budget, and sends it
downlink; each source pre-codes its full local matrix with the decoded
feedback, extends its own greedy selection (previously sent items condition
the geometry but are never re-sent), and uplinks the new picks.  Baseline
strategies reuse the same transports and ledger so the bandwidth accounting
is comparable across methods.
"""

import threading
from dataclasses import dataclass

import numpy as np

from . import csi, dpp, metrics
from .errors import InvalidConfigError, InvalidInputError, ProtocolError
from .linalg import logdet_psd, symmetrize
from .protocol import (MAGIC_ERROR, BandwidthLedger, FeedbackMsg, SampleBatch,
                       decode_batch, decode_error, decode_feedback,
                       encode_batch, encode_error, encode_feedback,
                       loopback_pair, tcp_pair)

STRATEGIES = ("ddpp", "greedi", "greedymax", "maxdiv", "random", "stratified")
COMPRESSIONS = ("proposed", "svd", "random_sketch", "none")

_SALT_SKETCH = 0x51
_SALT_RANDOM = 0x52
_SALT_STRATIFIED = 0x53


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters of one experiment run."""

    n_sources: int
    dims: int
    total_select: int
    intervals: int = 2
    sparsity: float = 45.0
    epsilon: float = 1e-6
    block_fraction: float = 0.5
    strategy: str = "ddpp"
    compression: str = "proposed"
    seed: int = 0
    momentum: bool = True

    def validate(self):
        if self.n_sources < 1 or self.dims < 1 or self.intervals < 1:
            raise InvalidConfigError("n_sources, dims and intervals must be positive")
        if self.total_select < 1:
            raise InvalidConfigError("total_select must be positive")
        if self.total_select % self.n_sources:
            raise InvalidConfigError("total_select must divide evenly over sources")
        if self.total_select % self.intervals:
            raise InvalidConfigError("total_select must divide evenly over intervals")
        if self.total_select > self.dims:
            raise InvalidConfigError(f"total_select {self.total_select} exceeds "
                                     f"dims {self.dims}; such selections are singular")
        if self.sparsity < 0:
            raise InvalidConfigError("sparsity budget must be non-negative")
        sends_feedback = (self.strategy == "ddpp"
                          and self.feedback_at(self.intervals))
        if sends_feedback and self.sparsity * self.dims < 1:
            raise InvalidConfigError(
                f"feedback budget R*m = {self.sparsity * self.dims:g} "
                "is below one element")
        if not 0 < self.epsilon:
            raise InvalidConfigError("epsilon must be positive")
        if self.strategy not in STRATEGIES:
            raise InvalidConfigError(f"unknown strategy {self.strategy!r}")
        if self.compression not in COMPRESSIONS:
            raise InvalidConfigError(f"unknown compression {self.compression!r}")
        return self

    def feedback_at(self, interval):
        """Whether the center sends feedback before 1-based ``interval``.

        Center and sources both follow this schedule; a source that expects
        a frame the center never sends would block in ``recv``.
        """
        return interval >= 2 and self.n_sources >= 2

    @property
    def per_source_quota(self):
        return self.total_select // self.n_sources

    def interval_quota(self, source_id, interval):
        """Picks source ``source_id`` owes in 1-based ``interval``.

        Even split of the per-source quota; remainder slots rotate with the
        source id so every interval moves data even when the quota does not
        divide the interval count.
        """
        base, rem = divmod(self.per_source_quota, self.intervals)
        return base + (1 if (interval - 1 - source_id) % self.intervals < rem else 0)


@dataclass
class ExperimentResult:
    """Per-trial record of one strategy run."""

    strategy: str
    seed: int
    selected_global_indices: list
    diversity_logdet: float
    rde: float
    gt_logdet: float
    ledger: dict
    config: ExperimentConfig
    scale: float = 1.0
    rank_exhausted: bool = False

    def comparable(self):
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "selected": list(self.selected_global_indices),
            "diversity": self.diversity_logdet,
            "rde": self.rde,
            "gt_logdet": self.gt_logdet,
            "ledger": self.ledger,
            "rank_exhausted": self.rank_exhausted,
        }

    def to_json_dict(self):
        c = self.config
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "rde": self.rde,
            "diversity": self.diversity_logdet,
            "uplink_elements": self.ledger["uplink_elements"],
            "downlink_elements": self.ledger["downlink_elements"],
            "k_T": c.total_select,
            "N": c.n_sources,
            "R": c.sparsity,
            "m": c.dims,
            "t_T": c.intervals,
            "compression": c.compression,
            "gt_logdet": self.gt_logdet,
            "scale": self.scale,
            "rank_exhausted": self.rank_exhausted,
            "selected_indices": [int(i) for i in self.selected_global_indices],
        }


class SourceWorker:
    """Holds one source's rows and its send history; sees only its own source."""

    def __init__(self, source_id, rows, config):
        self.source_id = source_id
        self.rows = rows
        self.config = config
        self.sent = []
        self.exhausted = False

    def step(self, interval, feedback_frame, k):
        """Consume optional feedback, pick k new items, return a batch frame.

        A feedback frame must name this source, the current ``interval``
        and a packet as wide as the source's rows.
        """
        if feedback_frame is not None:
            msg = decode_feedback(feedback_frame)
            if (msg.target_source, msg.interval) != (self.source_id, interval):
                raise ProtocolError(
                    f"feedback for source {self.source_id} in interval "
                    f"{interval} names source {msg.target_source}, "
                    f"interval {msg.interval}")
            if msg.packet.dims != self.rows.shape[1]:
                raise ProtocolError(
                    f"source {self.source_id} got a packet of width "
                    f"{msg.packet.dims}, expected {self.rows.shape[1]}")
            working = csi.precode(self.rows, msg.packet,
                                  momentum=self.config.momentum)
        else:
            working = self.rows
        new = []
        if k > 0:
            new = dpp.greedy_map_rows(working, k, preselected=self.sent).indices
            if len(new) < k:
                self.exhausted = True
            self.sent.extend(new)
        batch = SampleBatch(source_id=self.source_id, interval=interval,
                            local_indices=tuple(new), vectors=self.rows[new])
        return encode_batch(batch)


def _source_loop(worker, channel, config):
    """Autonomous source endpoint: both sides know the feedback schedule.

    Any failure, an exit or interrupt too, goes to the center as an error
    frame; a source thread that just died would leave the center waiting
    in ``recv`` for good.  An exit or interrupt is re-raised after that.
    """
    t = 0
    try:
        for t in range(1, config.intervals + 1):
            frame = channel.recv() if config.feedback_at(t) else None
            channel.send(worker.step(t, frame,
                                     config.interval_quota(worker.source_id, t)))
    except BaseException as exc:  # the thread's boundary: report, then end
        try:
            channel.send(encode_error(worker.source_id, t, exc))
        except OSError:
            pass  # the center has closed the connection already
        if not isinstance(exc, Exception):
            raise


class _Drivers:
    """Hides the two execution modes behind send/collect calls.

    ``loopback`` runs workers inline on the coordinator thread over queue
    channels; ``tcp`` runs each worker in its own thread behind a socket.
    Selections are identical in both modes because workers only see their
    own frames.
    """

    def __init__(self, workers, config, transport):
        if transport not in ("loopback", "tcp"):
            raise InvalidConfigError(f"unknown transport {transport!r}")
        self.workers = workers
        self.config = config
        self.transport = transport
        pairs = [tcp_pair() if transport == "tcp" else loopback_pair()
                 for _ in workers]
        self.center_ends = [p[0] for p in pairs]
        self.source_ends = [p[1] for p in pairs]
        self.threads = []
        if transport == "tcp":
            for w, ch in zip(workers, self.source_ends):
                th = threading.Thread(target=_source_loop, args=(w, ch, config),
                                      daemon=True)
                th.start()
                self.threads.append(th)

    def send_feedback(self, source_id, frame):
        self.center_ends[source_id].send(frame)

    def collect_batches(self, interval):
        """One batch frame per source, in source order, as received."""
        frames = []
        for i, w in enumerate(self.workers):
            if self.transport == "loopback":
                frame = (self.source_ends[i].recv()
                         if self.config.feedback_at(interval) else None)
                self.source_ends[i].send(
                    w.step(interval, frame, self.config.interval_quota(i, interval)))
            frame = self.center_ends[i].recv()
            if frame[:4] == MAGIC_ERROR:
                raise decode_error(frame)
            frames.append(frame)
        return frames

    def close(self):
        # The center's ends close first: after a failure, that wakes every
        # source still waiting in recv, so the joins below do not wait.
        for ch in self.center_ends:
            ch.close()
        for th in self.threads:
            th.join(timeout=30)
        for ch in self.source_ends:
            ch.close()


class _CenterStore:
    """What the center has actually received, in arrival order."""

    def __init__(self, n_sources, dims):
        self.order = []            # global indices, arrival order
        self.vectors = {}          # global index -> decoded row
        self.by_source = [[] for _ in range(n_sources)]

    def add(self, source_id, global_idx, row):
        self.order.append(global_idx)
        self.vectors[global_idx] = row
        self.by_source[source_id].append(global_idx)

    def foreign_rows(self, source_id):
        """Rows received from every other source (the conditioning set)."""
        own = set(self.by_source[source_id])
        idx = [g for g in self.order if g not in own]
        if not idx:
            return np.zeros((0, 0))
        return np.vstack([self.vectors[g] for g in idx])


def _make_packet(projector, config, rng):
    if config.compression == "proposed":
        return csi.compress(projector, config.sparsity, config.block_fraction)
    if config.compression == "svd":
        return csi.compress_svd(projector, config.sparsity)
    if config.compression == "random_sketch":
        return csi.compress_random_sketch(projector, config.sparsity, rng)
    return csi.exact_packet(projector)


def run_ground_truth(dataset, k_T):
    """Centralized greedy over all samples; the reference selection."""
    if k_T < 1:
        raise InvalidInputError("k_T must be positive")
    return dpp.greedy_map_rows(dataset.features, k_T)


def _finish(config, dataset, store, ledger, ground_truth, exhausted):
    selected = list(store.order)
    report = metrics.rde(dataset.features, ground_truth.indices, selected)
    return ExperimentResult(
        strategy=config.strategy, seed=config.seed,
        selected_global_indices=selected, diversity_logdet=report.sel_logdet,
        rde=report.rde, gt_logdet=report.gt_logdet, ledger=ledger.snapshot(),
        config=config, scale=dataset.scale,
        rank_exhausted=exhausted)


def _uplink(ledger, store, dataset, frame, source_id, interval):
    """Decode, check, ledger and file one batch frame from ``source_id``.

    The frame must name the channel it arrived on and the current
    ``interval``, index only that source's rows and carry m-wide vectors.
    It is ledgered at its size.
    """
    batch = decode_batch(frame)
    if (batch.source_id, batch.interval) != (source_id, interval):
        raise ProtocolError(
            f"frame on source {source_id}'s channel in interval {interval} "
            f"claims source {batch.source_id}, interval {batch.interval}")
    if batch.vectors.shape[1] != dataset.dims:
        raise ProtocolError(f"source {source_id} sent vectors of width "
                            f"{batch.vectors.shape[1]}, expected {dataset.dims}")
    assignment = dataset.partition.assignments[source_id]
    if any(j >= len(assignment) for j in batch.local_indices):
        raise ProtocolError(f"source {source_id} sent a local index past its "
                            f"{len(assignment)} rows")
    global_ids = [assignment[j] for j in batch.local_indices]
    ledger.record("uplink", batch.source_id,
                  len(batch.local_indices) * dataset.dims, len(frame),
                  interval=batch.interval, indices=global_ids)
    for g, row in zip(global_ids, batch.vectors):
        store.add(batch.source_id, g, row)


def run_ddpp(config, dataset, transport="loopback", ground_truth=None):
    """Interval-by-interval feedback pipeline (Algorithm ``ddpp``)."""
    config.validate()
    _check_dataset(config, dataset)
    if ground_truth is None:
        ground_truth = run_ground_truth(dataset, config.total_select)
    ledger = BandwidthLedger(config.n_sources, dataset.dims,
                             sparsity=config.sparsity)
    store = _CenterStore(config.n_sources, dataset.dims)
    workers = [SourceWorker(i, dataset.source_rows(i), config)
               for i in range(config.n_sources)]
    sketch_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _SALT_SKETCH]))
    drivers = _Drivers(workers, config, transport)
    try:
        for t in range(1, config.intervals + 1):
            if config.feedback_at(t):
                for i in range(config.n_sources):
                    projector = csi.compute_projector(store.foreign_rows(i),
                                                      dataset.dims)
                    packet = _make_packet(projector, config, sketch_rng)
                    frame = encode_feedback(FeedbackMsg(
                        target_source=i, interval=t, packet=packet))
                    ledger.record("downlink", i, packet.element_count,
                                  len(frame), interval=t)
                    drivers.send_feedback(i, frame)
            for i, frame in enumerate(drivers.collect_batches(t)):
                _uplink(ledger, store, dataset, frame, i, t)
    finally:
        drivers.close()
    exhausted = any(w.exhausted for w in workers)
    return _finish(config, dataset, store, ledger, ground_truth, exhausted)


def _check_dataset(config, dataset):
    if dataset.partition.n_sources != config.n_sources:
        raise InvalidConfigError("partition does not match the configured source count")
    if dataset.dims != config.dims:
        raise InvalidConfigError("dataset dimensionality does not match the config")


def _send_selection(config, dataset, ledger, store, selections):
    """Frame, ledger and deliver per-source local selections (one interval)."""
    for i, local in enumerate(selections):
        assignment = dataset.partition.assignments[i]
        batch = SampleBatch(source_id=i, interval=1, local_indices=tuple(local),
                            vectors=dataset.features[[assignment[j] for j in local]])
        _uplink(ledger, store, dataset, encode_batch(batch), i, 1)


def rd_diversity(rows, epsilon):
    """Rate-distortion style diversity of a whole source."""
    n_i, m = rows.shape
    inner = symmetrize(rows.T @ rows)  # scaling amplifies float asymmetry
    return logdet_psd(np.eye(m) + (m / (n_i * epsilon)) * inner)


def run_baseline(config, dataset, ground_truth=None):
    """Feedback-free comparison strategies sharing the ddpp accounting."""
    config.validate()
    _check_dataset(config, dataset)
    if config.strategy not in ("greedi", "greedymax", "maxdiv", "random", "stratified"):
        raise InvalidConfigError(f"{config.strategy!r} is not a baseline strategy")
    if ground_truth is None:
        ground_truth = run_ground_truth(dataset, config.total_select)
    ledger = BandwidthLedger(config.n_sources, dataset.dims,
                             sparsity=config.sparsity)
    store = _CenterStore(config.n_sources, dataset.dims)
    exhausted = False
    N, k_T = config.n_sources, config.total_select
    if config.strategy == "greedi":
        selections = []
        for i in range(N):
            res = dpp.greedy_map_rows(dataset.source_rows(i),
                                      config.per_source_quota)
            exhausted |= res.rank_exhausted
            selections.append(res.indices)
        _send_selection(config, dataset, ledger, store, selections)
    elif config.strategy in ("greedymax", "maxdiv"):
        candidates, scores = [], []
        for i in range(N):
            rows = dataset.source_rows(i)
            if config.strategy == "maxdiv":
                scores.append(rd_diversity(rows, config.epsilon))
                ledger.record_probe(i)
                candidates.append(None)  # winner selects later
            else:
                res = dpp.greedy_map_rows(rows, min(k_T, rows.shape[0]))
                candidates.append(res.indices)
                scores.append(dpp.subset_logdet(rows, res.indices))
        winner = int(np.argmax(scores))
        if candidates[winner] is None:
            rows = dataset.source_rows(winner)
            res = dpp.greedy_map_rows(rows, min(k_T, rows.shape[0]))
            candidates[winner] = res.indices
            exhausted |= res.rank_exhausted
        exhausted |= len(candidates[winner]) < k_T
        selections = [candidates[i] if i == winner else [] for i in range(N)]
        _send_selection(config, dataset, ledger, store, selections)
    else:  # random / stratified
        salt = _SALT_RANDOM if config.strategy == "random" else _SALT_STRATIFIED
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, salt]))
        assignments = dataset.partition.assignments
        if config.strategy == "random":
            chosen = rng.choice(dataset.n, size=k_T, replace=False)
            lookup = {g: (i, j) for i, a in enumerate(assignments)
                      for j, g in enumerate(a)}
            selections = [[] for _ in range(N)]
            for g in chosen.tolist():
                i, j = lookup[g]
                selections[i].append(j)
        else:
            selections = [sorted(rng.choice(len(assignments[i]),
                                            size=config.per_source_quota,
                                            replace=False).tolist())
                          for i in range(N)]
        _send_selection(config, dataset, ledger, store, selections)
    return _finish(config, dataset, store, ledger, ground_truth, exhausted)


def run_experiment(config, dataset, transport="loopback", ground_truth=None):
    """Dispatch on the configured strategy."""
    if config.strategy == "ddpp":
        return run_ddpp(config, dataset, transport=transport,
                        ground_truth=ground_truth)
    return run_baseline(config, dataset, ground_truth=ground_truth)
