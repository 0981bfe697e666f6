"""Coordinator/source orchestration across selection intervals.

Every strategy runs on one schedule: per interval, each source sends one
batch frame over a channel of its own to one center object, which checks,
counts and files it, so the bandwidth accounting is the same for every
method.  Before each later interval of the feedback pipeline (``ddpp``) the
center sends each source a compressed projector onto what the other sources
have not covered; the source pre-codes its rows with it and extends its own
greedy selection (sent items condition the geometry but are never re-sent).
A baseline is one interval with no feedback.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import csi, dpp, metrics
from .errors import (BudgetViolationError, InvalidConfigError,
                     InvalidInputError, ProtocolError)
from .linalg import extend_frame, logdet_psd
from .protocol import (MAGIC_ERROR, FeedbackMsg, SampleBatch, decode_batch,
                       decode_error, decode_feedback, encode_batch,
                       encode_error, encode_feedback, loopback_pair, tcp_pair)

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
        if not (math.isfinite(self.sparsity * self.dims) and self.sparsity >= 0):
            raise InvalidConfigError("sparsity budget R*m must be finite and "
                                     f"non-negative, got R = {self.sparsity}")
        if not 0 <= self.block_fraction <= 1:
            raise InvalidConfigError("block_fraction must lie in [0, 1]")
        if self.feedback_at(self.rounds) and self.sparsity * self.dims < 1:
            raise InvalidConfigError(
                f"feedback budget R*m = {self.sparsity * self.dims:g} "
                "is below one element")
        if not 0 < self.epsilon < math.inf:
            raise InvalidConfigError(
                f"epsilon must be finite and positive, got {self.epsilon}")
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
    def rounds(self):
        """Intervals the sources run: t_T for ``ddpp``, one for a baseline."""
        return self.intervals if self.strategy == "ddpp" else 1

    @property
    def per_source_quota(self):
        return self.total_select // self.n_sources

    def check_split(self, partition):
        """Refuse a split of other than N sources, or one whose source holds
        fewer rows than its quota k_T/N; every strategy owes that many."""
        if partition.n_sources != self.n_sources:
            raise InvalidConfigError("partition does not match the configured source count")
        for i, rows in enumerate(partition.assignments):
            if len(rows) < self.per_source_quota:
                raise InvalidConfigError(
                    f"source {i} holds {len(rows)} samples, fewer than its quota "
                    f"k_T/N = {self.per_source_quota}")

    def interval_quota(self, source_id, interval):
        """Picks source ``source_id`` owes in 1-based ``interval``.

        Even split of the per-source quota over the rounds; remainder slots
        rotate with the source id so every interval moves data even when the
        quota does not divide the round count.
        """
        base, rem = divmod(self.per_source_quota, self.rounds)
        return base + (1 if (interval - 1 - source_id) % self.rounds < rem else 0)


@dataclass
class ExperimentResult:
    """Per-trial record of one strategy run."""

    selected_global_indices: list
    diversity_logdet: float
    rde: float
    gt_logdet: float
    ledger: dict
    config: ExperimentConfig
    scale: float
    rank_exhausted: bool

    def to_json_dict(self):
        c = self.config
        return {
            "strategy": c.strategy,
            "seed": c.seed,
            "rde": self.rde,
            "diversity": self.diversity_logdet,
            "uplink_elements": self.ledger["uplink_elements"],
            "downlink_elements": self.ledger["downlink_elements"],
            "uplink_bytes": self.ledger["uplink_bytes"],
            "downlink_bytes": self.ledger["downlink_bytes"],
            "probe_elements": self.ledger["probe_elements"],
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

    def __init__(self, source_id, rows, config, greedy, plan=None):
        self.source_id = source_id
        self.rows = rows
        self.config = config
        self.plan = plan  # local ids the center chose, sent instead of picks
        self.greedy = greedy  # k -> greedy_map_rows(rows, k), kept per unit
        self.sent = []

    def step(self, interval, feedback_frame, k):
        """Consume optional feedback, pick k new items, return a batch frame.

        A set ``plan`` replaces the picks; ``greedy`` makes them before any
        feedback or send.  A feedback frame must name this source, the
        current ``interval`` and a packet as wide as the source's rows.
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
        if self.plan is not None:
            new = list(self.plan)
        elif k > 0 and feedback_frame is None and not self.sent:
            new = self.greedy(k).indices
        elif k > 0:
            new = dpp.greedy_map_rows(working, k, preselected=self.sent).indices
        self.sent.extend(new)
        batch = SampleBatch(source_id=self.source_id, interval=interval,
                            local_indices=tuple(new), vectors=self.rows[new])
        return encode_batch(batch)

    def serve(self, channel, interval):
        """One interval of the schedule: take due feedback, step, send."""
        frame = channel.recv() if self.config.feedback_at(interval) else None
        k = self.config.interval_quota(self.source_id, interval)
        channel.send(self.step(interval, frame, k))


def _source_loop(worker, channel):
    """Autonomous source endpoint: both sides know the feedback schedule.

    Any failure, an exit or interrupt too, goes to the center as an error
    frame; a source thread that just died would leave the center waiting
    in ``recv`` for good.  An exit or interrupt is re-raised after that.
    """
    t = 0
    try:
        for t in range(1, worker.config.rounds + 1):
            worker.serve(channel, t)
    except BaseException as exc:  # the thread's boundary: report, then end
        try:
            channel.send(encode_error(worker.source_id, t, exc))
        except (OSError, ProtocolError):
            pass  # the center has closed the connection, or stopped reading
        if not isinstance(exc, Exception):
            raise


class _Center:
    """The single receiver: checks, counts and files every frame.

    It holds which source sent each global id and what each link has
    carried, and builds each source's feedback frame from the dataset's rows.
    Uplink counts carry only sample payload (k_T * m elements over a full
    run, the same for every strategy); maxdiv's scalar diversity probes,
    one per source, are tallied apart.  The center sends at most one
    feedback frame per source per interval, each capped at R*m elements.
    """

    def __init__(self, config, dataset):
        config.validate().check_split(dataset.partition)
        if dataset.dims != config.dims:
            raise InvalidConfigError("dataset dimensionality does not match the config")
        self.config = config
        self.dataset = dataset
        self.received = {}  # global id -> source id, in arrival order
        self.uplink = [0] * config.n_sources
        self.downlink = [0] * config.n_sources
        self.uplink_bytes = self.downlink_bytes = 0
        self.sketch_rng = (np.random.default_rng([config.seed, _SALT_SKETCH])
                           if config.compression == "random_sketch" else None)
        # the frame: orthonormal rows spanning the first ``framed`` ids' rows
        self.span, self.framed, self.shared = np.zeros((0, config.dims)), 0, False

    def receive(self, frame, source_id, interval):
        """Decode, check, count and file one batch frame from ``source_id``.

        The frame must name the channel it arrived on and the current
        ``interval``, index only that source's rows, none of them sent
        before, and carry the dataset's rows of those ids, m wide and bit for
        bit.  It is counted at its size, and the center files only the ids.
        """
        batch = decode_batch(frame)
        if (batch.source_id, batch.interval) != (source_id, interval):
            raise ProtocolError(
                f"frame on source {source_id}'s channel in interval {interval} "
                f"claims source {batch.source_id}, interval {batch.interval}")
        m = self.dataset.dims
        if batch.vectors.shape[1] != m:
            raise ProtocolError(f"source {source_id} sent vectors of width "
                                f"{batch.vectors.shape[1]}, expected {m}")
        assignment = self.dataset.partition.assignments[source_id]
        if any(j >= len(assignment) for j in batch.local_indices):
            raise ProtocolError(f"source {source_id} sent a local index past its "
                                f"{len(assignment)} rows")
        global_ids = [assignment[j] for j in batch.local_indices]
        repeats = sorted(g for g in global_ids if g in self.received)
        if repeats:
            raise BudgetViolationError(f"source {source_id} re-sent indices {repeats}")
        if batch.vectors.tobytes() != self.dataset.rows(global_ids).tobytes():
            raise ProtocolError(f"source {source_id} sent vectors that are not "
                                f"its rows of ids {global_ids}")
        self.uplink[source_id] += len(global_ids) * m
        self.uplink_bytes += len(frame)
        self.received.update(dict.fromkeys(global_ids, source_id))

    def feedback(self, source_id, interval):
        """Build, check against R*m, encode and count one feedback frame.

        Its packet compresses the projector onto what the dataset's rows of
        the ids the other sources sent have not covered; before any arrive,
        that is the identity.  Each source's foreign rows are a subset of all
        received, so all are built in one frame of them, extended once per
        interval; the dataset keeps the first frame and what is built in it
        (``shared``), as interval-1 picks are alike across runs.
        """
        config, dataset, m = self.config, self.dataset, self.dataset.dims
        if new := list(self.received)[self.framed:]:  # an interval's first packet
            grow = lambda: extend_frame(self.span, dataset.rows(new))
            self.shared, self.framed = not self.framed, self.framed + len(new)
            self.span = dataset.memo(("frame", *new), grow) if self.shared else grow()
        ids = [g for g, s in self.received.items() if s != source_id]
        build = lambda: csi.projector_in_frame(dataset.rows(ids), self.span)
        H = dataset.memo(("basis", *ids), build) if self.shared else build()
        if config.compression == "proposed":
            packet = csi.compress(H, config.sparsity, config.block_fraction)
        elif config.compression == "svd":  # the same packet, no block
            packet = csi.compress(H, config.sparsity, block_fraction=0.0)
        elif config.compression == "random_sketch":
            packet = csi.compress_random_sketch(H, config.sparsity,
                                                self.sketch_rng)
        else:
            packet = csi.exact_packet(H)
        budget = config.sparsity * m
        if packet.element_count > budget:
            raise BudgetViolationError(
                f"interval {interval} downlink to source {source_id} "
                f"reaches {packet.element_count} elements over budget {budget:g}")
        frame = encode_feedback(FeedbackMsg(target_source=source_id,
                                            interval=interval, packet=packet))
        self.downlink[source_id] += packet.element_count
        self.downlink_bytes += len(frame)
        return frame

    def result(self, ground_truth):
        """The run's record, scored against ``ground_truth`` (run if None)."""
        config, dataset = self.config, self.dataset
        if ground_truth is None:
            ground_truth = run_ground_truth(dataset, config.total_select)
        selected = list(self.received)
        gt_logdet = ground_truth_logdet(dataset, ground_truth)
        sel_logdet = dataset.logdet(selected)
        rde = metrics.rde(gt_logdet, sel_logdet)
        ledger = {
            "uplink_elements": sum(self.uplink),
            "downlink_elements": sum(self.downlink),
            "uplink_bytes": self.uplink_bytes,
            "downlink_bytes": self.downlink_bytes,
            "probe_elements": config.n_sources if config.strategy == "maxdiv" else 0,
            "per_source_uplink": list(self.uplink),
            "per_source_downlink": list(self.downlink),
        }
        return ExperimentResult(
            selected_global_indices=selected, diversity_logdet=sel_logdet,
            rde=rde, gt_logdet=gt_logdet, ledger=ledger,
            config=config, scale=dataset.scale,
            # every strategy owes k_T; only a greedy at its rank floor files fewer
            rank_exhausted=len(selected) < config.total_select)


def run_ground_truth(dataset, k_T):
    """Centralized greedy over all samples; the reference selection.

    It runs on the dataset's source-major store, once per dataset and k_T
    (its memo), and names its picks by global id.  Bitwise-equal gains break
    toward the earlier store row, so with a row duplicated in two sources
    it may name either copy; the log-volume, and so every RDE, is the same.
    """
    if k_T < 1:
        raise InvalidInputError("k_T must be positive")
    result = dataset.memo(("gt", k_T),
                          lambda: dpp.greedy_map_rows(dataset.store, k_T))
    return dpp.MapResult(indices=dataset.order[result.indices].tolist(),
                         stepwise_logdets=result.stepwise_logdets)


def ground_truth_logdet(dataset, ground_truth):
    """log det of the ground truth's rows, computed once per dataset."""
    ids = ground_truth.indices
    return dataset.memo(("gt_logdet", *ids), lambda: dataset.logdet(ids))


def _schedule(center, transport, ground_truth, plans=None):
    """Run every source's rounds over a channel of its own; score the run.

    ``loopback`` serves each source inline on this thread over in-process
    FIFOs; ``tcp`` runs each in its own thread behind a socket.  Selections
    are identical in both, as a source sees only its own frames.
    """
    config, dataset = center.config, center.dataset
    workers = [SourceWorker(i, dataset.source_rows(i), config,
                            lambda k, i=i: dataset.source_greedy(i, k),
                            plans[i] if plans else None)
               for i in range(config.n_sources)]
    if transport not in ("loopback", "tcp"):
        raise InvalidConfigError(f"unknown transport {transport!r}")
    pairs = [tcp_pair() if transport == "tcp" else loopback_pair()
             for _ in workers]
    threads = [threading.Thread(target=_source_loop, args=(w, p[1]), daemon=True)
               for w, p in zip(workers, pairs) if transport == "tcp"]
    for th in threads:
        th.start()
    try:
        for t in range(1, config.rounds + 1):
            if config.feedback_at(t):
                for i, (center_end, _) in enumerate(pairs):
                    center_end.send(center.feedback(i, t))
            for w, (center_end, source_end) in zip(workers, pairs):
                if transport == "loopback":
                    w.serve(source_end, t)
                frame = center_end.recv()
                if frame[:4] == MAGIC_ERROR:
                    raise decode_error(frame)
                center.receive(frame, w.source_id, t)
    finally:
        # The center's ends close first: after a failure, that wakes every
        # source still waiting in recv, so the joins below do not wait.
        for center_end, _ in pairs:
            center_end.close()
        for th in threads:
            th.join(timeout=30)
        for _, source_end in pairs:
            source_end.close()
    return center.result(ground_truth)


def run_ddpp(config, dataset, transport="loopback", ground_truth=None):
    """Interval-by-interval feedback pipeline (Algorithm ``ddpp``).

    Only a ``ddpp`` config runs here; ``run_experiment`` runs any strategy.
    """
    if config.strategy != "ddpp":
        raise InvalidConfigError(
            f"run_ddpp runs the ddpp strategy, not {config.strategy!r}; "
            "use run_experiment")
    return _schedule(_Center(config, dataset), transport, ground_truth)


def rd_diversity(rows, epsilon, gram=None):
    """Rate-distortion style diversity of a whole source; overwrites ``gram``,
    Z Z^T, else factors Z^T Z (the same determinant, no larger at n_i >= m)."""
    n_i, m = rows.shape
    M = rows.T @ rows if gram is None else gram
    M *= m / (n_i * epsilon)  # I + c M, built in place; Cholesky reads one triangle
    M.flat[::M.shape[0] + 1] += 1.0
    return logdet_psd(M)


def _share_gram(dataset, i, rows, k, epsilon):
    """Memoize source i's k-greedy and ``epsilon`` probe from one Gram of its rows.

    Only where n_i < m, so the probe factors Z_i Z_i^T; the greedy runs on
    it too.  No other code forms a source's n_i x n_i Gram.
    """
    if rows.shape[0] < rows.shape[1]:
        def both():
            G = rows @ rows.T
            dataset.memo(("greedy", i, k), lambda: dpp.greedy_map(G, k))
            return rd_diversity(rows, epsilon, G)
        dataset.memo(("probe", i, epsilon), both)


def run_experiment(config, dataset, transport="loopback", ground_truth=None):
    """Run any strategy over ``transport``; ``ddpp`` goes to ``run_ddpp``.

    A ``greedi`` source picks its own quota.  The other baselines' choices
    need every source's score or a global draw, so the center plans each
    source's local ids here (a simulation shortcut) and the source sends them.
    """
    if config.strategy == "ddpp":
        return run_ddpp(config, dataset, transport=transport,
                        ground_truth=ground_truth)
    center = _Center(config, dataset)
    k_T, assignments = config.total_select, dataset.partition.assignments
    rows = [dataset.source_rows(i) for i in range(config.n_sources)]
    plans = [[] for _ in rows]  # the local ids each source sends
    if config.strategy == "greedi":
        plans = None  # each source runs its own greedy
    elif config.strategy in ("greedymax", "maxdiv"):
        eps = config.epsilon  # the probe does not depend on R
        for i, r in enumerate(rows):  # whichever runs first scores both
            _share_gram(dataset, i, r, k_T, eps)
        if config.strategy == "greedymax":  # the best-scoring source greedy
            scores = [dpp.subset_logdet(r, dataset.source_greedy(i, k_T).indices)
                      for i, r in enumerate(rows)]
        else:  # the most diverse source, by probe
            scores = [dataset.memo(("probe", i, eps), lambda: rd_diversity(r, eps))
                      for i, r in enumerate(rows)]
        winner = int(np.argmax(scores))
        plans[winner] = dataset.source_greedy(winner, k_T).indices
    elif config.strategy == "random":  # a global draw, sent in draw order
        rng = np.random.default_rng([config.seed, _SALT_RANDOM])
        place = dict.fromkeys(rng.choice(dataset.n, size=k_T,
                                         replace=False).tolist())
        for i, a in enumerate(assignments):
            for j, g in enumerate(a):
                if g in place:
                    place[g] = (i, j)
        for i, j in place.values():
            plans[i].append(j)
    else:  # stratified
        rng = np.random.default_rng([config.seed, _SALT_STRATIFIED])
        for i, a in enumerate(assignments):
            plans[i] = sorted(rng.choice(len(a), size=config.per_source_quota,
                                         replace=False).tolist())
    return _schedule(center, transport, ground_truth, plans)
