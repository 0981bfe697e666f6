import dataclasses
import json
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (comparable, counted, poison_feedback, projector,
                      run_within, small_dataset, stepwise_exhaustive_greedy)
from ddpp import cli, csi, data, dpp, engine, linalg, protocol
from ddpp.errors import (BudgetViolationError, DdppError, InvalidConfigError,
                         NotPsdError, ProtocolError)


class UnreadSocket:
    """A socket whose peer has stopped reading: every ``sendall`` times out.

    Anything else goes to ``sock``, the real socket, if there is one.
    """

    def __init__(self, sock=None):
        self.sock, self.sent = sock, []

    def sendall(self, data):
        self.sent.append(bytes(data))
        raise TimeoutError("timed out")

    def __getattr__(self, name):
        return getattr(self.sock, name)


def config(**overrides):
    base = dict(n_sources=2, dims=8, total_select=8, intervals=2,
                sparsity=8.0, seed=0)
    base.update(overrides)
    return engine.ExperimentConfig(**base)


class TestConfig:
    def test_divisibility_over_sources(self):
        with pytest.raises(InvalidConfigError):
            config(n_sources=3, total_select=8)

    def test_divisibility_over_intervals(self):
        with pytest.raises(InvalidConfigError):
            config(intervals=3, total_select=8)

    def test_unknown_strategy(self):
        with pytest.raises(InvalidConfigError):
            config(strategy="psychic")

    def test_unknown_compression(self):
        with pytest.raises(InvalidConfigError):
            config(compression="zip")

    def test_feedback_budget_below_one_element(self):
        # R*m = 0.5 < 1: split_budget could not build a packet
        with pytest.raises(InvalidConfigError, match="below one element"):
            config(sparsity=1 / 16)
        with pytest.raises(InvalidConfigError):
            config(sparsity=0.0)
        config(sparsity=1 / 8)  # exactly one element
        # nothing is fed back: the budget is never used
        config(sparsity=0.0, strategy="greedi")
        config(sparsity=0.0, intervals=1)
        config(sparsity=0.0, n_sources=1)

    def test_block_fraction_outside_unit_interval(self):
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(InvalidConfigError, match="block_fraction"):
                config(block_fraction=bad)
        config(block_fraction=0.0)
        config(block_fraction=1.0)

    def test_selection_larger_than_dims(self):
        # every k_T-subset in m < k_T dims is singular: nothing to select for
        with pytest.raises(InvalidConfigError, match="exceeds dims"):
            config(dims=8, total_select=10)
        config(dims=8, total_select=8)

    @pytest.mark.parametrize("overrides, message", [
        (dict(n_sources=0), "n_sources, dims and intervals must be positive"),
        (dict(total_select=0), "total_select must be positive"),
        (dict(n_sources=3, total_select=6, intervals=4),
         "total_select must divide evenly over intervals"),
        (dict(sparsity=float("inf")), "sparsity budget R*m must be finite and "
                                      "non-negative, got R = inf"),
        (dict(epsilon=0.0), "epsilon must be finite and positive, got 0.0"),
        (dict(strategy="psychic"), "unknown strategy 'psychic'"),
    ])
    def test_an_invalid_config_cannot_be_built(self, overrides, message):
        with pytest.raises(InvalidConfigError) as caught:
            config(**overrides)
        assert str(caught.value) == message

    def test_feedback_schedule(self):
        cfg = config(n_sources=2, intervals=4)
        assert [cfg.feedback_at(t) for t in (1, 2, 3, 4)] == [False, True, True, True]
        alone = config(n_sources=1, intervals=4)
        assert not any(alone.feedback_at(t) for t in (1, 2, 3, 4))

    def test_interval_quota_even_split(self):
        cfg = config(n_sources=2, dims=12, total_select=12, intervals=2)
        assert [cfg.interval_quota(0, t) for t in (1, 2)] == [3, 3]

    def test_interval_quota_staggers_remainders(self):
        cfg = config(n_sources=2, total_select=2, intervals=2)
        assert cfg.interval_quota(0, 1) == 1 and cfg.interval_quota(0, 2) == 0
        assert cfg.interval_quota(1, 1) == 0 and cfg.interval_quota(1, 2) == 1
        for i in range(2):
            assert sum(cfg.interval_quota(i, t) for t in (1, 2)) == cfg.per_source_quota


class TestGroundTruth:
    def test_orthogonal_rows_pick_largest_norms(self):
        Z = np.diag([3.0, 7.0, 5.0, 11.0])
        ds = data.Dataset(features=Z, partition=data.SourcePartition(((0, 1, 2, 3),)))
        res = engine.run_ground_truth(ds, 2)
        assert res.indices == [3, 1]

    def test_matches_stepwise_exhaustive_oracle(self):
        rng = np.random.default_rng(600)
        Z = rng.normal(size=(60, 8)) * 3.0
        ds = data.Dataset(features=Z, partition=data.SourcePartition((tuple(range(60)),)))
        res = engine.run_ground_truth(ds, 6)
        picks, _ = stepwise_exhaustive_greedy(Z @ Z.T, 6)
        assert res.indices == picks

    @pytest.mark.parametrize("seed", [4000, 4001, 4002])
    @pytest.mark.parametrize("n_sources,dims,k_T,per_source", [
        (10, 512, 120, 60),   # paper-512, lazy
        (20, 64, 40, 30),     # paper-64, one kernel row per pick
        (20, 64, 40, 110),    # paper-64, lazy
        (2, 512, 120, 300),   # deep-feedback-tcp, lazy
    ])
    def test_store_order_picks_as_the_global_order(self, seed, n_sources,
                                                   dims, k_T, per_source):
        ds = data.make_benchmark_dataset(seed, n_sources, dims, k_T,
                                         per_source_size=per_source)
        res = engine.run_ground_truth(ds, k_T)
        ref = dpp.greedy_map_rows(ds.rows(range(ds.n)), k_T)
        assert res.indices == ref.indices
        assert res.stepwise_logdets == ref.stepwise_logdets

    def test_exact_ties_break_by_store_position(self):
        # global id 5 and 30 hold one row; source 0 holds 30, so the store
        # greedy meets it first and names it where the global one names 5
        rng = np.random.default_rng(601)
        Z = rng.normal(size=(40, 8))
        Z[5] = Z[30] = 10.0 * rng.normal(size=8)
        part = data.SourcePartition((tuple(range(20, 40)), tuple(range(20))))
        ds = data.Dataset(features=Z, partition=part)
        res = engine.run_ground_truth(ds, 4)
        ref = dpp.greedy_map_rows(Z, 4)
        assert ref.indices[0] == 5 and res.indices[0] == 30
        assert res.indices == [30 if g == 5 else g for g in ref.indices]
        assert res.stepwise_logdets == ref.stepwise_logdets
        assert engine.ground_truth_logdet(ds, res) == \
            dpp.subset_logdet(Z, ref.indices)

    def test_single_source_ddpp_reproduces_ground_truth_exactly(self):
        ds = small_dataset(seed=1, n_sources=1)
        res = engine.run_ddpp(config(n_sources=1), ds)
        assert res.rde == 0.0
        assert res.ledger["downlink_elements"] == 0


class TestDdppPipeline:
    def test_single_interval_equals_greedi(self):
        ds = small_dataset(seed=2, n_sources=2)
        a = engine.run_ddpp(config(intervals=1), ds)
        b = engine.run_experiment(config(intervals=1, strategy="greedi"), ds)
        assert set(a.selected_global_indices) == set(b.selected_global_indices)

    def test_hand_built_two_source_feedback_example(self):
        # both sources hold near-duplicates of the dominant direction; only
        # the projector feedback makes the second source pick the minor one
        Z = np.array([
            [3.0, 0.0], [2.9, 0.01], [0.0, 1.8],      # source 0
            [2.95, 0.0], [2.85, 0.005], [0.0, 1.7],   # source 1
        ])
        ds = data.Dataset(features=Z,
                          partition=data.SourcePartition(((0, 1, 2), (3, 4, 5))))
        cfg = config(dims=2, total_select=2, sparsity=2.0, compression="none")
        fed = engine.run_ddpp(cfg, ds)
        # interval 1: source 0 sends its largest row; the projector built on
        # it is diag(0, 1), verified against the hand computation
        H = projector(Z[[0]])
        assert H.matrix == pytest.approx(np.diag([0.0, 1.0]), abs=1e-12)
        assert fed.selected_global_indices == [0, 5]
        blind = engine.run_experiment(config(dims=2, total_select=2, sparsity=2.0,
                                             intervals=1, strategy="greedi"), ds)
        assert set(blind.selected_global_indices) == {0, 3}
        assert fed.diversity_logdet > blind.diversity_logdet

    def test_feedback_beats_no_feedback_on_duplicated_clusters(self):
        # two sources share a dominant cluster direction; each also holds a
        # minor exclusive direction whose doubled (pre-coded) norm outranks
        # the suppressed duplicate
        for seed in range(8):
            rng = np.random.default_rng(seed)
            Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            q1, q2, q3 = Q[:, 0], Q[:, 1], Q[:, 2]
            jitter = 0.01 * rng.normal(size=(4, 6))
            Z = np.vstack([
                3.00 * q1, 1.80 * q2,   # source 0: dominant + minor
                2.90 * q1, 1.75 * q3,   # source 1: duplicate + its own minor
            ]) + jitter
            ds = data.Dataset(features=Z,
                              partition=data.SourcePartition(((0, 1), (2, 3))))
            cfg = config(dims=6, total_select=2, sparsity=6.0,
                         compression="none", seed=seed)
            fed = engine.run_ddpp(cfg, ds)
            blind = engine.run_experiment(config(dims=6, total_select=2,
                                                 sparsity=6.0, intervals=1,
                                                 strategy="greedi", seed=seed), ds)
            assert set(blind.selected_global_indices) == {0, 2}  # duplicates
            assert fed.selected_global_indices == [0, 3]
            assert fed.diversity_logdet > blind.diversity_logdet

    def test_deterministic_runs(self):
        ds = small_dataset(seed=3, n_sources=2)
        a = engine.run_ddpp(config(), ds)
        b = engine.run_ddpp(config(), ds)
        assert comparable(a) == comparable(b)

    def test_transports_agree(self):
        ds = small_dataset(seed=4, n_sources=3, total_select=6)
        cfg = config(n_sources=3, total_select=6)
        results = {t: comparable(engine.run_ddpp(cfg, ds, transport=t))
                   for t in ("loopback", "tcp")}
        assert results["loopback"] == results["tcp"]

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_source_failure_reaches_the_center(self, monkeypatch, transport):
        # source 1 fails in interval 2 while sources 0 and 2 go on to wait
        # for interval 3's feedback; closing must wake them
        ds = small_dataset(seed=4, n_sources=3, total_select=6)
        cfg = config(n_sources=3, total_select=6, intervals=3)
        poison_feedback(monkeypatch, 3, target=1)
        out = run_within(20, engine.run_ddpp, cfg, ds, transport=transport)
        assert isinstance(out.error, NotPsdError), out.error
        assert out.seconds < 5
        if transport != "loopback":
            assert str(out.error).startswith("source 1, interval 2: eigenvalue")
        assert not [th for th in threading.enumerate()
                    if "_source_loop" in th.name]

    # the source thread re-raises the exit once it has reported it
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_base_exception_in_a_tcp_source_reaches_the_center(
            self, monkeypatch):
        ds = small_dataset(seed=4, n_sources=3, total_select=6)
        cfg = config(n_sources=3, total_select=6, intervals=3)
        real = engine.SourceWorker.step

        def step(self, interval, feedback_frame, k):
            if (self.source_id, interval) == (1, 2):
                raise SystemExit("source gone")
            return real(self, interval, feedback_frame, k)

        monkeypatch.setattr(engine.SourceWorker, "step", step)
        out = run_within(20, engine.run_ddpp, cfg, ds, transport="tcp")
        assert type(out.error) is DdppError, out.error
        assert str(out.error) == "source 1, interval 2: SystemExit: source gone"
        assert out.seconds < 5
        assert not [th for th in threading.enumerate()
                    if "_source_loop" in th.name]

    @pytest.fixture
    def stalled_source(self, monkeypatch):
        # source 0 sends a length prefix and 4 of its 16 bytes, then waits
        # on its own channel with no timeout of its own: only the center
        # closing its end can release it
        monkeypatch.setattr(protocol, "TCP_TIMEOUT_S", 0.5)
        real = engine._source_loop

        def stalled_source_loop(worker, channel):
            if worker.source_id:
                return real(worker, channel)
            channel._sock.settimeout(None)
            channel._sock.sendall(struct.pack("<I", 16) + b"abcd")
            with pytest.raises((DdppError, OSError)):
                channel.recv()

        monkeypatch.setattr(engine, "_source_loop", stalled_source_loop)

    @staticmethod
    def source_threads():
        return [th for th in threading.enumerate() if "source_loop" in th.name]

    def test_a_stalled_tcp_source_is_a_protocol_error(self, stalled_source):
        ds = small_dataset(seed=4, n_sources=3, total_select=6)
        cfg = config(n_sources=3, total_select=6)
        out = run_within(20, engine.run_ddpp, cfg, ds, transport="tcp")
        assert isinstance(out.error, ProtocolError), out.error
        assert str(out.error) == "peer stalled after 4 of 16 bytes"
        assert out.seconds < 5
        assert not self.source_threads()

    def test_a_stalled_tcp_source_exits_1(self, stalled_source, tmp_path,
                                          capsys):
        out = run_within(20, cli.main, [
            "run", "--out", str(tmp_path / "run"), "--transport", "tcp",
            "--strategies", "greedi", "--seed-list", "0", "--N", "2",
            "--kT", "4", "--m", "8", "--ni", "12", "--clusters", "3"])
        assert out.result == 1, out.error
        assert capsys.readouterr().err == (
            "error: peer stalled after 4 of 16 bytes\n")
        assert not self.source_threads()

    def test_a_source_whose_sends_time_out_ends_quietly(self):
        rows = np.random.default_rng(3).normal(size=(10, 8))
        worker = engine.SourceWorker(0, rows, config(),
                                     lambda k: dpp.greedy_map_rows(rows, k).indices)
        sock = UnreadSocket()
        out = run_within(5, engine._source_loop, worker, protocol.TcpChannel(sock))
        assert out.error is None and out.result is None
        # the interval-1 batch, then the error frame reporting its timeout
        assert [frame[4:8] for frame in sock.sent] == [protocol.MAGIC_BATCH,
                                                       protocol.MAGIC_ERROR]

    def test_a_tcp_send_that_times_out_exits_1(self, monkeypatch, tmp_path,
                                              capsys):
        # the center's feedback to source 0 times out: source 0 has
        # stopped reading; the others wait for theirs until the center
        # closes its ends
        real = engine.tcp_pair
        pairs = []

        def tcp_pair():
            center, source = real()
            if not pairs:
                center = protocol.TcpChannel(UnreadSocket(center._sock))
            pairs.append(center)
            return center, source

        monkeypatch.setattr(engine, "tcp_pair", tcp_pair)
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        out = run_within(20, cli.main, [
            "run", "--out", str(tmp_path / "run"), "--transport", "tcp",
            "--strategies", "ddpp", "--seed-list", "0", "--N", "2",
            "--kT", "4", "--tT", "2", "--m", "8", "--ni", "12",
            "--clusters", "3"])
        assert out.result == 1, out.error
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: peer stopped reading a ")
        assert not self.source_threads() and not uncaught

    def test_source_step_forms_no_m_by_m_array(self):
        m, n_i = 300, 40
        rng = np.random.default_rng(8)
        H = projector(rng.normal(size=(20, m)))
        frame = protocol.encode_feedback(protocol.FeedbackMsg(
            target_source=0, interval=2, packet=csi.compress(H, R=2.0)))
        rows = rng.normal(size=(n_i, m))
        worker = engine.SourceWorker(
            0, rows, config(dims=m), lambda k: dpp.greedy_map_rows(rows, k).indices)
        tracemalloc.start()
        try:
            worker.step(2, frame, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(worker.sent) == 4
        assert peak < m * m * 8 // 2

    def test_budget_violation_aborts(self):
        ds = small_dataset(seed=5, n_sources=2)
        # the uncompressed packet needs (m^2+m)/2 = 36 > R*m = 16 elements
        cfg = config(sparsity=2.0, compression="none")
        with pytest.raises(BudgetViolationError):
            engine.run_ddpp(cfg, ds)

    def test_downlink_within_budget_every_interval(self):
        ds = small_dataset(seed=6, n_sources=3, total_select=6)
        cfg = config(n_sources=3, total_select=6, sparsity=3.0)
        res = engine.run_ddpp(cfg, ds)
        assert all(v <= cfg.intervals * 3.0 * 8 for v in
                   res.ledger["per_source_downlink"])

    def test_rank_exhaustion_flagged(self):
        Z = np.vstack([np.eye(2, 8)] * 8) * 3.0  # rank 2 everywhere
        part = data.partition(16, 2, policy="uniform_random", seed=0)
        ds = data.Dataset(features=Z, partition=part)
        res = engine.run_ddpp(config(total_select=8, sparsity=2.0), ds,
                              ground_truth=dpp.greedy_map_rows(Z, 2))
        assert res.rank_exhausted
        assert len(res.selected_global_indices) < 8

    def test_rank_exhaustion_in_first_interval_flagged(self):
        # each source spans one direction: one pick where two are owed
        Z = np.vstack([np.outer(np.arange(1.0, 4.0), [1.0, 0.0, 0.0, 0.0]),
                       np.outer(np.arange(1.0, 4.0), [0.0, 1.0, 0.0, 0.0])])
        ds = data.Dataset(features=Z,
                          partition=data.SourcePartition(((0, 1, 2), (3, 4, 5))))
        res = engine.run_ddpp(config(dims=4, total_select=4, intervals=1,
                                     sparsity=2.0), ds,
                              ground_truth=dpp.greedy_map_rows(Z, 2))
        assert res.rank_exhausted
        assert res.selected_global_indices == [2, 5]

    @pytest.mark.parametrize("strategy", ["greedi", "greedymax", "maxdiv",
                                          "random", "stratified"])
    def test_baseline_rank_exhaustion_flagged(self, strategy):
        # source 0 spans 2 directions where its quota is 4, source 1 spans 6
        # of the 8 that k_T = 8 needs: every greedy baseline falls short
        rng = np.random.default_rng(4)
        Z = np.vstack([4 * rng.normal(size=(20, r)) @ rng.normal(size=(r, 8))
                       for r in (2, 6)])
        ds = data.Dataset(features=Z, partition=data.SourcePartition(
            (tuple(range(20)), tuple(range(20, 40)))))
        res = engine.run_experiment(config(strategy=strategy), ds,
                                    ground_truth=engine.run_ground_truth(ds, 8))
        picked = len(res.selected_global_indices)
        if strategy in ("random", "stratified"):
            assert picked == 8 and not res.rank_exhausted
        else:
            assert picked < 8 and res.rank_exhausted
        assert res.to_json_dict()["rank_exhausted"] == res.rank_exhausted

    @pytest.mark.parametrize("strategy", engine.STRATEGIES)
    def test_a_source_below_its_quota_is_a_configuration_error(self, strategy):
        # source 0 holds 1 row where k_T/N = 2 are owed, whatever the strategy
        Z = np.random.default_rng(8).normal(size=(6, 8))
        ds = data.Dataset(features=Z, partition=data.SourcePartition(
            ((0,), (1, 2, 3, 4, 5))))
        with pytest.raises(InvalidConfigError,
                           match="source 0 holds 1 samples, fewer than its quota"):
            engine.run_experiment(config(total_select=4, strategy=strategy), ds)

    def test_full_budget_proposed_matches_exact_packets(self):
        ds = small_dataset(seed=7, n_sources=2)
        exact = engine.run_ddpp(config(compression="none"), ds)
        full = engine.run_ddpp(config(compression="proposed", block_fraction=1.0,
                                      sparsity=8.0), ds)
        # both reconstruct the projector well enough to agree on selections
        assert full.selected_global_indices == exact.selected_global_indices

    def test_a_source_picks_no_more_than_its_precoded_width(self):
        # without momentum an svd packet leaves each source's pre-coded
        # features floor(R) = 15 wide; at seed 313 a source holding 15
        # items once made a 16th pick on a gain of e^-23 (rounding noise)
        args = cli.build_parser().parse_args(
            ["run", "--out", "unused", "--m", "512", "--kT", "120",
             "--ni", "500", "--clusters", "80", "--spread", "0.03"])
        ds = cli._dataset(args, 313, 2)
        res = engine.run_ddpp(config(n_sources=2, dims=512, total_select=120,
                                     intervals=6, sparsity=15.0, seed=313,
                                     compression="svd", momentum=False), ds)
        # 10 picks each in interval 1, then 5 more fill the 15 directions
        assert len(res.selected_global_indices) == 30 and res.rank_exhausted
        assert res.ledger["per_source_uplink"] == [15 * 512, 15 * 512]


class TestSchedule:
    """Every strategy's frames cross the transport, one channel per source."""

    @pytest.mark.parametrize("strategy", engine.STRATEGIES)
    def test_tcp_equals_loopback_over_one_socket_per_source(self, monkeypatch,
                                                            strategy):
        ds = small_dataset(seed=4, n_sources=3, total_select=6)
        cfg = config(n_sources=3, total_select=6, strategy=strategy)
        gt = engine.run_ground_truth(ds, 6)
        loop = comparable(engine.run_experiment(cfg, ds, ground_truth=gt))
        opened = counted(monkeypatch, "tcp_pair", engine)
        tcp = engine.run_experiment(cfg, ds, transport="tcp", ground_truth=gt)
        assert comparable(tcp) == loop
        assert len(opened) == 3

    @pytest.mark.parametrize("strategy", engine.STRATEGIES)
    def test_run_ddpp_is_entered_once_for_ddpp_only(self, monkeypatch, strategy):
        # the benchmark times every run_ddpp call by patching it by name,
        # and baseline configs carry the same compression as ddpp's
        calls = counted(monkeypatch, "run_ddpp", engine)
        engine.run_experiment(config(strategy=strategy),
                              small_dataset(seed=4, n_sources=2))
        assert len(calls) == (1 if strategy == "ddpp" else 0)

    @pytest.mark.parametrize("strategy", [s for s in engine.STRATEGIES
                                          if s != "ddpp"])
    def test_run_ddpp_refuses_another_strategy(self, strategy):
        # it would run the ddpp pipeline and label the result as a baseline
        cfg = config(n_sources=3, total_select=6, strategy=strategy)
        with pytest.raises(InvalidConfigError, match="run_experiment"):
            engine.run_ddpp(cfg, small_dataset(seed=11, n_sources=3,
                                               total_select=6))


def tamper_uplink(monkeypatch, source_id, change):
    """Source ``source_id``'s batch frames pass through ``change(batch)``."""
    real = engine.SourceWorker.step

    def step(self, interval, feedback_frame, k):
        frame = real(self, interval, feedback_frame, k)
        if self.source_id != source_id:
            return frame
        batch = change(protocol.decode_batch(frame))
        return protocol.encode_batch(batch)

    monkeypatch.setattr(engine.SourceWorker, "step", step)


class TestUplinkChecks:
    """The center checks each batch frame against the channel it came on."""

    @pytest.mark.parametrize("change, message", [
        (lambda b: dataclasses.replace(b, source_id=7), "claims source 7"),
        (lambda b: dataclasses.replace(b, source_id=0), "claims source 0"),
        (lambda b: dataclasses.replace(b, interval=b.interval + 1),
         "claims source 1, interval 2"),
        (lambda b: dataclasses.replace(
            b, local_indices=(20,) + b.local_indices[1:]), "past its 20 rows"),
        (lambda b: dataclasses.replace(
            b, vectors=np.hstack([b.vectors, b.vectors[:, :1]])), "width 9"),
        (lambda b: dataclasses.replace(b, vectors=b.vectors + 1.0),
         "source 1 sent vectors that are not its rows of ids"),
    ], ids=["source_id >= N", "other source_id", "interval", "index", "width",
            "values"])
    @pytest.mark.parametrize("transport, strategy", [
        ("loopback", "ddpp"), ("tcp", "ddpp"),
        ("loopback", "stratified"), ("tcp", "stratified"),
    ], ids=["loopback", "tcp", "loopback-stratified", "tcp-stratified"])
    def test_mismatch_is_a_protocol_error(self, monkeypatch, change, message,
                                          transport, strategy):
        ds = small_dataset(seed=4, n_sources=2)  # 20 rows per source, m = 8
        tamper_uplink(monkeypatch, 1, change)
        out = run_within(20, engine.run_experiment, config(strategy=strategy),
                         ds, transport=transport)
        assert isinstance(out.error, ProtocolError), out.error
        assert message in str(out.error)


def tamper_downlink(monkeypatch, target, change):
    """Feedback messages to source ``target`` pass through ``change(msg)``."""
    real = engine.encode_feedback

    def encode(msg):
        return real(change(msg) if msg.target_source == target else msg)

    monkeypatch.setattr(engine, "encode_feedback", encode)


class TestDownlinkChecks:
    """Each source checks its feedback frames against its own channel."""

    @pytest.mark.parametrize("change, message", [
        (lambda f: dataclasses.replace(f, target_source=0),
         "names source 0, interval 2"),
        (lambda f: dataclasses.replace(f, interval=3),
         "names source 1, interval 3"),
        (lambda f: dataclasses.replace(
            f, packet=csi.exact_packet(projector(np.zeros((0, 9))))),
         "width 9, expected 8"),
    ], ids=["target_source", "interval", "width"])
    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_mismatch_is_a_protocol_error(self, monkeypatch, change, message,
                                          transport):
        ds = small_dataset(seed=4, n_sources=2)  # m = 8
        tamper_downlink(monkeypatch, 1, change)
        out = run_within(20, engine.run_ddpp, config(), ds, transport=transport)
        assert isinstance(out.error, ProtocolError), out.error
        assert message in str(out.error)
        if transport == "tcp":
            assert str(out.error).startswith("source 1, interval 2: ")


def two_term_packet(r0):
    """An m = 8 packet: an r0-dim block of ones plus two unit residual terms."""
    return csi.CsiPacket(dims=8, selected_dims=tuple(range(r0)),
                         principal_block=np.ones(r0 * (r0 + 1) // 2),
                         residual_values=np.ones(2), residual_vectors=np.eye(8)[6:])


class TestLedger:
    """The center counts every frame and enforces the bandwidth rules."""

    def test_uplink_arithmetic(self):
        ds = small_dataset(seed=4, n_sources=2)
        res = engine.run_ddpp(config(), ds)  # 2 picks per source per interval
        assert res.ledger["per_source_uplink"] == [4 * 8, 4 * 8]
        frame = 30 + 2 * 8 + 2 * 8 * 8  # header, indices, vectors
        assert res.ledger["uplink_bytes"] == 4 * frame

    def test_downlink_cap_enforced(self, monkeypatch):
        # R*m = 16: two residual terms fill the budget exactly
        ds = small_dataset(seed=4, n_sources=2)
        monkeypatch.setattr(csi, "compress", lambda *args: two_term_packet(0))
        res = engine.run_ddpp(config(sparsity=2.0), ds)
        assert res.ledger["per_source_downlink"] == [16, 16]
        monkeypatch.setattr(csi, "compress", lambda *args: two_term_packet(1))
        with pytest.raises(BudgetViolationError,
                           match="source 0 reaches 17 elements over budget 16"):
            engine.run_ddpp(config(sparsity=2.0), ds)

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_duplicate_uplink_rejected(self, monkeypatch, transport):
        ds = small_dataset(seed=4, n_sources=2)
        first = []

        def resend(batch):  # interval 2 repeats interval 1's first pick
            if batch.interval == 1:
                first.append(batch.local_indices[0])
                return batch
            return dataclasses.replace(
                batch, local_indices=(first[0],) + batch.local_indices[1:])

        tamper_uplink(monkeypatch, 1, resend)
        out = run_within(20, engine.run_ddpp, config(), ds, transport=transport)
        assert isinstance(out.error, BudgetViolationError), out.error
        resent = ds.partition.assignments[1][first[0]]
        assert f"source 1 re-sent indices [{resent}]" in str(out.error)


class TestBaselines:
    def test_random_reproducible(self):
        ds = small_dataset(seed=8, n_sources=2)
        a = engine.run_experiment(config(strategy="random"), ds)
        b = engine.run_experiment(config(strategy="random"), ds)
        assert a.selected_global_indices == b.selected_global_indices

    def test_single_source_all_strategies_match_ground_truth_set(self):
        ds = small_dataset(seed=9, n_sources=1)
        gt = engine.run_ground_truth(ds, 8)
        for strategy in ("greedi", "greedymax", "maxdiv"):
            res = engine.run_experiment(config(n_sources=1, strategy=strategy), ds)
            assert set(res.selected_global_indices) == set(gt.indices)

    def test_stratified_equal_share_per_source(self):
        ds = small_dataset(seed=10, n_sources=4, total_select=8)
        res = engine.run_experiment(config(n_sources=4, strategy="stratified"), ds)
        per_source = [sum(1 for g in res.selected_global_indices
                          if g in set(ds.partition.assignments[i]))
                      for i in range(4)]
        assert per_source == [2, 2, 2, 2]

    def test_greedymax_uplinks_only_the_winner(self):
        ds = small_dataset(seed=11, n_sources=3, total_select=6)
        res = engine.run_experiment(config(n_sources=3, total_select=6,
                                           strategy="greedymax"), ds)
        nonzero = [v for v in res.ledger["per_source_uplink"] if v]
        assert len(nonzero) == 1 and nonzero[0] == 6 * 8
        assert res.ledger["probe_elements"] == 0

    @pytest.mark.parametrize("dims", [8, 32])  # n_i = 20 rows: >= m, < m
    def test_greedymax_passes_over_a_source_that_picks_nothing(self, dims):
        Z = np.random.default_rng(14).normal(size=(40, dims))
        part = data.partition(40, 2, policy="uniform_random", seed=14)
        Z[list(part.assignments[0])] = 0.0
        res = engine.run_experiment(config(dims=dims, strategy="greedymax"),
                                    data.Dataset(features=Z, partition=part))
        assert len(res.selected_global_indices) == 8
        assert set(res.selected_global_indices) <= set(part.assignments[1])

    def test_maxdiv_charges_scalar_probes(self):
        ds = small_dataset(seed=12, n_sources=3, total_select=6)
        res = engine.run_experiment(config(n_sources=3, total_select=6,
                                           strategy="maxdiv"), ds)
        assert res.ledger["probe_elements"] == 3
        nonzero = [v for v in res.ledger["per_source_uplink"] if v]
        assert len(nonzero) == 1

    @pytest.mark.parametrize("n_i,m", [(5, 12), (40, 12), (30, 64), (300, 64)])
    @pytest.mark.parametrize("epsilon", [1e-6, 1.0])
    def test_maxdiv_probe_is_logdet_of_identity_plus_scaled_gram(
            self, n_i, m, epsilon):
        rows = np.random.default_rng(n_i * m).normal(size=(n_i, m)) * 3.0
        inner = linalg.symmetrize(rows.T @ rows)
        sign, ref = np.linalg.slogdet(np.eye(m) + m / (n_i * epsilon) * inner)
        assert sign == 1.0
        assert engine.rd_diversity(rows, epsilon) == pytest.approx(ref, rel=1e-9)

    def test_zero_overhead_uplink_identical_across_strategies(self):
        ds = small_dataset(seed=13, n_sources=2)
        cfgs = [config(strategy=s) for s in
                ("greedi", "greedymax", "maxdiv", "random", "stratified")]
        totals = {engine.run_experiment(c, ds).ledger["uplink_elements"]
                  for c in cfgs}
        totals.add(engine.run_ddpp(config(), ds).ledger["uplink_elements"])
        assert totals == {8 * 8}  # k_T * m, for every strategy

    def test_greedi_second_round_keeps_the_whole_union(self):
        # A k_T-pick greedy over the k_T received items takes all of them
        # unless rank runs out, so the center's re-ranking changes nothing.
        for seed in (22, 23, 24):
            ds = small_dataset(seed=seed, n_sources=2)
            res = engine.run_experiment(config(strategy="greedi"), ds)
            union = ds.rows(res.selected_global_indices)
            second = dpp.greedy_map(union @ union.T, 8)
            assert sorted(second.indices) == list(range(8))

    def test_feedback_free_strategies_have_no_downlink(self):
        ds = small_dataset(seed=14, n_sources=2)
        for s in ("greedi", "greedymax", "maxdiv", "random", "stratified"):
            res = engine.run_experiment(config(strategy=s), ds)
            assert res.ledger["downlink_elements"] == 0


class TestSharedLocalGreedy:
    """Runs in any order on one Dataset, which keeps the greedy picks and
    first-round projectors they share, give the results of fresh ones."""

    RUNS = [(s, "proposed", R) for s in engine.STRATEGIES for R in (5.0, 8.0)]
    RUNS += [("ddpp", c, R) for c in ("svd", "random_sketch", "none")
             for R in (5.0, 8.0)]

    @staticmethod
    def rank_deficient():
        Z = np.vstack([np.eye(2, 8)] * 8) * 3.0  # rank 2 everywhere
        part = data.partition(16, 2, policy="uniform_random", seed=0)
        return data.Dataset(features=Z, partition=part)

    @pytest.mark.parametrize("make, overrides", [
        (lambda: small_dataset(seed=18, n_sources=2), {}),
        (lambda: small_dataset(seed=19, n_sources=4, total_select=8),
         dict(n_sources=4)),
        (lambda: small_dataset(seed=20, n_sources=2, total_select=6),
         dict(total_select=6, intervals=3)),
        (rank_deficient, {}),
    ])
    def test_warm_equals_cold(self, make, overrides):
        def run(ds, strategy, compression, R, transport="loopback"):
            cfg = config(**{**overrides, "strategy": strategy,
                            "compression": compression, "sparsity": R})
            gt = engine.run_ground_truth(ds, cfg.total_select)
            return comparable(engine.run_experiment(
                cfg, ds, transport=transport, ground_truth=gt))

        cold = {key: run(make(), *key) for key in self.RUNS}
        shuffle = np.random.default_rng(7).permutation
        for transport in ("loopback", "tcp"):
            warm_ds = make()
            warm = {self.RUNS[j]: run(warm_ds, *self.RUNS[j], transport)
                    for j in shuffle(len(self.RUNS))}
            assert warm == cold, transport

    def test_maxdiv_after_greedymax_runs_no_greedy(self, monkeypatch):
        ds = small_dataset(seed=34, n_sources=3, total_select=6)
        cfg = config(n_sources=3, total_select=6)
        gt = engine.run_ground_truth(ds, 6)
        engine.run_experiment(dataclasses.replace(cfg, strategy="greedymax"),
                              ds, ground_truth=gt)
        calls = counted(monkeypatch, "greedy_map_rows", dpp)
        engine.run_experiment(dataclasses.replace(cfg, strategy="maxdiv"),
                              ds, ground_truth=gt)
        assert calls == []

    def test_a_paper_512_unit_scores_its_ground_truth_once(self, monkeypatch):
        # 3 positivity probes, 10 maxdiv probes, the ground truth once and
        # each of the 8 runs' selection: 22 (29 when every run rescored
        # the ground truth)
        calls = counted(monkeypatch, "subset_logdet", dpp)
        ds = data.make_benchmark_dataset(2000, 10, 512, 120)
        gt = engine.run_ground_truth(ds, 120)
        cfg = config(n_sources=10, dims=512, total_select=120, sparsity=45.0,
                     seed=2000)
        for strategy in engine.STRATEGIES:
            engine.run_experiment(dataclasses.replace(cfg, strategy=strategy),
                                  ds, ground_truth=gt)
        for compression in ("svd", "random_sketch"):
            engine.run_ddpp(dataclasses.replace(cfg, compression=compression),
                            ds, ground_truth=gt)
        assert len(calls) == 22
        gt_rows = ds.rows(gt.indices)  # a call names rows, not global ids
        assert sum(np.array_equal(args[0], gt_rows) for args, _ in calls) == 1

    @pytest.mark.parametrize(
        "dims, n_sources, k_T, t_T, strategies, compressions, grams", [
            (512, 10, 120, 2, engine.STRATEGIES, ("svd", "random_sketch"),
             {"greedymax": 10}),
            (64, 20, 40, 2, engine.STRATEGIES, (), {}),
            (512, 2, 120, 6, ("ddpp", "greedi"), (), {}),
        ], ids=["paper-512", "paper-64", "deep-feedback-tcp"])
    def test_only_greedymax_source_greedies_form_the_gram(
            self, monkeypatch, dims, n_sources, k_T, t_T, strategies,
            compressions, grams):
        # a source's 500 rows form their Gram when 500 <= m and 500 <= 8 k:
        # greedymax's k_T = 120 on m = 512; maxdiv reads greedymax's memo
        calls = counted(monkeypatch, "greedy_map", dpp)
        ds = data.make_benchmark_dataset(2000, n_sources, dims, k_T)
        gt = engine.run_ground_truth(ds, k_T)
        cfg = config(n_sources=n_sources, dims=dims, total_select=k_T,
                     intervals=t_T, sparsity=0.75 * k_T / t_T, seed=2000)
        entered = {"ground truth": len(calls)}
        for strategy in strategies:
            del calls[:]
            engine.run_experiment(dataclasses.replace(cfg, strategy=strategy),
                                  ds, ground_truth=gt)
            entered[strategy] = len(calls)
        for compression in compressions:
            del calls[:]
            engine.run_ddpp(dataclasses.replace(cfg, compression=compression),
                            ds, ground_truth=gt)
            entered[compression] = len(calls)
        assert {run: n for run, n in entered.items() if n} == grams

    @pytest.mark.parametrize("intervals", [2, 3])
    def test_a_second_compression_builds_no_first_round_projector(
            self, monkeypatch, intervals):
        # each feedback interval extends the center's frame once and builds
        # each source's basis in it; a second compression reads the first
        # frame and its bases from the dataset, and extends only later
        ds = small_dataset(seed=35, n_sources=3, total_select=6)
        cfg = config(n_sources=3, total_select=6, intervals=intervals)
        extended = counted(monkeypatch, "extend_frame", engine)
        framed = counted(monkeypatch, "projector_in_frame", csi)
        engine.run_ddpp(cfg, ds)
        rounds = intervals - 1
        assert (len(extended), len(framed)) == (rounds, 3 * rounds)
        assert extended[0][0][0].shape == (0, 8)  # the first frame
        for compression in ("svd", "random_sketch"):
            del extended[:], framed[:]
            engine.run_ddpp(dataclasses.replace(cfg, compression=compression),
                            ds)
            assert (len(extended), len(framed)) == (rounds - 1, 3 * (rounds - 1))
            assert all(len(args[0]) for args, _ in extended)

    def test_the_kept_first_round_projector_comes_from_the_dataset_rows(self):
        # the key fixes the value: the memo is built from the dataset's rows
        ds = small_dataset(seed=36, n_sources=3, total_select=6)
        cfg = config(n_sources=3, total_select=6)
        run = engine.run_ddpp(cfg, ds)
        picks = run.selected_global_indices[:3]  # interval 1, arrival order
        frame = linalg.extend_frame(np.zeros((0, 8)), ds.rows(picks))
        assert np.array_equal(ds.memo(("frame", *picks), lambda: None), frame)
        for source in range(3):
            ids = [g for g in picks
                   if g not in ds.partition.assignments[source]]
            kept = ds.memo(("basis", *ids), lambda: None)
            assert np.array_equal(kept.basis, csi.projector_in_frame(
                ds.rows(ids), frame).basis)

    def test_a_later_projector_comes_from_the_dataset_rows(self, monkeypatch):
        # interval 3 builds each source's projector from the rows of the
        # ids the others sent in intervals 1 and 2, read from the dataset,
        # in the first frame extended by interval 2's rows
        ds = small_dataset(seed=37, n_sources=3, dims=12, total_select=9)
        cfg = config(n_sources=3, dims=12, total_select=9, intervals=3)
        real, built = csi.projector_in_frame, []
        monkeypatch.setattr(csi, "projector_in_frame",
                            lambda *args: built.append(real(*args)) or built[-1])
        run = engine.run_ddpp(cfg, ds)
        received = run.selected_global_indices[:6]  # intervals 1 and 2
        frame = linalg.extend_frame(np.zeros((0, 12)), ds.rows(received[:3]))
        frame = linalg.extend_frame(frame, ds.rows(received[3:]))
        assert len(built) == 6
        for source, H in enumerate(built[3:]):
            ids = [g for g in received
                   if g not in ds.partition.assignments[source]]
            assert np.array_equal(H.basis, real(ds.rows(ids), frame).basis)

    @pytest.mark.parametrize("n_sources", [2, 3, 4])
    @pytest.mark.parametrize("intervals", [3, 4])
    @pytest.mark.parametrize("rank", [None, 5])
    def test_every_projector_matches_a_dense_basis(
            self, monkeypatch, n_sources, intervals, rank):
        # at every interval each source's H is the projector off the rows
        # the others sent; with rank 5 the received rows, copies among
        # them, span 5 of the 16 dimensions
        k_T = n_sources * intervals
        if rank is None:
            ds = small_dataset(seed=38, n_sources=n_sources, dims=16,
                               total_select=k_T)
        else:
            rng = np.random.default_rng(38)
            Z = rng.normal(size=(20 * n_sources, rank)) @ rng.normal(
                size=(rank, 16))
            Z[1::20] = Z[0]  # every source holds a copy of row 0
            ds = data.Dataset(Z, data.partition(len(Z), n_sources, seed=38))
        cfg = config(n_sources=n_sources, dims=16, total_select=k_T,
                     intervals=intervals)
        calls, feedback = [], engine._Center.feedback
        monkeypatch.setattr(engine._Center, "feedback", lambda self, i, t: (
            calls.append([g for g, s in self.received.items() if s != i])
            or feedback(self, i, t)))
        projectors = counted(monkeypatch, "compress", csi)
        engine.run_ddpp(cfg, ds)
        assert len(calls) == len(projectors) == n_sources * (intervals - 1)
        for ids, (args, _) in zip(calls, projectors):
            Q = linalg.orthonormal_row_basis(ds.rows(ids))
            assert np.linalg.norm(args[0].matrix - (np.eye(16) - Q.T @ Q)) <= 1e-10


class TestOneGramPass:
    """greedymax and maxdiv score a source from one Gram where n_i < m.

    There the probe factors Z_i Z_i^T, and the k_T-greedy runs on the same
    product, however few its picks.  The rows must equal those of runs
    that share nothing, at every shape.
    """

    # (dims, rows per source, k_T): the pass applies where n_i < m, so to
    # "shared" and to "short greedy" (n_i > 8 k_T) too
    SHAPES = {"shared": (24, 20, 4), "square": (20, 20, 4),
              "tall": (8, 20, 8), "short greedy": (48, 40, 2)}

    @staticmethod
    def rows(ds, strategies, k_T):
        """Each strategy's results.jsonl line, in run order, on ``ds``."""
        cfg = config(dims=ds.dims, total_select=k_T)
        gt = engine.run_ground_truth(ds, k_T)
        return {s: json.dumps(engine.run_experiment(
            dataclasses.replace(cfg, strategy=s), ds,
            ground_truth=gt).to_json_dict()) for s in strategies}

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rows_match_runs_that_share_nothing(self, monkeypatch, shape):
        dims, n_i, k_T = self.SHAPES[shape]
        assert (n_i < dims) == (shape in ("shared", "short greedy"))

        def fresh():
            return small_dataset(seed=41, n_sources=2, dims=dims,
                                 per_source=n_i, total_select=k_T)

        both = ("greedymax", "maxdiv")
        together = self.rows(fresh(), both, k_T)
        reverse = self.rows(fresh(), both[::-1], k_T)
        alone = {**self.rows(fresh(), both[:1], k_T),
                 **self.rows(fresh(), both[1:], k_T)}
        monkeypatch.setattr(engine, "_share_gram", lambda *args: None)
        separate = self.rows(fresh(), both, k_T)
        assert together == reverse == alone == separate

    @pytest.mark.parametrize("shape", SHAPES)
    def test_the_pass_forms_a_gram_at_every_n_i_below_m(self, monkeypatch,
                                                         shape):
        dims, n_i, k_T = self.SHAPES[shape]
        ds = small_dataset(seed=44, n_sources=2, dims=dims, per_source=n_i,
                           total_select=k_T)
        grams = counted(monkeypatch, "greedy_map", dpp)
        row_greedies = counted(monkeypatch, "greedy_map_rows", dpp)
        self.rows(ds, ("greedymax", "maxdiv"), k_T)
        shared = n_i < dims
        assert [args[0].shape for args, _ in grams] == [(n_i, n_i)] * 2 * shared
        # the ground truth, then each source's greedy where no Gram is shared
        assert len(row_greedies) == 1 + 2 * (not shared)

    @pytest.mark.parametrize("flags", [["--compression", "none", "--R", "16"],
                                       ["--R", "12", "--tT", "3"]],
                             ids=["none", "high-R"])
    def test_no_row_greedy_forms_a_gram(self, tmp_path, monkeypatch, flags):
        # these campaigns pre-code rows to 30 x 32, n <= m, for 4 to 6 picks
        grams = counted(monkeypatch, "greedy_map", dpp)
        row_greedies = counted(monkeypatch, "greedy_map_rows", dpp)
        assert cli.main(["run", "--out", str(tmp_path), "--strategies", "ddpp",
                         *flags, "--m", "16", "--N", "2,3", "--ni", "30",
                         "--kT", "12", "--clusters", "6",
                         "--seed-list", "0,1,2"]) == 0
        assert (30, 32) in {args[0].shape for args, _ in row_greedies}
        assert grams == []

    def test_a_unit_runs_each_source_greedy_and_probe_once(self, monkeypatch):
        # every strategy of one unit: only greedymax's k_T = 6 greedies run
        # on a Gram (20 < 24), one per source, and each probe factors the
        # very array its source's greedy ran on
        ds = small_dataset(seed=42, n_sources=3, dims=24, per_source=20,
                           total_select=6)
        gt = engine.run_ground_truth(ds, 6)
        greedies = counted(monkeypatch, "greedy_map", dpp)
        probes = counted(monkeypatch, "logdet_psd", engine)
        cfg = config(n_sources=3, dims=24, total_select=6)
        for strategy in engine.STRATEGIES:
            engine.run_experiment(dataclasses.replace(cfg, strategy=strategy),
                                  ds, ground_truth=gt)
        assert [(args[0].shape, args[1:], kw) for args, kw in greedies] == \
            [((20, 20), (6,), {})] * 3
        assert len(probes) == 3
        assert all(g[0][0] is p[0][0] for g, p in zip(greedies, probes))

    def test_a_pooled_data_campaign_writes_the_serial_bytes(
            self, tmp_path, monkeypatch):
        # every seed of a --data point shares one dataset and its memo
        gen = tmp_path / "gen"
        assert cli.main(["gen", "--out", str(gen), "--sources", "3", "--ni",
                         "20", "--m", "24", "--clusters", "4", "--seed",
                         "6"]) == 0
        argv = ["--data", str(gen / "features.ddpm"), "--partition-policy",
                "uniform_random", "--N", "3", "--kT", "6", "--seed-list",
                "0,1,2,3,4,5", "--strategies", "greedymax,maxdiv"]

        def run(name):
            out = run_within(60, cli.main, ["run", "--out",
                                            str(tmp_path / name), *argv])
            assert out.result == 0, out.error
            return (tmp_path / name / "results.jsonl").read_bytes()

        monkeypatch.setenv("DDPP_THREADS", "1")
        serial = run("serial")
        monkeypatch.setenv("DDPP_THREADS", "4")  # more workers than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave inside the memo
        try:
            pooled = run("pooled")
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(engine, "_share_gram", lambda *args: None)
        monkeypatch.setenv("DDPP_THREADS", "1")
        assert len(serial.splitlines()) == 12
        assert pooled == serial == run("separate")

    def test_one_source_gram_is_alive_at_a_time(self):
        # holding every source's Gram past its pass would add 4 more here
        N, n_i, m, k_T = 6, 180, 200, 24
        cfg = config(n_sources=N, dims=m, total_select=k_T)
        self.rows(small_dataset(seed=1, n_sources=2, dims=24, per_source=20,
                                total_select=4),
                  ("greedymax", "maxdiv"), 4)  # lazy imports first
        tracemalloc.start()
        try:
            ds = small_dataset(seed=43, n_sources=N, dims=m, per_source=n_i,
                               total_select=k_T)
            gt = engine.run_ground_truth(ds, k_T)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for strategy in ("greedymax", "maxdiv"):
                engine.run_experiment(dataclasses.replace(cfg, strategy=strategy),
                                      ds, ground_truth=gt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gram = n_i * n_i * 8
        assert ds.store.nbytes <= held < ds.store.nbytes + gram
        assert peak < held + 2.5 * gram  # one Gram and its Cholesky factor


class TestCompressionVariants:
    def test_variants_run_and_stay_within_budget(self):
        ds = small_dataset(seed=15, n_sources=2)
        for comp in ("svd", "random_sketch"):
            res = engine.run_ddpp(config(compression=comp, sparsity=3.0), ds)
            assert len(res.selected_global_indices) == 8
            assert all(v <= 2 * 3.0 * 8 for v in res.ledger["per_source_downlink"])

    def test_svd_with_full_rank_budget_matches_exact(self):
        ds = small_dataset(seed=16, n_sources=2)
        exact = engine.run_ddpp(config(compression="none"), ds)
        svd = engine.run_ddpp(config(compression="svd"), ds)  # R=8 >= rank(H)
        assert svd.selected_global_indices == exact.selected_global_indices
