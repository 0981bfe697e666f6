import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (poison_feedback, run_within, small_dataset,
                      stepwise_exhaustive_greedy)
from ddpp import csi, data, dpp, engine, linalg, protocol
from ddpp.errors import (BudgetViolationError, DdppError, InvalidConfigError,
                         NotPsdError, ProtocolError)


def config(**overrides):
    base = dict(n_sources=2, dims=8, total_select=8, intervals=2,
                sparsity=8.0, seed=0)
    base.update(overrides)
    return engine.ExperimentConfig(**base)


class TestConfig:
    def test_divisibility_over_sources(self):
        with pytest.raises(InvalidConfigError):
            config(n_sources=3, total_select=8).validate()

    def test_divisibility_over_intervals(self):
        with pytest.raises(InvalidConfigError):
            config(intervals=3, total_select=8).validate()

    def test_unknown_strategy(self):
        with pytest.raises(InvalidConfigError):
            config(strategy="psychic").validate()

    def test_unknown_compression(self):
        with pytest.raises(InvalidConfigError):
            config(compression="zip").validate()

    def test_feedback_budget_below_one_element(self):
        # R*m = 0.5 < 1: split_budget could not build a packet
        with pytest.raises(InvalidConfigError, match="below one element"):
            config(sparsity=1 / 16).validate()
        with pytest.raises(InvalidConfigError):
            config(sparsity=0.0).validate()
        config(sparsity=1 / 8).validate()  # exactly one element
        # nothing is fed back: the budget is never used
        config(sparsity=0.0, strategy="greedi").validate()
        config(sparsity=0.0, intervals=1).validate()
        config(sparsity=0.0, n_sources=1).validate()

    def test_selection_larger_than_dims(self):
        # every k_T-subset in m < k_T dims is singular: nothing to select for
        with pytest.raises(InvalidConfigError, match="exceeds dims"):
            config(dims=8, total_select=10).validate()
        config(dims=8, total_select=8).validate()

    def test_feedback_schedule(self):
        cfg = config(n_sources=2, intervals=4)
        assert [cfg.feedback_at(t) for t in (1, 2, 3, 4)] == [False, True, True, True]
        alone = config(n_sources=1, intervals=4)
        assert not any(alone.feedback_at(t) for t in (1, 2, 3, 4))

    def test_interval_quota_even_split(self):
        cfg = config(n_sources=2, total_select=12, intervals=2)
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
        picks, _ = stepwise_exhaustive_greedy(linalg.gram(Z), 6)
        assert res.indices == picks

    def test_single_source_ddpp_reproduces_ground_truth_exactly(self):
        ds = small_dataset(seed=1, n_sources=1)
        res = engine.run_ddpp(config(n_sources=1), ds)
        assert res.rde == 0.0
        assert res.ledger["downlink_elements"] == 0


class TestDdppPipeline:
    def test_single_interval_equals_greedi(self):
        ds = small_dataset(seed=2, n_sources=2)
        a = engine.run_ddpp(config(intervals=1), ds)
        b = engine.run_baseline(config(intervals=1, strategy="greedi"), ds)
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
        H = csi.compute_projector(Z[[0]], 2)
        assert H.matrix == pytest.approx(np.diag([0.0, 1.0]), abs=1e-12)
        assert fed.selected_global_indices == [0, 5]
        blind = engine.run_baseline(config(dims=2, total_select=2, sparsity=2.0,
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
            blind = engine.run_baseline(config(dims=6, total_select=2,
                                               sparsity=6.0, intervals=1,
                                               strategy="greedi", seed=seed), ds)
            assert set(blind.selected_global_indices) == {0, 2}  # duplicates
            assert fed.selected_global_indices == [0, 3]
            assert fed.diversity_logdet > blind.diversity_logdet

    def test_deterministic_runs(self):
        ds = small_dataset(seed=3, n_sources=2)
        a = engine.run_ddpp(config(), ds)
        b = engine.run_ddpp(config(), ds)
        assert a.comparable() == b.comparable()

    def test_transports_agree(self):
        ds = small_dataset(seed=4, n_sources=3, total_select=6)
        cfg = config(n_sources=3, total_select=6)
        results = {t: engine.run_ddpp(cfg, ds, transport=t).comparable()
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

    def test_source_step_forms_no_m_by_m_array(self):
        m, n_i = 300, 40
        rng = np.random.default_rng(8)
        H = csi.compute_projector(rng.normal(size=(20, m)), m)
        frame = protocol.encode_feedback(protocol.FeedbackMsg(
            target_source=0, interval=2, packet=csi.compress(H, R=2.0)))
        worker = engine.SourceWorker(0, rng.normal(size=(n_i, m)),
                                     config(dims=m))
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

    def test_full_budget_proposed_matches_exact_packets(self):
        ds = small_dataset(seed=7, n_sources=2)
        exact = engine.run_ddpp(config(compression="none"), ds)
        full = engine.run_ddpp(config(compression="proposed", block_fraction=1.0,
                                      sparsity=8.0), ds)
        # both reconstruct the projector well enough to agree on selections
        assert full.selected_global_indices == exact.selected_global_indices


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
    ], ids=["source_id >= N", "other source_id", "interval", "index", "width"])
    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_mismatch_is_a_protocol_error(self, monkeypatch, change, message,
                                          transport):
        ds = small_dataset(seed=4, n_sources=2)  # 20 rows per source, m = 8
        tamper_uplink(monkeypatch, 1, change)
        out = run_within(20, engine.run_ddpp, config(), ds, transport=transport)
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
            f, packet=csi.exact_packet(csi.compute_projector(None, 9))),
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


class TestBaselines:
    def test_random_reproducible(self):
        ds = small_dataset(seed=8, n_sources=2)
        a = engine.run_baseline(config(strategy="random"), ds)
        b = engine.run_baseline(config(strategy="random"), ds)
        assert a.selected_global_indices == b.selected_global_indices

    def test_single_source_all_strategies_match_ground_truth_set(self):
        ds = small_dataset(seed=9, n_sources=1)
        gt = engine.run_ground_truth(ds, 8)
        for strategy in ("greedi", "greedymax", "maxdiv"):
            res = engine.run_baseline(config(n_sources=1, strategy=strategy), ds)
            assert set(res.selected_global_indices) == set(gt.indices)

    def test_stratified_equal_share_per_source(self):
        ds = small_dataset(seed=10, n_sources=4, total_select=8)
        res = engine.run_baseline(config(n_sources=4, strategy="stratified"), ds)
        per_source = [sum(1 for g in res.selected_global_indices
                          if g in set(ds.partition.assignments[i]))
                      for i in range(4)]
        assert per_source == [2, 2, 2, 2]

    def test_greedymax_uplinks_only_the_winner(self):
        ds = small_dataset(seed=11, n_sources=3, total_select=6)
        res = engine.run_baseline(config(n_sources=3, total_select=6,
                                         strategy="greedymax"), ds)
        nonzero = [v for v in res.ledger["per_source_uplink"] if v]
        assert len(nonzero) == 1 and nonzero[0] == 6 * 8
        assert res.ledger["probe_elements"] == 0

    def test_maxdiv_charges_scalar_probes(self):
        ds = small_dataset(seed=12, n_sources=3, total_select=6)
        res = engine.run_baseline(config(n_sources=3, total_select=6,
                                         strategy="maxdiv"), ds)
        assert res.ledger["probe_elements"] == 3
        nonzero = [v for v in res.ledger["per_source_uplink"] if v]
        assert len(nonzero) == 1

    def test_zero_overhead_uplink_identical_across_strategies(self):
        ds = small_dataset(seed=13, n_sources=2)
        cfgs = [config(strategy=s) for s in
                ("greedi", "greedymax", "maxdiv", "random", "stratified")]
        totals = {engine.run_baseline(c, ds).ledger["uplink_elements"]
                  for c in cfgs}
        totals.add(engine.run_ddpp(config(), ds).ledger["uplink_elements"])
        assert totals == {8 * 8}  # k_T * m, for every strategy

    def test_greedi_second_round_keeps_the_whole_union(self):
        # A k_T-pick greedy over the k_T received items takes all of them
        # unless rank runs out, so the center's re-ranking changes nothing.
        for seed in (22, 23, 24):
            ds = small_dataset(seed=seed, n_sources=2)
            res = engine.run_baseline(config(strategy="greedi"), ds)
            union = ds.features[res.selected_global_indices]
            second = dpp.greedy_map(linalg.gram(union), 8)
            assert not second.rank_exhausted
            assert sorted(second.indices) == list(range(8))

    def test_feedback_free_strategies_have_no_downlink(self):
        ds = small_dataset(seed=14, n_sources=2)
        for s in ("greedi", "greedymax", "maxdiv", "random", "stratified"):
            res = engine.run_baseline(config(strategy=s), ds)
            assert res.ledger["downlink_elements"] == 0


class TestSharedLocalGreedy:
    """Strategies run in any order on one Dataset give the same results."""

    RUNS = [("greedi", "proposed"), ("greedymax", "proposed"),
            ("maxdiv", "proposed"), ("ddpp", "proposed"), ("ddpp", "svd"),
            ("ddpp", "random_sketch"), ("ddpp", "none")]

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
        def run(ds, strategy, compression):
            cfg = config(**{**overrides, "strategy": strategy,
                            "compression": compression})
            gt = engine.run_ground_truth(ds, cfg.total_select)
            return engine.run_experiment(cfg, ds, ground_truth=gt).comparable()

        cold = {key: run(make(), *key) for key in self.RUNS}
        warm_ds = make()
        warm = {key: run(warm_ds, *key) for key in reversed(self.RUNS)}
        assert warm == cold


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
