import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ddpp import data, dpp
from ddpp.errors import IngestError, InvalidConfigError, InvalidInputError


class TestCsv:
    def test_identity_matrix(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,0\n0,1\n")
        Z, labels = data.load_features(path, fmt="csv")
        assert np.array_equal(Z, np.eye(2))
        assert labels is None

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        Z, _ = data.load_features(path, fmt="csv")
        assert Z.shape == (2, 2)

    def test_label_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2,0\n3,4,1\n")
        Z, labels = data.load_features(path, fmt="csv", label_column=True)
        assert Z.shape == (2, 2)
        assert labels.tolist() == [0, 1]

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1.5"])
    def test_non_integral_label_rejected(self, tmp_path, label):
        path = tmp_path / "t.csv"
        path.write_text(f"1,2,0\n3,4,{label}\n")
        with pytest.raises(IngestError, match="label column must be integral") as err:
            data.load_features(path, fmt="csv", label_column=True)
        assert err.value.row == 1

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(IngestError) as err:
            data.load_features(path, fmt="csv")
        assert err.value.row == 1

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(IngestError) as err:
            data.load_features(path, fmt="csv")
        assert err.value.row == 1

    def test_non_utf8_bytes_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"1,2\n\xff,3\n")
        with pytest.raises(IngestError, match="not UTF-8") as err:
            data.load_features(path, fmt="csv")
        assert str(path) in str(err.value)

    def test_header_without_rows_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n")
        with pytest.raises(IngestError, match="no data rows"):
            data.load_features(path, fmt="csv")

    def test_label_column_alone_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0\n1\n0\n")
        with pytest.raises(IngestError, match="no feature columns"):
            data.load_features(path, fmt="csv", label_column=True)


class TestDdpmBinary:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(400)
        Z = rng.normal(size=(7, 5))
        labels = rng.integers(0, 3, size=7)
        path = tmp_path / "t.ddpm"
        data.save_ddpm(path, Z, labels)
        Z2, labels2 = data.load_features(path, fmt="ddpm")
        assert Z2.tobytes() == Z.tobytes()
        assert np.array_equal(labels, labels2)

    def test_no_labels(self, tmp_path):
        path = tmp_path / "t.ddpm"
        data.save_ddpm(path, np.eye(3))
        Z, labels = data.load_features(path, fmt="ddpm")
        assert np.array_equal(Z, np.eye(3)) and labels is None

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "t.ddpm"
        data.save_ddpm(path, np.eye(3))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(IngestError):
            data.load_features(path, fmt="ddpm")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.ddpm"
        data.save_ddpm(path, np.eye(2))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(IngestError):
            data.load_features(path, fmt="ddpm")

    def test_zero_feature_columns_rejected(self, tmp_path):
        path = tmp_path / "t.ddpm"
        data.save_ddpm(path, np.zeros((3, 0)), labels=[0, 1, 0])
        with pytest.raises(IngestError, match="no feature columns"):
            data.load_features(path, fmt="ddpm")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            data.load_features(tmp_path / "x", fmt="parquet")


class TestSynth:
    def test_zero_spread_pins_samples_to_means(self):
        Z, labels = data.synth_gaussian_mixture(seed=1, n=12, m=6, n_clusters=3,
                                                spread=0.0, scale=5.0)
        for c in range(3):
            rows = Z[labels == c]
            assert np.max(np.abs(rows - rows[0])) == 0.0
            assert np.linalg.norm(rows[0]) == pytest.approx(5.0)

    def test_single_cluster_all_zero_labels(self):
        _, labels = data.synth_gaussian_mixture(seed=2, n=10, m=4, n_clusters=1)
        assert labels.tolist() == [0] * 10

    def test_deterministic(self):
        a, la = data.synth_gaussian_mixture(seed=3, n=20, m=5, n_clusters=4,
                                            norm_tail=0.3, mean_sparsity=0.5)
        b, lb = data.synth_gaussian_mixture(seed=3, n=20, m=5, n_clusters=4,
                                            norm_tail=0.3, mean_sparsity=0.5)
        assert a.tobytes() == b.tobytes() and np.array_equal(la, lb)

    def test_chunked_draws_equal_one_draw(self, monkeypatch):
        settings = dict(seed=9, n=41, m=6, n_clusters=4, spread=0.2,
                        radius_jitter=0.2, norm_tail=0.4, mean_sparsity=0.5)
        whole, _ = data.synth_gaussian_mixture(**settings)  # one chunk
        monkeypatch.setattr(data, "SYNTH_CHUNK_BYTES", 3 * 8 * 6)
        chunked, _ = data.synth_gaussian_mixture(**settings)  # 3-row chunks
        assert chunked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("mean_sparsity", [1.0, 0.3])
    @pytest.mark.parametrize("norm_tail", [0.0, 0.4])
    @pytest.mark.parametrize("policy", ["uniform_random", "cluster_skewed"])
    def test_source_major_rows_are_the_global_rows_permuted(
            self, policy, norm_tail, mean_sparsity):
        n, m, N, C = 1230, 64, 3, 7
        step = data.SYNTH_CHUNK_BYTES // (8 * m)
        assert n > step and n % step  # several chunks, the last one short
        mixture = dict(spread=0.05, scale=10.0, radius_jitter=0.2,
                       norm_tail=norm_tail, mean_sparsity=mean_sparsity)
        ds = data.synth_dataset(11, N, n, m, C, policy=policy, skew=0.2,
                                **mixture)
        Z, labels = data.synth_gaussian_mixture(11, n, m, C, **mixture)
        part = data.partition(n, N, policy=policy, seed=11,
                              cluster_labels=labels, skew=0.2)
        assert ds.partition == part and np.array_equal(ds.labels, labels)
        order = [g for a in part.assignments for g in a]
        assert np.array_equal(ds.store, Z[order])
        assert ds.store.tobytes() == Z[order].tobytes()
        assert ds.rows(range(n)).tobytes() == Z.tobytes()

    def test_mean_sparsity_limits_support(self):
        Z, labels = data.synth_gaussian_mixture(seed=5, n=6, m=20, n_clusters=2,
                                                spread=0.0, mean_sparsity=0.2)
        for c in range(2):
            assert np.count_nonzero(Z[labels == c][0]) <= 4

    def test_equals_the_textbook_sum_bit_for_bit(self):
        # means[labels] + spread * scale * noise, on the same draws
        n, m, C = 23, 7, 5
        Z, labels = data.synth_gaussian_mixture(seed=6, n=n, m=m, n_clusters=C,
                                                spread=0.3, scale=4.0)
        rng = np.random.default_rng(np.random.SeedSequence([6, 0x5D]))
        means = rng.normal(size=(C, m))
        means *= 4.0 / np.linalg.norm(means, axis=1, keepdims=True)
        ref = means[labels] + 0.3 * 4.0 * rng.normal(size=(n, m))
        assert Z.tobytes() == ref.tobytes()

    def test_holds_one_feature_sized_array(self):
        n, m = 4000, 64
        tracemalloc.start()
        try:
            data.synth_gaussian_mixture(seed=7, n=n, m=m, n_clusters=6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * m * 8  # no means[labels] beside the noise

    @pytest.mark.parametrize("setting, cause", [
        ({"scale": 1e200}, "Gram of a probe subset overflows"),
        ({"norm_tail": 1000.0}, "non-finite entries"),  # the draw overflows
    ])
    def test_an_overflowing_setting_is_a_configuration_error(self, setting,
                                                             cause):
        mixture = {"spread": 0.06, "scale": 10.0, "radius_jitter": 0.2,
                   "norm_tail": 0.4, **setting}
        with pytest.raises(InvalidConfigError, match=cause) as info:
            data.synth_dataset(0, 2, 24, 8, 3, policy="cluster_skewed",
                               skew=0.1, mean_sparsity=0.3, positivity_k=4,
                               **mixture)
        named = ", ".join(f"{k}={v:g}" for k, v in mixture.items())
        assert f"generator settings ({named})" in str(info.value)

    def test_too_many_clusters(self):
        with pytest.raises(InvalidConfigError):
            data.synth_gaussian_mixture(seed=0, n=3, m=2, n_clusters=5)

    def test_zero_clusters(self):
        with pytest.raises(InvalidConfigError, match="cluster count 0"):
            data.synth_gaussian_mixture(seed=0, n=3, m=2, n_clusters=0)


class TestDataset:
    """Constructing a Dataset is the entry check for caller features."""

    PART = data.SourcePartition(((0,), (1,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        Z = np.ones((2, 3))
        Z[1, 2] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            data.Dataset(features=Z, partition=self.PART)

    @pytest.mark.parametrize("shape", [(0, 3), (3,), (1, 2, 3), (2, 0)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="2-D"):
            data.Dataset(features=np.ones(shape), partition=self.PART)

    def test_features_widened_to_float64(self):
        ds = data.Dataset(features=np.eye(2, 3, dtype=np.float32),
                          partition=self.PART)
        assert ds.store.dtype == np.float64
        assert np.array_equal(ds.rows([0, 1]), np.eye(2, 3))

    @pytest.mark.parametrize("assignments", [
        ((0,),), ((0, 1), (1,)), ((0,), (2,)), ((0,), (1, 2)), ((), ())])
    def test_partition_must_cover_every_row_once(self, assignments):
        # the store has no place for an unassigned or twice-assigned row
        with pytest.raises(InvalidInputError):
            data.Dataset(features=np.eye(2, 3),
                         partition=data.SourcePartition(assignments))

    def test_rows_are_stored_source_major_and_read_by_global_id(self):
        Z = np.arange(12.0).reshape(6, 2)
        part = data.SourcePartition(((4, 1), (0, 5, 2), (3,)))
        ds = data.Dataset(features=Z, partition=part)
        assert ds.order.tolist() == [4, 1, 0, 5, 2, 3]
        assert np.array_equal(ds.store, Z[[4, 1, 0, 5, 2, 3]])
        assert np.array_equal(ds.rows([5, 0, 3]), Z[[5, 0, 3]])
        assert ds.rows([]).shape == (0, 2)
        for i, ids in enumerate(part.assignments):
            rows = ds.source_rows(i)
            assert np.array_equal(rows, Z[list(ids)])
            assert np.shares_memory(rows, ds.store)
            assert not rows.flags.writeable
        assert not ds.store.flags.writeable

    def test_a_benchmark_dataset_holds_its_rows_once(self):
        n_sources, per_source, m = 4, 2000, 64
        size = n_sources * per_source * m * 8
        data.make_benchmark_dataset(seed=1, n_sources=2, dims=m,
                                    total_select=16, per_source_size=20)
        tracemalloc.start()  # after a warm-up: lazy imports are not counted
        try:
            ds = data.make_benchmark_dataset(seed=0, n_sources=n_sources,
                                             dims=m, total_select=16,
                                             per_source_size=per_source)
            views = [ds.source_rows(i) for i in range(n_sources)]
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.scale == 1.0  # the benchmark data needs no rescale
        assert sum(v.shape[0] for v in views) == ds.n
        assert held < 1.25 * size  # one n x m array, not two
        assert peak < 1.5 * size


    def test_a_rescaled_synthetic_dataset_is_scaled_in_place(self):
        # small cluster means make every probe negative: c is about 22
        n, m, k = 5000, 512, 120
        settings = dict(seed=3, n_sources=10, n=n, m=m, n_clusters=80,
                        policy="cluster_skewed", skew=0.1, mean_sparsity=0.3,
                        spread=0.03, scale=0.05, radius_jitter=0.2,
                        norm_tail=0.4)
        data.synth_dataset(**{**settings, "n": 20, "m": 8, "n_clusters": 2},
                           positivity_k=2)
        tracemalloc.start()  # after a warm-up: lazy imports are not counted
        try:
            ds = data.synth_dataset(**settings, positivity_k=k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * m * 8  # no rescaled copy beside the store
        plain = data.synth_dataset(**settings)
        c = data.positivity_scale(plain, k)
        assert ds.scale == c > 1.0 and plain.scale == 1.0
        assert ds.store.tobytes() == (plain.store * c).tobytes()
        assert not ds.store.flags.writeable


class TestPartition:
    def test_single_source_takes_everything(self):
        part = data.partition(6, 1, policy="uniform_random", seed=0)
        assert part.assignments == (tuple(range(6)),)

    def test_singleton_sources(self):
        part = data.partition(5, 5, policy="uniform_random", seed=0)
        assert sorted(a[0] for a in part.assignments) == list(range(5))
        assert all(len(a) == 1 for a in part.assignments)

    def test_uniform_cover_and_disjoint(self):
        part = data.partition(200, 10, policy="uniform_random", seed=7)
        sizes = [len(a) for a in part.assignments]
        assert sizes == [20] * 10
        union = set().union(*part.assignments)
        assert union == set(range(200))

    def test_cluster_skewed_home_bias(self):
        _, labels = data.synth_gaussian_mixture(seed=8, n=400, m=4, n_clusters=4)
        part = data.partition(400, 4, policy="cluster_skewed", seed=8,
                              cluster_labels=labels, skew=0.2)
        for i, rows in enumerate(part.assignments):
            assert len(rows) == 100
            home_share = np.mean(labels[list(rows)] == i)
            assert home_share >= 0.6
        assert set().union(*part.assignments) == set(range(400))

    def test_divisibility_guard(self):
        with pytest.raises(InvalidConfigError):
            data.partition(10, 3, policy="uniform_random")

    def test_skewed_needs_labels(self):
        with pytest.raises(InvalidConfigError):
            data.partition(10, 2, policy="cluster_skewed")

    def test_partition_json_roundtrip(self):
        part = data.partition(20, 4, policy="uniform_random", seed=1)
        again = data.SourcePartition.from_json(part.to_json())
        assert again == part

    @pytest.mark.parametrize("text", [
        "not json", "[]", "{}", '{"parts": [[0]]}', '{"assignments": 3}',
        '{"assignments": [3]}', '{"assignments": [[0, "x"]]}',
        '{"assignments": [[0, 1.5]]}', '{"assignments": [[0, null]]}',
        '{"assignments": [[true]]}'])
    def test_malformed_partition_json_rejected(self, text):
        with pytest.raises(IngestError):
            data.SourcePartition.from_json(text)


class TestPositivityScale:
    # a shuffled partition: the probes must read rows by global id
    PART = data.partition(50, 5, policy="uniform_random", seed=0)

    def test_already_positive_untouched(self):
        rng = np.random.default_rng(410)
        Z = 5.0 * rng.normal(size=(50, 8))
        ds = data.Dataset(features=Z, partition=self.PART)
        assert data.positivity_scale(ds, 4) == 1.0

    def test_rescale_lifts_probe_above_target(self):
        rng = np.random.default_rng(411)
        Z = 0.01 * rng.normal(size=(50, 8))
        c = data.positivity_scale(data.Dataset(features=Z, partition=self.PART), 4)
        assert c > 1.0
        worst = min(dpp.subset_logdet(
            Z * c, np.random.default_rng(np.random.SeedSequence([s, 0xC1]))
            .choice(50, size=4, replace=False).tolist()) for s in (0, 1, 2))
        assert worst >= 1.0 - 1e-9

    def test_apply_records_scale(self):
        rng = np.random.default_rng(412)
        Z = 0.01 * rng.normal(size=(30, 6))
        part = data.partition(30, 3, policy="uniform_random", seed=0)
        ds = data.Dataset(features=Z, partition=part, positivity_k=3)
        assert ds.scale == data.positivity_scale(
            data.Dataset(features=Z, partition=part), 3) > 1.0
        assert np.array_equal(ds.rows(range(30)), Z * ds.scale)
        assert not ds.store.flags.writeable

    def test_source_rows_are_gathered_once_read_only_per_copy(self):
        rng = np.random.default_rng(413)
        Z = 0.01 * rng.normal(size=(30, 6))
        part = data.partition(30, 3, policy="uniform_random", seed=0)
        ds = data.Dataset(features=Z, partition=part)
        rows = ds.source_rows(1)
        assert ds.source_rows(1) is rows
        assert not rows.flags.writeable
        assert np.array_equal(rows, Z[list(part.assignments[1])])

    def test_memo_builds_once_per_key_and_per_copy(self):
        rng = np.random.default_rng(414)
        Z = 0.01 * rng.normal(size=(30, 6))
        part = data.partition(30, 3, policy="uniform_random", seed=0)
        ds = data.Dataset(features=Z, partition=part)
        built = []

        def build():
            built.append(len(built))
            return object()

        value = ds.memo(("x", 1), build)
        assert ds.memo(("x", 1), build) is value
        assert ds.memo(("x", 2), build) is not value
        greedy = ds.source_greedy(1, 4)
        assert ds.source_greedy(1, 4) is greedy
        assert greedy == dpp.greedy_map_rows(ds.source_rows(1), 4)
        assert built == [0, 1]

    def test_memo_under_concurrent_callers(self):
        # tcp source threads share one dataset; a race may build a value
        # twice, but every answer equals the one built alone
        rng = np.random.default_rng(416)
        part = data.partition(48, 3, policy="uniform_random", seed=1)
        ds = data.Dataset(features=rng.normal(size=(48, 8)), partition=part)
        alone = data.Dataset(features=ds.rows(range(48)), partition=part)
        plain = {(i, k): dpp.greedy_map_rows(alone.source_rows(i), k)
                 for i in range(3) for k in range(9)}
        wrong = []

        def caller(seed):
            for i, k in np.random.default_rng(seed).integers(0, 9, (200, 2)):
                i, k = int(i) % 3, int(k)
                if ds.source_greedy(i, k) != plain[i, k] or not np.array_equal(
                        ds.source_rows(i), alone.source_rows(i)):
                    wrong.append((i, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(s,))
                       for s in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []

    def test_benchmark_dataset_shapes(self):
        ds = data.make_benchmark_dataset(seed=0, n_sources=2, dims=64,
                                         total_select=8, per_source_size=30)
        assert ds.store.shape == (60, 64)
        assert ds.partition.n_sources == 2
        assert ds.labels is not None


class TestLocalGreedy:
    """A source selects on its own rows; that matches the kernel greedy."""

    @staticmethod
    def dataset(rank=None):
        rng = np.random.default_rng(420)
        Z = rng.normal(size=(24, 6))
        if rank is not None:  # every source spans only `rank` directions
            Z = Z[:, :rank] @ rng.normal(size=(rank, 6))
        part = data.partition(24, 2, policy="uniform_random", seed=0)
        return data.Dataset(features=Z, partition=part)

    @pytest.mark.parametrize("rank", [None, 3])
    @pytest.mark.parametrize("order", [(0, 2, 5, 3, 8, 1, 8, 12),
                                       (12, 8, 5, 3, 2, 1, 0)])
    def test_every_request_equals_a_direct_run(self, rank, order):
        ds = self.dataset(rank)
        for i in range(2):
            rows = ds.source_rows(i)
            kernel = rows @ rows.T
            for k in order:
                got = dpp.greedy_map_rows(rows, k)
                want = dpp.greedy_map(kernel, k)
                assert got.indices == want.indices
                assert got.stepwise_logdets == pytest.approx(
                    want.stepwise_logdets, abs=1e-9)

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidInputError):
            dpp.greedy_map_rows(self.dataset().source_rows(0), -1)
