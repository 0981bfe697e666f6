import numpy as np
import pytest

from ddpp import data, dpp, linalg
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

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(IngestError) as err:
            data.load_features(path, fmt="csv")
        assert err.value.row == 1

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(IngestError):
            data.load_features(path, fmt="csv")

    def test_header_without_rows_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n")
        with pytest.raises(IngestError, match="no data rows"):
            data.load_features(path, fmt="csv")


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

    def test_mean_sparsity_limits_support(self):
        Z, labels = data.synth_gaussian_mixture(seed=5, n=6, m=20, n_clusters=2,
                                                spread=0.0, mean_sparsity=0.2)
        for c in range(2):
            assert np.count_nonzero(Z[labels == c][0]) <= 4

    def test_too_many_clusters(self):
        with pytest.raises(InvalidInputError):
            data.synth_gaussian_mixture(seed=0, n=3, m=2, n_clusters=5)


class TestDataset:
    """Constructing a Dataset is the entry check for caller features."""

    PART = data.SourcePartition(((0,), (1,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        Z = np.ones((2, 3))
        Z[1, 2] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            data.Dataset(features=Z, partition=self.PART)

    @pytest.mark.parametrize("shape", [(0, 3), (3,), (1, 2, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="2-D"):
            data.Dataset(features=np.ones(shape), partition=self.PART)

    def test_features_widened_to_float64(self):
        ds = data.Dataset(features=np.eye(2, 3, dtype=np.float32),
                          partition=self.PART)
        assert ds.features.dtype == np.float64
        assert np.array_equal(ds.features, np.eye(2, 3))


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


class TestPositivityScale:
    def test_already_positive_untouched(self):
        rng = np.random.default_rng(410)
        Z = 5.0 * rng.normal(size=(50, 8))
        assert data.positivity_scale(Z, 4) == 1.0

    def test_rescale_lifts_probe_above_target(self):
        rng = np.random.default_rng(411)
        Z = 0.01 * rng.normal(size=(50, 8))
        c = data.positivity_scale(Z, 4)
        assert c > 1.0
        worst = min(dpp.subset_logdet(
            Z * c, np.random.default_rng(np.random.SeedSequence([s, 0xC1]))
            .choice(50, size=4, replace=False).tolist()) for s in (0, 1, 2))
        assert worst >= 1.0 - 1e-9

    def test_apply_records_scale(self):
        rng = np.random.default_rng(412)
        Z = 0.01 * rng.normal(size=(30, 6))
        part = data.partition(30, 3, policy="uniform_random", seed=0)
        ds = data.apply_positivity_scale(
            data.Dataset(features=Z, partition=part), 3)
        assert ds.scale > 1.0
        assert np.array_equal(ds.features, Z * ds.scale)

    def test_benchmark_dataset_shapes(self):
        ds = data.make_benchmark_dataset(seed=0, n_sources=2, dims=64,
                                         total_select=8, per_source_size=30)
        assert ds.features.shape == (60, 64)
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
            kernel = linalg.gram(rows)
            for k in order:
                got = dpp.greedy_map_rows(rows, k)
                want = dpp.greedy_map(kernel, k)
                assert got.indices == want.indices
                assert got.stepwise_logdets == pytest.approx(
                    want.stepwise_logdets, abs=1e-9)
                assert got.rank_exhausted == want.rank_exhausted

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidInputError):
            dpp.greedy_map_rows(self.dataset().source_rows(0), -1)
