"""Dataset ingestion, synthetic generation, and partitioning into sources.

``DDPM`` binary layout::

    magic "DDPM" | u16 version | u64 n | u64 m | u8 has_labels
    | n*m * f64 row-major features | n * i64 labels (if has_labels)

CSV files hold one sample per row, optional header, and optionally a
trailing integer label column (the caller flags it).
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import dpp
from .errors import IngestError, InvalidConfigError, InvalidInputError
from .linalg import as_matrix

MAGIC_DATASET = b"DDPM"
DATASET_VERSION = 1


@dataclass(frozen=True)
class SourcePartition:
    """Pairwise-disjoint per-source index lists over the global dataset."""

    assignments: tuple

    @property
    def n_sources(self):
        return len(self.assignments)

    def validate(self, n=None):
        seen = set()
        for rows in self.assignments:
            dup = seen.intersection(rows)
            if dup:
                raise InvalidInputError(f"samples {sorted(dup)[:4]} assigned twice")
            seen.update(rows)
        if n is not None and seen != set(range(n)):
            raise InvalidInputError("partition does not cover the dataset exactly")
        return self

    def to_json(self):
        return json.dumps({"assignments": [list(a) for a in self.assignments]})

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        return cls(tuple(tuple(int(i) for i in a) for a in payload["assignments"]))


@dataclass(frozen=True)
class Dataset:
    """Features plus their source partition; labels ride along if present.

    Construction checks the features once (``as_matrix``); the package
    trusts them from then on.
    """

    features: np.ndarray
    partition: SourcePartition
    labels: np.ndarray = None
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "features", as_matrix(self.features, "features"))

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dims(self):
        return self.features.shape[1]

    def source_rows(self, i):
        return self.features[list(self.partition.assignments[i])]


def save_ddpm(path, Z, labels=None):
    Z = np.ascontiguousarray(Z, dtype="<f8")
    n, m = Z.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC_DATASET)
        fh.write(struct.pack("<HQQB", DATASET_VERSION, n, m, 1 if labels is not None else 0))
        fh.write(Z.tobytes())
        if labels is not None:
            fh.write(np.ascontiguousarray(labels, dtype="<i8").tobytes())


def _load_ddpm(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    head = struct.Struct("<4sHQQB")
    if len(raw) < head.size:
        raise IngestError("file too short for a DDPM header")
    magic, version, n, m, has_labels = head.unpack_from(raw)
    if magic != MAGIC_DATASET:
        raise IngestError(f"bad magic {magic!r}")
    if version != DATASET_VERSION:
        raise IngestError(f"unsupported version {version}")
    need = head.size + 8 * n * m + (8 * n if has_labels else 0)
    if len(raw) != need:
        raise IngestError(f"expected {need} bytes for n={n} m={m}, got {len(raw)}")
    Z = np.frombuffer(raw, dtype="<f8", count=n * m, offset=head.size)
    Z = Z.reshape(n, m).astype(np.float64)
    labels = None
    if has_labels:
        labels = np.frombuffer(raw, dtype="<i8", offset=head.size + 8 * n * m)
        labels = labels.astype(np.int64)
    return Z, labels


def _load_csv(path, label_column):
    rows, labels = [], []
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise IngestError("empty csv file")
    start = 0
    try:
        [float(v) for v in lines[0].split(",")]
    except ValueError:
        start = 1  # header row
    width = None
    for ridx, line in enumerate(lines[start:]):
        cells = line.split(",")
        try:
            values = [float(v) for v in cells]
        except ValueError:
            raise IngestError("non-numeric cell", row=ridx)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise IngestError(f"expected {width} columns, got {len(values)}", row=ridx)
        if label_column:
            lab = values[-1]
            if lab != int(lab):
                raise IngestError("label column must be integral", row=ridx)
            labels.append(int(lab))
            values = values[:-1]
        if not all(math.isfinite(v) for v in values):
            raise IngestError("non-finite feature value", row=ridx)
        rows.append(values)
    return np.asarray(rows, dtype=np.float64), (np.asarray(labels) if label_column else None)


def load_features(path, fmt="csv", label_column=False):
    """Read an (n, m) float64 feature matrix (plus optional labels).

    Never truncates silently: declared dimensions must match the payload.
    """
    if fmt == "csv":
        Z, labels = _load_csv(path, label_column)
    elif fmt == "ddpm":
        Z, labels = _load_ddpm(path)
    else:
        raise InvalidConfigError(f"unknown dataset format {fmt!r}")
    if Z.ndim != 2 or Z.shape[0] == 0:
        raise IngestError("no data rows")
    if not np.isfinite(Z).all():
        bad = int(np.argwhere(~np.isfinite(Z).all(axis=1))[0][0])
        raise IngestError("non-finite feature value", row=bad)
    return Z, labels


def synth_gaussian_mixture(seed, n, m, n_clusters, spread=0.1, scale=10.0,
                           radius_jitter=0.0, norm_tail=0.0, mean_sparsity=1.0):
    """Gaussian-mixture features: means on a scaled sphere plus isotropic noise.

    ``radius_jitter`` perturbs each cluster's radius by a uniform factor in
    [1-j, 1+j], giving clusters of unequal raw volume.  ``norm_tail``
    multiplies every sample by an independent lognormal factor
    exp(norm_tail * g), mimicking the heavy-tailed magnitudes of learned
    feature embeddings (rare samples are far more salient than typical
    ones).  ``mean_sparsity`` < 1 restricts every cluster mean to a random
    coordinate subset of that fraction, giving the axis-aligned structure
    typical of rectified embeddings.  Deterministic for a fixed seed.
    Returns (features, labels).
    """
    if n_clusters > n:
        raise InvalidInputError("more clusters than samples")
    if not 0 < mean_sparsity <= 1:
        raise InvalidInputError("mean_sparsity must lie in (0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5D]))
    means = rng.normal(size=(n_clusters, m))
    if mean_sparsity < 1:
        active = max(1, int(round(mean_sparsity * m)))
        for c in range(n_clusters):
            dead = rng.permutation(m)[active:]
            means[c, dead] = 0.0
    means *= scale / np.linalg.norm(means, axis=1, keepdims=True)
    if radius_jitter:
        means *= rng.uniform(1 - radius_jitter, 1 + radius_jitter, size=(n_clusters, 1))
    labels = np.arange(n) % n_clusters
    Z = means[labels] + spread * scale * rng.normal(size=(n, m))
    if norm_tail:
        Z *= np.exp(norm_tail * rng.normal(size=(n, 1)))
    return Z, labels.astype(np.int64)


def _fill(part, pools, clusters, need):
    """Pop up to ``need`` samples round-robin from ``clusters``' pools.

    A drained pool leaves the rotation (``clusters`` is consumed); returns
    how many are still needed.
    """
    j = 0
    while need and clusters:
        c = clusters[j % len(clusters)]
        if pools[c]:
            part.append(pools[c].pop())
            need -= 1
            j += 1
        else:
            clusters.remove(c)
    return need


def partition(n, n_sources, policy="uniform_random", seed=0,
              cluster_labels=None, skew=0.5):
    """Split ``n`` samples into equal-sized disjoint per-source index lists.

    ``uniform_random`` shuffles then slices.  ``cluster_skewed`` gives source
    i a home cluster (i mod C) holding probability mass 1-skew of its quota
    and spreads the rest round-robin over the other clusters, in ring order
    after the home; it needs cluster labels.  Requires n divisible by
    n_sources.
    """
    if n_sources < 1:
        raise InvalidConfigError("need at least one source")
    if n % n_sources:
        raise InvalidConfigError(f"{n} samples do not split evenly over {n_sources} sources")
    quota = n // n_sources
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xAB]))
    if policy == "uniform_random":
        order = rng.permutation(n)
        parts = [tuple(sorted(order[i * quota:(i + 1) * quota].tolist()))
                 for i in range(n_sources)]
        return SourcePartition(tuple(parts)).validate(n)
    if policy != "cluster_skewed":
        raise InvalidConfigError(f"unknown partition policy {policy!r}")
    if cluster_labels is None:
        raise InvalidConfigError("cluster_skewed partitioning needs cluster labels")
    if not 0 <= skew <= 1:
        raise InvalidConfigError("skew must lie in [0, 1]")
    labels = np.asarray(cluster_labels)
    n_clusters = int(labels.max()) + 1
    pools = [list(rng.permutation(np.flatnonzero(labels == c)).tolist())
             for c in range(n_clusters)]
    parts = [[] for _ in range(n_sources)]
    # Home-cluster draws first, then the foreign fill; both capped by
    # availability so the equal-size invariant survives drained pools.
    for i in range(n_sources):
        home = i % n_clusters
        want = int(round((1 - skew) * quota))
        take = min(want, len(pools[home]))
        parts[i].extend(pools[home][:take])
        del pools[home][:take]
    for i in range(n_sources):
        home = i % n_clusters
        ring = [(home + d) % n_clusters for d in range(1, n_clusters)]
        need = _fill(parts[i], pools, ring, quota - len(parts[i]))
        # The ring drains only when every foreign pool is empty.
        _fill(parts[i], pools, [home], need)
    return SourcePartition(tuple(tuple(sorted(p)) for p in parts)).validate(n)


# Calibrated generator/partition settings for the benchmark campaigns.
# Dimension-dependent knobs keep the noise-to-structure ratio comparable:
# heavy-tailed sample norms give unions of per-source extremes their edge
# over any single source, while shared clusters leave enough cross-source
# redundancy for the feedback loop to remove.
BENCHMARK_FAMILY = {
    64: dict(n_clusters=20, spread=0.06),
    512: dict(n_clusters=80, spread=0.03),
}
BENCHMARK_COMMON = dict(scale=10.0, radius_jitter=0.2, norm_tail=0.4,
                        mean_sparsity=0.3)
BENCHMARK_SKEW = 0.1


def make_benchmark_dataset(seed, n_sources, dims, total_select,
                           per_source_size=500):
    """Cluster-skewed benchmark dataset, positivity-scaled for ``total_select``."""
    if dims not in BENCHMARK_FAMILY:
        raise InvalidConfigError(
            f"no benchmark family for dims={dims}; known: {sorted(BENCHMARK_FAMILY)}")
    n = n_sources * per_source_size
    Z, labels = synth_gaussian_mixture(seed=seed, n=n, m=dims,
                                       **BENCHMARK_FAMILY[dims],
                                       **BENCHMARK_COMMON)
    part = partition(n, n_sources, policy="cluster_skewed", seed=seed,
                     cluster_labels=labels, skew=BENCHMARK_SKEW)
    ds = Dataset(features=Z, partition=part, labels=labels)
    return apply_positivity_scale(ds, total_select)


def positivity_scale(Z, k, probe_seeds=(0, 1, 2), target=1.0):
    """Scalar c such that any reasonable k-subset of c*Z has positive log-volume.

    Probes random k-subsets under a few seeds; c maps the worst probe to
    ``target`` (diversity ratios then stay well away from the 0 crossing).
    Already-positive data keeps c = 1.
    """
    n = Z.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"probe size k={k} out of range")
    worst = math.inf
    for s in probe_seeds:
        rng = np.random.default_rng(np.random.SeedSequence([int(s), 0xC1]))
        idx = rng.choice(n, size=k, replace=False)
        worst = min(worst, dpp.subset_logdet(Z, idx.tolist()))
    if not math.isfinite(worst):
        raise InvalidInputError("probe subsets are singular; cannot rescale")
    if worst >= target:
        return 1.0
    # log det scales by 2k log c under Z -> cZ.
    return math.exp((target - worst) / (2.0 * k))


def apply_positivity_scale(dataset, k):
    """Rescaled copy of the dataset; the factor is recorded on the result."""
    c = positivity_scale(dataset.features, k)
    if c == 1.0:
        return dataset
    return Dataset(features=dataset.features * c, partition=dataset.partition,
                   labels=dataset.labels, scale=dataset.scale * c)
