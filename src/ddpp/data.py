"""Dataset ingestion, synthetic generation, and partitioning into sources.

``DDPM`` binary layout::

    magic "DDPM" | u16 version | u64 n | u64 m | u8 has_labels
    | n*m * f64 row-major features | n * i64 labels (if has_labels)

CSV files hold one sample per row, optional header, and optionally a
trailing integer label column (the caller flags it).
"""

import itertools
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

    def validate(self, n):
        """Refuse a row assigned twice, or any of rows 0..n-1 left out."""
        seen = set()
        for rows in self.assignments:
            dup = seen.intersection(rows)
            if dup:
                raise InvalidInputError(f"samples {sorted(dup)[:4]} assigned twice")
            seen.update(rows)
        if seen != set(range(n)):
            raise InvalidInputError("partition does not cover the dataset exactly")
        return self

    def to_json(self):
        return json.dumps({"assignments": [list(a) for a in self.assignments]})

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output; anything else is an ``IngestError``."""
        try:
            parts = tuple(tuple(a) for a in json.loads(text)["assignments"])
        except (ValueError, KeyError, TypeError) as exc:
            raise IngestError(f"malformed partition JSON: {exc}") from None
        if not all(type(i) is int for a in parts for i in a):
            raise IngestError("partition indices must be integers")
        return cls(parts)


class Dataset:
    """Features plus their source partition; labels ride along if present.

    The n x m features are held once, source-major, in ``store``: source
    0's rows in assignment order, then source 1's, and so on; ``order``
    maps a store row to its global id.  Global ids are the only ids outside
    this class: ``rows(ids)`` gathers rows by global id, and
    ``source_rows(i)`` is a read-only view of source i's slice of the store.

    ``features`` come in global order.  Construction checks them once
    (``as_matrix``, trusted from then on), refuses a partition that does not
    cover rows 0..n-1 exactly once, and permutes them into the store, its
    own array.  With ``positivity_k`` it multiplies the store in place by
    ``scale``, the ``positivity_scale`` of that many picks.  ``memo`` keeps
    what a unit's runs share.
    """

    def __init__(self, features, partition, labels=None, positivity_k=None):
        features = as_matrix(features, "features")
        order = _store_order(partition.validate(features.shape[0]))
        self._hold(features[order], order, partition, labels, positivity_k)

    @classmethod
    def _of_store(cls, store, order, partition, labels, positivity_k):
        """A dataset over ``store``, its own array, source-major in ``order``."""
        dataset = cls.__new__(cls)
        dataset._hold(store, order, partition, labels, positivity_k)
        return dataset

    def _hold(self, store, order, partition, labels, positivity_k):
        self.store, self.order = store, order
        self.partition, self.labels, self.scale = partition, labels, 1.0
        self._position = _inverse(order)
        if positivity_k is not None:  # probes read the unscaled store
            self.scale = positivity_scale(self, positivity_k)
            if self.scale != 1.0:
                store *= self.scale
        store.flags.writeable = order.flags.writeable = False  # views too
        ends = itertools.accumulate(len(a) for a in partition.assignments)
        self._sources = tuple(store[end - len(a):end]
                              for end, a in zip(ends, partition.assignments))
        self._memo = {}

    @property
    def n(self):
        return self.store.shape[0]

    @property
    def dims(self):
        return self.store.shape[1]

    def rows(self, ids):
        """The rows of the global ids ``ids``, in that order (a copy)."""
        return self.store[self._position[np.asarray(ids, dtype=np.intp)]]

    def logdet(self, ids):
        """``dpp.subset_logdet`` of the rows of the global ids ``ids``."""
        return dpp.subset_logdet(self.rows(ids), range(len(ids)))

    def source_rows(self, i):
        """Source ``i``'s rows, a read-only view of the store."""
        return self._sources[i]

    def source_greedy(self, i, k):
        """``dpp.greedy_map_rows`` of k picks on source ``i``'s rows, run once."""
        return self.memo(("greedy", i, k),
                         lambda: dpp.greedy_map_rows(self.source_rows(i), k))

    def memo(self, key, build):
        """``build()``, run once per ``key``; callers share the value unchanged."""
        if (value := self._memo.get(key)) is None:
            value = self._memo[key] = build()
        return value


def _store_order(partition):
    """Global ids in store order: every source's assignment, in turn."""
    return np.fromiter(itertools.chain.from_iterable(partition.assignments),
                       dtype=np.intp)


def _inverse(order):
    """The permutation's inverse: position[order[r]] = r."""
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return position


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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path} is not UTF-8 text ({exc.reason})") from None
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
            if not lab.is_integer():  # NaN and infinities are not
                raise IngestError("label column must be integral", row=ridx)
            labels.append(int(lab))
            values = values[:-1]
        rows.append(values)
    return np.asarray(rows, dtype=np.float64), (np.asarray(labels) if label_column else None)


def load_features(path, fmt="csv", label_column=False):
    """Read an (n, m) float64 feature matrix (plus optional labels).

    Never truncates silently: declared dimensions must match the payload.
    A file that cannot be read is rejected like a malformed one.
    """
    if fmt not in ("csv", "ddpm"):
        raise InvalidConfigError(f"unknown dataset format {fmt!r}")
    try:
        Z, labels = _load_csv(path, label_column) if fmt == "csv" else _load_ddpm(path)
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror}") from None
    if Z.ndim != 2 or Z.shape[0] == 0:
        raise IngestError("no data rows")
    if Z.shape[1] == 0:
        raise IngestError("no feature columns")
    if not np.isfinite(Z).all():
        bad = int(np.argwhere(~np.isfinite(Z).all(axis=1))[0][0])
        raise IngestError("non-finite feature value", row=bad)
    return Z, labels


# The generator draws its noise in row chunks of this many bytes: only the
# result and one chunk's temporaries are held, and the chunks give the same
# stream as one n x m draw.
SYNTH_CHUNK_BYTES = 1 << 18


# The domain of each generator setting past the cluster count and mean
# sparsity: a test of a finite value, and its description.
_DOMAINS = {
    "spread": (lambda v: v >= 0, "non-negative"),
    "scale": (lambda v: v > 0, "positive"),
    "radius_jitter": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "norm_tail": (lambda v: v >= 0, "non-negative"),
}


def _mixture_labels(n, n_clusters, mean_sparsity, **settings):
    """Sample g's cluster, g mod n_clusters, once the mixture's settings pass.

    The settings are configuration, so a bad one is ``InvalidConfigError``;
    ``ddpp run`` splits these labels to check a synthetic point before it
    writes anything.  ``settings`` names any of ``_DOMAINS``' settings.
    """
    if not 1 <= n_clusters <= n:
        raise InvalidConfigError(f"cluster count {n_clusters} must lie in 1..{n}")
    if not 0 < mean_sparsity <= 1:
        raise InvalidConfigError("mean_sparsity must lie in (0, 1]")
    for name, value in settings.items():
        test, domain = _DOMAINS[name]
        if not (math.isfinite(value) and test(value)):
            raise InvalidConfigError(
                f"{name} must be finite and {domain}, got {value}")
    return np.arange(n, dtype=np.int64) % n_clusters


def synth_gaussian_mixture(seed, n, m, n_clusters, spread=0.1, scale=10.0,
                           radius_jitter=0.0, norm_tail=0.0, mean_sparsity=1.0,
                           order=None):
    """Gaussian-mixture features: means on a scaled sphere plus isotropic noise.

    ``radius_jitter`` perturbs each cluster's radius by a uniform factor in
    [1-j, 1+j], giving clusters of unequal raw volume.  ``norm_tail``
    multiplies every sample by an independent lognormal factor
    exp(norm_tail * g), mimicking the heavy-tailed magnitudes of learned
    feature embeddings (rare samples are far more salient than typical
    ones).  ``mean_sparsity`` < 1 restricts every cluster mean to a random
    coordinate subset of that fraction, giving the axis-aligned structure
    typical of rectified embeddings.  Sample g is in cluster g mod
    n_clusters.  Deterministic for a fixed seed.  Row r holds sample r, or,
    given a store ``order`` (see ``Dataset``), sample order[r]; the values
    are the same bit for bit.  Returns (features, labels).
    """
    labels = _mixture_labels(n, n_clusters, mean_sparsity, spread=spread,
                             scale=scale, radius_jitter=radius_jitter,
                             norm_tail=norm_tail)
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
    position = None if order is None else _inverse(order)
    Z = np.empty((n, m))
    step = max(1, SYNTH_CHUNK_BYTES // (8 * m))
    for a in range(0, n, step):
        b = min(a + step, n)
        chunk = rng.normal(size=(b - a, m))
        chunk *= spread * scale
        chunk += means[labels[a:b]]
        Z[slice(a, b) if position is None else position[a:b]] = chunk
    if norm_tail:
        tail = np.exp(norm_tail * rng.normal(size=(n, 1)))
        Z *= tail if order is None else tail[order]
    return Z, labels


def synth_dataset(seed, n_sources, n, m, n_clusters, policy, skew,
                  mean_sparsity, positivity_k=None, **mixture):
    """``synth_gaussian_mixture`` split by ``partition``, as one ``Dataset``.

    The labels fix the partition before any row is drawn, so the rows are
    drawn straight into the dataset's source-major store; they equal the
    global-order generator's rows, permuted, bit for bit.  ``positivity_k``
    goes to the dataset, which scales that store in place.  ``mixture``
    holds the generator's other settings.  The store is checked finite
    once, as a loaded file is; a non-finite draw or positivity probe is an
    ``InvalidConfigError`` naming those settings.
    """
    labels = _mixture_labels(n, n_clusters, mean_sparsity, **mixture)
    part = partition(n, n_sources, policy=policy, seed=seed,
                     cluster_labels=labels, skew=skew)
    order = _store_order(part)
    # numpy's overflow warnings are silenced, since the checks report them
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            Z, _ = synth_gaussian_mixture(seed, n, m, n_clusters,
                                          mean_sparsity=mean_sparsity,
                                          order=order, **mixture)
            return Dataset._of_store(as_matrix(Z, "features"), order, part,
                                     labels, positivity_k)
        except InvalidInputError as exc:
            named = ", ".join(f"{k}={v:g}" for k, v in mixture.items())
            raise InvalidConfigError(f"the generator settings ({named}) give "
                                     f"unusable features: {exc}") from None


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
    n_sources, and a finite skew in [0, 1] under either policy.  The split
    is disjoint and covers 0..n-1 by construction.
    """
    if n_sources < 1:
        raise InvalidConfigError("need at least one source")
    if n % n_sources:
        raise InvalidConfigError(f"{n} samples do not split evenly over {n_sources} sources")
    if not (math.isfinite(skew) and 0 <= skew <= 1):
        raise InvalidConfigError(f"skew must be finite and in [0, 1], got {skew}")
    quota = n // n_sources
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xAB]))
    if policy == "uniform_random":
        order = rng.permutation(n)
        parts = [tuple(sorted(order[i * quota:(i + 1) * quota].tolist()))
                 for i in range(n_sources)]
        return SourcePartition(tuple(parts))
    if policy != "cluster_skewed":
        raise InvalidConfigError(f"unknown partition policy {policy!r}")
    if cluster_labels is None:
        raise InvalidConfigError("cluster_skewed partitioning needs cluster labels")
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
    return SourcePartition(tuple(tuple(sorted(p)) for p in parts))


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
    return synth_dataset(seed, n_sources, n_sources * per_source_size, dims,
                         policy="cluster_skewed", skew=BENCHMARK_SKEW,
                         positivity_k=total_select, **BENCHMARK_FAMILY[dims],
                         **BENCHMARK_COMMON)


POSITIVITY_PROBE_SEEDS = (0, 1, 2)  # one random k-subset probed per seed
POSITIVITY_TARGET = 1.0  # the log-volume the worst probe is lifted to


def positivity_scale(dataset, k):
    """Scalar c such that any reasonable k-subset of c*Z has positive log-volume.

    Probes random k-subsets of global ids under a few seeds; c maps the
    worst probe to ``POSITIVITY_TARGET`` (diversity ratios then stay well
    away from the 0 crossing).  Already-positive data keeps c = 1.
    ``Dataset(positivity_k=k)`` probes its own store before it scales it.
    """
    n = dataset.n
    if not 1 <= k <= n:
        raise InvalidInputError(f"probe size k={k} out of range")
    worst = math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named
        for s in POSITIVITY_PROBE_SEEDS:
            rng = np.random.default_rng(np.random.SeedSequence([int(s), 0xC1]))
            idx = rng.choice(n, size=k, replace=False)
            worst = min(worst, dataset.logdet(idx))
            if not math.isfinite(worst):
                rows = dataset.rows(idx)  # a Gram is finite iff its diagonal is
                if np.isfinite(np.einsum("ij,ij->i", rows, rows)).all():
                    raise InvalidInputError("probe subsets are singular; "
                                            "cannot rescale")
                raise InvalidInputError(
                    "the Gram of a probe subset overflows float64 (features "
                    f"up to {np.abs(rows).max():.3g}); cannot rescale")
    if worst >= POSITIVITY_TARGET:
        return 1.0
    # log det scales by 2k log c under Z -> cZ.
    return math.exp((POSITIVITY_TARGET - worst) / (2.0 * k))

