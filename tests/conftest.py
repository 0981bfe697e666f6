import itertools
import math
import os
import struct
import threading
import time

# One BLAS thread per process unless the caller sets its own: the campaign
# fixtures run units in a thread pool, and a multi-threaded BLAS under it
# oversubscribes the cores.  This has to happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from ddpp import csi, data, dpp, errors, linalg, protocol  # noqa: E402
from ddpp.errors import DdppError, DecodeError, InvalidInputError  # noqa: E402


def stepwise_exhaustive_greedy(L, k, preselected=()):
    """Greedy by direct determinant evaluation at every step (slow, exact)."""
    chosen = list(preselected)
    picks, logdets = [], []
    blocked = set(preselected)
    for _ in range(k):
        best, best_gain = None, -np.inf
        base = np.linalg.slogdet(L[np.ix_(chosen, chosen)])[1] if chosen else 0.0
        for i in range(L.shape[0]):
            if i in blocked or i in picks:
                continue
            trial = chosen + [i]
            sign, val = np.linalg.slogdet(L[np.ix_(trial, trial)])
            gain = val - base if sign > 0 else -np.inf
            if gain > best_gain + 1e-12:
                best, best_gain = i, gain
        if best is None or not math.isfinite(best_gain):
            break
        chosen.append(best)
        picks.append(best)
        logdets.append(np.linalg.slogdet(L[np.ix_(chosen, chosen)])[1])
    return picks, logdets


def psd_sqrt(M):
    """Symmetric square root V diag(w)^{1/2} V^T of a PSD matrix (psd_eigh)."""
    w, V = linalg.psd_eigh(M)
    return linalg.symmetrize((V * np.sqrt(w)) @ V.T)


def projector(Z_Y):
    """H off Z_Y's rows, built in the identity frame, which holds any rows."""
    return csi.projector_in_frame(Z_Y, np.eye(Z_Y.shape[1]))


def svd_residual_terms(H, selected, r1):
    """The residual terms as a second greedy on an SVD basis built them.

    The reference for ``csi.compress``, whose one greedy on H continues
    past S instead.  Rows of W: an orthonormal basis of Q's rows with their
    S columns removed; E = {x : x_S = 0, Qx = 0} is W's null space on the
    off-S coordinates, and the greedy frame of I - W^T W spans it.
    """
    m = H.dims
    if r1 <= 0:
        return np.zeros(0), np.zeros((0, m))
    off = np.setdiff1d(np.arange(m), selected)
    W = linalg.orthonormal_row_basis(H.basis[:, off])
    frame = dpp.greedy_map_projector(W, r1).frame
    values = np.ones(len(frame))
    vectors = np.zeros((len(frame), m))
    vectors[:, off] = frame
    extra = r1 - len(frame)
    if extra > 0:
        r0 = len(selected)
        B = np.zeros((r0 + W.shape[0], m))  # orthonormal basis of E's complement
        B[np.arange(r0), selected] = 1.0
        B[r0:, off] = W
        G = H.basis @ B.T
        C = np.eye(B.shape[0]) - G.T @ G  # H on span(B)
        C[:r0, :r0] = 0.0  # minus the block the packet carries
        w, V = linalg.spectral_decomp(linalg.symmetrize(C))
        values = np.concatenate([values, w[:extra]])
        vectors = np.vstack([vectors, V[:, :extra].T @ B])
    keep = values > linalg.RANK_TOL  # R's top eigenvalue lies in [0, 1]
    return values[keep], vectors[keep]


def kernel_row_projector_greedy(B, k):
    """The projector greedy on H = I - B^T B, one m-wide kernel row a pick.

    The reference for ``dpp.greedy_map_projector``, which runs in B's q
    coordinates instead: incremental Cholesky with kernel rows
    e_j - B^T B[:, j], its Cholesky rows the frame.  Returns (picks, frame).
    """
    m = B.shape[1]
    diag = 1.0 - np.einsum("ij,ij->j", B, B)
    rows, picks = np.empty((min(k, m), m)), []
    for t in range(len(rows)):
        j = int(diag.argmax())
        if diag[j] <= dpp.EARLY_STOP_REL:
            break
        row = -(B[:, j] @ B)
        row[j] += 1.0
        rows[t] = (row - rows[:t, j] @ rows[:t]) / math.sqrt(diag[j])
        diag -= np.square(rows[t])
        diag[j] = -np.inf
        picks.append(j)
    return picks, rows[:len(picks)]


def comparable(result):
    """An ExperimentResult's results.jsonl record plus its full ledger."""
    return {**result.to_json_dict(), "ledger": result.ledger}


def counted(monkeypatch, name, module):
    """Wrap ``module.<name>``; returns the list of its calls' arguments."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def small_dataset(seed, n_sources, dims=8, per_source=20, total_select=8):
    """Desk-scale benchmark-flavoured dataset for engine tests."""
    n = n_sources * per_source
    Z, labels = data.synth_gaussian_mixture(
        seed=seed, n=n, m=dims, n_clusters=max(2, dims // 4), spread=0.15,
        scale=8.0, radius_jitter=0.2, norm_tail=0.3)
    part = data.partition(n, n_sources, policy="uniform_random", seed=seed)
    return data.Dataset(features=Z, partition=part, labels=labels,
                        positivity_k=total_select)


class Outcome:
    """What a call run by ``run_within`` returned or raised, and its time."""

    def __init__(self):
        self.result = self.error = None
        self.seconds = None


def run_within(seconds, fn, *args, **kwargs):
    """Run ``fn`` on a daemon thread; fail the test if it outlives ``seconds``.

    A hang then fails one test instead of blocking the whole suite.
    """
    out = Outcome()

    def target():
        t0 = time.perf_counter()
        try:
            out.result = fn(*args, **kwargs)
        except BaseException as exc:  # handed to the test, which asserts on it
            out.error = exc
        out.seconds = time.perf_counter() - t0

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout=seconds)
    assert not th.is_alive(), f"still running after {seconds} s"
    return out


def poison_feedback(monkeypatch, n_sources, target):
    """Give source ``target`` packets with a residual eigenvalue of -0.5.

    Only ``csi.compress`` is replaced, so the frame, ledger and transport are
    the real ones and the source's ``precode`` raises NotPsdError.  The
    center compresses for sources 0..N-1 in order at every feedback interval.
    """
    real = csi.compress
    calls = itertools.count()

    def compress(H, R, block_fraction=0.5):
        packet = real(H, R, block_fraction)
        if next(calls) % n_sources != target:
            return packet
        vectors = np.zeros((1, H.dims))
        vectors[0, 0] = 1.0
        return csi.CsiPacket(dims=H.dims, selected_dims=(),
                             principal_block=np.zeros(0),
                             residual_values=np.array([-0.5]),
                             residual_vectors=vectors)

    monkeypatch.setattr(csi, "compress", compress)


class _FieldReader:
    """Cursor over a frame, one field at a time, as the reference decoders read."""

    def __init__(self, buf):
        self.buf, self.pos = buf, 0

    def take(self, n, what):
        if self.pos + n > len(self.buf):
            raise DecodeError(self.pos, f"truncated while reading {what}")
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def uint(self, code, what):
        return struct.unpack("<" + code, self.take(struct.calcsize(code), what))[0]

    def head(self, magic, kind):
        got = self.take(4, "magic")
        if got != magic:
            raise DecodeError(0, f"bad magic {got!r} for {kind} frame")
        version = self.uint("H", "version")
        if version != protocol.WIRE_VERSION:
            raise DecodeError(4, f"unsupported {kind} version {version}")

    def dims(self):
        m = self.uint("Q", "m")
        if not 1 <= m <= protocol.MAX_DIMS:
            raise DecodeError(self.pos - 8, f"m = {m} outside 1..{protocol.MAX_DIMS}")
        return m

    def u64s(self, count, what):
        raw = self.take(8 * count, what)
        return struct.unpack(f"<{count}Q", raw) if count else ()

    def f64s(self, count, what):
        return np.frombuffer(self.take(8 * count, what), dtype="<f8").astype(np.float64)

    def done(self):
        if self.pos != len(self.buf):
            raise DecodeError(self.pos, "trailing bytes after frame")


def field_by_field_decode_batch(data):
    """Reference ``decode_batch``: every field read and checked in turn."""
    r = _FieldReader(data)
    r.head(protocol.MAGIC_BATCH, "batch")
    source_id, interval = r.uint("I", "source_id"), r.uint("I", "interval")
    count = r.uint("Q", "count")
    m = r.dims()
    indices = r.u64s(count, "indices")
    vectors = r.f64s(count * m, "vectors").reshape(count, m)
    r.done()
    if len(set(indices)) != len(indices):
        raise InvalidInputError("batch indices must be unique")
    if not np.isfinite(vectors).all():
        raise InvalidInputError("batch vectors contain non-finite entries")
    return protocol.SampleBatch(source_id=source_id, interval=interval,
                                local_indices=indices, vectors=vectors)


def field_by_field_decode_feedback(data):
    """Reference ``decode_feedback``: every field read and checked in turn."""
    r = _FieldReader(data)
    r.head(protocol.MAGIC_FEEDBACK, "feedback")
    target, interval = r.uint("I", "target_source"), r.uint("I", "interval")
    m = r.dims()
    r0, r1 = r.uint("Q", "r0"), r.uint("Q", "r1")
    declared = r.uint("Q", "element_count")
    expected = (r0 * r0 + r0) // 2 + r1 * m
    if declared != expected:
        raise DecodeError(r.pos - 8, f"element_count {declared} != {expected} "
                                     f"from r0={r0} r1={r1} m={m}")
    packet = csi.CsiPacket(
        dims=m, selected_dims=r.u64s(r0, "selected dims"),
        principal_block=r.f64s((r0 * r0 + r0) // 2, "principal block"),
        residual_values=r.f64s(r1, "residual values"),
        residual_vectors=r.f64s(r1 * m, "residual vectors").reshape(r1, m))
    r.done()
    return protocol.FeedbackMsg(target_source=target, interval=interval,
                                packet=packet.validate())


def field_by_field_decode_error(data):
    """Reference ``decode_error``: every field read and checked in turn.

    Returns the class and message of the exception the frame reports.
    """
    r = _FieldReader(data)
    r.head(protocol.MAGIC_ERROR, "error")
    source_id, interval = r.uint("I", "source_id"), r.uint("I", "interval")
    name = r.take(r.uint("I", "name length"), "error name").decode("utf-8", "replace")
    text = r.take(r.uint("I", "message length"), "message").decode("utf-8", "replace")
    r.done()
    cls = getattr(errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, DdppError)):
        cls, text = DdppError, f"{name}: {text}"
    return cls, f"source {source_id}, interval {interval}: {text}"
