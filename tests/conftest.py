import itertools
import math
import os
import threading
import time

# One BLAS thread per process unless the caller sets its own: the campaign
# fixtures run units in a thread pool, and a multi-threaded BLAS under it
# oversubscribes the cores.  This has to happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from ddpp import csi, data, linalg  # noqa: E402


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
    ds = data.Dataset(features=Z, partition=part, labels=labels)
    return data.apply_positivity_scale(ds, total_select)


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
