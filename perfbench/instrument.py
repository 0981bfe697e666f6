"""Outside-in instrumentation of the ddpp package for the benchmark.

Nothing inside ``src/ddpp`` knows about the benchmark.  ``Instrument``
replaces attributes of the package's modules and classes with thin wrappers
while it is active and puts the original objects back when it exits.  A
function imported by name into another module (``engine`` imports ``gram``,
``csi`` imports ``psd_sqrt``) is replaced in every ``ddpp.*`` module whose
attribute *is* that function object, not only in its home module.

It works at two levels:

* probes, always on: the wall time of each ``engine.run_ddpp`` call that uses
  the default ``proposed`` compression, and the bytes passed to ``send`` on
  the endpoints made by ``protocol.loopback_pair`` and ``protocol.tcp_pair``
  during it;
* spans, on in the traced run only: one span per call of every public
  function of the eight layers, plus waiting spans for channel ``recv`` and
  for the CLI thread blocked on its worker pool.  ``attribute`` turns the
  spans of one campaign unit into self time per span name.

Spans are kept in memory as tuples ``(id, name, start, end, parent, unit,
thread, wait)`` and written out by the caller when the benchmark ends.
"""

import concurrent.futures
import functools
import hashlib
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "dpp", "csi", "protocol", "engine", "data", "metrics", "cli")

# Public functions whose spans share one name; any other public function
# ``f`` of layer ``L`` gets the span name ``L.f``.
GROUPS = {
    "linalg.as_matrix": "linalg.checks",
    "linalg.require_symmetric": "linalg.checks",
    "linalg.symmetrize": "linalg.checks",
    "csi.compress_svd": "csi.compress",
    "csi.compress_random_sketch": "csi.compress",
    "csi.exact_packet": "csi.compress",
    "protocol.encode_batch": "protocol.codec",
    "protocol.decode_batch": "protocol.codec",
    "protocol.encode_feedback": "protocol.codec",
    "protocol.decode_feedback": "protocol.codec",
    "protocol.ledger_record": "protocol.ledger",
    "protocol.loopback_pair": "protocol.connect",
    "protocol.tcp_pair": "protocol.connect",
    "data.synth_gaussian_mixture": "data.generate",
    "data.partition": "data.generate",
    "data.make_benchmark_dataset": "data.generate",
    "data.apply_positivity_scale": "data.positivity_scale",
}

# Public methods wrapped besides module-level functions.
METHODS = {
    ("protocol", "BandwidthLedger"): (("record", "record_probe", "snapshot"),
                                      "protocol.ledger"),
    ("engine", "SourceWorker"): (("step",), "engine.source_step"),
}

# Span names whose calls are hashed to count distinct inputs.
DIGESTED = ("linalg.gram", "dpp.greedy_map", "dpp.subset_logdet")

SPAN_UNIT = "unit"
SPAN_PROBE = "trace.probe"
SPAN_SEND = "protocol.send"
SPAN_RECV_CENTER = "protocol.recv_center"
SPAN_RECV_SOURCE = "protocol.recv_source"
SPAN_POOL_WAIT = "cli.pool_wait"

# Arrays at least this large are hashed once per unit and remembered by
# identity (the dataset's feature matrix is hashed on every subset_logdet).
_MEMO_BYTES = 1 << 22


def public_functions(module):
    """(name, function) pairs defined in ``module`` and not underscored."""
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


class Instrument:
    """Probes, and with ``spans=True`` the full tracer, over the package.

    Use as a context manager around campaign units and open each unit with
    ``unit``.  Per-unit results are in ``ddpp_runs``, ``packets`` and
    ``digests``; finished spans accumulate in ``records``.
    """

    def __init__(self, spans=False):
        self.spans = spans
        self.records = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self._unit = None
        self._root = None
        self.sent_bytes = 0
        self._reset_unit_state()

    def _reset_unit_state(self):
        self.ddpp_runs = []      # (seconds, wire bytes) per proposed run
        self.packets = []        # (budget use, relative error) per csi.compress
        self.digests = {name: [] for name in DIGESTED}
        self._memo = {}

    # -- installing and restoring -------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self):
        modules = {layer: importlib.import_module(f"ddpp.{layer}") for layer in LAYERS}
        self._reconstruct = modules["csi"].reconstruct
        replacements = {}
        for layer, module in modules.items():
            for fname, fn in public_functions(module):
                qual = f"{layer}.{fname}"
                wrapper = self._wrapper_for(qual, fn)
                if wrapper is not None:
                    replacements[id(fn)] = (fn, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ddpp" and not mod_name.startswith("ddpp."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        if not self.spans:
            return
        for (layer, cls_name), (names, span) in METHODS.items():
            cls = getattr(modules[layer], cls_name, None)
            for meth in names:
                if meth in vars(cls or object):
                    self._patch(cls, meth, self._wrap(vars(cls)[meth], span))
        self._patch(concurrent.futures.Future, "result",
                    self._wrap(concurrent.futures.Future.result, SPAN_POOL_WAIT,
                               wait=True))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        """Put every replaced attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def patched(self):
        return list(self._patched)

    def _wrapper_for(self, qual, fn):
        name = GROUPS.get(qual, qual)
        span = name if self.spans else None
        if qual == "engine.run_ddpp":
            before, after = self._time_ddpp(fn)
            return self._wrap(fn, span, before=before, after=after)
        if name == "protocol.connect":
            return self._wrap(fn, span, after=self._wrap_endpoints)
        if not self.spans:
            return None
        if name in DIGESTED:
            return self._wrap(fn, span, before=self._digest_call(fn, name))
        if qual == "csi.compress":
            return self._wrap(fn, span, after=self._packet_quality(fn))
        return self._wrap(fn, span)

    # -- spans ---------------------------------------------------------

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        return sid, parent

    def _close(self, token, name, start, end, wait):
        sid, parent = token
        self._stack().pop()
        self.records.append((sid, name, start, end, parent, self._unit,
                             threading.get_ident(), wait))

    @contextmanager
    def _probe(self):
        """Span for the tracer's own work, kept out of the layers' self time."""
        token = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(token, SPAN_PROBE, start, time.perf_counter(), False)

    def _wrap(self, fn, span, wait=False, before=None, after=None):
        """Wrapper recording a span named ``span`` (if any) plus hooks.

        ``before(args, kwargs)`` runs ahead of the span and returns a state;
        ``after(args, kwargs, result, seconds, state)`` runs behind it and
        returns the result handed to the caller.
        """
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            token = self._open() if span else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if span:
                    self._close(token, span, start, end, wait)
            if after is not None:
                result = after(args, kwargs, result, end - start, state)
            return result
        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def unit(self, uid):
        """Root span of one campaign unit; resets the per-unit probes."""
        self._reset_unit_state()
        self._unit = uid
        self._root = next(self._ids)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.records.append((self._root, SPAN_UNIT, start, end, None, uid,
                                 threading.get_ident(), False))
            self._unit = None
            self._root = None

    # -- probes ----------------------------------------------------------

    def _time_ddpp(self, fn):
        sig = inspect.signature(fn)

        def before(args, kwargs):
            return self.sent_bytes

        def after(args, kwargs, result, seconds, state):
            config = sig.bind(*args, **kwargs).args[0]
            if config.compression == "proposed":
                self.ddpp_runs.append((seconds, self.sent_bytes - state))
            return result
        return before, after

    def _wrap_endpoints(self, args, kwargs, pair, seconds, state):
        """Count bytes sent on both ends; in spans mode also span them."""
        center, source = pair
        for end, recv_span in ((center, SPAN_RECV_CENTER), (source, SPAN_RECV_SOURCE)):
            send = end.send

            def counted_send(frame, _send=send):
                with self._lock:
                    self.sent_bytes += len(frame)
                return _send(frame)
            if self.spans:
                end.send = self._wrap(counted_send, SPAN_SEND)
                end.recv = self._wrap(end.recv, recv_span, wait=True)
            else:
                end.send = counted_send
        return pair

    def _digest_call(self, fn, name):
        sig = inspect.signature(fn)

        def before(args, kwargs):
            with self._probe():
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                h = hashlib.blake2b(digest_size=16)
                for arg_name, value in bound.arguments.items():
                    h.update(arg_name.encode())
                    h.update(self._value_digest(value))
                self.digests[name].append(h.digest())
        return before

    def _value_digest(self, value):
        if isinstance(value, np.ndarray):
            if value.nbytes >= _MEMO_BYTES:
                hit = self._memo.get(id(value))
                if hit is not None and hit[0] is value:
                    return hit[1]
            digest = array_digest(value)
            if value.nbytes >= _MEMO_BYTES:
                self._memo[id(value)] = (value, digest)  # keeps the id unique
            return digest
        if isinstance(value, (list, tuple, range)):
            return array_digest(np.asarray(list(value)))
        return repr(value).encode()

    def _packet_quality(self, fn):
        sig = inspect.signature(fn)
        reconstruct = self._reconstruct

        def after(args, kwargs, result, seconds, state):
            with self._probe():
                H, R = sig.bind(*args, **kwargs).args[:2]
                budget = math.floor(R * H.dims)
                norm = float(np.linalg.norm(H.matrix))
                err = float(np.linalg.norm(reconstruct(result) - H.matrix)) / norm \
                    if norm else 0.0
                self.packets.append((result.element_count / budget, err))
            return result
        return after


def array_digest(a):
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a))
    return h.digest()


def attribute(spans, root):
    """Split the wall time of ``root`` over span names.

    ``spans`` are the unit's other spans.  Each instant of the root interval
    goes to the innermost open span of every thread: shared equally among
    those that are busy, or among the waiting ones when every open span is a
    waiting span.  An instant with no open span on any thread is
    unattributed.  On one thread this is a span's duration minus the time its
    children cover; across threads it keeps the identity
    ``sum(self times) + unattributed == root duration``.

    Returns ``(self_by_name, unattributed_seconds)``.
    """
    r_start, r_end = root[2], root[3]
    events = []
    for s in spans:
        start, end = max(s[2], r_start), min(s[3], r_end)
        if end <= start:
            continue
        events.append((start, 1, s[0], s))
        events.append((end, 0, -s[0], s))
    events.sort()
    stacks = {}
    self_by_name = {}
    unattributed = 0.0

    def charge(dt):
        nonlocal unattributed
        tops = [st[-1] for st in stacks.values() if st]
        chosen = [s for s in tops if not s[7]] or tops
        if not chosen:
            unattributed += dt
            return
        share = dt / len(chosen)
        for s in chosen:
            self_by_name[s[1]] = self_by_name.get(s[1], 0.0) + share

    last = r_start
    for t, is_start, _, s in events:
        if t > last:
            charge(t - last)
            last = t
        stack = stacks.setdefault(s[6], [])
        if is_start:
            stack.append(s)
        elif stack and stack[-1] is s:
            stack.pop()
        else:
            stack.remove(s)
    if r_end > last:
        charge(r_end - last)
    return self_by_name, unattributed


# -- per-layer metrics ---------------------------------------------------------

# Span names reported with their own self time, and those with a call count.
SELF_NAMES = (
    "linalg.spectral_decomp", "linalg.psd_sqrt", "linalg.gram",
    "linalg.orthonormal_row_basis", "linalg.logdet_psd", "linalg.checks",
    "dpp.greedy_map", "dpp.greedy_map_rows", "dpp.subset_logdet",
    "csi.compute_projector", "csi.compress", "csi.reconstruct", "csi.precode",
    "protocol.codec", "protocol.ledger",
    "data.generate", "data.positivity_scale",
    "metrics.rde",
)
CALL_NAMES = ("linalg.spectral_decomp", "linalg.gram", "linalg.checks",
              "dpp.greedy_map", "dpp.subset_logdet", "metrics.rde")


def unit_summary(ins):
    """Self times, counts and ratios of the last unit traced by ``ins``."""
    root = next(r for r in reversed(ins.records) if r[1] == SPAN_UNIT)
    spans = [r for r in ins.records if r[5] == root[5] and r is not root]
    self_by_name, unattributed = attribute(spans, root)
    calls = {}
    for r in spans:
        calls[r[1]] = calls.get(r[1], 0) + 1
    wall = root[3] - root[2]
    return {
        "wall_s": wall,
        "self": self_by_name,
        "unattributed_s": unattributed,
        "identity_error_s": sum(self_by_name.values()) + unattributed - wall,
        "calls": calls,
        "recv_wait_s": sum(r[3] - r[2] for r in spans if r[1] == SPAN_RECV_CENTER),
        "digests": {name: (len(set(d)), len(d)) for name, d in ins.digests.items()},
        "packets": list(ins.packets),
    }


def layer_metrics(summaries, plain_walls, traced_walls):
    """Per-layer metrics, each a mean per traced campaign unit.

    Returns ``{name: (value, unit)}``; empty when no traced unit passed.
    """
    if not summaries:
        return {}
    n = len(summaries)
    selfs, calls = {}, {}
    for s in summaries:
        for name, v in s["self"].items():
            selfs[name] = selfs.get(name, 0.0) + v
        for name, c in s["calls"].items():
            calls[name] = calls.get(name, 0) + c
    wall = sum(s["wall_s"] for s in summaries)
    out = {}
    for layer in LAYERS:
        total = sum(v for name, v in selfs.items() if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = (total / n, "s")
    for name in SELF_NAMES:
        out[f"{name}.self_s"] = (selfs.get(name, 0.0) / n, "s")
    for name in CALL_NAMES:
        out[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
    for name in DIGESTED:
        distinct = sum(s["digests"][name][0] for s in summaries)
        total = sum(s["digests"][name][1] for s in summaries)
        out[f"{name}.unique_ratio"] = (distinct / total if total else 1.0, "ratio")
    packets = [p for s in summaries for p in s["packets"]]
    out["csi.packet.budget_use"] = (
        sum(p[0] for p in packets) / len(packets) if packets else 0.0, "ratio")
    out["csi.packet.rel_err"] = (
        sum(p[1] for p in packets) / len(packets) if packets else 0.0, "ratio")
    out["protocol.frames"] = (calls.get(SPAN_SEND, 0) / n, "count")
    out["protocol.recv_wait_s"] = (sum(s["recv_wait_s"] for s in summaries) / n, "s")
    unattributed = sum(s["unattributed_s"] for s in summaries)
    out["unit.wall_s"] = (wall / n, "s")
    out["unattributed_s"] = (unattributed / n, "s")
    out["unattributed_share"] = (unattributed / wall, "ratio")
    out["trace.probe_s"] = (selfs.get(SPAN_PROBE, 0.0) / n, "s")
    traced_rate = len(traced_walls) / sum(traced_walls)
    plain_rate = len(plain_walls) / sum(plain_walls) if plain_walls else traced_rate
    out["trace.units_per_s"] = (traced_rate, "1/s")
    out["trace.untraced_units_per_s"] = (plain_rate, "1/s")
    out["trace.overhead_ratio"] = (plain_rate / traced_rate - 1.0, "ratio")
    # The same without the tracer's hashing and packet checks (trace.probe).
    out["trace.span_overhead_ratio"] = (
        (wall - selfs.get(SPAN_PROBE, 0.0)) / n * plain_rate - 1.0, "ratio")
    return out
