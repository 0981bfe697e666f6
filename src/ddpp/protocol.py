"""Message schema, bit-exact serialization, and bandwidth accounting.

Three frame types travel between sources and the center:

``DDPB`` (sample batch, uplink)::

    magic "DDPB" | u16 version | u32 source_id | u32 interval
    | u64 count | u64 m | count * u64 local indices
    | count*m * f64 row-major vectors

``DDPF`` (feedback, downlink)::

    magic "DDPF" | u16 version | u32 target_source | u32 interval
    | u64 m | u64 r0 | u64 r1 | u64 element_count
    | r0 * u64 selected dims | (r0^2+r0)/2 * f64 packed block
    | r1 * f64 residual values | r1*m * f64 residual vectors

``DDPE`` (source failure, uplink in place of a batch)::

    magic "DDPE" | u16 version | u32 source_id | u32 interval
    | u32 name length | error class name (utf-8)
    | u32 message length | message (utf-8)

Everything is little-endian; floats are IEEE f64 with no quantization.
Encoding is canonical: decode then encode reproduces the bytes.  Decoding
is where frame data enters the package: a decoded batch or packet has
consistent shapes and finite values, or decoding raises.
"""

import queue
import socket
import struct
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .csi import CsiPacket
from .errors import (BudgetViolationError, DdppError, DecodeError,
                     InvalidInputError)

MAGIC_BATCH = b"DDPB"
MAGIC_FEEDBACK = b"DDPF"
MAGIC_ERROR = b"DDPE"
WIRE_VERSION = 1

_HEADER = struct.Struct("<4sHII")
# A tcp frame's length travels as a u32, so no frame can hold even one f64
# vector wider than this; a larger declared m is refused at decode.
MAX_DIMS = (2**32 - 1) // 8


@dataclass(frozen=True)
class SampleBatch:
    """Selected samples moving uplink; indices are source-local."""

    source_id: int
    interval: int
    local_indices: tuple
    vectors: np.ndarray

    def validate(self):
        if len(self.local_indices) != self.vectors.shape[0]:
            raise InvalidInputError("index count does not match vector rows")
        if len(set(self.local_indices)) != len(self.local_indices):
            raise InvalidInputError("batch indices must be unique")
        if not np.isfinite(self.vectors).all():
            raise InvalidInputError("batch vectors contain non-finite entries")
        return self


@dataclass(frozen=True)
class FeedbackMsg:
    """One compressed projector moving downlink to one source."""

    target_source: int
    interval: int
    packet: CsiPacket


class _Reader:
    """Cursor over a frame that reports the offset of any failure."""

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.buf):
            raise DecodeError(self.pos, f"truncated while reading {what}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def f64s(self, count, what):
        raw = self.take(8 * count, what)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def dims(self):
        """The frame's vector width m, bounded before anything is shaped by it."""
        m = self.u64("m")
        if not 1 <= m <= MAX_DIMS:
            raise DecodeError(self.pos - 8, f"m = {m} outside 1..{MAX_DIMS}")
        return m

    def u64s(self, count, what):
        raw = self.take(8 * count, what)
        return struct.unpack(f"<{count}Q", raw) if count else ()

    def done(self):
        if self.pos != len(self.buf):
            raise DecodeError(self.pos, "trailing bytes after frame")


def _check_header(r, magic, kind):
    got = r.take(4, "magic")
    if got != magic:
        raise DecodeError(0, f"bad magic {got!r} for {kind} frame")
    version = r.u16("version")
    if version != WIRE_VERSION:
        raise DecodeError(4, f"unsupported {kind} version {version}")


def encode_batch(batch):
    batch.validate()
    vectors = np.ascontiguousarray(batch.vectors, dtype="<f8")
    count, m = vectors.shape
    head = _HEADER.pack(MAGIC_BATCH, WIRE_VERSION, batch.source_id, batch.interval)
    body = struct.pack("<QQ", count, m)
    body += struct.pack(f"<{count}Q", *batch.local_indices) if count else b""
    return head + body + vectors.tobytes()


def decode_batch(data):
    r = _Reader(data)
    _check_header(r, MAGIC_BATCH, "batch")
    source_id = r.u32("source_id")
    interval = r.u32("interval")
    count = r.u64("count")
    m = r.dims()
    indices = r.u64s(count, "indices")
    vectors = r.f64s(count * m, "vectors").reshape(count, m)
    r.done()
    return SampleBatch(source_id=source_id, interval=interval,
                       local_indices=tuple(indices), vectors=vectors).validate()


def encode_feedback(msg):
    p = msg.packet.validate()
    r0, r1, m = p.block_size, p.residual_rank, p.dims
    head = _HEADER.pack(MAGIC_FEEDBACK, WIRE_VERSION, msg.target_source, msg.interval)
    body = struct.pack("<QQQQ", m, r0, r1, p.element_count)
    body += struct.pack(f"<{r0}Q", *p.selected_dims) if r0 else b""
    body += np.ascontiguousarray(p.principal_block, dtype="<f8").tobytes()
    body += np.ascontiguousarray(p.residual_values, dtype="<f8").tobytes()
    body += np.ascontiguousarray(p.residual_vectors, dtype="<f8").tobytes()
    return head + body


def decode_feedback(data):
    r = _Reader(data)
    _check_header(r, MAGIC_FEEDBACK, "feedback")
    target = r.u32("target_source")
    interval = r.u32("interval")
    m = r.dims()
    r0 = r.u64("r0")
    r1 = r.u64("r1")
    declared = r.u64("element_count")
    expected = (r0 * r0 + r0) // 2 + r1 * m
    if declared != expected:
        raise DecodeError(r.pos - 8,
                          f"element_count {declared} != {expected} from r0={r0} r1={r1} m={m}")
    selected = r.u64s(r0, "selected dims")
    block = r.f64s((r0 * r0 + r0) // 2, "principal block")
    values = r.f64s(r1, "residual values")
    vectors = r.f64s(r1 * m, "residual vectors").reshape(r1, m)
    r.done()
    packet = CsiPacket(dims=m, selected_dims=tuple(selected),
                       principal_block=block, residual_values=values,
                       residual_vectors=vectors).validate()
    return FeedbackMsg(target_source=target, interval=interval, packet=packet)


def encode_error(source_id, interval, exc):
    """Frame reporting that a source failed with ``exc``."""
    name = type(exc).__name__.encode()
    text = str(exc).encode("utf-8", "replace")
    head = _HEADER.pack(MAGIC_ERROR, WIRE_VERSION, source_id, interval)
    return (head + struct.pack("<I", len(name)) + name
            + struct.pack("<I", len(text)) + text)


def decode_error(data):
    """The exception a ``DDPE`` frame reports, ready to raise.

    A ``ddpp.errors`` class comes back as itself, so callers keep their
    handling (and the CLI its exit codes); any other class as DdppError.
    Only the class and message travel, not attributes such as ``pivot``.
    """
    r = _Reader(data)
    _check_header(r, MAGIC_ERROR, "error")
    source_id = r.u32("source_id")
    interval = r.u32("interval")
    name = r.take(r.u32("name length"), "error name").decode("utf-8", "replace")
    text = r.take(r.u32("message length"), "message").decode("utf-8", "replace")
    r.done()
    cls = getattr(errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, DdppError)):
        cls, text = DdppError, f"{name}: {text}"
    exc = cls.__new__(cls)
    Exception.__init__(exc, f"source {source_id}, interval {interval}: {text}")
    return exc


@dataclass
class BandwidthLedger:
    """Per-link element/byte counters enforcing the transmission budgets.

    Uplink counts carry only sample payload (k_T * m elements over a full
    run, identical for every strategy); scalar diversity probes are tallied
    separately.  Downlink is capped at R*m elements per source per interval
    when a sparsity budget is configured; violations raise immediately.
    """

    n_sources: int
    dims: int
    sparsity: float = None
    uplink_elements: list = None
    downlink_elements: list = None
    uplink_bytes: int = 0
    downlink_bytes: int = 0
    probe_elements: int = 0
    _sent_indices: list = field(default_factory=list, repr=False)
    _interval_downlink: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.uplink_elements = [0] * self.n_sources
        self.downlink_elements = [0] * self.n_sources
        self._sent_indices = [set() for _ in range(self.n_sources)]

    def record(self, direction, source_id, element_count, byte_count,
               interval=None, indices=None):
        """Increment counters; raises BudgetViolationError on any rule breach."""
        if element_count < 0 or byte_count < 0:
            raise InvalidInputError("counts must be non-negative")
        if direction == "uplink":
            if indices is not None:
                repeats = self._sent_indices[source_id].intersection(indices)
                if repeats:
                    raise BudgetViolationError(
                        f"source {source_id} re-sent indices {sorted(repeats)}")
                self._sent_indices[source_id].update(indices)
            self.uplink_elements[source_id] += element_count
            self.uplink_bytes += byte_count
        elif direction == "downlink":
            key = (source_id, interval)
            total = self._interval_downlink.get(key, 0) + element_count
            if self.sparsity is not None and total > self.sparsity * self.dims:
                raise BudgetViolationError(
                    f"interval {interval} downlink to source {source_id} "
                    f"reaches {total} elements over budget {self.sparsity * self.dims:g}")
            self._interval_downlink[key] = total
            self.downlink_elements[source_id] += element_count
            self.downlink_bytes += byte_count
        else:
            raise InvalidInputError(f"unknown direction {direction!r}")
        return self

    def record_probe(self, source_id, element_count=1):
        """Scalar diversity probes (accounted apart from sample payload)."""
        self.probe_elements += element_count
        return self

    def snapshot(self):
        return {
            "uplink_elements": int(sum(self.uplink_elements)),
            "downlink_elements": int(sum(self.downlink_elements)),
            "uplink_bytes": int(self.uplink_bytes),
            "downlink_bytes": int(self.downlink_bytes),
            "probe_elements": int(self.probe_elements),
            "per_source_uplink": [int(x) for x in self.uplink_elements],
            "per_source_downlink": [int(x) for x in self.downlink_elements],
        }


class LoopbackChannel:
    """One end of an in-process FIFO duplex pair; deterministic.

    The engine runs loopback sources inline on the center's thread, so no
    reader ever waits on an empty queue and there is nothing to close.
    """

    def __init__(self, inbox, outbox):
        self._inbox = inbox
        self._outbox = outbox

    def send(self, frame):
        self._outbox.put(bytes(frame))

    def recv(self, timeout=None):
        return self._inbox.get(timeout=timeout)

    def close(self):
        pass


def loopback_pair():
    """(center_end, source_end) duplex pair backed by two FIFO queues."""
    to_center, to_source = queue.Queue(), queue.Queue()
    return (LoopbackChannel(to_center, to_source),
            LoopbackChannel(to_source, to_center))


class TcpChannel:
    """Length-prefixed frames (u32 length, then payload) over a socket."""

    def __init__(self, sock):
        self._sock = sock

    def send(self, frame):
        self._sock.sendall(struct.pack("<I", len(frame)) + frame)

    def recv(self, timeout=None):
        self._sock.settimeout(timeout)
        header = self._recv_exact(4)
        (length,) = struct.unpack("<I", header)
        return self._recv_exact(length)

    def _recv_exact(self, n):
        chunks = []
        got = 0
        while got < n:
            chunk = self._sock.recv(n - got)
            if not chunk:
                raise DecodeError(got, "connection closed mid-frame")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def tcp_pair():
    """(center_end, source_end) over a real localhost TCP connection."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.connect(listener.getsockname())
    server, _ = listener.accept()
    listener.close()
    for s in (client, server):
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpChannel(server), TcpChannel(client)
