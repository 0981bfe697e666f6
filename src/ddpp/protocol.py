"""Message schema, bit-exact serialization, and the channels frames travel on.

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
is where frame data enters the package, and where it is checked, once: a
decoded batch or packet has consistent shapes and finite values, or
decoding raises.  A frame's fixed fields are read in one unpack.  The
encoders trust what the program built (a packet is validated where
``csi`` builds it) and check only a batch's indices.

A loopback channel is a pair of plain FIFOs for sources run inline on
the center's thread, so its ``recv`` raises on an empty inbox rather than
wait; a tcp channel carries length-prefixed frames over a socket.
"""

import socket
import struct
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import errors
from .csi import CsiPacket
from .errors import DdppError, DecodeError, InvalidInputError, ProtocolError

MAGIC_BATCH = b"DDPB"
MAGIC_FEEDBACK = b"DDPF"
MAGIC_ERROR = b"DDPE"
WIRE_VERSION = 1

_HEADER = struct.Struct("<4sHII")
# The fixed fields of a batch and of a feedback frame, each read in one
# unpack; the names are those of the fields after magic and version.
_BATCH_HEAD = struct.Struct("<4sHIIQQ")
_BATCH_FIELDS = ("source_id", "interval", "count", "m")
_FEEDBACK_HEAD = struct.Struct("<4sHIIQQQQ")
_FEEDBACK_FIELDS = ("target_source", "interval", "m", "r0", "r1", "element_count")
# A tcp frame's length travels as a u32, so no frame can hold even one f64
# vector wider than this; a larger declared m is refused at decode.
MAX_DIMS = (2**32 - 1) // 8
# Seconds a tcp end waits on a stalled peer, then ProtocolError; no real step nears it.
TCP_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class SampleBatch:
    """Selected samples moving uplink; indices are source-local."""

    source_id: int
    interval: int
    local_indices: tuple
    vectors: np.ndarray

    def validate(self):
        """One unique index per vector row; the values are checked at decode."""
        if len(self.local_indices) != self.vectors.shape[0]:
            raise InvalidInputError("index count does not match vector rows")
        if len(set(self.local_indices)) != len(self.local_indices):
            raise InvalidInputError("batch indices must be unique")
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


def _check_dims(m, offset):
    """The frame's vector width m, bounded before anything is shaped by it."""
    if not 1 <= m <= MAX_DIMS:
        raise DecodeError(offset, f"m = {m} outside 1..{MAX_DIMS}")


def _head(data, head, fields, magic, kind):
    """The fixed fields after magic and version, from one unpack.

    A frame too short to hold them is read field by field instead, so it
    fails at the first field that is bad or cut short, as any frame does:
    bad magic, bad version, an m outside 1..MAX_DIMS, then truncation.
    """
    if len(data) < head.size:
        r = _Reader(data)
        _check_header(r, magic, kind)
        for code, what in zip(head.format[4:], fields):
            raw = r.take(struct.calcsize(code), what)
            if what == "m":
                _check_dims(struct.unpack("<" + code, raw)[0], r.pos - len(raw))
    got, version, *values = head.unpack_from(data)
    if got != magic:
        raise DecodeError(0, f"bad magic {got!r} for {kind} frame")
    if version != WIRE_VERSION:
        raise DecodeError(4, f"unsupported {kind} version {version}")
    return values


def _parts(data, pos, sizes):
    """Where each (name, byte count) part of a frame body starts.

    The parts follow each other from ``pos``, and the frame must end with
    the last one.
    """
    starts = []
    for what, n in sizes:
        if pos + n > len(data):
            raise DecodeError(pos, f"truncated while reading {what}")
        starts.append(pos)
        pos += n
    if pos != len(data):
        raise DecodeError(pos, "trailing bytes after frame")
    return starts


def _f64s(data, count, pos):
    return np.frombuffer(data, dtype="<f8", count=count, offset=pos).astype(np.float64)


def encode_batch(batch):
    """A batch's frame; its vectors are the source's own rows, so only the
    indices are checked here, and the receiver's decode checks the values."""
    batch.validate()
    vectors = np.ascontiguousarray(batch.vectors, dtype="<f8")
    count, m = vectors.shape
    head = _BATCH_HEAD.pack(MAGIC_BATCH, WIRE_VERSION, batch.source_id,
                            batch.interval, count, m)
    return b"".join((head, struct.pack(f"<{count}Q", *batch.local_indices),
                     vectors.tobytes()))


def decode_batch(data):
    source_id, interval, count, m = _head(data, _BATCH_HEAD, _BATCH_FIELDS,
                                          MAGIC_BATCH, "batch")
    _check_dims(m, _HEADER.size + 8)  # m follows the u64 count
    at_indices, at_vectors = _parts(data, _BATCH_HEAD.size, (
        ("indices", 8 * count), ("vectors", 8 * count * m)))
    batch = SampleBatch(
        source_id=source_id, interval=interval,
        local_indices=struct.unpack_from(f"<{count}Q", data, at_indices),
        vectors=_f64s(data, count * m, at_vectors).reshape(count, m)).validate()
    if not np.isfinite(batch.vectors).all():
        raise InvalidInputError("batch vectors contain non-finite entries")
    return batch


def encode_feedback(msg):
    """A feedback frame; its packet was validated where ``csi`` built it,
    and the receiver's decode validates it again."""
    p = msg.packet
    r0 = p.block_size
    head = _FEEDBACK_HEAD.pack(MAGIC_FEEDBACK, WIRE_VERSION, msg.target_source,
                               msg.interval, p.dims, r0, p.residual_rank,
                               p.element_count)
    return b"".join((head, struct.pack(f"<{r0}Q", *p.selected_dims),
                     *(np.ascontiguousarray(a, dtype="<f8").tobytes()
                       for a in (p.principal_block, p.residual_values,
                                 p.residual_vectors))))


def decode_feedback(data):
    target, interval, m, r0, r1, declared = _head(
        data, _FEEDBACK_HEAD, _FEEDBACK_FIELDS, MAGIC_FEEDBACK, "feedback")
    _check_dims(m, _HEADER.size)
    triangle = (r0 * r0 + r0) // 2
    expected = triangle + r1 * m
    if declared != expected:
        raise DecodeError(_FEEDBACK_HEAD.size - 8,  # the last u64
                          f"element_count {declared} != {expected} from r0={r0} r1={r1} m={m}")
    at_dims, at_block, at_values, at_vectors = _parts(data, _FEEDBACK_HEAD.size, (
        ("selected dims", 8 * r0), ("principal block", 8 * triangle),
        ("residual values", 8 * r1), ("residual vectors", 8 * r1 * m)))
    packet = CsiPacket(dims=m,
                       selected_dims=struct.unpack_from(f"<{r0}Q", data, at_dims),
                       principal_block=_f64s(data, triangle, at_block),
                       residual_values=_f64s(data, r1, at_values),
                       residual_vectors=_f64s(data, r1 * m, at_vectors).reshape(r1, m)
                       ).validate()
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


class LoopbackChannel:
    """One end of an in-process FIFO duplex pair; deterministic.

    Each direction is a plain FIFO (a ``deque``) with no locks.  The engine
    runs loopback sources inline on the center's thread, so a frame is
    always sent before it is received: ``recv`` on an empty inbox raises
    ``ProtocolError`` at once instead of waiting for a frame that cannot
    come.  There is nothing to close.
    """

    def __init__(self, inbox, outbox):
        self._inbox = inbox
        self._outbox = outbox

    def send(self, frame):
        self._outbox.append(bytes(frame))

    def recv(self):
        try:
            return self._inbox.popleft()
        except IndexError:
            raise ProtocolError("recv on an empty loopback inbox: "
                                "no frame was sent to this end") from None

    def close(self):
        pass


def loopback_pair():
    """(center_end, source_end) duplex pair backed by two FIFOs."""
    to_center, to_source = deque(), deque()
    return (LoopbackChannel(to_center, to_source),
            LoopbackChannel(to_source, to_center))


class TcpChannel:
    """Length-prefixed frames (u32 length, then payload) over a socket."""

    def __init__(self, sock):
        self._sock = sock

    def send(self, frame):
        self._sock.sendall(struct.pack("<I", len(frame)) + frame)

    def recv(self):
        header = self._recv_exact(4)
        (length,) = struct.unpack("<I", header)
        return self._recv_exact(length)

    def _recv_exact(self, n):
        chunks = []
        got = 0
        while got < n:
            try:
                chunk = self._sock.recv(n - got)
            except TimeoutError:
                raise ProtocolError(f"peer stalled after {got} of {n} bytes") from None
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
        s.settimeout(TCP_TIMEOUT_S)
    return TcpChannel(server), TcpChannel(client)
