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
decoding raises.  One cursor reads every frame: each run of fixed fields
in one unpack, each body part in place, and any failure at the offset
where a field-by-field read would fail.  The encoders trust what the
program built and check nothing: the receiver's decode does.

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
_BATCH_HEAD = struct.Struct("<4sHIIQQ")
_FEEDBACK_HEAD = struct.Struct("<4sHIIQQQQ")
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


@dataclass(frozen=True)
class FeedbackMsg:
    """One compressed projector moving downlink to one source."""

    target_source: int
    interval: int
    packet: CsiPacket


class _Cursor:
    """A frame read front to back that fails where a field-by-field read would.

    It checks the magic on entry.  ``fields`` reads each run of fixed
    fields in one unpack, ``part`` says where a body part starts without
    copying it, and ``end`` checks that the frame ends there.  A failure is
    a ``DecodeError`` at the offset of the first field that is bad or cut
    short, as if every field were read and checked in turn.
    """

    def __init__(self, data, magic, kind):
        self.data, self.kind, self.pos = data, kind, 0
        got = data[self.part(4, "magic"):4]
        if got != magic:
            raise DecodeError(0, f"bad magic {got!r} for {kind} frame")

    def part(self, n, what):
        """Where the next ``n`` bytes, ``what``, start; the cursor passes them."""
        if self.pos + n > len(self.data):
            raise DecodeError(self.pos, f"truncated while reading {what}")
        self.pos += n
        return self.pos - n

    def fields(self, codes, *names):
        """The fixed fields ``names``, one little-endian struct code each.

        A version or m among them is checked, in field order; a frame too
        short for the run fails at the first field it cuts, once the
        fields before it pass.
        """
        fmt = "<" + codes
        while self.pos + struct.calcsize(fmt) > len(self.data):
            fmt = fmt[:-1]  # its last field does not fit
        values = struct.unpack_from(fmt, self.data, self.pos)
        for j, (what, value) in enumerate(zip(names, values)):
            if what == "version" and value != WIRE_VERSION:
                raise DecodeError(4, f"unsupported {self.kind} version {value}")
            if what == "m" and not 1 <= value <= MAX_DIMS:
                raise DecodeError(self.pos + struct.calcsize(fmt[:j + 1]),
                                  f"m = {value} outside 1..{MAX_DIMS}")
        self.pos += struct.calcsize(fmt)
        if len(values) < len(names):  # the next field is cut short: raises
            self.part(struct.calcsize("<" + codes[len(values)]), names[len(values)])
        return values

    def end(self):
        if self.pos != len(self.data):
            raise DecodeError(self.pos, "trailing bytes after frame")


def _f64s(data, count, pos):
    return np.frombuffer(data, dtype="<f8", count=count, offset=pos).astype(np.float64)


def encode_batch(batch):
    """A batch's frame, unchecked: the receiver's decode checks it."""
    vectors = np.ascontiguousarray(batch.vectors, dtype="<f8")
    count, m = vectors.shape
    head = _BATCH_HEAD.pack(MAGIC_BATCH, WIRE_VERSION, batch.source_id,
                            batch.interval, count, m)
    return b"".join((head, struct.pack(f"<{count}Q", *batch.local_indices),
                     vectors.tobytes()))


def decode_batch(data):
    c = _Cursor(data, MAGIC_BATCH, "batch")
    _, source_id, interval, count, m = c.fields(
        "HIIQQ", "version", "source_id", "interval", "count", "m")
    at_indices = c.part(8 * count, "indices")
    at_vectors = c.part(8 * count * m, "vectors")
    c.end()
    indices = struct.unpack_from(f"<{count}Q", data, at_indices)
    if len(set(indices)) != count:
        raise InvalidInputError("batch indices must be unique")
    vectors = _f64s(data, count * m, at_vectors).reshape(count, m)
    if not np.isfinite(vectors).all():
        raise InvalidInputError("batch vectors contain non-finite entries")
    return SampleBatch(source_id=source_id, interval=interval,
                       local_indices=indices, vectors=vectors)


def encode_feedback(msg):
    """A feedback frame, unchecked: the receiver's decode validates its packet."""
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
    c = _Cursor(data, MAGIC_FEEDBACK, "feedback")
    _, target, interval, m, r0, r1, declared = c.fields(
        "HIIQQQQ", "version", "target_source", "interval", "m", "r0", "r1",
        "element_count")
    triangle = (r0 * r0 + r0) // 2
    expected = triangle + r1 * m
    if declared != expected:
        raise DecodeError(c.pos - 8,  # the last u64
                          f"element_count {declared} != {expected} from r0={r0} r1={r1} m={m}")
    at_dims, at_block, at_values, at_vectors = (
        c.part(8 * r0, "selected dims"), c.part(8 * triangle, "principal block"),
        c.part(8 * r1, "residual values"), c.part(8 * r1 * m, "residual vectors"))
    c.end()
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
    c = _Cursor(data, MAGIC_ERROR, "error")
    _, source_id, interval, n = c.fields("HIII", "version", "source_id",
                                         "interval", "name length")
    name = data[c.part(n, "error name"):c.pos].decode("utf-8", "replace")
    (n,) = c.fields("I", "message length")
    text = data[c.part(n, "message"):c.pos].decode("utf-8", "replace")
    c.end()
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
        try:
            self._sock.sendall(struct.pack("<I", len(frame)) + frame)
        except TimeoutError:
            raise ProtocolError(f"peer stopped reading a {len(frame)}-byte frame") from None

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
