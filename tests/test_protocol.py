import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (field_by_field_decode_batch, field_by_field_decode_error,
                      field_by_field_decode_feedback, projector, run_within)
from ddpp import csi, protocol
from ddpp.errors import (DdppError, DecodeError, InvalidInputError,
                         NotPositiveDefiniteError, NotPsdError, ProtocolError)


def random_batch(rng, count=4, m=3):
    idx = tuple(int(i) for i in rng.choice(50, size=count, replace=False))
    return protocol.SampleBatch(source_id=int(rng.integers(0, 10)),
                                interval=int(rng.integers(1, 5)),
                                local_indices=idx,
                                vectors=rng.normal(size=(count, m)))


def random_packet(rng, m=8):
    Z_Y = rng.normal(size=(3, m))
    H = projector(Z_Y)
    return csi.compress(H, R=2.5, block_fraction=0.5)


class TestBatchFrames:
    def test_empty_batch_header_only(self):
        b = protocol.SampleBatch(source_id=1, interval=2, local_indices=(),
                                 vectors=np.zeros((0, 4)))
        frame = protocol.encode_batch(b)
        assert len(frame) == 4 + 2 + 4 + 4 + 8 + 8
        out = protocol.decode_batch(frame)
        assert out.local_indices == () and out.vectors.shape == (0, 4)

    def test_known_length_arithmetic(self):
        b = protocol.SampleBatch(source_id=0, interval=0, local_indices=(0,),
                                 vectors=np.array([[1.5, -2.0]]))
        frame = protocol.encode_batch(b)
        assert len(frame) == 4 + 2 + 4 + 4 + 8 + 8 + 8 + 16
        out = protocol.decode_batch(frame)
        assert np.array_equal(out.vectors, b.vectors)

    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(300)
        for _ in range(20):
            b = random_batch(rng)
            out = protocol.decode_batch(protocol.encode_batch(b))
            assert out.source_id == b.source_id
            assert out.interval == b.interval
            assert out.local_indices == b.local_indices
            assert out.vectors.tobytes() == b.vectors.astype("<f8").tobytes()

    def test_canonical_encoding(self):
        rng = np.random.default_rng(301)
        frame = protocol.encode_batch(random_batch(rng))
        assert protocol.encode_batch(protocol.decode_batch(frame)) == frame

    def test_bad_magic(self):
        with pytest.raises(DecodeError):
            protocol.decode_batch(b"XXXX" + b"\x00" * 30)

    def test_truncation_reports_offset(self):
        rng = np.random.default_rng(302)
        frame = protocol.encode_batch(random_batch(rng))
        with pytest.raises(DecodeError) as err:
            protocol.decode_batch(frame[:-3])
        assert err.value.offset > 0

    def test_trailing_garbage_rejected(self):
        rng = np.random.default_rng(303)
        frame = protocol.encode_batch(random_batch(rng))
        with pytest.raises(DecodeError):
            protocol.decode_batch(frame + b"\x00")

    def test_duplicate_indices_rejected(self):
        b = protocol.SampleBatch(source_id=0, interval=1, local_indices=(1, 1),
                                 vectors=np.zeros((2, 2)))
        frame = protocol.encode_batch(b)  # the encoder trusts its caller
        with pytest.raises(InvalidInputError, match="unique"):
            protocol.decode_batch(frame)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vectors_rejected_at_decode(self, bad):
        rng = np.random.default_rng(304)
        frame = bytearray(protocol.encode_batch(random_batch(rng)))
        frame[-8:] = struct.pack("<d", bad)  # the last vector element
        with pytest.raises(InvalidInputError, match="non-finite"):
            protocol.decode_batch(bytes(frame))


class TestFeedbackFrames:
    def test_minimal_packet(self):
        packet = csi.CsiPacket(dims=4, selected_dims=(),
                               principal_block=np.zeros(0),
                               residual_values=np.zeros(0),
                               residual_vectors=np.zeros((0, 4)))
        msg = protocol.FeedbackMsg(target_source=0, interval=1, packet=packet)
        out = protocol.decode_feedback(protocol.encode_feedback(msg))
        assert np.array_equal(csi.reconstruct(out.packet), np.zeros((4, 4)))

    def test_identity_full_budget_roundtrip(self):
        m = 5
        H = csi.Projector(basis=np.zeros((0, m)))
        packet = csi.compress(H, R=(m + 1) / 2, block_fraction=1.0)
        msg = protocol.FeedbackMsg(target_source=3, interval=2, packet=packet)
        out = protocol.decode_feedback(protocol.encode_feedback(msg))
        assert np.array_equal(csi.reconstruct(out.packet), np.eye(m))

    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(310)
        for _ in range(20):
            packet = random_packet(rng)
            msg = protocol.FeedbackMsg(target_source=1, interval=2, packet=packet)
            frame = protocol.encode_feedback(msg)
            assert protocol.encode_feedback(protocol.decode_feedback(frame)) == frame

    def test_element_count_mismatch_rejected(self):
        rng = np.random.default_rng(311)
        packet = random_packet(rng)
        frame = bytearray(protocol.encode_feedback(
            protocol.FeedbackMsg(target_source=0, interval=2, packet=packet)))
        # element_count is the fourth u64 after the 14-byte header
        offset = 14 + 24
        frame[offset:offset + 8] = (99999).to_bytes(8, "little")
        with pytest.raises(DecodeError):
            protocol.decode_feedback(bytes(frame))


    @pytest.mark.parametrize("field", ["principal_block", "residual_values",
                                       "residual_vectors"])
    def test_non_finite_payload_rejected_at_decode(self, field):
        rng = np.random.default_rng(312)
        packet = random_packet(rng)
        r0, r1 = packet.block_size, packet.residual_rank
        assert r0 and r1
        frame = bytearray(protocol.encode_feedback(
            protocol.FeedbackMsg(target_source=0, interval=2, packet=packet)))
        # 14-byte header, four u64 counts, r0 u64 dims, then the f64 payload
        offset = 14 + 32 + 8 * r0 + 8 * {
            "principal_block": 0,
            "residual_values": (r0 * r0 + r0) // 2,
            "residual_vectors": (r0 * r0 + r0) // 2 + r1}[field]
        frame[offset:offset + 8] = struct.pack("<d", np.nan)
        with pytest.raises(InvalidInputError, match=field):
            protocol.decode_feedback(bytes(frame))


class TestErrorFrames:
    def roundtrip(self, exc):
        frame = protocol.encode_error(3, 2, exc)
        assert frame[:4] == protocol.MAGIC_ERROR
        return protocol.decode_error(frame)

    def test_package_error_keeps_its_class_and_message(self):
        out = self.roundtrip(NotPsdError("eigenvalue -5.000e-01 below -1e-06"))
        assert type(out) is NotPsdError
        assert str(out) == "source 3, interval 2: eigenvalue -5.000e-01 below -1e-06"

    def test_structured_errors_rebuild_without_their_attributes(self):
        out = self.roundtrip(NotPositiveDefiniteError(4))
        assert type(out) is NotPositiveDefiniteError and out.pivot is None
        assert "pivot 4" in str(out)
        out = self.roundtrip(DecodeError(7, "truncated"))
        assert type(out) is DecodeError and out.offset is None

    def test_foreign_error_becomes_package_error(self):
        out = self.roundtrip(ZeroDivisionError("ünïcode division"))
        assert type(out) is DdppError
        assert str(out) == "source 3, interval 2: ZeroDivisionError: ünïcode division"

    def test_non_error_names_are_not_looked_up(self):
        frame = protocol.encode_error(0, 1, type("CsiPacket", (Exception,), {})("x"))
        assert type(protocol.decode_error(frame)) is DdppError

    def test_truncated_and_padded_frames_rejected(self):
        frame = protocol.encode_error(0, 1, NotPsdError("x"))
        for bad in (frame[:-1], frame + b"\x00", b"DDPB" + frame[4:]):
            with pytest.raises(DecodeError):
                protocol.decode_error(bad)


def _valid_frames():
    rng = np.random.default_rng(320)
    packet = random_packet(rng)
    return {
        "DDPB": (protocol.encode_batch(random_batch(rng)), protocol.decode_batch),
        "DDPF": (protocol.encode_feedback(protocol.FeedbackMsg(
            target_source=1, interval=2, packet=packet)), protocol.decode_feedback),
        "DDPE": (protocol.encode_error(2, 3, NotPsdError("eigenvalue -0.5")),
                 protocol.decode_error),
    }


class TestMalformedFrames:
    """A damaged frame decodes or raises a decode/input error, nothing else."""

    FRAMES = _valid_frames()

    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(sorted(FRAMES)), data=st.data())
    def test_truncated_or_mutated_frames(self, kind, data):
        frame, decode = self.FRAMES[kind]
        damage = data.draw(st.sampled_from(["truncate", "byte", "bytes", "tail"]),
                           label="damage")
        if damage == "truncate":
            bad = frame[:data.draw(st.integers(0, len(frame) - 1), label="cut")]
        elif damage == "tail":  # a valid header, then anything at all
            head = struct.calcsize("<4sHII")
            bad = frame[:head] + data.draw(st.binary(max_size=len(frame)),
                                           label="tail")
        else:
            bad = bytearray(frame)
            for _ in range(1 if damage == "byte" else
                           data.draw(st.integers(2, 8), label="count")):
                pos = data.draw(st.integers(0, len(frame) - 1), label="pos")
                bad[pos] = data.draw(st.integers(0, 255), label="byte")
            bad = bytes(bad)
        try:
            decode(bad)
        except (DecodeError, InvalidInputError):
            pass


_U32 = st.integers(0, 2**32 - 1)


@st.composite
def batch_frames(draw):
    """A valid ``DDPB`` frame of up to 4 rows, each 1 to 5 wide."""
    count, m = draw(st.integers(0, 4), label="count"), draw(st.integers(1, 5), label="m")
    rng = np.random.default_rng(draw(_U32, label="seed"))
    batch = protocol.SampleBatch(
        source_id=draw(_U32, label="source_id"), interval=draw(_U32, label="interval"),
        local_indices=tuple(rng.choice(2**40, size=count, replace=False).tolist()),
        vectors=rng.normal(size=(count, m)))
    return protocol.encode_batch(batch)


@st.composite
def feedback_frames(draw):
    """A valid ``DDPF`` frame: m in 1..5, any r0 <= m, r1 in 0..3."""
    m = draw(st.integers(1, 5), label="m")
    r0, r1 = draw(st.integers(0, m), label="r0"), draw(st.integers(0, 3), label="r1")
    rng = np.random.default_rng(draw(_U32, label="seed"))
    packet = csi.CsiPacket(
        dims=m, selected_dims=tuple(sorted(rng.choice(m, size=r0, replace=False).tolist())),
        principal_block=rng.normal(size=(r0 * r0 + r0) // 2),
        residual_values=rng.normal(size=r1),
        residual_vectors=rng.normal(size=(r1, m))).validate()
    return protocol.encode_feedback(protocol.FeedbackMsg(
        target_source=draw(_U32, label="target"), interval=draw(_U32, label="interval"),
        packet=packet))


@st.composite
def error_frames(draw):
    """A valid ``DDPE`` frame: a package or foreign error, any short message."""
    cls = draw(st.sampled_from([NotPsdError, ProtocolError, InvalidInputError,
                                ZeroDivisionError, KeyError]), label="class")
    return protocol.encode_error(draw(_U32, label="source_id"),
                                 draw(_U32, label="interval"),
                                 cls(draw(st.text(max_size=12), label="message")))


class TestFrameFuzz:
    """Decoding a damaged frame ends as a field-by-field read of it does
    (``conftest``'s reference decoders): the same value back, or the same
    error at the same offset.  A batch or feedback frame that decodes is
    valid, so it encodes back to its own bytes; an error frame has no
    encoder of its decoded exception, so that the reference's class and
    message stand for it."""

    CODECS = {
        "DDPB": (batch_frames(), protocol.decode_batch, protocol.encode_batch,
                 field_by_field_decode_batch),
        "DDPF": (feedback_frames(), protocol.decode_feedback,
                 protocol.encode_feedback, field_by_field_decode_feedback),
        "DDPE": (error_frames(), protocol.decode_error, None,
                 field_by_field_decode_error),
    }

    @settings(max_examples=900, deadline=None)  # about 300 per frame type
    @given(kind=st.sampled_from(sorted(CODECS)), data=st.data())
    def test_a_damaged_frame_fails_where_a_field_by_field_read_fails(self, kind, data):
        frames, decode, encode, reference = self.CODECS[kind]
        frame = data.draw(frames, label="frame")
        if encode is not None:
            assert encode(decode(frame)) == frame
        bad = bytearray(frame)
        for _ in range(data.draw(st.integers(0, 4), label="flips")):
            pos = data.draw(st.integers(0, len(frame) - 1), label="pos")
            bad[pos] ^= data.draw(st.integers(1, 255), label="mask")
        if data.draw(st.booleans(), label="special"):  # an f64 counted from the end
            pos = len(frame) - 8 * data.draw(st.integers(1, len(frame) // 8), label="at")
            bad[pos:pos + 8] = struct.pack("<d", data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]), label="value"))
        if data.draw(st.booleans(), label="truncate"):
            del bad[data.draw(st.integers(0, len(frame) - 1), label="cut"):]
        bad += data.draw(st.binary(max_size=9), label="tail")
        same_outcome(decode, encode, reference, bytes(bad))

    @pytest.mark.parametrize("kind", sorted(CODECS))
    def test_every_cut_of_a_frame_with_one_bad_head_byte_fails_alike(self, kind):
        # each fixed field in turn goes bad (magic, version, ids, counts, m,
        # element count, name length), and the frame is cut short anywhere
        # around it
        _, decode, encode, reference = self.CODECS[kind]
        frame = _valid_frames()[kind][0]
        head = {"DDPB": 30, "DDPF": 46, "DDPE": 18}[kind]
        for pos in range(head):
            bad = bytearray(frame)
            bad[pos] ^= 0xFF
            for cut in range(len(frame) + 1):
                same_outcome(decode, encode, reference, bytes(bad[:cut]))


def same_outcome(decode, encode, reference, frame):
    """``decode`` ends as the reference decoder does on ``frame``.

    Without an ``encode``, a decoded exception (an error frame's) has the
    class and message the reference returns.
    """
    try:
        got = decode(frame)
    except (DecodeError, InvalidInputError) as exc:
        with pytest.raises(type(exc)) as want:
            reference(frame)
        assert str(want.value) == str(exc)  # a DecodeError names its offset
        assert getattr(want.value, "offset", None) == getattr(exc, "offset", None)
    else:
        if encode is None:
            assert (type(got), str(got)) == reference(frame)
            return
        assert encode(got) == frame
        assert encode(reference(frame)) == frame


class TestOversizedFrames:
    """A declared m or count that no frame could hold fails at decode with
    DecodeError, before any array is shaped by it."""

    @staticmethod
    def batch_header(count, m):
        return (struct.pack("<4sHII", b"DDPB", 1, 0, 1)
                + struct.pack("<QQ", count, m))

    @staticmethod
    def feedback_header(m, r0=0, r1=0):
        return (struct.pack("<4sHII", b"DDPF", 1, 0, 2)
                + struct.pack("<QQQQ", m, r0, r1, (r0 * r0 + r0) // 2 + r1 * m))

    @pytest.mark.parametrize("m", [2**63, 2**40, protocol.MAX_DIMS + 1, 0])
    def test_batch_width(self, m):
        frame = self.batch_header(0, m)
        assert len(frame) == 30
        with pytest.raises(DecodeError, match="outside"):
            protocol.decode_batch(frame)

    @pytest.mark.parametrize("m", [2**63, 2**40, protocol.MAX_DIMS + 1, 0])
    def test_feedback_width(self, m):
        frame = self.feedback_header(m)
        assert len(frame) == 46
        with pytest.raises(DecodeError, match="outside"):
            protocol.decode_feedback(frame)

    def test_counts_past_the_frame_end(self):
        with pytest.raises(DecodeError, match="truncated"):
            protocol.decode_batch(self.batch_header(2**62, 4))
        with pytest.raises(DecodeError, match="truncated"):
            protocol.decode_feedback(self.feedback_header(4, r0=2**31))

    def test_widest_empty_frames_decode(self):
        m = protocol.MAX_DIMS
        assert protocol.decode_batch(self.batch_header(0, m)).vectors.shape == (0, m)
        assert protocol.decode_feedback(self.feedback_header(m)).packet.dims == m


class TestChannels:
    def test_loopback_recv_on_an_empty_inbox_raises_at_once(self):
        center, source = protocol.loopback_pair()
        for end in (center, source):
            out = run_within(5, end.recv)
            assert isinstance(out.error, ProtocolError), out.error
        center.send(b"frame")
        assert source.recv() == b"frame"
        assert isinstance(run_within(5, source.recv).error, ProtocolError)

    def test_loopback_roundtrip(self):
        center, source = protocol.loopback_pair()
        center.send(b"hello")
        assert source.recv() == b"hello"
        source.send(b"world")
        assert center.recv() == b"world"

    def test_tcp_roundtrip(self):
        center, source = protocol.tcp_pair()
        try:
            payload = bytes(range(256)) * 10
            center.send(payload)
            assert run_within(5, source.recv).result == payload
            source.send(b"")
            assert run_within(5, center.recv).result == b""
        finally:
            center.close()
            source.close()

    def test_a_tcp_peer_stalled_mid_frame_is_a_protocol_error(
            self, monkeypatch):
        monkeypatch.setattr(protocol, "TCP_TIMEOUT_S", 0.2)
        center, source = protocol.tcp_pair()
        try:
            for end in (center, source):  # one timeout on both ends
                assert end._sock.gettimeout() == 0.2
            source._sock.sendall(struct.pack("<I", 16) + b"abcd")
            out = run_within(5, center.recv)
            assert isinstance(out.error, ProtocolError), out.error
            assert str(out.error) == "peer stalled after 4 of 16 bytes"
            out = run_within(5, source.recv)  # nothing sent at all
            assert str(out.error) == "peer stalled after 0 of 4 bytes"
        finally:
            center.close()
            source.close()

    def test_a_tcp_peer_that_stops_reading_is_a_protocol_error(
            self, monkeypatch):
        monkeypatch.setattr(protocol, "TCP_TIMEOUT_S", 0.2)
        center, source = protocol.tcp_pair()
        try:  # small buffers: the frame cannot sit in them unread
            center._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            source._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            out = run_within(5, center.send, bytes(4 << 20))
            assert isinstance(out.error, ProtocolError), out.error
            assert str(out.error) == "peer stopped reading a 4194304-byte frame"
        finally:
            center.close()
            source.close()
