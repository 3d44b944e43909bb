"""Framing, canonical encoding, and transport behavior."""

import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqkd.transport import (
    MAX_FRAME_BYTES,
    FrameError,
    Message,
    ProtocolError,
    StreamTransport,
    TransportClosed,
    decode_frame,
    encode_frame,
    memory_pair,
    pack_bits,
    unpack_bits,
    validate_detections_payload,
)


class TestFrameCodec:
    def test_hello_frame_bytes_are_fixed(self):
        body = b'{"payload":{},"type":"HELLO"}'
        expected = struct.pack(">I", len(body)) + body
        assert encode_frame(Message("HELLO", {})) == expected

    def test_round_trip_simple(self):
        msg = Message("SIFT_KEEP", {"keep": [1, 5, 9]})
        assert decode_frame(encode_frame(msg)) == msg

    def test_canonical_encoding_is_order_insensitive(self):
        a = Message("SUMMARY", {"alpha": 1, "beta": 2})
        b = Message("SUMMARY", dict(reversed(list({"alpha": 1, "beta": 2}.items()))))
        assert encode_frame(a) == encode_frame(b)

    def test_truncated_frame(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(b"\x00\x00")

    def test_length_mismatch(self):
        data = struct.pack(">I", 16) + b"x" * 15
        with pytest.raises(FrameError, match="length mismatch"):
            decode_frame(data)

    def test_oversize_rejected_on_encode(self):
        big = Message("SAMPLE_REQUEST", {"positions": list(range(4_000_000))})
        with pytest.raises(FrameError, match="cap"):
            encode_frame(big)

    def test_oversize_length_prefix_rejected_on_decode(self):
        data = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="cap"):
            decode_frame(data)

    def test_malformed_json(self):
        body = b"{nope"
        with pytest.raises(FrameError, match="malformed"):
            decode_frame(struct.pack(">I", len(body)) + body)

    def test_unknown_type(self):
        body = b'{"payload":{},"type":"EVIL"}'
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_frame(struct.pack(">I", len(body)) + body)

    def test_concatenated_frames_are_self_delimiting(self):
        msgs = [Message("HELLO", {}), Message("BYE", {}), Message("SIFT_KEEP", {"keep": []})]
        stream = b"".join(encode_frame(m) for m in msgs)
        out = []
        while stream:
            (length,) = struct.unpack(">I", stream[:4])
            out.append(decode_frame(stream[: 4 + length]))
            stream = stream[4 + length :]
        assert out == msgs


class TestBitPacking:
    def test_round_trip(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1], dtype=np.uint8)
        np.testing.assert_array_equal(unpack_bits(pack_bits(bits), len(bits)), bits)

    def test_empty(self):
        assert len(unpack_bits(pack_bits([]), 0)) == 0

    def test_short_payload_rejected(self):
        with pytest.raises(ProtocolError, match="too short"):
            unpack_bits(pack_bits([1, 0]), 99)

    @pytest.mark.parametrize("data", [None, 5, "not base-64!", "é"])
    def test_non_base64_payload_rejected(self, data):
        with pytest.raises(ProtocolError, match="not base-64"):
            unpack_bits(data, 1)


# ---------------------------------------------------------------------------
# Property suite: random valid messages survive the codec unchanged.
# ---------------------------------------------------------------------------

_finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_scalars = st.one_of(st.integers(-(2**40), 2**40), _finite_floats, st.booleans(), st.text(max_size=12), st.none())
_flat_dict = st.dictionaries(st.text(min_size=1, max_size=8), _scalars, max_size=6)


@st.composite
def _bit_field(draw, length):
    bits = draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    return pack_bits(bits)


@st.composite
def messages(draw):
    kind = draw(st.sampled_from(["HELLO", "DETECTIONS", "SIFT_KEEP", "SAMPLE_REQUEST", "SAMPLE_BITS", "SUMMARY", "BYE"]))
    if kind == "HELLO":
        return Message(kind, {"config": draw(_flat_dict)})
    if kind == "DETECTIONS":
        slots = sorted(draw(st.sets(st.integers(0, 10**9), max_size=50)))
        return Message(
            kind,
            {
                "slots": slots,
                "bases": draw(_bit_field(len(slots))),
                "bits": draw(_bit_field(len(slots))),
                "final": draw(st.booleans()),
            },
        )
    if kind == "SIFT_KEEP":
        return Message(kind, {"keep": sorted(draw(st.sets(st.integers(0, 10**9), max_size=50)))})
    if kind == "SAMPLE_REQUEST":
        return Message(kind, {"positions": draw(st.lists(st.integers(0, 10**6), max_size=50))})
    if kind == "SAMPLE_BITS":
        n = draw(st.integers(0, 64))
        return Message(kind, {"bits": draw(_bit_field(n))})
    if kind == "SUMMARY":
        return Message(kind, draw(_flat_dict))
    return Message(kind, {})


@settings(max_examples=1000, deadline=None)
@given(messages())
def test_frame_round_trip_property(msg):
    assert decode_frame(encode_frame(msg)) == msg


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class TestInMemoryTransport:
    def test_ordered_delivery(self):
        a, b = memory_pair()
        for keep in ([1], [2], [3]):
            a.send(Message("SIFT_KEEP", {"keep": keep}))
        got = [b.recv().payload["keep"] for _ in range(3)]
        assert got == [[1], [2], [3]]

    def test_close_wakes_receiver(self):
        a, b = memory_pair()
        a.close()
        with pytest.raises(TransportClosed):
            b.recv()

    def test_large_detections_round_trip(self):
        a, b = memory_pair()
        slots = list(range(0, 10**5))
        bits = np.random.default_rng(0).integers(0, 2, len(slots))
        msg = Message("DETECTIONS", {"slots": slots, "bases": pack_bits(bits), "bits": pack_bits(bits), "final": True})
        a.send(msg)
        assert b.recv() == msg


class TestStreamTransport:
    def test_socketpair_round_trip(self):
        left, right = socket.socketpair()
        ta, tb = StreamTransport(left), StreamTransport(right)
        msgs = [Message("HELLO", {"config": {"x": 1}}), Message("BYE", {})]

        def pump():
            for m in msgs:
                ta.send(m)

        t = threading.Thread(target=pump)
        t.start()
        got = [tb.recv() for _ in msgs]
        t.join()
        assert got == msgs
        ta.close()
        with pytest.raises(TransportClosed):
            tb.recv()

    def test_peer_vanishing_mid_frame(self):
        left, right = socket.socketpair()
        right.sendall(struct.pack(">I", 100) + b"partial")
        right.close()
        with pytest.raises(TransportClosed):
            StreamTransport(left).recv()


class TestDetectionsValidation:
    def test_strictly_increasing_required(self):
        with pytest.raises(ProtocolError, match="strictly increasing"):
            validate_detections_payload({"slots": [1, 1, 2]})

    def test_valid_payload_passes(self):
        validate_detections_payload({"slots": [1, 2, 5]})

    @pytest.mark.parametrize(
        "payload, key, prev, expected",
        [
            ({"slots": [1, 2, 5]}, "slots", -1, [1, 2, 5]),
            ({"keep": [0, 2**63 - 1]}, "keep", -1, [0, 2**63 - 1]),
            ({"positions": []}, "positions", 9, []),
            ({"slots": [6, 7]}, "slots", 5, [6, 7]),
        ],
    )
    def test_returns_the_slots_as_int64(self, payload, key, prev, expected):
        slots = validate_detections_payload(payload, key, prev)
        assert slots.dtype == np.int64
        np.testing.assert_array_equal(slots, expected)

    @pytest.mark.parametrize(
        "payload, prev, match",
        [
            ({}, -1, "'slots' must be a list of slot indices, got None"),
            ({"slots": "1,2"}, -1, "must be a list of slot indices, got '1,2'"),
            ({"slots": [1, 5, 3]}, -1, "strictly increasing, got 3 at 2"),
            ({"slots": [1, 3, 3]}, -1, "strictly increasing, got 3 at 2"),
            ({"slots": [5, 6]}, 5, "strictly increasing, got 5 at 0"),
            ({"slots": [2**63 - 1, -(2**63)]}, -1, f"non-negative, got {-(2**63)} at 1"),
            ({"slots": [-1, 3]}, -1, "non-negative, got -1 at 0"),
            ({"slots": [1, 2.5]}, -1, "integers, got 2.5 at 1"),
            ({"slots": [1.0]}, -1, "integers, got 1.0 at 0"),
            ({"slots": ["3"]}, -1, "integers, got '3' at 0"),
            ({"slots": [1, True]}, -1, "integers, got True at 1"),
            ({"slots": [0, None]}, -1, "integers, got None at 1"),
            ({"slots": [[3]]}, -1, r"integers, got \[3\] at 0"),
            ({"slots": [1, 2**63]}, -1, f"64-bit integers, got {2**63} at 1"),
            ({"slots": [2**70]}, -1, f"64-bit integers, got {2**70} at 0"),
        ],
    )
    def test_malformed_frame_names_what_is_wrong(self, payload, prev, match):
        with pytest.raises(ProtocolError, match=match):
            validate_detections_payload(payload, "slots", prev)
