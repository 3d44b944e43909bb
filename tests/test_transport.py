"""Framing, canonical encoding, and transport behavior."""

import base64
import re
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    pack_slots,
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

    @pytest.mark.parametrize(
        "body",
        [
            b"{nope",
            b"[" * 200_000 + b"]" * 200_000,  # nested past the recursion limit
            b'{"payload":{"n":' + b"9" * 5000 + b'},"type":"BYE"}',  # past the integer digit limit
        ],
        ids=["json", "deep", "long-int"],
    )
    def test_malformed_body(self, body):
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(FrameError, match="malformed"):
            decode_frame(frame)
        left, right = socket.socketpair()
        with left, right:
            # the frame may exceed the socket buffer, so send while reading
            sender = threading.Thread(target=right.sendall, args=(frame,))
            sender.start()
            with pytest.raises(FrameError, match="malformed"):
                StreamTransport(left).recv()
            sender.join(timeout=10)
            assert not sender.is_alive()

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

    @pytest.mark.parametrize(
        "bits, n, match",
        [([1, 0], 99, "too short: 1 bytes for 99 bits"), ([1] * 9, 8, "too long: 2 bytes for 8 bits"), ([0], 0, "too long")],
    )
    def test_wrong_length_rejected(self, bits, n, match):
        with pytest.raises(ProtocolError, match=match):
            unpack_bits(pack_bits(bits), n)

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
                "slots": pack_slots(slots),
                "bases": draw(_bit_field(len(slots))),
                "bits": draw(_bit_field(len(slots))),
                "final": draw(st.booleans()),
            },
        )
    if kind == "SIFT_KEEP":
        return Message(kind, {"keep": pack_slots(sorted(draw(st.sets(st.integers(0, 10**9), max_size=50))))})
    if kind == "SAMPLE_REQUEST":
        return Message(kind, {"positions": pack_slots(sorted(draw(st.sets(st.integers(0, 10**6), max_size=50))))})
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
        slots = pack_slots(np.arange(10**5))
        bits = np.random.default_rng(0).integers(0, 2, 10**5)
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
        tb.close()

    def test_peer_vanishing_mid_frame(self):
        left, right = socket.socketpair()
        right.sendall(struct.pack(">I", 100) + b"partial")
        right.close()
        with left, pytest.raises(TransportClosed):
            StreamTransport(left).recv()


def _varints(*gaps) -> str:
    """Base-64 LEB128 varints of the given gaps, written one byte at a time."""
    out = bytearray()
    for gap in gaps:
        while gap >= 0x80:
            out.append(gap & 0x7F | 0x80)
            gap >>= 7
        out.append(gap)
    return base64.b64encode(bytes(out)).decode("ascii")


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


class TestDetectionsValidation:
    @pytest.mark.parametrize(
        "slots, prev, gaps",
        [
            ([], -1, []),
            ([0, 1, 2], -1, [0, 0, 0]),
            ([5, 133, 134], -1, [5, 127, 0]),
            ([6, 200, 2**20], 5, [0, 193, 2**20 - 201]),
            ([2**63 - 1], -1, [2**63 - 1]),
            ([0, 2**63 - 1], -1, [0, 2**63 - 2]),
        ],
    )
    def test_slots_travel_as_gap_varints(self, slots, prev, gaps):
        assert pack_slots(np.array(slots, dtype=np.int64), prev) == _varints(*gaps)

    def test_gap_bytes_are_leb128(self):
        # gaps 0, 127 and 128 take one, one and two bytes; 2**63 - 1 takes nine
        assert base64.b64decode(pack_slots([0, 128, 257])) == b"\x00\x7f\x80\x01"
        assert base64.b64decode(pack_slots([2**63 - 1])) == b"\xff" * 8 + b"\x7f"

    @pytest.mark.parametrize(
        "slots, key, prev",
        [
            ([1, 2, 5], "slots", -1),
            ([0, 2**63 - 1], "keep", -1),
            ([], "positions", 9),
            ([6, 7], "slots", 5),
        ],
    )
    def test_returns_the_slots_as_int64(self, slots, key, prev):
        decoded = validate_detections_payload({key: pack_slots(slots, prev)}, key, prev)
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, slots)

    @pytest.mark.parametrize(
        "payload, prev, match",
        [
            ({}, -1, "'slots' must be a base-64 string of slot gaps, got None"),
            ({"slots": [1, 2, 5]}, -1, r"must be a base-64 string of slot gaps, got \[1, 2, 5\]"),
            ({"slots": 7}, -1, "must be a base-64 string of slot gaps, got 7"),
            ({"slots": "AA="}, -1, "'slots' is not base-64 text"),
            ({"slots": "@@@@"}, -1, "'slots' is not base-64 text"),
            ({"slots": "é"}, -1, "'slots' is not base-64 text"),
            ({"slots": _b64(b"\x00\x80")}, -1, "ends inside a varint at 1"),
            ({"slots": _b64(b"\xff" * 3)}, -1, "ends inside a varint at 0"),
            ({"slots": _b64(b"\x00" + b"\x80" * 9 + b"\x00")}, -1, "varint longer than 9 bytes at 1"),
            ({"slots": _b64(b"\x80" * 12)}, -1, "ends inside a varint at 0"),
            ({"slots": _varints(0, 0)}, 2**63 - 2, re.escape("slot past 2**63 - 1 at 1")),
            ({"slots": _varints(0)}, 2**63 - 1, re.escape("slot past 2**63 - 1 at 0")),
            ({"slots": _varints(2**63 - 1)}, 5, re.escape("slot past 2**63 - 1 at 0")),
            # the second step wraps a uint64 sum to exactly 2**64
            ({"slots": _varints(2**63 - 1, 2**63 - 1)}, -1, re.escape("slot past 2**63 - 1 at 1")),
        ],
    )
    def test_malformed_frame_names_what_is_wrong(self, payload, prev, match):
        with pytest.raises(ProtocolError, match=match):
            validate_detections_payload(payload, "slots", prev)


_slot_lists = st.lists(st.integers(0, 2**63 - 1), unique=True, max_size=40).map(sorted)


@settings(max_examples=300, deadline=None)
@given(_slot_lists, st.lists(st.integers(0, 40), max_size=4))
@example([], [])
@example([0], [])
@example([2**63 - 1], [])
@example([0, 2**63 - 1], [1])
@example([0, 1, 2**63 - 2, 2**63 - 1], [2, 2, 3])
def test_slot_lists_round_trip_in_any_chunks(slots, cuts):
    """Chunks encoded and decoded with prev carried give back the list."""
    arr = np.array(slots, dtype=np.int64)
    bounds = [0, *sorted(c for c in cuts if c <= len(arr)), len(arr)]
    decoded = []
    prev = -1
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = validate_detections_payload({"slots": pack_slots(arr[lo:hi], prev)}, "slots", prev)
        decoded.append(chunk)
        prev = chunk[-1] if len(chunk) else prev
    out = np.concatenate(decoded)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.text(max_size=40), st.binary(max_size=40).map(_b64)),
    st.one_of(st.just(-1), st.integers(-1, 2**63 - 1)),
)
@example(_b64((b"\xff" * 8 + b"\x7f") * 2), -1)  # the uint64 sum of steps wraps to 0
@example(_b64(b"\x7f"), 2**63 - 129)
def test_any_text_decodes_to_an_increasing_list_or_is_refused(text, prev):
    try:
        slots = validate_detections_payload({"slots": text}, "slots", prev)
    except ProtocolError:
        return
    assert slots.dtype == np.int64
    assert np.all(np.diff(slots, prepend=prev) > 0)
