"""Framing, canonical encoding, and transport behavior."""

import base64
import json
import queue
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
    InMemoryTransport,
    Message,
    ProtocolError,
    StreamTransport,
    TransportClosed,
    TransportTimeout,
    decode_frame,
    encode_frame,
    expect,
    memory_pair,
    pack_bits,
    pack_slots,
    unpack_bits,
    validate_detections_payload,
)


def _body(n: int, blobs: bytes, header) -> bytes:
    """A frame body: the binary count n, the binary bytes and a header,
    given as bytes or as an object to write as JSON."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode()
    return struct.pack(">I", n) + blobs + header


_BIT = {"payload": {}, "type": "SAMPLE_BITS"}


def _message_of_body(size: int) -> Message:
    """A SAMPLE_BITS message whose frame body is exactly `size` bytes: its
    one binary field fills what its header leaves."""
    n = size
    for _ in range(3):
        header = json.dumps({"blobs": {"bits": n}, "payload": {}, "type": "SAMPLE_BITS"}, separators=(",", ":"))
        n = size - 4 - len(header)
    return Message("SAMPLE_BITS", {"bits": bytes(n)})


class TestFrameCodec:
    def test_hello_frame_bytes_are_fixed(self):
        # no binary fields: a zero count, then the JSON header
        body = b'\x00\x00\x00\x00{"payload":{},"type":"HELLO"}'
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
        # a stream refuses it before reading a body: this peer sends none
        # and closes, so reading one would end in TransportClosed instead
        left, right = socket.socketpair()
        with left, right:
            right.sendall(data)
            right.shutdown(socket.SHUT_WR)
            with pytest.raises(FrameError, match="cap"):
                StreamTransport(left).recv()

    def test_body_of_exactly_the_cap_passes_and_one_byte_more_is_refused(self):
        at_cap = encode_frame(_message_of_body(MAX_FRAME_BYTES))
        assert len(at_cap) == 4 + MAX_FRAME_BYTES
        with pytest.raises(FrameError, match="frame body of 16777217 bytes exceeds the 16777216 cap"):
            encode_frame(_message_of_body(MAX_FRAME_BYTES + 1))
        assert decode_frame(at_cap) == _message_of_body(MAX_FRAME_BYTES)
        # one byte more, a space after the JSON header, which JSON allows:
        # only the cap refuses it
        over = struct.pack(">I", MAX_FRAME_BYTES + 1) + at_cap[4:] + b" "
        with pytest.raises(FrameError, match="declared frame length 16777217 exceeds"):
            decode_frame(over)
        # a stream reads the frame at the cap whole, and refuses the next
        # one's length before its body
        left, right = socket.socketpair()
        writer = threading.Thread(target=right.sendall, args=(at_cap + over[:4],))
        writer.start()
        try:
            with left, right:
                stream = StreamTransport(left)
                assert stream.recv() == _message_of_body(MAX_FRAME_BYTES)
                with pytest.raises(FrameError, match="declared frame length 16777217 exceeds"):
                    stream.recv()
        finally:
            writer.join()

    @pytest.mark.parametrize(
        "body, error, match",
        [
            (_body(0, b"", b"{nope"), FrameError, "malformed"),
            # nested past the recursion limit
            (_body(0, b"", b"[" * 200_000 + b"]" * 200_000), FrameError, "malformed"),
            # past the digit limit
            (_body(0, b"", b'{"payload":{"n":' + b"9" * 5000 + b'},"type":"BYE"}'), FrameError, "malformed"),
            (_body(0, b"", b"[1]"), FrameError, "not a message object"),
            (_body(0, b"", b'{"payload":[1],"type":"BYE"}'), ProtocolError, "payload must be a JSON object"),
            # the binary fields' layout: each a FrameError
            (b"", FrameError, "truncated frame body: 0 bytes"),
            (b"\x00\x00\x00", FrameError, "truncated frame body: 3 bytes"),
            # the count runs past the body, by one byte and by far
            (_body(3, b"ab", b""), FrameError, "binary fields of 3 bytes run past the 6-byte body"),
            (_body(2**32 - 1, b"", b'{"type":"BYE"}'), FrameError, f"binary fields of {2**32 - 1} bytes run past"),
            # lengths that do not add up to the count
            (_body(2, b"ab", {**_BIT, "blobs": {"bits": 1}}), FrameError, "lengths sum to 1, not the body's 2 binary"),
            (_body(2, b"ab", {**_BIT, "blobs": {"bits": 1, "x": 2}}), FrameError, "lengths sum to 3, not the body's 2"),
            (_body(2, b"ab", _BIT), FrameError, "lengths sum to 0, not the body's 2"),
            (_body(0, b"", {**_BIT, "blobs": {"bits": 1}}), FrameError, "lengths sum to 1, not the body's 0"),
            # lengths that are not non-negative integers
            (_body(1, b"a", {**_BIT, "blobs": {"bits": -1, "x": 2}}), FrameError, "'bits' has length -1, not a non"),
            (_body(1, b"a", {**_BIT, "blobs": {"bits": True}}), FrameError, "'bits' has length True, not a non"),
            (_body(1, b"a", {**_BIT, "blobs": {"bits": 1.0}}), FrameError, "'bits' has length 1.0, not a non"),
            (_body(1, b"a", {**_BIT, "blobs": {"bits": "1"}}), FrameError, "'bits' has length '1', not a non"),
            (_body(1, b"a", {**_BIT, "blobs": {"bits": None}}), FrameError, "'bits' has length None, not a non"),
            # blobs that is not an object
            (_body(1, b"a", {**_BIT, "blobs": [1]}), FrameError, r"blobs must be an object, got \[1\]"),
            (_body(1, b"a", {**_BIT, "blobs": 1}), FrameError, "blobs must be an object, got 1"),
            # a name that is both a binary and a JSON field
            (_body(1, b"a", {"blobs": {"bits": 1}, "payload": {"bits": 5}, "type": "SAMPLE_BITS"}),
             FrameError, "field 'bits' is both a binary and a JSON field"),
            # the header behind the binary bytes is not a message object
            (_body(1, b"{", b'"type":"BYE"}'), FrameError, "malformed frame header"),
            (_body(0, b"", b"\xff"), FrameError, "malformed frame header"),
        ],
        ids=["json", "deep", "long-int", "not-an-object", "payload-not-an-object", "empty", "short-count",
             "overrun-by-one", "overrun-by-far", "short-sum", "long-sum", "no-blobs", "no-bytes", "negative", "bool",
             "float", "string", "null", "blobs-a-list", "blobs-a-number", "both-kinds", "header-split",
             "header-not-utf8"],
    )
    def test_malformed_body(self, body, error, match):
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(error, match=match):
            decode_frame(frame)
        left, right = socket.socketpair()
        with left, right:
            # the frame may exceed the socket buffer, so send while reading
            sender = threading.Thread(target=right.sendall, args=(frame,))
            sender.start()
            with pytest.raises(error, match=match):
                StreamTransport(left).recv()
            sender.join(timeout=10)
            assert not sender.is_alive()

    def test_unknown_type(self):
        body = b'\x00\x00\x00\x00{"payload":{},"type":"EVIL"}'
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

    @pytest.mark.parametrize(
        "data",
        # the last, one set bit as base-64 text, as wire version 9 sent it
        [None, 5, "not base-64!", "é", bytearray(b"\x80"), memoryview(b"\x80"), [128], base64.b64encode(b"\x80").decode()],
    )
    def test_non_base64_payload_rejected(self, data):
        # a bit array is bytes: text and other types are refused, named
        with pytest.raises(ProtocolError, match=f"^SAMPLE_BITS 'bits' must be bytes, got {re.escape(repr(data))}$"):
            unpack_bits(data, 1, "SAMPLE_BITS 'bits'")


# ---------------------------------------------------------------------------
# Property suite: random valid messages survive the codec unchanged.
# ---------------------------------------------------------------------------

_finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_scalars = st.one_of(st.integers(-(2**40), 2**40), _finite_floats, st.booleans(), st.text(max_size=12), st.none())
_flat_dict = st.dictionaries(st.text(min_size=1, max_size=8), _scalars, max_size=6)
# Top-level fields of either kind: JSON values and binary ones.
_mixed_dict = st.dictionaries(st.text(min_size=1, max_size=8), st.one_of(_scalars, st.binary(max_size=40)), max_size=8)


@st.composite
def _bit_field(draw, length):
    bits = draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    return pack_bits(bits)


@st.composite
def messages(draw):
    """A message of each type with its own fields, beside any mix of other
    JSON and binary fields."""
    kind = draw(st.sampled_from(["HELLO", "DETECTIONS", "SIFT_KEEP", "SAMPLE_REQUEST", "SAMPLE_BITS", "SUMMARY", "BYE"]))
    payload = draw(_mixed_dict)
    if kind == "HELLO":
        payload["config"] = draw(_flat_dict)
    elif kind == "DETECTIONS":
        slots = sorted(draw(st.sets(st.integers(0, 10**9), max_size=50)))
        payload.update(slots=pack_slots(slots), bases=draw(_bit_field(len(slots))))
    elif kind == "SIFT_KEEP":
        payload["keep"] = pack_slots(sorted(draw(st.sets(st.integers(0, 10**9), max_size=50))))
    elif kind == "SAMPLE_REQUEST":
        payload["positions"] = pack_slots(sorted(draw(st.sets(st.integers(0, 10**6), max_size=50))))
    elif kind == "SAMPLE_BITS":
        payload["bits"] = draw(_bit_field(draw(st.integers(0, 64))))
    elif kind == "SUMMARY":
        payload.update(draw(_flat_dict))
    return Message(kind, payload)


@settings(max_examples=1000, deadline=None)
@given(messages())
def test_frame_round_trip_property(msg):
    frame = encode_frame(msg)
    decoded = decode_frame(frame)
    assert decoded == msg
    # the binary fields come back as bytes, and the JSON header goes last
    assert all(type(decoded.payload[name]) is bytes for name, value in msg.payload.items() if isinstance(value, bytes))
    assert frame.endswith(f'"type":"{msg.type}"}}'.encode())
    binary = sum(len(v) for v in msg.payload.values() if isinstance(v, bytes))
    assert struct.unpack(">II", frame[:8]) == (len(frame) - 4, binary)


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

    def test_expect_refuses_another_type(self):
        a, b = memory_pair()
        a.send(Message("BYE", {}))
        with pytest.raises(ProtocolError, match="expected SUMMARY, got BYE"):
            expect(b, "SUMMARY")

    def test_close_wakes_receiver(self):
        a, b = memory_pair()
        a.close()
        with pytest.raises(TransportClosed):
            b.recv()

    def test_send_to_a_closed_peer_fails(self):
        # as on a socket pair: the peer's messages sent before its close
        # are still read, and a send to it fails at once
        a, b = memory_pair()
        b.send(Message("BYE", {}))
        b.close()
        with pytest.raises(TransportClosed, match="^peer closed the transport$"):
            a.send(Message("BYE", {}))
        assert a.recv() == Message("BYE", {})
        with pytest.raises(TransportClosed):
            a.recv()

    def test_ends_over_their_own_queues_follow_the_same_rules(self):
        # built without memory_pair, as a caller that counts the frames on
        # its own queues builds them
        to_b, to_a = queue.Queue(), queue.Queue()
        a, b = InMemoryTransport(to_b, to_a), InMemoryTransport(to_a, to_b)
        a.close()
        with pytest.raises(TransportClosed, match="^peer closed the transport$"):
            b.send(Message("BYE", {}))
        with pytest.raises(TransportClosed):
            b.recv()

    def test_shutdown_send_leaves_the_peer_sending(self):
        # as a socket's shutdown(SHUT_WR): the peer reads the end of the
        # stream, and can still send
        a, b = memory_pair()
        b.shutdown_send()
        a.send(Message("BYE", {}))
        assert b.recv() == Message("BYE", {})
        with pytest.raises(TransportClosed):
            a.recv()

    def test_large_detections_round_trip(self):
        a, b = memory_pair()
        slots = pack_slots(np.arange(10**5))
        bits = np.random.default_rng(0).integers(0, 2, 10**5)
        msg = Message("DETECTIONS", {"slots": slots, "bases": pack_bits(bits)})
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

    @pytest.mark.parametrize("partial", [b"", struct.pack(">I", 100) + b"partial"], ids=["nothing", "mid-frame"])
    def test_silent_peer_is_a_timeout(self, partial):
        # a TransportError of its own, not the OSError the socket raises
        left, right = socket.socketpair()
        right.sendall(partial)
        left.settimeout(0.05)
        with left, right, pytest.raises(TransportTimeout, match="recv failed: timed out"):
            StreamTransport(left).recv()


def _varints(*gaps) -> bytes:
    """LEB128 varints of the given gaps, written one byte at a time."""
    out = bytearray()
    for gap in gaps:
        while gap >= 0x80:
            out.append(gap & 0x7F | 0x80)
            gap >>= 7
        out.append(gap)
    return bytes(out)


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
        assert pack_slots([0, 128, 257]) == b"\x00\x7f\x80\x01"
        assert pack_slots([2**63 - 1]) == b"\xff" * 8 + b"\x7f"

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
            ({}, -1, "'slots' must be bytes of slot gaps, got None"),
            ({"slots": [1, 2, 5]}, -1, r"'slots' must be bytes of slot gaps, got \[1, 2, 5\]"),
            ({"slots": 7}, -1, "'slots' must be bytes of slot gaps, got 7"),
            # text, base-64 or not, as wire version 9 sent it
            ({"slots": "AA="}, -1, "'slots' must be bytes of slot gaps, got 'AA='"),
            ({"slots": "@@@@"}, -1, "'slots' must be bytes of slot gaps, got '@@@@'"),
            ({"slots": "é"}, -1, "'slots' must be bytes of slot gaps, got 'é'"),
            ({"slots": b"\x00\x80"}, -1, "ends inside a varint at 1"),
            ({"slots": b"\xff" * 3}, -1, "ends inside a varint at 0"),
            ({"slots": b"\x00" + b"\x80" * 9 + b"\x00"}, -1, "varint longer than 9 bytes at 1"),
            ({"slots": b"\x80" * 12}, -1, "ends inside a varint at 0"),
            # past the default bound, 2**63
            ({"slots": _varints(0, 0)}, 2**63 - 2, f"'slots' rises to {2**63}, not below {2**63}"),
            ({"slots": _varints(0)}, 2**63 - 1, f"rises to {2**63}, not below"),
            ({"slots": _varints(2**63 - 1)}, 5, f"rises to {2**63 + 5}, not below"),
            # the sum of these gaps is past uint64
            ({"slots": _varints(2**63 - 1, 2**63 - 1)}, -1, f"rises to {2**64 - 1}, not below"),
            # the gap varints of [0, 1, 2] as wire version 9 sent them
            ({"slots": base64.b64encode(b"\x00\x00\x00").decode()}, -1, "must be bytes of slot gaps, got 'AAAA'"),
            ({"slots": bytearray(b"\x00")}, -1, r"'slots' must be bytes of slot gaps, got bytearray\(b'\\x00'\)"),
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
    st.one_of(st.binary(max_size=40), st.text(max_size=40)),
    st.one_of(st.just(-1), st.integers(-1, 2**63 - 1)),
)
@example((b"\xff" * 8 + b"\x7f") * 2, -1)  # the uint64 sum of steps wraps to 0
@example(b"\x7f", 2**63 - 129)
def test_any_text_decodes_to_an_increasing_list_or_is_refused(data, prev):
    # any bytes; text is always refused
    try:
        slots = validate_detections_payload({"slots": data}, "slots", prev)
    except ProtocolError:
        return
    assert isinstance(data, bytes)
    assert slots.dtype == np.int64
    assert np.all(np.diff(slots, prepend=prev) > 0)


# ---------------------------------------------------------------------------
# The regime of real sessions: long lists whose gaps mostly take one byte.
# ---------------------------------------------------------------------------


@st.composite
def _sparse_slot_lists(draw):
    """A list of up to a few thousand slots whose gaps mostly lie in 0-127,
    with rare gaps of 2 to 9 varint bytes, and the cuts that chunk it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 3000))
    gaps = rng.integers(0, 0x80, n).tolist()
    for i in np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.002, 0.02, 0.2]))):
        n_bytes = int(rng.integers(2, 10))
        gaps[i] = int(rng.integers(2 ** (7 * n_bytes - 7), 2 ** min(7 * n_bytes, 63)))
    slots, slot = [], -1
    for gap in gaps:
        slot += gap + 1
        if slot > 2**63 - 1:
            break
        slots.append(slot)
    cuts = sorted(draw(st.lists(st.integers(0, len(slots)), max_size=6)))
    return slots, cuts


@settings(max_examples=200, deadline=None)
@given(_sparse_slot_lists())
def test_long_lists_of_short_gaps_match_the_reference_in_any_chunks(case):
    slots, cuts = case
    decoded, prev = [], -1
    for lo, hi in zip([0, *cuts], [*cuts, len(slots)]):
        chunk = slots[lo:hi]
        text = pack_slots(np.array(chunk, dtype=np.int64), prev)
        assert text == _varints(*(b - a - 1 for a, b in zip([prev, *chunk], chunk)))
        out = validate_detections_payload({"slots": text}, "slots", prev)
        assert out.dtype == np.int64
        decoded += out.tolist()
        prev = chunk[-1] if chunk else prev
    assert decoded == slots


def _reference_decode(raw: bytes, prev: int):
    """The slots of a gap-varint string, one byte at a time, or None
    where the decoder must refuse it."""
    slots, gap, shift, n_bytes = [], 0, 0, 0
    for byte in raw:
        gap |= (byte & 0x7F) << shift
        shift, n_bytes = shift + 7, n_bytes + 1
        if n_bytes > 9:
            return None
        if byte < 0x80:
            prev += gap + 1
            if prev > 2**63 - 1:
                return None
            slots.append(prev)
            gap, shift, n_bytes = 0, 0, 0
    return None if n_bytes else slots


@settings(max_examples=200, deadline=None)
@given(_sparse_slot_lists(), st.sampled_from([-1, 0, 2**62, 2**63 - 2**40]), st.integers(-2, 2))
def test_a_list_is_refused_exactly_when_its_last_entry_reaches_the_bound(case, prev, offset):
    slots, _ = case
    text = pack_slots(np.array(slots, dtype=np.int64))
    want = _reference_decode(text, prev)
    # a bound near the last entry, above prev and at most the int64 limit
    bound = min(max((want[-1] if want else prev) + 1 + offset, prev + 1), 2**63)
    try:
        got = validate_detections_payload({"slots": text}, "slots", prev, bound)
    except ProtocolError:
        assert want is None or want[-1] >= bound
        return
    assert got.tolist() == want and (not want or want[-1] < bound)


@settings(max_examples=300, deadline=None)
@given(
    _sparse_slot_lists(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["flip", "truncate", "both", "stretch"]),
    st.one_of(st.sampled_from([-1, 0, 2**62, 2**63 - 2**40]), st.integers(2**63 - 2**12, 2**63 - 1)),
)
def test_damaged_long_lists_decode_to_increasing_slots_or_are_refused(case, seed, damage, prev):
    slots, _ = case
    raw = bytearray(pack_slots(np.array(slots, dtype=np.int64)))
    rng = np.random.default_rng(seed)
    if damage in ("flip", "both") and raw:
        for i in rng.integers(0, len(raw), int(rng.integers(1, 8))):
            raw[i] ^= 1 << int(rng.integers(0, 8))
    if damage in ("truncate", "both"):
        raw = raw[: int(rng.integers(0, len(raw) + 1))]
    if damage == "stretch":
        # a run of continuation bytes around the 9-byte limit
        i = int(rng.integers(0, len(raw) + 1))
        raw[i:i] = b"\xff" * int(rng.integers(7, 11))
    want = _reference_decode(bytes(raw), prev)
    try:
        got = validate_detections_payload({"slots": bytes(raw)}, "slots", prev)
    except ProtocolError:
        assert want is None
        return
    assert got.tolist() == want
    assert np.all(np.diff(got, prepend=prev) > 0)
