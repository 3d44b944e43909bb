"""Classical-channel transport for the sifting conversation.

Wire format, bit-exact: a 4-byte big-endian unsigned length prefix
followed by a UTF-8 JSON body ``{"type": "<TYPE>", "payload": {...}}``.
Encoding is canonical (sorted keys, no whitespace) so equal messages
produce equal bytes. Frames are capped at 16 MiB. Bit arrays travel
base-64 encoded, packed 8 bits per byte, most significant bit first.
Slot lists travel base-64 encoded as gap varints (see pack_slots).

Two interchangeable transports are provided: an in-process pair backed
by queues, and a length-framed byte-stream transport for sockets. A
seeded session produces bit-identical results over either.
"""

from __future__ import annotations

import base64
import json
import queue
import socket
import struct
from dataclasses import dataclass, field

import numpy as np

MAX_FRAME_BYTES = 16 * 1024 * 1024

MESSAGE_TYPES = (
    "HELLO",
    "DETECTIONS",
    "SIFT_KEEP",
    "SAMPLE_REQUEST",
    "SAMPLE_BITS",
    "SUMMARY",
    "BYE",
)


class TransportError(Exception):
    """Base class for channel failures."""


class TransportClosed(TransportError):
    """The peer closed the channel."""


class FrameError(TransportError):
    """Malformed, oversized, or truncated frame."""


class ProtocolError(TransportError):
    """Structurally valid frame that violates the conversation contract."""


@dataclass(frozen=True)
class Message:
    type: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.type not in MESSAGE_TYPES:
            raise ProtocolError(f"unknown message type {self.type!r}")
        if not isinstance(self.payload, dict):
            raise ProtocolError("payload must be a JSON object")


def pack_bits(bits) -> str:
    """Bit sequence -> base-64 string (np.packbits order: MSB first)."""
    arr = np.asarray(bits, dtype=np.uint8)
    return base64.b64encode(np.packbits(arr).tobytes()).decode("ascii")


def unpack_bits(data: str, n: int) -> np.ndarray:
    raw = _b64_bytes(data, "bit array")
    size = -(-n // 8)
    if len(raw) != size:
        rule = "too short" if len(raw) < size else "too long"
        raise ProtocolError(f"bit array {rule}: {len(raw)} bytes for {n} bits")
    return np.unpackbits(raw)[:n]


def _b64_bytes(data, what: str) -> np.ndarray:
    try:
        return np.frombuffer(base64.b64decode(data, validate=True), dtype=np.uint8)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{what} is not base-64 text: {exc}") from exc


def pack_slots(slots, prev: int = -1) -> str:
    """Strictly increasing slots above `prev` -> base-64 gap varints.

    Each entry is sent as its gap `slot - prev - 1`, `prev` being the
    entry before it (for the first, the argument), written as an unsigned
    LEB128 varint: 7 bits per byte, low group first, the high bit set on
    every byte but the entry's last. A gap below 2**63 takes at most 9
    bytes.
    """
    slots = np.asarray(slots, dtype=np.int64)
    # int64 arithmetic wraps modulo 2**64 and every true gap lies in
    # [0, 2**63), so the gaps come out exact even from prev = -1 to 2**63 - 1.
    gaps = (np.diff(slots, prepend=np.int64(prev)) - 1).view(np.uint64)
    n_bytes = np.ones(len(gaps), dtype=np.int64)
    rest = gaps >> np.uint64(7)
    while rest.any():
        n_bytes += rest != 0
        rest >>= np.uint64(7)
    start = np.cumsum(n_bytes) - n_bytes
    raw = np.empty(n_bytes.sum(), dtype=np.uint8)
    for k in range(n_bytes.max(initial=0)):
        at = np.flatnonzero(n_bytes > k)
        more = (n_bytes[at] > k + 1).astype(np.uint8) << 7
        raw[start[at] + k] = (gaps[at] >> np.uint64(7 * k)).astype(np.uint8) & 0x7F | more
    return base64.b64encode(raw.tobytes()).decode("ascii")


def encode_frame(message: Message) -> bytes:
    body = json.dumps(
        {"type": message.type, "payload": message.payload},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame body of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return struct.pack(">I", len(body)) + body


def decode_frame(data: bytes) -> Message:
    """Decode exactly one complete frame."""
    if len(data) < 4:
        raise FrameError("truncated frame: missing length prefix")
    (length,) = struct.unpack(">I", data[:4])
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"declared frame length {length} exceeds the {MAX_FRAME_BYTES} cap")
    if len(data) != 4 + length:
        raise FrameError(f"length mismatch: prefix says {length}, body has {len(data) - 4} bytes")
    return _parse_body(data[4:])


def _parse_body(body: bytes) -> Message:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer past the
        # interpreter's digit limit; RecursionError, nesting too deep.
        raise FrameError(f"malformed frame body: {exc}") from exc
    if not isinstance(obj, dict) or "type" not in obj:
        raise FrameError("frame body is not a message object")
    return Message(type=obj["type"], payload=obj.get("payload", {}))


class Transport:
    """Reliable, ordered, duplex message channel."""

    def send(self, message: Message) -> None:
        raise NotImplementedError

    def recv(self) -> Message:
        raise NotImplementedError

    def close(self) -> None:
        pass


class InMemoryTransport(Transport):
    """Queue-backed endpoint; create both ends with :func:`memory_pair`."""

    _CLOSE = object()

    def __init__(self, outbox: queue.Queue, inbox: queue.Queue):
        self._outbox = outbox
        self._inbox = inbox
        self._closed = False

    def send(self, message: Message) -> None:
        if self._closed:
            raise TransportClosed("transport already closed")
        # Round trip through the frame codec so both transports exercise
        # the same validation and size limits.
        self._outbox.put(encode_frame(message))

    def recv(self) -> Message:
        item = self._inbox.get()
        if item is self._CLOSE:
            raise TransportClosed("peer closed the transport")
        return decode_frame(item)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(self._CLOSE)


def memory_pair() -> tuple[InMemoryTransport, InMemoryTransport]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return InMemoryTransport(a_to_b, b_to_a), InMemoryTransport(b_to_a, a_to_b)


class StreamTransport(Transport):
    """Framed transport over a connected socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, message: Message) -> None:
        try:
            self._sock.sendall(encode_frame(message))
        except OSError as exc:
            raise TransportClosed(f"send failed: {exc}") from exc

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except OSError as exc:
                raise TransportClosed(f"recv failed: {exc}") from exc
            if not chunk:
                raise TransportClosed("peer closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> Message:
        header = self._read_exact(4)
        (length,) = struct.unpack(">I", header)
        if length > MAX_FRAME_BYTES:
            raise FrameError(f"declared frame length {length} exceeds the {MAX_FRAME_BYTES} cap")
        return _parse_body(self._read_exact(length))

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def expect(transport: Transport, expected_type: str) -> Message:
    """Receive and require a specific message type."""
    msg = transport.recv()
    if msg.type != expected_type:
        raise ProtocolError(f"expected {expected_type}, got {msg.type}")
    return msg


def validate_detections_payload(payload: dict, key: str = "slots", prev: int = -1) -> np.ndarray:
    """Decode the slot list under `key` of one slot-carrying frame, as
    int64 (see pack_slots; `prev` is the last entry of the list's
    previous frame, -1 for the first).

    Gaps are non-negative, so a decoded list always increases strictly
    from above `prev`. A field that is missing, not a string or not
    base-64, a last byte that does not end a varint, a varint longer than
    9 bytes and a slot past 2**63 - 1 are ProtocolErrors naming the entry.
    """
    text = payload.get(key)
    if not isinstance(text, str):
        raise ProtocolError(f"{key!r} must be a base-64 string of slot gaps, got {text!r:.40}")
    raw = _b64_bytes(text, f"{key!r}")
    ends = np.flatnonzero(raw < 0x80)
    lengths = np.diff(ends, prepend=-1)
    too_long = np.flatnonzero(lengths > 9)
    if len(too_long):
        raise ProtocolError(f"{key!r} has a varint longer than 9 bytes at {too_long[0]}")
    if len(raw) and raw[-1] >= 0x80:
        raise ProtocolError(f"{key!r} ends inside a varint at {len(ends)}")
    if not len(ends):
        return np.empty(0, dtype=np.int64)
    starts = ends - lengths + 1
    gaps = (raw[starts] & 0x7F).astype(np.uint64)
    for k in range(1, lengths.max()):
        at = np.flatnonzero(lengths > k)
        gaps[at] |= (raw[starts[at] + k] & 0x7F).astype(np.uint64) << np.uint64(7 * k)
    # steps = slot - prev per entry; the uint64 cumsum can wrap past 2**64,
    # which shows as a step that does not increase.
    steps = np.cumsum(gaps + np.uint64(1))
    bad = steps > np.uint64(2**63 - 1 - int(prev))
    bad[1:] |= steps[1:] <= steps[:-1]
    if bad.any():
        raise ProtocolError(f"{key!r} has a slot past 2**63 - 1 at {np.argmax(bad)}")
    return (steps - np.uint64(1)).astype(np.int64) + np.int64(prev + 1)
