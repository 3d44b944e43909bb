"""Classical-channel transport for the sifting conversation.

Wire format, bit-exact: a 4-byte big-endian unsigned body length, then
the body: a 4-byte big-endian unsigned count n, n bytes of binary
fields, and a UTF-8 JSON header
``{"blobs": {name: length, ...}, "payload": {...}, "type": "<TYPE>"}``.
The binary fields are the payload's top-level ``bytes`` values, joined
in sorted name order; ``blobs`` gives their lengths, and is left out
when there are none, and ``payload`` holds every other field. The
header is canonical (sorted keys, no whitespace), so equal messages give
equal bytes, and it goes last, so every frame ends ``"type":"<TYPE>"}``.
Bodies are capped at 16 MiB. Bit arrays travel as bytes, packed 8 bits
per byte, most significant bit first; slot lists, as gap varints
(pack_slots) decoded against the receiver's bound.

Two interchangeable transports are provided: an in-process pair backed
by queues, and a length-framed byte-stream transport for sockets. A
seeded session produces bit-identical results over either.
"""

from __future__ import annotations

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


class TransportTimeout(TransportError):
    """The peer sent or took nothing within the socket's timeout."""


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


def pack_bits(bits) -> bytes:
    """Bit sequence -> bytes (np.packbits order: MSB first)."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(data: bytes, n: int, what: str = "bit array") -> np.ndarray:
    """The n bits packed in `data`, which must be exactly ceil(n/8) bytes;
    anything else is a ProtocolError that names the field as `what`."""
    if not isinstance(data, bytes):
        raise ProtocolError(f"{what} must be bytes, got {data!r:.40}")
    size = -(-n // 8)
    if len(data) != size:
        rule = "too short" if len(data) < size else "too long"
        raise ProtocolError(f"{what} {rule}: {len(data)} bytes for {n} bits")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:n]


def pack_slots(slots, prev: int = -1) -> bytes:
    """Strictly increasing slots above `prev` -> gap varints, as bytes.

    Each entry is sent as its gap `slot - prev - 1`, `prev` being the
    entry before it (for the first, the argument), written as an unsigned
    LEB128 varint: 7 bits per byte, low group first, the high bit set on
    every byte but the entry's last. A gap below 2**63 takes at most 9
    bytes. The bytes travel as they are, a binary field of their frame
    (see encode_frame), and validate_detections_payload decodes them.

    Most gaps fit one byte, which is the gap itself; only the gaps of
    0x80 or more are split into groups, and their lower groups inserted
    before their last byte.
    """
    slots = np.asarray(slots, dtype=np.int64)
    if not len(slots):
        return b""
    gaps = np.empty(len(slots), dtype=np.int64)
    # The first gap in Python ints: from prev = -1 to 2**63 - 1 it is
    # 2**63 - 1, but the step to it is past int64.
    gaps[0] = int(slots[0]) - int(prev) - 1
    np.subtract(slots[1:], slots[:-1], out=gaps[1:])
    gaps[1:] -= 1
    raw = gaps.astype(np.uint8)
    long = np.flatnonzero(gaps >= 0x80)
    if len(long):
        shifted = gaps[long, None] >> np.arange(0, 63, 7)
        # The groups below an entry's highest nonzero one, its last byte.
        n_lower = np.count_nonzero(shifted[:, 1:], axis=1)
        groups = (shifted & 0x7F).astype(np.uint8)
        raw[long] = groups[np.arange(len(long)), n_lower]
        lower = np.arange(8) < n_lower[:, None]
        # np.insert keeps the order of values inserted at one index.
        raw = np.insert(raw, np.repeat(long, n_lower), groups[:, :8][lower] | 0x80)
    return raw.tobytes()


def encode_frame(message: Message) -> bytes:
    payload = message.payload
    blobs = {name: value for name, value in sorted(payload.items()) if isinstance(value, bytes)}
    header = {"payload": {name: value for name, value in payload.items() if name not in blobs}, "type": message.type}
    if blobs:
        header["blobs"] = {name: len(value) for name, value in blobs.items()}
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    n = sum(map(len, blobs.values()))
    length = 4 + n + len(text)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame body of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return b"".join((struct.pack(">II", length, n), *blobs.values(), text))


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
    """A frame body: its binary fields, then its JSON header, which says
    how the binary bytes split into fields (see the module docstring)."""
    if len(body) < 4:
        raise FrameError(f"truncated frame body: {len(body)} bytes, no binary length")
    (n,) = struct.unpack(">I", body[:4])
    if 4 + n > len(body):
        raise FrameError(f"binary fields of {n} bytes run past the {len(body)}-byte body")
    try:
        obj = json.loads(body[4 + n :].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer past the
        # interpreter's digit limit; RecursionError, nesting too deep.
        raise FrameError(f"malformed frame header: {exc}") from exc
    if not isinstance(obj, dict) or "type" not in obj:
        raise FrameError("frame header is not a message object")
    blobs = obj.get("blobs", {})
    if not isinstance(blobs, dict):
        raise FrameError(f"frame header's blobs must be an object, got {blobs!r:.40}")
    for name, size in blobs.items():
        # type(), not isinstance(): a bool is an int too.
        if type(size) is not int or size < 0:
            raise FrameError(f"binary field {name!r} has length {size!r:.40}, not a non-negative integer")
    if (total := sum(blobs.values())) != n:
        raise FrameError(f"binary field lengths sum to {total}, not the body's {n} binary bytes")
    message = Message(type=obj["type"], payload=obj.get("payload", {}))
    start = 4
    for name in sorted(blobs):
        if name in message.payload:
            raise FrameError(f"field {name!r} is both a binary and a JSON field")
        message.payload[name] = body[start : start + blobs[name]]
        start += blobs[name]
    return message


class Transport:
    """Reliable, ordered, duplex message channel."""

    def send(self, message: Message) -> None:
        raise NotImplementedError

    def recv(self) -> Message:
        raise NotImplementedError

    def close(self) -> None:
        pass


class InMemoryTransport(Transport):
    """Queue-backed endpoint; create both ends with :func:`memory_pair`.

    As on a socket, once an end closes, its peer's recv raises
    TransportClosed after the messages sent before the close, and its
    peer's send raises TransportClosed at once."""

    _CLOSE = object()

    def __init__(self, outbox: queue.Queue, inbox: queue.Queue):
        self._outbox = outbox
        self._inbox = inbox
        self._closed = False

    def send(self, message: Message) -> None:
        if self._closed:
            raise TransportClosed("transport already closed")
        if getattr(self._outbox, "reader_closed", False):
            raise TransportClosed("peer closed the transport")
        # Round trip through the frame codec so both transports exercise
        # the same validation and size limits.
        self._outbox.put(encode_frame(message))

    def recv(self) -> Message:
        item = self._inbox.get()
        if item is self._CLOSE:
            raise TransportClosed("peer closed the transport")
        return decode_frame(item)

    def shutdown_send(self) -> None:
        """Send nothing more, as a socket's shutdown(SHUT_WR) does: the
        peer's recv raises TransportClosed once it has read what was sent
        before, and the peer can still send to this end."""
        self._outbox.put(self._CLOSE)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.shutdown_send()
            # Marked on the queue that both ends hold, so that the peer's
            # send sees it however the pair was built.
            self._inbox.reader_closed = True


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
            failure = TransportTimeout if isinstance(exc, TimeoutError) else TransportClosed
            raise failure(f"send failed: {exc}") from exc

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except OSError as exc:
                failure = TransportTimeout if isinstance(exc, TimeoutError) else TransportClosed
                raise failure(f"recv failed: {exc}") from exc
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


def validate_detections_payload(payload: dict, key: str = "slots", prev: int = -1, bound: int = 2**63) -> np.ndarray:
    """Decode the slot list under `key` of one slot-carrying frame, as
    int64 (see pack_slots; `prev` is the last entry of the list's
    previous frame, -1 for the first).

    Gaps are non-negative, so a decoded list always increases strictly
    from above `prev`. A field that is missing or not bytes, a last byte
    that does not end a varint, a varint longer than 9 bytes and an entry
    at or past `bound` (the receiver's, at most the int64 limit) are
    ProtocolErrors; entries rise, so only the last is compared.

    An entry's last byte is its only byte below 0x80, so those bytes are
    the entries; only the entries with continuation bytes, found from
    those bytes alone, are rebuilt from several.
    """
    data = payload.get(key)
    if not isinstance(data, bytes):
        raise ProtocolError(f"{key!r} must be bytes of slot gaps, got {data!r:.40}")
    raw = np.frombuffer(data, dtype=np.uint8)
    cont = np.flatnonzero(raw >= 0x80)
    gaps = (raw[raw < 0x80] if len(cont) else raw).astype(np.int64)
    # Each entry is prev + the sum of (gap + 1) up to it, summed exactly.
    last = int(prev) + len(gaps) + int(gaps.sum())
    if len(cont):
        # The entry of a continuation byte is the number of last bytes
        # before it; an entry's continuation bytes are adjacent.
        entry = cont - np.arange(len(cont))
        run = np.flatnonzero(np.diff(entry, prepend=-1))
        n_cont = np.diff(run, append=len(cont))
        long = entry[run]
        too_long = long[(n_cont > 8) & (long < len(gaps))]
        if len(too_long):
            raise ProtocolError(f"{key!r} has a varint longer than 9 bytes at {too_long[0]}")
        if raw[-1] >= 0x80:
            raise ProtocolError(f"{key!r} ends inside a varint at {len(gaps)}")
        shift = np.uint64(7) * (np.arange(len(cont)) - np.repeat(run, n_cont)).astype(np.uint64)
        low = np.bitwise_or.reduceat((raw[cont] & 0x7F).astype(np.uint64) << shift, run)
        top = gaps[long].astype(np.uint64) << np.uint64(7) * n_cont.astype(np.uint64)
        # At most 9 groups of 7 bits: below 2**63, so int64 holds each one,
        # but not always their sum, which is taken in Python ints.
        full = (low | top).view(np.int64)
        last += sum(full.tolist()) - int(gaps[long].sum())
        gaps[long] = full
    if last >= bound:
        raise ProtocolError(f"{key!r} rises to {last}, not below {bound}")
    if not len(gaps):
        return gaps
    # Now every slot, and so every partial sum, fits int64.
    gaps[1:] += 1
    gaps[0] += int(prev) + 1
    return np.cumsum(gaps, out=gaps)
