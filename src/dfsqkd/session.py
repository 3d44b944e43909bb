"""Time-slotted end-to-end simulation and the two-party sifting protocol.

One session walks a 100 kHz clock: each slot may carry photon pairs
(Poisson), Alice encodes on pair slots, the channel angle is sampled per
pair slot, Bob measures, and the detector layer decides coincidences. The
classical conversation (detection declaration, basis sifting, error
test, summary) then runs over a Transport pair, so the same code drives
both the in-process mode and the two-process networked mode. It ends
with Alice's SUMMARY, which carries only what Bob cannot count: her
error count on the disclosed sample and the multi-pair fraction of the
coincidences. Bob builds the rest of his summary from his own counts,
through the same qber_report and finalize as Alice.

All randomness comes from four seeded streams. The engine consumes them
in a fixed, documented order, which is what makes identical configs give
bit-identical sessions:

* source: geometric gaps between pair slots, GAP_BATCH per draw, until
  one batch passes the last slot; then one count uniform per pair slot
  (the pair count, from the Poisson law truncated at zero); then one
  outcome uniform per pair slot; then the detector draws (2 efficiency +
  4 dark uniforms per pair slot). Time and memory grow with pair slots,
  not clock slots;
* alice: x bits, then y bits (one batch each over pair slots), then the
  error-test sample positions;
* bob: z bits over pair slots;
* channel: per pair slot, nothing on a static channel, one uniform on a
  per-slot uniform one, one normal step (scaled by the square root of
  the gap from the previous pair slot, or from slot 0) on a random walk.

Networked mode simulates the quantum side on Alice's process and streams
Bob's measurement records to him as DETECTIONS that also carry his
"bits"; everything after that is identical in both modes. Every slot
list (that stream, Bob's declaration, SIFT_KEEP, SAMPLE_REQUEST) goes as
validated frames of at most SLOT_CHUNK entries, the last flagged "final",
and each entry must lie below a bound the receiver knows (_recv_slots).
Inside a frame the entries travel as one base-64 string of gap varints
(transport.pack_slots): the first gap counts from the previous frame's
last entry, so a decoded list always increases strictly, across frames
too.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import protocol, transport as tp
from .optics import ConfigError, DetectorParams, StaticChannel, channel_from_dict, detect_batch, require_finite
from .protocol import (
    BB84_PORT_BIT,
    OUTCOME_BIT,
    KeyRateResult,
    QberReport,
    key_rate,
    qber_report,
    sample_positions,
)
from .transport import Message, Transport, expect, memory_pair, pack_bits, pack_slots, unpack_bits

# Version of the conversation's wire format and of the draw order, checked
# in HELLO.
WIRE_VERSION = 5
# Entries of a slot list per frame.
SLOT_CHUNK = 100_000
# Geometric gaps per draw of the source stream.
GAP_BATCH = 1 << 16
# Pair slots per Born-kernel call on a channel whose angle varies.
BORN_BLOCK = 1 << 16


class HandshakeMismatch(RuntimeError):
    """The two endpoints disagree on the session configuration."""


@dataclass(frozen=True)
class Seeds:
    alice: int = 1
    bob: int = 2
    channel: int = 3
    source: int = 4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigError(f"seed {f.name!r} must be a non-negative integer, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SessionConfig:
    protocol: str = "dfs2"
    clock_hz: float = 1e5
    pair_rate_hz: float = 4000.0
    duration_s: float = 50.0
    visibility: float = 0.88
    channel: object = field(default_factory=lambda: StaticChannel(0.0))
    detectors: DetectorParams = field(default_factory=DetectorParams)
    sample_fraction: float = 0.1
    seeds: Seeds = field(default_factory=Seeds)

    def __post_init__(self):
        require_finite(self, "clock_hz", "pair_rate_hz", "duration_s", "visibility", "sample_fraction")
        if self.protocol not in protocol.PROTOCOLS:
            raise ConfigError(f"protocol must be one of {protocol.PROTOCOLS}, got {self.protocol!r}")
        if self.clock_hz <= 0:
            raise ConfigError(f"clock_hz must be positive, got {self.clock_hz}")
        if self.pair_rate_hz < 0:
            raise ConfigError(f"pair_rate_hz must be >= 0, got {self.pair_rate_hz}")
        if self.duration_s <= 0:
            raise ConfigError(f"duration_s must be positive, got {self.duration_s}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ConfigError(f"visibility must be in [0, 1], got {self.visibility}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(f"sample_fraction must be in (0, 1], got {self.sample_fraction}")
        if self.pair_rate_hz / self.clock_hz >= 1.0:
            raise ConfigError(
                f"mean pairs per slot must stay below 1, got {self.pair_rate_hz / self.clock_hz}"
            )

    @property
    def mean_pairs_per_slot(self) -> float:
        return self.pair_rate_hz / self.clock_hz

    @property
    def n_slots(self) -> int:
        return int(math.floor(self.clock_hz * self.duration_s))

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "clock_hz": float(self.clock_hz),
            "pair_rate_hz": float(self.pair_rate_hz),
            "duration_s": float(self.duration_s),
            "visibility": float(self.visibility),
            "channel": self.channel.to_dict(),
            "detectors": self.detectors.to_dict(),
            "sample_fraction": float(self.sample_fraction),
            "seeds": self.seeds.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SessionConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(d)
        sections = {
            "channel": channel_from_dict,
            "detectors": DetectorParams.from_dict,
            "seeds": lambda seeds: Seeds(**seeds),
        }
        for key, parse in sections.items():
            if key not in kwargs:
                continue
            if not isinstance(kwargs[key], dict):
                raise ConfigError(f"config field {key!r} must be a JSON object")
            try:
                kwargs[key] = parse(kwargs[key])
            except KeyError as exc:
                raise ConfigError(f"config field {key!r} is missing {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config field {key!r}: {exc}") from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class SessionSummary:
    n_slots: int
    n_coincidences: int
    n_sifted: int
    raw_rate_hz: float
    sifted_rate_hz: float
    qber: QberReport
    key_rate: KeyRateResult
    multi_pair_fraction: float
    final_key_bits: int

    def to_dict(self) -> dict:
        return {
            "n_slots": self.n_slots,
            "n_coincidences": self.n_coincidences,
            "n_sifted": self.n_sifted,
            "raw_rate_hz": self.raw_rate_hz,
            "sifted_rate_hz": self.sifted_rate_hz,
            "qber": self.qber.to_dict(),
            "key_rate": self.key_rate.to_dict(),
            "multi_pair_fraction": self.multi_pair_fraction,
            "final_key_bits": self.final_key_bits,
        }


# --------------------------------------------------------------------------
# Quantum-side engine
# --------------------------------------------------------------------------


@dataclass
class SimulationResult:
    """Arrays over pair slots (slots with at least one generated pair).

    Detector arrays are meaningful where coinc is true. alice_rng is the
    live stream to continue drawing from for the error test.
    """

    pair_slots: np.ndarray
    n_pairs: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    coinc: np.ndarray
    det1: np.ndarray
    det2: np.ndarray
    bob_bits: np.ndarray
    multi_pair: np.ndarray
    alice_rng: np.random.Generator

    def coincidence_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(slots, z, bits, multi_pair) restricted to coincidences."""
        m = self.coinc
        return self.pair_slots[m], self.z[m], self.bob_bits[m], self.multi_pair[m]


def _draw_pair_slots(rng: np.random.Generator, mu: float, n_slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair slots and their pair counts by the skip method (Devroye, 1986),
    which has the joint law of one Poisson(mu) count per clock slot. The
    gaps between pair slots are geometric with p = 1 - e^-mu, drawn
    GAP_BATCH at a time until a batch passes n_slots. Each pair slot's
    count is Poisson(mu) given at least one pair, by inverse CDF on one
    uniform."""
    if mu == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    p = -math.expm1(-mu)
    batches, last = [], -1
    while last < n_slots:
        # Any gap past n_slots ends the list; the cap keeps the sum in int64.
        batches.append(last + np.cumsum(np.minimum(rng.geometric(p, GAP_BATCH), n_slots + 1)))
        last = batches[-1][-1]
    slots = np.concatenate(batches)
    slots = slots[: np.searchsorted(slots, n_slots)]
    # P(count = n | count >= 1) for n = 1, 2, ... until a term is below rounding
    terms = [mu * math.exp(-mu) / p]
    while terms[-1] > 1e-17:
        terms.append(terms[-1] * mu / (len(terms) + 1))
    cdf = np.cumsum(terms)
    counts = 1 + np.searchsorted(cdf, rng.random(len(slots)), side="right")
    return slots, np.minimum(counts, len(cdf))


def _born_probs(
    cfg: SessionConfig, x: np.ndarray, y: np.ndarray, z: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """The protocol's Born kernel per pair slot.

    On a static channel every pair slot sees one angle, so the kernel runs
    once on the 8 (x, y, z) symbols and each slot reads row 4x + 2y + z.
    Otherwise it runs over BORN_BLOCK rows at a time, which bounds the
    kernel's temporaries. Each row is computed on its own, so both give
    the values of one call over every pair slot.
    """
    # Looked up on the module at each call, so that a span recorder that
    # replaces these attributes (perfbench/spans.py) sees the calls.
    kernel = protocol.dfs2_probs_batch if cfg.protocol == "dfs2" else protocol.bb84_port1_batch
    if isinstance(cfg.channel, StaticChannel):
        s = np.arange(8)
        table = kernel(s >> 2, (s >> 1) & 1, s & 1, np.full(8, float(cfg.channel.theta)), cfg.visibility)
        return table[4 * x + 2 * y + z]
    blocks = [slice(i, i + BORN_BLOCK) for i in range(0, len(x), BORN_BLOCK)] or [slice(0, 0)]
    return np.concatenate([kernel(x[b], y[b], z[b], theta[b], cfg.visibility) for b in blocks])


def simulate_quantum(cfg: SessionConfig) -> SimulationResult:
    """Run the quantum side of a session (see module docstring for the
    exact stream-consumption order)."""
    rng_alice = np.random.default_rng(cfg.seeds.alice)
    rng_bob = np.random.default_rng(cfg.seeds.bob)
    rng_channel = np.random.default_rng(cfg.seeds.channel)
    rng_source = np.random.default_rng(cfg.seeds.source)

    pair_slots, n_pairs = _draw_pair_slots(rng_source, cfg.mean_pairs_per_slot, cfg.n_slots)
    k = len(pair_slots)

    x = rng_alice.integers(0, 2, size=k)
    y = rng_alice.integers(0, 2, size=k)
    z = rng_bob.integers(0, 2, size=k)
    theta = cfg.channel.sampler().sample_batch(pair_slots, rng_channel)

    u = rng_source.random(k)
    probs = _born_probs(cfg, x, y, z, theta)
    if cfg.protocol == "dfs2":
        cum = np.cumsum(probs, axis=1)
        outcome = np.minimum((cum < u[:, None]).sum(axis=1), 3)
    else:
        # Photon 2 is the heralding trigger on D3; photon 1's port decides.
        outcome = 2 * (u >= probs).astype(np.int64)

    coinc, det1, det2 = detect_batch(outcome, cfg.detectors, rng_source)

    if cfg.protocol == "dfs2":
        bob_bits = OUTCOME_BIT[((det1 - 1) << 1) | (det2 - 3)]
    else:
        bob_bits = BB84_PORT_BIT[z, det1 - 1]

    return SimulationResult(
        pair_slots=pair_slots,
        n_pairs=n_pairs,
        x=x,
        y=y,
        z=z,
        theta=theta,
        coinc=coinc,
        det1=det1,
        det2=det2,
        bob_bits=bob_bits,
        multi_pair=n_pairs >= 2,
        alice_rng=rng_alice,
    )


def finalize(
    cfg: SessionConfig,
    n_coincidences,
    n_sifted,
    report: QberReport,
    multi_pair_fraction: float,
) -> SessionSummary:
    """Assemble the summary from the bookkeeping counts."""
    if report.qber is None:
        kr = KeyRateResult(qber_in=None, rate=0.0, secure=False)
    else:
        kr = key_rate(report.qber)
    if kr.secure:
        final_bits = (n_sifted - report.n_compared) * kr.rate
        final_bits = int(final_bits) if isinstance(n_sifted, int) else final_bits
    else:
        final_bits = 0 if isinstance(n_sifted, int) else 0.0
    return SessionSummary(
        n_slots=cfg.n_slots,
        n_coincidences=n_coincidences,
        n_sifted=n_sifted,
        raw_rate_hz=n_coincidences / cfg.duration_s,
        sifted_rate_hz=n_sifted / cfg.duration_s,
        qber=report,
        key_rate=kr,
        multi_pair_fraction=multi_pair_fraction,
        final_key_bits=final_bits,
    )


# --------------------------------------------------------------------------
# The two-party conversation
# --------------------------------------------------------------------------


@dataclass
class EndpointResult:
    summary: SessionSummary
    sifted_key: np.ndarray
    kept_slots: np.ndarray
    disclosed_positions: np.ndarray


_ABSENT = object()


def _differing_keys(ours, theirs, path: str = "") -> list[str]:
    """Dotted paths of the config entries that differ between two dicts
    (an entry only one side has differs too)."""
    if not (isinstance(ours, dict) and isinstance(theirs, dict)):
        return [] if ours == theirs else [path or "config"]
    diffs = []
    for key in sorted(set(ours) | set(theirs)):
        sub = f"{path}.{key}" if path else key
        diffs += _differing_keys(ours.get(key, _ABSENT), theirs.get(key, _ABSENT), sub)
    return diffs


def _hello_exchange(cfg: SessionConfig, link: Transport) -> None:
    ours = {"config": cfg.to_dict(), "wire_version": WIRE_VERSION}
    link.send(Message("HELLO", ours))
    theirs = expect(link, "HELLO").payload
    if theirs != ours:
        keys = ", ".join(_differing_keys(ours, theirs))
        raise HandshakeMismatch(f"peer handshake differs from ours in: {keys}")


def _send_slots(link: Transport, kind: str, key: str, slots: np.ndarray, **bits: np.ndarray) -> None:
    """Send a sorted slot list as `kind` frames of at most SLOT_CHUNK
    entries under `key`, as gap varints that continue from the previous
    frame's last entry, each with its share of the named bit arrays
    packed alongside. The last frame (the only one for an empty list)
    carries final: true."""
    n = len(slots)
    for start in range(0, max(n, 1), SLOT_CHUNK):
        chunk = slice(start, start + SLOT_CHUNK)
        payload = {name: pack_bits(b[chunk]) for name, b in bits.items()}
        prev = slots[start - 1] if start else -1
        payload.update({key: pack_slots(slots[chunk], prev), "final": start + SLOT_CHUNK >= n})
        link.send(Message(kind, payload))


def _recv_slots(link: Transport, kind: str, key: str, bound: int, *bit_names: str) -> tuple[np.ndarray, ...]:
    """Receive a slot list sent by _send_slots, decoding and validating
    every frame. Every entry must lie below `bound`, and only the final
    frame may be empty, so a peer that never sends one can send at most
    `bound` entries. Returns the slots, then each named bit array."""
    frames = []
    prev, n = -1, 0
    while True:
        payload = expect(link, kind).payload
        slots = tp.validate_detections_payload(payload, key, prev)
        if len(slots) and slots[-1] >= bound:
            i = int(np.searchsorted(slots, bound))
            raise tp.ProtocolError(f"{kind} {key!r} entry {slots[i]} at {n + i} is not below {bound}")
        frames.append([slots] + [unpack_bits(payload.get(name), len(slots)) for name in bit_names])
        if payload.get("final"):
            return tuple(np.concatenate(column) for column in zip(*frames))
        if not len(slots):
            raise tp.ProtocolError(f"{kind} {key!r} frame is empty but not final")
        prev, n = slots[-1], n + len(slots)


def _end(slots: np.ndarray) -> int:
    """One past the last entry of a sorted slot list, 0 for an empty one."""
    return int(slots[-1]) + 1 if len(slots) else 0


def _indices_in(known: np.ndarray, slots: np.ndarray, complaint: str) -> np.ndarray:
    """Index of each slot in the sorted array `known`; a slot that `known`
    lacks is a ProtocolError that names it."""
    idx = np.searchsorted(known, slots)
    # The -1 past the end matches no slot, since slots are non-negative.
    missing = np.flatnonzero(np.append(known, -1)[idx] != slots)
    if len(missing):
        raise tp.ProtocolError(f"{complaint}: slot {slots[missing[0]]}")
    return idx


def alice_sift_exchange(
    link: Transport, pair_slots: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Alice's half of sifting: receive Bob's declaration (slots and
    bases), reply with the slots whose bases match hers, and build her
    sifted key. Returns (alice key, kept slots)."""
    decl_slots, decl_z = _recv_slots(link, "DETECTIONS", "slots", _end(pair_slots), "bases")
    idx = _indices_in(pair_slots, decl_slots, "peer declared a detection in a slot without pairs")
    keep_mask = x[idx] == decl_z
    kept_slots = decl_slots[keep_mask]
    _send_slots(link, "SIFT_KEEP", "keep", kept_slots)
    return y[idx][keep_mask].astype(np.uint8), kept_slots


def bob_sift_exchange(
    link: Transport, slots: np.ndarray, z: np.ndarray, bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's half of sifting: declare every coincidence with its basis,
    then keep the slots Alice confirms. Returns (bob key, kept slots)."""
    _send_slots(link, "DETECTIONS", "slots", slots, bases=z)
    (kept_slots,) = _recv_slots(link, "SIFT_KEEP", "keep", _end(slots))
    pos_in_decl = _indices_in(slots, kept_slots, "peer kept a slot we never declared")
    return bits[pos_in_decl].astype(np.uint8), kept_slots


def run_alice_endpoint(cfg: SessionConfig, link: Transport) -> EndpointResult:
    """Alice's whole session: simulate the quantum side, stream Bob's
    records to him, then run sifting and the error test."""
    _hello_exchange(cfg, link)

    sim = simulate_quantum(cfg)
    c_slots, c_z, c_bits, c_multi = sim.coincidence_view()
    _send_slots(link, "DETECTIONS", "slots", c_slots, bases=c_z, bits=c_bits)

    alice_key, kept_slots = alice_sift_exchange(link, sim.pair_slots, sim.x, sim.y)
    n_sifted = len(alice_key)
    n_coinc = len(c_slots)

    positions = (
        sample_positions(n_sifted, cfg.sample_fraction, sim.alice_rng)
        if n_sifted
        else np.empty(0, dtype=np.int64)
    )
    _send_slots(link, "SAMPLE_REQUEST", "positions", positions)
    sample = expect(link, "SAMPLE_BITS")
    bob_sample = unpack_bits(sample.payload.get("bits"), len(positions))
    n_errors = int(np.count_nonzero(alice_key[positions] != bob_sample))
    report = qber_report(len(positions), n_errors)

    multi_fraction = float(c_multi.sum() / n_coinc) if n_coinc else 0.0
    summary = finalize(cfg, n_coinc, n_sifted, report, multi_fraction)
    link.send(Message("SUMMARY", {"n_errors": n_errors, "multi_pair_fraction": multi_fraction}))
    expect(link, "BYE")
    return EndpointResult(summary, alice_key, kept_slots, positions)


def run_bob_endpoint(cfg: SessionConfig, link: Transport) -> EndpointResult:
    """Bob's whole session: receive measurement records, declare them,
    sift, answer the error test, and build the summary from his own
    counts and Alice's SUMMARY."""
    _hello_exchange(cfg, link)

    slots, z, bits = _recv_slots(link, "DETECTIONS", "slots", cfg.n_slots, "bases", "bits")
    bob_key, kept_slots = bob_sift_exchange(link, slots, z, bits)

    (positions,) = _recv_slots(link, "SAMPLE_REQUEST", "positions", len(bob_key))
    link.send(Message("SAMPLE_BITS", {"bits": pack_bits(bob_key[positions])}))

    n_errors, multi_fraction = _summary_fields(expect(link, "SUMMARY").payload, len(positions))
    report = qber_report(len(positions), n_errors)
    summary = finalize(cfg, len(slots), len(bob_key), report, multi_fraction)
    link.send(Message("BYE", {}))
    return EndpointResult(summary, bob_key, kept_slots, positions)


def _summary_fields(payload: dict, n_compared: int) -> tuple[int, float]:
    """Alice's error count on the `n_compared` disclosed bits and her
    multi-pair fraction, the two numbers Bob cannot count himself. A
    missing or extra field, or a value of the wrong type or out of range,
    is a ProtocolError that names the field."""
    for name in ("n_errors", "multi_pair_fraction"):
        if name not in payload:
            raise tp.ProtocolError(f"SUMMARY lacks the field {name!r}")
    unknown = sorted(set(payload) - {"n_errors", "multi_pair_fraction"})
    if unknown:
        raise tp.ProtocolError(f"SUMMARY has an unknown field {unknown[0]!r}")
    n_errors, fraction = payload["n_errors"], payload["multi_pair_fraction"]
    # type(), not isinstance(): a bool is an int too. NaN fails every range.
    if type(n_errors) is not int or not 0 <= n_errors <= n_compared:
        raise tp.ProtocolError(f"SUMMARY n_errors must be an integer in [0, {n_compared}], got {n_errors!r:.40}")
    if type(fraction) not in (int, float) or not 0 <= fraction <= 1:
        raise tp.ProtocolError(f"SUMMARY multi_pair_fraction must be a number in [0, 1], got {fraction!r:.40}")
    return n_errors, float(fraction)


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------


def run_session_detailed(
    cfg: SessionConfig, link: Optional[tuple[Transport, Transport]] = None
) -> tuple[EndpointResult, EndpointResult]:
    """Run both endpoints over a transport pair (in-process by default)."""
    if link is None:
        link = memory_pair()
    alice_link, bob_link = link

    bob_result: list[EndpointResult] = []
    bob_error: list[BaseException] = []

    def bob_main():
        try:
            bob_result.append(run_bob_endpoint(cfg, bob_link))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            bob_error.append(exc)
            bob_link.close()  # unblock Alice instead of deadlocking her recv

    thread = threading.Thread(target=bob_main, name="bob-endpoint")
    thread.start()
    alice = None
    alice_error: Optional[BaseException] = None
    try:
        alice = run_alice_endpoint(cfg, alice_link)
    except BaseException as exc:  # noqa: BLE001 - re-raised below
        alice_error = exc
    finally:
        alice_link.close()
        thread.join()
        bob_link.close()
    # Bob's failure is usually the root cause (Alice then just sees the
    # channel drop), so report it first -- unless all Bob saw was the
    # channel drop that Alice's own failure caused.
    if bob_error and not (alice_error is not None and isinstance(bob_error[0], tp.TransportClosed)):
        raise bob_error[0]
    if alice_error is not None:
        raise alice_error
    bob = bob_result[0]
    if alice.summary.to_dict() != bob.summary.to_dict():
        raise RuntimeError("session summaries disagree between endpoints")
    return alice, bob


def run_session(cfg: SessionConfig, link: Optional[tuple[Transport, Transport]] = None) -> SessionSummary:
    alice, _bob = run_session_detailed(cfg, link)
    return alice.summary


# --------------------------------------------------------------------------
# Infinite-shot limit
# --------------------------------------------------------------------------


def exact_session_summary(cfg: SessionConfig) -> SessionSummary:
    """Expected-value summary with sampling replaced by Born-rule
    arithmetic. Counts become expected values (floats).

    Only defined for a static channel and dark-count-free detectors.
    """
    if not isinstance(cfg.channel, StaticChannel):
        raise ConfigError("exact mode requires a static channel")
    if cfg.detectors.dark_count_prob != 0.0:
        raise ConfigError("exact mode requires dark_count_prob = 0")

    mu = cfg.mean_pairs_per_slot
    n_slots = cfg.n_slots
    p_pair = 1.0 - math.exp(-mu)
    p_coinc = p_pair * cfg.detectors.efficiency**2
    n_coinc = n_slots * p_coinc
    n_sifted = n_coinc / 2.0

    if n_coinc == 0.0:
        report = QberReport(0, 0, None, None)
        return finalize(cfg, 0.0, 0.0, report, 0.0)

    qber = protocol.exact_qber(cfg.protocol, cfg.channel.theta, cfg.visibility)
    n_compared = cfg.sample_fraction * n_sifted
    report = QberReport(
        n_compared=n_compared, n_errors=qber * n_compared, qber=qber, stderr=0.0
    )
    multi_fraction = (1.0 - math.exp(-mu) * (1.0 + mu)) / p_pair
    return finalize(cfg, n_coinc, n_sifted, report, multi_fraction)
