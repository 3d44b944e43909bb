"""Time-slotted end-to-end simulation and the two-party sifting protocol.

One session walks a 100 kHz clock: each slot may carry photon pairs
(Poisson), Alice encodes on pair slots, the channel angle is sampled per
pair slot where the outcome law depends on it, Bob measures, and the
detector layer decides coincidences. The classical conversation
(detection declaration, basis sifting, error test, summary) then runs
over a Transport pair, so the same code drives both the in-process mode
and the two-process networked mode. It ends with Alice's SUMMARY, which
carries only what Bob cannot count: her error count on the disclosed
sample and the multi-pair fraction of the slots he declared (for an
honest Bob, his coincidences). Bob builds the rest of his summary from
his own counts, through the same qber_report and finalize as Alice.

All randomness comes from four seeded streams. The engine consumes them
in a fixed, documented order, counted in raw 64-bit words of each
stream's PCG64, which is what makes identical configs give bit-identical
sessions:

* source: one word per geometric gap between pair slots, up to and
  including the gap that passes the last slot (_draw_pair_slots); then
  one word per pair slot, the multi-pair uniform (whether its count,
  from the Poisson law truncated at zero, is 2 or more: _multi_pair);
  then one word per pair slot, the outcome uniform, drawn a block of
  BORN_BLOCK pair slots at a time as each block is decided (_outcomes),
  which takes the same words in the same order as one draw of them all
  (each uniform is (w >> 11) 2^-53 of its word w, as Generator.random
  gives it); then, only when the detectors are not ideal (efficiency < 1
  or dark_count_prob > 0), six words per pair slot for the detector
  draws (2 efficiency + 4 dark uniforms). Ideal detectors draw nothing:
  every pair slot is a coincidence on the outcome's detector pair.
  Nothing draws from the source stream after them, so skipping them
  moves no other draw. Time and memory grow with pair slots, not clock
  slots;
* alice: ceil(k/64) words of x bits, then ceil(k/64) words of y bits,
  for k pair slots (_bits); then the error-test sample positions, drawn
  by numpy's Generator.choice;
* bob: ceil(k/64) words of z bits;
* channel: per pair slot, nothing on a static channel, one uniform (one
  word) on a per-slot uniform one, one normal step (numpy's ziggurat:
  one word, now and then more; scaled by the square root of the gap from
  the previous pair slot, or from slot 0) on a random walk. When the
  protocol's outcome law has no angle terms (dfs2, see _outcomes) the
  channel draws nothing on any model. Nothing else reads the channel
  stream, so skipping its draws moves no other draw.

Each endpoint runs the quantum side itself, from the config and seeds
that HELLO shows both hold, and draws only what it reads
(simulate_quantum's `reader`), by the order above. Both start from the
prefix that they draw alike (_draw_prefix): the pair slots, then x and
y. Each then sets its own source and alice streams where that prefix
leaves them by word count, with bit_generator.advance, not by drawing
again: the source stream k + 1 words on for the gaps (none when the
pair rate is 0), and the alice stream 2 ceil(k/64) words on.

* Alice draws the multi-pair uniforms, and later her error-test sample.
  She runs no Born kernel and no detector layer, and counts the
  multi-pair flags of the slots Bob declares as she looks them up;
* Bob moves the source stream k words further, past the multi-pair
  words, instead of drawing them, then draws z, the channel's and the
  outcome uniforms and, for lossy detectors, the detector words. Under
  ideal detectors his declaration is every pair slot with its basis,
  known before any outcome, so he sends it as soon as it is drawn and
  decides his outcomes while Alice looks it up: his bits are not needed
  until SIFT_KEEP arrives. With lossy detectors the declaration waits
  for detect_batch.

Over TCP each endpoint draws the prefix itself. In-process,
run_session_detailed draws it once and hands it to both endpoints,
which then run as over TCP, each on its own thread.

The conversation is the paper's: Bob declares his coincidences and bases
(DETECTIONS), Alice says which to keep, and a sample of the key is
disclosed. Every list goes by one rule (_frames): frames of exactly
SLOT_CHUNK entries, then one shorter, possibly empty, that ends it. A
slot list (the declaration, SAMPLE_REQUEST) travels as gap varints
(transport.pack_slots), each frame's first gap counted from the
previous frame's last entry, so a decoded list always increases
strictly. Its receiver takes it one frame at a time (_recv_slots),
refusing an entry at or past its bound and a frame of more than
SLOT_CHUNK entries, and never holds the whole list: Alice looks up each
declaration frame as it arrives and keeps only its keep bits and its
share of her key; Bob answers each SAMPLE_REQUEST frame with its share
of his key, and refuses a request of any length but the agreed sample
size.

The bits that answer a list (Alice's keep bit per declared slot, Bob's
SAMPLE_BITS per position) go frame for frame with it once the whole
list has come, so neither side sends while the other is still sending,
and their receiver knows how many frames and bits to expect.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import protocol, transport as tp
from .optics import (
    ConfigError,
    DetectorParams,
    RandomWalkChannel,
    StaticChannel,
    channel_from_dict,
    detect_batch,
    require_finite,
)
from .protocol import (
    BB84_PORT_BIT,
    OUTCOME_BIT,
    KeyRateResult,
    QberReport,
    key_rate,
    qber_report,
    sample_positions,
    sample_size,
)
from .transport import Message, Transport, expect, memory_pair, pack_bits, pack_slots, unpack_bits

# Version of the conversation's wire format and of the draw order, checked
# in HELLO.
WIRE_VERSION = 10
# Entries of a full frame of a list.
SLOT_CHUNK = 100_000
# Most geometric gaps per draw of the source stream, and multi-pair
# uniforms per block (_multi_pair).
GAP_BATCH = 1 << 16
# Pair slots per block of outcome decisions (_outcomes), on every channel.
# In-process, Bob's blocks overlap Alice's lookups in one heap.
BORN_BLOCK = 1 << 14


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
        # Slots are int64 in the engine and on the wire.
        slots = self.clock_hz * self.duration_s
        if not math.isfinite(slots) or math.floor(slots) >= 2**63 - 1:
            raise ConfigError(f"clock_hz * duration_s must give fewer than 2**63 - 1 slots, got {slots}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ConfigError(f"visibility must be in [0, 1], got {self.visibility}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(f"sample_fraction must be in (0, 1], got {self.sample_fraction}")
        if self.pair_rate_hz / self.clock_hz >= 1.0:
            raise ConfigError(
                f"mean pairs per slot must stay below 1, got {self.pair_rate_hz / self.clock_hz}"
            )
        walk = self.channel
        if isinstance(walk, RandomWalkChannel) and not protocol.angle_free(self.protocol):
            # A step is a normal below 13.71 in size (numpy's ziggurat takes
            # its tail from the log of a 53-bit uniform) times step_sigma and
            # the root of its gap, and the roots of the gaps sum to at most
            # n_slots. So every angle is at most the bound below times the
            # rounding of its sum, a factor under 2 for fewer than 2**52 pair
            # slots (far more than fit in memory), and stays finite.
            if not abs(float(walk.theta0)) + 14 * float(walk.step_sigma) * self.n_slots <= sys.float_info.max / 2:
                raise ConfigError(
                    f"step_sigma {math.degrees(walk.step_sigma):g} deg over {self.n_slots} slots"
                    " takes the random walk past the float range"
                )

    @property
    def mean_pairs_per_slot(self) -> float:
        return self.pair_rate_hz / self.clock_hz

    @property
    def n_slots(self) -> int:
        return int(math.floor(self.clock_hz * self.duration_s))

    def to_dict(self) -> dict:
        # The channel's dict form gives its angles in degrees.
        return {**asdict(self), "channel": self.channel.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "SessionConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(d)
        sections = {
            "channel": channel_from_dict,
            "detectors": lambda detectors: DetectorParams(**detectors),
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
        return asdict(self)


# --------------------------------------------------------------------------
# Quantum-side engine
# --------------------------------------------------------------------------


class SimulationResult:
    """What one endpoint reads of the quantum side; the `reader` given to
    simulate_quantum sets whose part it holds. Alice's part: pair_slots,
    x and y run over pair slots, the slots with at least one generated
    pair; multi_pair says whether each pair slot held more than one pair;
    alice_rng is her live stream, to continue drawing from for the error
    test. Bob's part runs over his coincidences: his declaration (slots
    and z), then bob_bits. Under ideal detectors it holds his declaration
    before his outcomes are decided, and decides them on the first read
    of bob_bits, so that he can send it first. Channel angles and
    detector indices stay inside the engine; pair_slots is there for
    either reader."""

    def __init__(self, pair_slots, x=None, y=None, alice_rng=None, multi_pair=None, slots=None, z=None, bob_bits=None):
        self.pair_slots, self.x, self.y = pair_slots, x, y
        self.alice_rng, self.multi_pair = alice_rng, multi_pair
        self.slots, self.z = slots, z
        # His bits, or the function that decides them.
        self._bob_bits = bob_bits

    @property
    def bob_bits(self) -> np.ndarray:
        if callable(self._bob_bits):
            self._bob_bits = self._bob_bits()
        return self._bob_bits


def _draw_pair_slots(rng: np.random.Generator, mu: float, n_slots: int) -> np.ndarray:
    """Pair slots by the skip method (Devroye, 1986), which with
    _multi_pair has the joint law of one Poisson(mu) count per clock slot.
    The gaps between pair slots are geometric with p = 1 - e^-mu, each by
    inversion of one raw word w of the stream:
    floor(log(u) / log(1 - p)) + 1 with u = ((w >> 11) + 1) 2^-53 in (0, 1].
    They are drawn in batches of at most GAP_BATCH, each sized to the gaps
    expected in the slots left plus a margin (_room), until a batch passes
    n_slots; the stream is then set back to just after the gap that passed
    it, so the words drawn do not depend on the batch size. A batch's
    arithmetic runs in place, on its raw words and one float buffer that
    every batch reuses, by the same IEEE operations in the same order as
    the formula; its running sums then overwrite its words. Each batch's
    slots are written into one array, sized the same way for the whole
    session and grown by the estimate for the slots left if the margin runs
    out."""
    if mu == 0.0:
        return np.empty(0, dtype=np.int64)
    p = -math.expm1(-mu)
    log_q = math.log1p(-p)
    stream = rng.bit_generator
    room = _room(n_slots + 1, p)
    slots, k, last = np.empty(room, dtype=np.int64), 0, -1
    # The first batch is the largest: the slots left only fall.
    buf = np.empty(min(GAP_BATCH, room))
    while True:
        # A gap of `left` (below 2**63) or more ends the list. Capped at
        # 2**63 before the integer cast (at a subnormal p a quotient can pass
        # the float range), the running sums stay exact in uint64 up to the
        # first one that ends it. A cap at float(left) could round below it.
        left = n_slots - last
        size = min(GAP_BATCH, _room(left, p))
        saved = stream.state
        # In place, on the raw words and one float buffer: (w >> 11) + 1 is
        # below 2**53, so its int64 view converts exactly.
        run = stream.random_raw(size)
        run >>= 11
        run += 1
        gaps = np.multiply(run.view(np.int64), 2.0**-53, out=buf[:size])
        np.log(gaps, out=gaps)
        with np.errstate(over="ignore"):
            gaps /= log_q
        np.floor(gaps, out=gaps)
        gaps += 1
        np.minimum(gaps, 2.0**63, out=gaps)
        np.copyto(run, gaps, casting="unsafe")
        np.cumsum(run, out=run)
        ended = np.flatnonzero(run >= left)
        new = int(ended[0]) if len(ended) else size
        if k + new > len(slots):
            grown = np.empty(k + new + _room(left - int(run[new - 1]), p), dtype=np.int64)
            grown[:k] = slots[:k]
            slots = grown
        # Every sum before the one that ends the list is below `left`.
        np.add(run[:new].view(np.int64), last, out=slots[k : k + new])
        k += new
        if len(ended):
            stream.state = saved
            stream.advance(new + 1)
            break
        last = int(slots[k - 1])
    return slots[:k]


def _multi_pair(rng: np.random.Generator, mu: float, k: int) -> np.ndarray:
    """Whether each of k pair slots holds more than one pair. Its count is
    Poisson(mu) given at least one pair; it is 1 with probability
    mu e^-mu / p, p = 1 - e^-mu, the first step of that law's CDF, so one
    uniform (_uniforms) at or above that step marks a multi-pair slot (the
    count by inverse CDF on the same uniform is then 2 or more). The
    uniforms are drawn and compared GAP_BATCH at a time into one buffer,
    so no float array of them all is held."""
    multi_pair = np.empty(k, dtype=bool)
    if k == 0:
        return multi_pair
    single = mu * math.exp(-mu) / -math.expm1(-mu)
    u = np.empty(min(GAP_BATCH, k))
    for start in range(0, k, GAP_BATCH):
        block = multi_pair[start : start + GAP_BATCH]
        np.greater_equal(_uniforms(rng.bit_generator, u[: len(block)]), single, out=block)
    return multi_pair


def _room(left: int, p: float) -> int:
    """The gaps expected up to the one that passes `left` slots, plus a
    margin: the size of a gap batch, at most GAP_BATCH, and of the array
    the pair slots go into."""
    expected = (left - 1) * p + 1
    return int(expected + 4 * math.sqrt(expected) + 16)


def _bits(rng: np.random.Generator, k: int) -> np.ndarray:
    """k uniform bits (uint8) from ceil(k/64) raw words of the stream: bit i
    is (word[i // 64] >> (i % 64)) & 1."""
    words = rng.bit_generator.random_raw(-(-k // 64)).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8), count=k, bitorder="little")


def _uniforms(stream: np.random.BitGenerator, out: np.ndarray) -> np.ndarray:
    """Fill the float64 array `out` with uniforms in [0, 1), one raw word w
    each: (w >> 11) 2^-53, bit for bit what Generator.random(len(out))
    gives from the same words. The caller reuses `out` from block to block,
    since a new float array per block costs fresh pages."""
    w = stream.random_raw(len(out))
    w >>= 11
    return np.multiply(w, 2.0**-53, out=out)


def _outcomes(
    cfg: SessionConfig,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    pair_slots: np.ndarray,
    rng_source: np.random.Generator,
    rng_channel: np.random.Generator,
) -> np.ndarray:
    """Each pair slot's measurement outcome (uint8), decided by its
    uniform on the protocol's Born kernel: the index of the detector pair
    for dfs2, 0 or 2 (photon 1's port, photon 2 on D3) for bb84.

    The kernel sums the fitted harmonic series in the channel angle of
    each pair slot's symbol s = 4x + 2y + z. When every pair slot sees the
    same law, the kernel runs once on the 8 symbols and each slot reads row
    s: on a static channel at its angle, and, on any channel, for a
    protocol whose fitted series has no angle terms (protocol.angle_free,
    which holds for dfs2) at angle 0. The channel then draws nothing.
    Otherwise the channel draws each pair slot's angle, and the kernel runs
    on each block's rows (below). Each row is computed on its own, and an
    angle term that is exactly 0 adds exactly 0, so every path gives the
    values of one call over every pair slot at its sampled angle.

    Either way the pair slots go BORN_BLOCK at a time, each block decided
    before the next: its symbols (intp, which numpy indexes by without a
    conversion), its outcome uniforms from the source stream (_uniforms:
    the same words, in the same order, as one draw of them all), and its
    outcomes from the table's rows or from the kernel on its own rows. So
    the only float array over every pair slot is the channel's angles, on
    a channel that draws them.
    """
    # Looked up on the module at each call, so that a span recorder that
    # replaces these attributes (perfbench/spans.py) sees the calls.
    kernel = protocol.dfs2_probs_batch if cfg.protocol == "dfs2" else protocol.bb84_port1_batch
    static = isinstance(cfg.channel, StaticChannel)
    table = theta = None
    if static or protocol.angle_free(cfg.protocol):
        table = kernel(np.arange(8), np.full(8, float(cfg.channel.theta) if static else 0.0), cfg.visibility)
    else:
        theta = cfg.channel.sample_batch(pair_slots, rng_channel)
    stream = rng_source.bit_generator
    outcome = np.empty(len(pair_slots), dtype=np.uint8)
    uniforms = np.empty(min(BORN_BLOCK, len(outcome)))
    for i in range(0, len(outcome), BORN_BLOCK):
        b = slice(i, i + BORN_BLOCK)
        s = x[b].astype(np.intp)
        s <<= 1
        s += y[b]
        s <<= 1
        s += z[b]
        u = _uniforms(stream, uniforms[: len(s)])
        if table is not None:
            outcome[b] = _decide(cfg, table, u, s)
        else:
            outcome[b] = _decide(cfg, kernel(s, theta[b], cfg.visibility), u)
    return outcome


def _decide(cfg: SessionConfig, probs: np.ndarray, u: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Outcomes of the kernel rows `probs[rows]` for the uniforms u, one
    1-D column at a time. A dfs2 outcome counts the running sums p0,
    p0 + p1 and p0 + p1 + p2 that lie below u: the floats and the order
    of a cumsum along each row."""
    if cfg.protocol == "bb84":
        return 2 * (u >= probs[rows]).view(np.uint8)
    running = probs[:, 0]
    outcome = (running[rows] < u).view(np.uint8)
    for j in (1, 2):
        running = running + probs[:, j]
        outcome += running[rows] < u
    return outcome


def _bob_records(
    cfg: SessionConfig,
    pair_slots: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    rng_source: np.random.Generator,
    rng_channel: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bob's records, the slots, bases and bits of his coincidences: each
    pair slot's outcome (_outcomes), then, unless the detectors are ideal,
    the detector layer's draws and its coincidence mask."""
    # The index (det1 - 1) << 1 | (det2 - 3) of the detector pair that the
    # photons reach, and then of the pair that fired.
    fired = _outcomes(cfg, x, y, z, pair_slots, rng_source, rng_channel)
    slots = pair_slots
    if not _ideal(cfg.detectors):
        coinc, fired = detect_batch(fired, cfg.detectors, rng_source)
        # numpy gathers by index several times faster than it selects by a
        # mask this dense, so the mask is turned into indices once.
        coinc = np.flatnonzero(coinc)
        slots, z, fired = (a[coinc] for a in (pair_slots, z, fired))
    bob_bits = OUTCOME_BIT[fired] if cfg.protocol == "dfs2" else BB84_PORT_BIT[z, fired >> 1]
    return slots, z, bob_bits


def _ideal(detectors: DetectorParams) -> bool:
    """Each photon fires its own detector and nothing else does, so every
    pair slot is a coincidence and the detector layer draws nothing."""
    return detectors.efficiency == 1.0 and detectors.dark_count_prob == 0.0


# What both endpoints draw alike: pair slots, x and y (_draw_prefix).
Prefix = tuple[np.ndarray, np.ndarray, np.ndarray]


def _stream(seed: int, words: int = 0) -> np.random.Generator:
    """The stream of `seed`, moved on by `words` raw words as if it had
    drawn them."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(words)
    return rng


def _draw_prefix(cfg: SessionConfig) -> Prefix:
    """What both endpoints draw alike: the pair slots, from the source
    stream, then x and y, from the alice stream."""
    pair_slots = _draw_pair_slots(_stream(cfg.seeds.source), cfg.mean_pairs_per_slot, cfg.n_slots)
    rng_alice = _stream(cfg.seeds.alice)
    return pair_slots, _bits(rng_alice, len(pair_slots)), _bits(rng_alice, len(pair_slots))


def simulate_quantum(cfg: SessionConfig, reader: str, prefix: Optional[Prefix] = None) -> SimulationResult:
    """Run the quantum side of a session for `reader`, "alice" or "bob",
    drawing only what that endpoint reads, on `prefix` (_draw_prefix's
    pair slots, x and y), drawn here unless given. The source and alice
    streams go on from where the prefix leaves them. See the module
    docstring for the exact stream-consumption order."""
    if reader not in ("alice", "bob"):
        raise ValueError(f"reader must be 'alice' or 'bob', got {reader!r}")
    pair_slots, x, y = _draw_prefix(cfg) if prefix is None else prefix
    mu, k = cfg.mean_pairs_per_slot, len(pair_slots)
    # One word per gap and one for the gap past the last slot, unless
    # there are no pairs to draw.
    gap_words = k + 1 if mu else 0
    if reader == "alice":
        multi_pair = _multi_pair(_stream(cfg.seeds.source, gap_words), mu, k)
        return SimulationResult(pair_slots, x, y, _stream(cfg.seeds.alice, 2 * -(-k // 64)), multi_pair)
    # He reads no multi-pair flag, so he skips their words.
    rng_source = _stream(cfg.seeds.source, gap_words + k)
    z = _bits(_stream(cfg.seeds.bob), k)
    rng_channel = _stream(cfg.seeds.channel)

    def records():
        return _bob_records(cfg, pair_slots, x, y, z, rng_source, rng_channel)

    if _ideal(cfg.detectors):
        # His declaration, every pair slot with its basis, is known before
        # any outcome is; his bits are decided when first read.
        return SimulationResult(pair_slots, slots=pair_slots, z=z, bob_bits=lambda: records()[2])
    slots, z, bits = records()
    return SimulationResult(pair_slots, slots=slots, z=z, bob_bits=bits)


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


_ABSENT = object()


def differing_keys(ours, theirs, path: str = "") -> list[str]:
    """Dotted paths of the config entries that differ between two dicts
    (an entry only one side has differs too)."""
    if not (isinstance(ours, dict) and isinstance(theirs, dict)):
        return [] if ours == theirs else [path or "config"]
    diffs = []
    for key in sorted(set(ours) | set(theirs)):
        sub = f"{path}.{key}" if path else key
        diffs += differing_keys(ours.get(key, _ABSENT), theirs.get(key, _ABSENT), sub)
    return diffs


def _hello_exchange(cfg: SessionConfig, link: Transport) -> None:
    ours = {"config": cfg.to_dict(), "wire_version": WIRE_VERSION}
    link.send(Message("HELLO", ours))
    theirs = expect(link, "HELLO").payload
    if theirs != ours:
        keys = ", ".join(differing_keys(ours, theirs))
        raise HandshakeMismatch(f"peer handshake differs from ours in: {keys}")


def _frames(n: int) -> range:
    """Where each frame of an n-entry list starts: SLOT_CHUNK entries each, the last fewer."""
    return range(0, n + 1, SLOT_CHUNK)


def _send_list(link: Transport, kind: str, key: str, slots: np.ndarray, **bits: np.ndarray) -> None:
    """Send the sorted `slots` as `kind` frames (see _frames), each with
    its share of them under `key`, as gap varints that continue from the
    previous frame's last entry, and of each named bit array, packed."""
    for start in _frames(len(slots)):
        chunk = slice(start, start + SLOT_CHUNK)
        payload = {name: pack_bits(b[chunk]) for name, b in bits.items()}
        payload[key] = pack_slots(slots[chunk], slots[start - 1] if start else -1)
        link.send(Message(kind, payload))


def _recv_slots(link: Transport, kind: str, key: str, bound: int):
    """Receive a slot list sent by _send_list, one frame at a time, up to
    its first frame of fewer than SLOT_CHUNK entries: yield each frame's
    payload and its slots, decoded and validated. The decoder refuses an
    entry at or past `bound`, and entries rise strictly, so a peer can
    send at most bound / SLOT_CHUNK + 1 frames; a frame of more than
    SLOT_CHUNK entries is refused too."""
    prev = -1
    while True:
        payload = expect(link, kind).payload
        slots = tp.validate_detections_payload(payload, key, prev, bound)
        if len(slots) > SLOT_CHUNK:
            raise tp.ProtocolError(f"{kind} frame holds {len(slots)} entries, more than {SLOT_CHUNK}")
        yield payload, slots
        if len(slots) < SLOT_CHUNK:
            return
        prev = slots[-1]


def _recv_bits(link: Transport, kind: str, key: str, n: int) -> np.ndarray:
    """Receive the n bits under `key` that answer an n-entry list, for an
    n the receiver knows: one `kind` frame per frame of the list (see
    _frames), each with exactly its share."""
    bits = np.empty(n, dtype=np.uint8)
    for start in _frames(n):
        frame = bits[start : start + SLOT_CHUNK]
        frame[:] = unpack_bits(expect(link, kind).payload.get(key), len(frame), f"{kind} {key!r}")
    return bits


def _indices_in(known: np.ndarray, slots: np.ndarray, complaint: str) -> slice | np.ndarray:
    """Where the sorted slots of one frame, at most SLOT_CHUNK of them as
    _recv_slots takes them, are in the sorted array `known`, none of them
    past its last entry; a slot that `known` lacks is a ProtocolError that
    names the first such slot.

    When the slots equal a span of `known`, as each of Bob's declaration
    frames does under ideal detectors, that span's slice. Otherwise the
    index of each slot by a merge: a stable argsort of the part of `known`
    that the frame spans followed by the frame merges the two sorted runs
    in linear time and puts each slot just after its equal in `known`, if
    any. The entries of `known` before a slot then give its index. So the
    lookup holds a few arrays of the frame's length, none of `known`'s."""
    lo = int(np.searchsorted(known, slots[0])) if len(slots) else 0
    if np.array_equal(known[lo : lo + len(slots)], slots):
        return slice(lo, lo + len(slots))
    span = known[lo : int(np.searchsorted(known, slots[-1], side="right"))]
    merged = np.argsort(np.concatenate((span, slots)), kind="stable")
    # The slots' places in the merge, in order, less the slots before each.
    idx = np.flatnonzero(merged >= len(span)) - np.arange(len(slots))
    idx += lo - 1
    missing = np.flatnonzero(known[idx] != slots)
    if len(missing):
        raise tp.ProtocolError(f"{complaint}: slot {slots[missing[0]]}")
    return idx


def alice_sift_exchange(
    link: Transport, pair_slots: np.ndarray, x: np.ndarray, y: np.ndarray, multi_pair: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Alice's half of sifting: look up each frame of Bob's declaration
    (slots and bases) as it arrives, and once it has ended answer it frame
    for frame with a keep bit per declared slot, set where his basis
    matches hers. Returns her sifted key, the number of slots Bob declared
    and how many of them held more than one pair."""
    bound = int(pair_slots[-1]) + 1 if len(pair_slots) else 0
    answers, key, n_declared, n_multi = [], [], 0, 0
    for payload, slots in _recv_slots(link, "DETECTIONS", "slots", bound):
        bases = unpack_bits(payload.get("bases"), len(slots), "DETECTIONS 'bases'")
        at = _indices_in(pair_slots, slots, "peer declared a detection in a slot without pairs")
        keep = x[at] == bases
        answers.append(pack_bits(keep))
        # About half the bits are set, where numpy selects several times
        # faster by index than by boolean mask.
        key.append(y[at][np.flatnonzero(keep)])
        n_multi += int(np.count_nonzero(multi_pair[at]))
        n_declared += len(slots)
    for packed in answers:
        link.send(Message("SIFT_KEEP", {"keep": packed}))
    return np.concatenate(key), n_declared, n_multi


def bob_sift_exchange(link: Transport, records: SimulationResult) -> np.ndarray:
    """Bob's half of sifting: declare every coincidence with its basis
    (records.slots, records.z), then keep each declaration frame's bits
    (records.bob_bits, read only once the declaration has gone) where
    Alice's SIFT_KEEP frame for it sets the keep bit, and return his
    sifted key."""
    _send_list(link, "DETECTIONS", "slots", records.slots, bases=records.z)
    # Under ideal detectors his outcomes are decided here, while Alice
    # looks up his declaration.
    bits = records.bob_bits
    kept = []
    for start in _frames(len(bits)):
        frame = bits[start : start + SLOT_CHUNK]
        keep = unpack_bits(expect(link, "SIFT_KEEP").payload.get("keep"), len(frame), "SIFT_KEEP 'keep'")
        kept.append(frame[np.flatnonzero(keep)])  # by index, as in alice_sift_exchange
    return np.concatenate(kept)


def run_alice_endpoint(cfg: SessionConfig, link: Transport, prefix: Optional[Prefix] = None) -> EndpointResult:
    """Alice's whole session: simulate her part of the quantum side (on
    `prefix`, if given: see simulate_quantum), then sift Bob's declaration
    and run the error test. Her multi-pair fraction counts the slots he
    declared."""
    _hello_exchange(cfg, link)
    sim = simulate_quantum(cfg, "alice", prefix)

    alice_key, n_coincidences, n_multi = alice_sift_exchange(link, sim.pair_slots, sim.x, sim.y, sim.multi_pair)
    multi_pair_fraction = n_multi / n_coincidences if n_coincidences else 0.0
    n_sifted = len(alice_key)

    positions = sample_positions(n_sifted, cfg.sample_fraction, sim.alice_rng)
    _send_list(link, "SAMPLE_REQUEST", "positions", positions)
    bob_sample = _recv_bits(link, "SAMPLE_BITS", "bits", len(positions))
    n_errors = int(np.count_nonzero(alice_key[positions] != bob_sample))
    report = qber_report(len(positions), n_errors)

    summary = finalize(cfg, n_coincidences, n_sifted, report, multi_pair_fraction)
    link.send(Message("SUMMARY", {"n_errors": n_errors, "multi_pair_fraction": multi_pair_fraction}))
    expect(link, "BYE")
    return EndpointResult(summary, alice_key)


def run_bob_endpoint(cfg: SessionConfig, link: Transport, prefix: Optional[Prefix] = None) -> EndpointResult:
    """Bob's whole session: simulate his part of the quantum side (on
    `prefix`, if given: see simulate_quantum), declare his coincidences,
    sift, answer an error test of the agreed size frame for frame, and
    build the summary from his own counts and Alice's SUMMARY. He reads
    only his records: slots, z and bob_bits."""
    _hello_exchange(cfg, link)
    sim = simulate_quantum(cfg, "bob", prefix)
    bob_key = bob_sift_exchange(link, sim)

    answers, n_compared = [], 0
    for _, positions in _recv_slots(link, "SAMPLE_REQUEST", "positions", len(bob_key)):
        answers.append(pack_bits(bob_key[positions]))
        n_compared += len(positions)
    if n_compared != (m := sample_size(len(bob_key), cfg.sample_fraction)):
        raise tp.ProtocolError(f"SAMPLE_REQUEST asks for {n_compared} positions, not the agreed {m}")
    for packed in answers:
        link.send(Message("SAMPLE_BITS", {"bits": packed}))

    n_errors, multi_fraction = _summary_fields(expect(link, "SUMMARY").payload, n_compared)
    report = qber_report(n_compared, n_errors)
    summary = finalize(cfg, len(sim.slots), len(bob_key), report, multi_fraction)
    link.send(Message("BYE", {}))
    return EndpointResult(summary, bob_key)


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


def _run_pair(alice, bob, link: tuple[Transport, Transport]) -> tuple:
    """Run alice(link[0]) on this thread and bob(link[1]) on a thread named
    bob-endpoint, and return both results. Bob's link closes when he
    fails and Alice's when she is done, so that neither side is left
    waiting; his thread is always joined. Bob's failure is usually the root
    cause (Alice then only sees the link drop), so it is raised first,
    unless all he saw was the TransportClosed that Alice's own failure
    caused."""
    alice_link, bob_link = link
    bob_result: list = []
    bob_error: list[BaseException] = []

    def bob_main():
        try:
            bob_result.append(bob(bob_link))
        except BaseException as exc:  # noqa: BLE001 - raised below
            bob_error.append(exc)
            bob_link.close()

    thread = threading.Thread(target=bob_main, name="bob-endpoint")
    thread.start()
    alice_error: Optional[BaseException] = None
    try:
        alice_result = alice(alice_link)
    except BaseException as exc:  # noqa: BLE001 - raised below
        alice_error = exc
    finally:
        alice_link.close()
        thread.join()
        bob_link.close()
    if bob_error and not (alice_error is not None and isinstance(bob_error[0], tp.TransportClosed)):
        raise bob_error[0]
    if alice_error is not None:
        raise alice_error
    return alice_result, bob_result[0]


def run_session_detailed(
    cfg: SessionConfig, link: Optional[tuple[Transport, Transport]] = None
) -> tuple[EndpointResult, EndpointResult]:
    """Run both endpoints over a transport pair (in-process by default):
    Alice on this thread and Bob on his own (_run_pair). Each simulates
    its own side, as over TCP, on one draw of the prefix that both draw
    alike (_draw_prefix). The endpoint functions and memory_pair are
    looked up on the module at each call."""
    prefix = _draw_prefix(cfg)
    alice, bob = _run_pair(
        lambda end: run_alice_endpoint(cfg, end, prefix),
        lambda end: run_bob_endpoint(cfg, end, prefix),
        link or memory_pair(),
    )
    if alice.summary.to_dict() != bob.summary.to_dict():
        raise RuntimeError("session summaries disagree between endpoints")
    return alice, bob


def run_session(cfg: SessionConfig) -> SessionSummary:
    return run_session_detailed(cfg)[0].summary


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
