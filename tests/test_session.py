"""Session engine, conversation, and summary bookkeeping tests."""

import base64
import math
import re
import socket
import time
import tracemalloc

import numpy as np
import pytest

import dfsqkd.session as session_mod
import dfsqkd.transport as tp
from dfsqkd import protocol
from dfsqkd.optics import DetectorParams, PerSlotUniformChannel, RandomWalkChannel, StaticChannel
from dfsqkd.protocol import QberReport
from dfsqkd.session import (
    ConfigError,
    Seeds,
    SessionConfig,
    SimulationResult,
    alice_sift_exchange,
    bob_sift_exchange,
    exact_session_summary,
    run_alice_endpoint,
    run_bob_endpoint,
    run_session,
    run_session_detailed,
    simulate_quantum,
)
from dfsqkd.transport import Message, ProtocolError, StreamTransport, memory_pair, pack_bits, pack_slots


def small_cfg(**overrides) -> SessionConfig:
    defaults = dict(duration_s=0.5, seeds=Seeds(11, 22, 33, 44))
    defaults.update(overrides)
    return SessionConfig(**defaults)


class TestConfig:
    def test_defaults_are_the_experiment_values(self):
        cfg = SessionConfig()
        assert cfg.clock_hz == 1e5
        assert cfg.pair_rate_hz == 4000
        assert cfg.duration_s == 50
        assert cfg.visibility == 0.88
        assert cfg.mean_pairs_per_slot == pytest.approx(0.04)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"protocol": "e91"},
            {"clock_hz": 0},
            {"pair_rate_hz": -1},
            {"duration_s": 0},
            {"visibility": 1.5},
            {"sample_fraction": 0.0},
            {"pair_rate_hz": 2e5},  # mean pairs per slot >= 1
            {"duration_s": math.inf},
            {"clock_hz": math.inf},
            {"duration_s": math.nan},
            {"pair_rate_hz": math.nan},
            {"channel": {"kind": "static", "theta_deg": math.nan}},
            {"channel": {"kind": "static", "theta_deg": math.inf}},
            {"channel": {"kind": "static", "theta_deg": [1, 2]}},
            {"channel": {"kind": "random_walk", "theta0_deg": 0, "step_sigma_deg": math.nan}},
            {"channel": {"kind": "random_walk", "theta0_deg": 0, "step_sigma_deg": [0.1]}},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SessionConfig.from_dict(kwargs)

    def test_dict_round_trip(self):
        cfg = small_cfg(channel=PerSlotUniformChannel(-0.1, 0.4), sample_fraction=0.3)
        again = SessionConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            SessionConfig.from_dict({"prtocol": "dfs2"})


# Chi-square quantiles at 1 - 1e-6 by degrees of freedom, from the
# regularized incomplete gamma function (scipy is not a dependency).
CHI2_1E6 = {2: 27.63, 4: 33.38, 20: 65.42, 100: 182.13}

# (mean pairs per slot, clock slots, gap bins, count bins): over 1e6 pair
# slots each, with the last bin of each law its tail.
SOURCE_LAWS = [(0.04, 26_000_000, 101, 3), (0.5, 2_600_000, 21, 5)]


def _chi2(observed, probs):
    """Chi-square statistic of counts against bin probabilities whose last
    bin takes the tail."""
    expected = observed.sum() * np.asarray(probs)
    return float(np.sum((observed - expected) ** 2 / expected))


class TestPoissonPairs:
    """The source's skip method: geometric gaps between pair slots and
    Poisson counts truncated at zero, against their laws."""

    @pytest.mark.parametrize("mu, n_slots, bins, _", SOURCE_LAWS)
    def test_gaps_are_geometric(self, mu, n_slots, bins, _):
        slots, _counts = session_mod._draw_pair_slots(np.random.default_rng(21), mu, n_slots)
        assert len(slots) > 10**6
        gaps = np.diff(slots, prepend=-1)
        p = -math.expm1(-mu)
        probs = p * (1 - p) ** np.arange(bins - 1)
        observed = np.bincount(np.minimum(gaps, bins) - 1, minlength=bins)
        assert _chi2(observed, [*probs, 1 - probs.sum()]) < CHI2_1E6[bins - 1]

    @pytest.mark.parametrize("mu, n_slots, _, bins", SOURCE_LAWS)
    def test_counts_are_zero_truncated_poisson(self, mu, n_slots, _, bins):
        _slots, counts = session_mod._draw_pair_slots(np.random.default_rng(22), mu, n_slots)
        assert len(counts) > 10**6
        n = np.arange(1, bins)
        probs = np.exp(-mu) * mu**n / np.array([math.factorial(i) for i in n]) / -math.expm1(-mu)
        observed = np.bincount(np.minimum(counts, bins) - 1, minlength=bins)
        assert _chi2(observed, [*probs, 1 - probs.sum()]) < CHI2_1E6[bins - 1]


class TestEngine:
    def test_slot_record_invariants(self):
        cfg = small_cfg(duration_s=0.05, detectors=DetectorParams(efficiency=0.8, dark_count_prob=0.01))
        sim = simulate_quantum(cfg)
        k = len(sim.pair_slots)
        assert k, "expected some pair slots"
        for arr in (sim.n_pairs, sim.x, sim.y, sim.z, sim.theta, sim.coinc, sim.det1, sim.det2,
                    sim.bob_bits, sim.multi_pair):
            assert len(arr) == k
        assert np.all(np.diff(sim.pair_slots) > 0)
        assert np.all((sim.pair_slots >= 0) & (sim.pair_slots < cfg.n_slots))
        assert np.all(sim.n_pairs >= 1)
        np.testing.assert_array_equal(sim.multi_pair, sim.n_pairs >= 2)
        assert 0 < np.count_nonzero(sim.coinc) < k
        assert set(sim.det1[sim.coinc]) <= {1, 2} and set(sim.det2[sim.coinc]) <= {3, 4}

    def test_zero_pair_rate_produces_nothing(self):
        sim = simulate_quantum(small_cfg(pair_rate_hz=0.0))
        assert len(sim.pair_slots) == 0

    def test_tiny_pair_rate_produces_nothing(self):
        # gaps near 2**63: a batch of them would overflow int64 uncapped
        for rate in (1e-12, 1e-300):
            assert len(simulate_quantum(small_cfg(pair_rate_hz=rate)).pair_slots) == 0

    def test_coincidence_count_matches_pair_slots_for_ideal_detectors(self):
        cfg = small_cfg()
        sim = simulate_quantum(cfg)
        # noiseless detectors convert every pair slot into a coincidence
        assert sim.coinc.all()
        expected = cfg.n_slots * (1 - math.exp(-cfg.mean_pairs_per_slot))
        sigma = math.sqrt(expected)
        assert abs(len(sim.pair_slots) - expected) < 4 * sigma


KERNELS = {"dfs2": protocol.dfs2_probs_batch, "bb84": protocol.bb84_port1_batch}


class TestBoundedMemory:
    """The engine's time and memory grow with pair slots, not clock slots,
    and its batched draws and tabled kernel give the values of one-shot
    ones."""

    @pytest.mark.parametrize(
        "channel", [StaticChannel(0.3), RandomWalkChannel(0.1, 1e-4)], ids=["static", "random_walk"]
    )
    def test_peak_memory_is_bounded_by_pair_slots(self, channel):
        # 2e7 clock slots (8 B each would be 153 MiB) but about 1e4 pair slots
        cfg = small_cfg(pair_rate_hz=50, duration_s=200, channel=channel)
        tracemalloc.start()
        try:
            sim = simulate_quantum(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sim.pair_slots) < 20_000
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_gap_batches_equal_one_geometric_draw(self):
        cfg = small_cfg(duration_s=60.0)
        n, mu, batch = cfg.n_slots, cfg.mean_pairs_per_slot, session_mod.GAP_BATCH
        sim = simulate_quantum(cfg)
        k = len(sim.pair_slots)
        # the batches end with the one that holds the first slot past the session
        n_batches = k // batch + 1
        assert n_batches >= 3
        one_shot = np.random.default_rng(cfg.seeds.source)
        slots = np.cumsum(one_shot.geometric(-math.expm1(-mu), n_batches * batch)) - 1
        assert slots[k - 1] < n <= slots[k]
        np.testing.assert_array_equal(sim.pair_slots, slots[:k])
        # the stream continues exactly where that draw and the count uniforms leave it
        batched = np.random.default_rng(cfg.seeds.source)
        session_mod._draw_pair_slots(batched, mu, n)
        one_shot.random(k)
        np.testing.assert_array_equal(batched.random(16), one_shot.random(16))

    def test_a_billion_clock_slots_take_seconds(self):
        # 1e4 s at 40 pairs/s: 1e9 clock slots, about 4e5 pair slots
        cfg = small_cfg(pair_rate_hz=40, duration_s=1e4)
        start = time.perf_counter()
        sim = simulate_quantum(cfg)
        elapsed = time.perf_counter() - start
        expected = cfg.n_slots * -math.expm1(-cfg.mean_pairs_per_slot)
        assert cfg.n_slots == 10**9
        assert abs(len(sim.pair_slots) - expected) < 5 * math.sqrt(expected)
        assert elapsed < 5.0, f"{elapsed:.2f} s"

    @pytest.mark.parametrize("protocol_name", protocol.PROTOCOLS)
    def test_static_table_equals_the_per_row_kernel(self, protocol_name):
        kernel = KERNELS[protocol_name]
        x, y, z = np.random.default_rng(5).integers(0, 2, size=(3, 1000))
        for deg in (0.0, 7.5, 20.0, 45.0, 90.0, -33.0):
            cfg = small_cfg(protocol=protocol_name, channel=StaticChannel(np.radians(deg)))
            theta = np.full(1000, np.radians(deg))
            per_row = kernel(x, y, z, theta, cfg.visibility)
            np.testing.assert_array_equal(session_mod._born_probs(cfg, x, y, z, theta), per_row)

    @pytest.mark.parametrize("protocol_name", protocol.PROTOCOLS)
    @pytest.mark.parametrize("block", [7, 4096])
    def test_kernel_blocks_equal_one_call(self, monkeypatch, protocol_name, block):
        kernel = KERNELS[protocol_name]
        rng = np.random.default_rng(6)
        x, y, z = rng.integers(0, 2, size=(3, 10_000))
        theta = rng.uniform(-np.pi, np.pi, 10_000)
        cfg = small_cfg(protocol=protocol_name, channel=PerSlotUniformChannel(-np.pi, np.pi))
        monkeypatch.setattr(session_mod, "BORN_BLOCK", block)
        blocked = session_mod._born_probs(cfg, x, y, z, theta)
        np.testing.assert_array_equal(blocked, kernel(x, y, z, theta, cfg.visibility))


class TestSessions:
    def test_determinism(self):
        cfg = small_cfg()
        a1, b1 = run_session_detailed(cfg)
        a2, b2 = run_session_detailed(cfg)
        assert a1.summary.to_dict() == a2.summary.to_dict()
        np.testing.assert_array_equal(a1.sifted_key, a2.sifted_key)
        np.testing.assert_array_equal(b1.sifted_key, b2.sifted_key)

    def test_sides_agree(self):
        alice, bob = run_session_detailed(small_cfg())
        assert alice.summary.to_dict() == bob.summary.to_dict()
        np.testing.assert_array_equal(alice.kept_slots, bob.kept_slots)
        np.testing.assert_array_equal(alice.disclosed_positions, bob.disclosed_positions)
        # the error count reported is exactly the disagreement on the sample
        mism = np.count_nonzero(
            alice.sifted_key[alice.disclosed_positions] != bob.sifted_key[bob.disclosed_positions]
        )
        assert mism == alice.summary.qber.n_errors

    def test_key_agreement_tracks_qber(self):
        cfg = small_cfg(duration_s=2.0, sample_fraction=1.0)
        alice, bob = run_session_detailed(cfg)
        q = alice.summary.qber.qber
        agree = np.mean(alice.sifted_key == bob.sifted_key)
        assert agree == pytest.approx(1 - q, abs=1e-12)

    def test_sift_keeps_about_half(self):
        alice, _ = run_session_detailed(small_cfg(duration_s=2.0))
        s = alice.summary
        frac = s.n_sifted / s.n_coincidences
        sigma = math.sqrt(0.25 / s.n_coincidences)
        assert abs(frac - 0.5) < 4 * sigma

    def test_zero_pair_rate_session_flags_undefined_qber(self):
        summary = run_session(small_cfg(pair_rate_hz=0.0))
        assert summary.n_coincidences == 0
        assert summary.qber.qber is None
        assert not summary.key_rate.secure
        assert summary.final_key_bits == 0

    def test_qber_sits_at_the_source_noise_level(self):
        cfg = small_cfg(duration_s=3.0, sample_fraction=1.0, channel=StaticChannel(np.radians(25)))
        summary = run_session(cfg)
        q = summary.qber
        assert abs(q.qber - 0.06) < 4 * q.stderr

    def test_bb84_session_follows_the_sinusoid(self):
        theta = np.radians(15)
        cfg = small_cfg(
            protocol="bb84", duration_s=3.0, sample_fraction=1.0, channel=StaticChannel(theta)
        )
        summary = run_session(cfg)
        expected = 0.06 + 0.88 * math.sin(theta) ** 2
        assert abs(summary.qber.qber - expected) < 4 * summary.qber.stderr

    def test_multi_pair_fraction_near_poisson_conditional(self):
        summary = run_session(small_cfg(duration_s=5.0))
        expected = 0.01986667022208717
        sigma = math.sqrt(expected * (1 - expected) / summary.n_coincidences)
        assert abs(summary.multi_pair_fraction - expected) < 4 * sigma

    def test_detector_inefficiency_thins_raw_rate(self):
        cfg = small_cfg(duration_s=2.0, detectors=DetectorParams(efficiency=0.7))
        summary = run_session(cfg)
        expected = cfg.clock_hz * (1 - math.exp(-0.04)) * 0.49
        assert summary.raw_rate_hz == pytest.approx(expected, rel=0.05)


@pytest.fixture
def frame_sizes(monkeypatch):
    """The length of every frame encoded while the test runs."""
    sizes = []
    encode = tp.encode_frame

    def measured(message):
        frame = encode(message)
        sizes.append(len(frame))
        return frame

    monkeypatch.setattr(tp, "encode_frame", measured)
    return sizes


class TestTransportSubstitution:
    def test_stream_and_memory_give_identical_sessions(self):
        cfg = small_cfg()
        mem_alice, mem_bob = run_session_detailed(cfg)
        left, right = socket.socketpair()
        st_alice, st_bob = run_session_detailed(cfg, link=(StreamTransport(left), StreamTransport(right)))
        assert st_alice.summary.to_dict() == mem_alice.summary.to_dict()
        np.testing.assert_array_equal(st_alice.sifted_key, mem_alice.sifted_key)
        np.testing.assert_array_equal(st_bob.sifted_key, mem_bob.sifted_key)

    def test_session_above_the_old_frame_cap_over_both_transports(self, frame_sizes):
        # about 2.4 M coincidences: one frame per slot list would pass 16 MiB
        cfg = SessionConfig(pair_rate_hz=9e4, duration_s=40)
        in_process = run_session(cfg)
        left, right = socket.socketpair()
        over_socket = run_session(cfg, link=(StreamTransport(left), StreamTransport(right)))
        assert in_process.n_coincidences > 2_000_000
        assert over_socket.to_dict() == in_process.to_dict()
        assert max(frame_sizes) <= 2 * 2**20

    def test_default_session_sends_at_most_10_bytes_per_sifted_bit(self, frame_sizes):
        # every frame of both endpoints, length prefixes included
        summary = run_session(SessionConfig(duration_s=10))
        assert sum(frame_sizes) / summary.n_sifted <= 10


class TestSiftExchange:
    """The two halves of the sifting conversation, driven directly."""

    def test_matching_and_mismatching_bases(self, sift_halves):
        # slots 2 and 9 match bases, slot 5 does not
        (a_key, a_kept), (b_key, b_kept) = sift_halves(
            pair_slots=[2, 5, 9], x=[0, 1, 1], y=[1, 0, 1], slots=[2, 5, 9], z=[0, 0, 1], bits=[1, 0, 1]
        )
        np.testing.assert_array_equal(a_kept, [2, 9])
        np.testing.assert_array_equal(a_kept, b_kept)
        np.testing.assert_array_equal(a_key, [1, 1])
        np.testing.assert_array_equal(b_key, [1, 1])

    def test_unknown_slot_rejected(self, sift_halves):
        with pytest.raises(ProtocolError, match="without pairs: slot 3"):
            sift_halves(
                pair_slots=[2, 5], x=[0, 1], y=[1, 0], slots=[3], z=[0], bits=[1]
            )


def _slot_frames(key, chunks, *bit_names):
    """Payloads carrying one slot list in the given chunks, each with an
    all-zero bit array per name in bit_names. A chunk that is a list of
    slots is packed, continuing from the previous chunk; any other value
    goes under `key` as it is, and None leaves `key` out. The helpers
    below queue the frames and close the peer, so a receiver that accepts
    them meets a closed channel rather than waiting forever."""
    frames = []
    prev = -1
    for i, chunk in enumerate(chunks):
        slots = chunk if isinstance(chunk, list) else []
        payload = {name: pack_bits([0] * len(slots)) for name in bit_names}
        if isinstance(chunk, list):
            payload[key] = pack_slots(chunk, prev)
            prev = chunk[-1] if chunk else prev
        elif chunk is not None:
            payload[key] = chunk
        frames.append({**payload, "final": i == len(chunks) - 1})
    return frames


def _alice_receives_declaration(chunks):
    link, peer = memory_pair()
    for payload in _slot_frames("slots", chunks, "bases"):
        peer.send(Message("DETECTIONS", payload))
    peer.close()
    alice_sift_exchange(link, np.arange(8), np.zeros(8, dtype=np.int64), np.zeros(8, dtype=np.int64))


def _bob_receives_keep(chunks):
    link, peer = memory_pair()
    for payload in _slot_frames("keep", chunks):
        peer.send(Message("SIFT_KEEP", payload))
    peer.close()
    bob_sift_exchange(link, np.arange(8), np.zeros(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8))


def _run_bob_against(*frames, records=tuple(range(8))):
    """Bob's whole endpoint against a scripted Alice who sends HELLO, then
    records on the slots `records` (eight on slots 0-7 by default), keeps
    them all, then sends `frames`. Returns Bob's result."""
    cfg = small_cfg()
    link, peer = memory_pair()
    peer.send(Message("HELLO", {"config": cfg.to_dict(), "wire_version": session_mod.WIRE_VERSION}))
    for payload in _slot_frames("slots", [list(records)], "bases", "bits"):
        peer.send(Message("DETECTIONS", payload))
    for payload in _slot_frames("keep", [list(records)]):
        peer.send(Message("SIFT_KEEP", payload))
    for kind, payload in frames:
        peer.send(Message(kind, payload))
    peer.close()
    return run_bob_endpoint(cfg, link)


def _bob_receives_sample_request(chunks):
    _run_bob_against(*[("SAMPLE_REQUEST", payload) for payload in _slot_frames("positions", chunks)])


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


class TestHostileSlotLists:
    """Every site that receives a slot list refuses a malformed one with a
    ProtocolError that says what was wrong. A well-formed list is always
    non-negative and strictly increasing (see the property tests in
    test_transport.py), so order, sign and type need no checks here."""

    @pytest.mark.parametrize(
        "receive", [_alice_receives_declaration, _bob_receives_keep, _bob_receives_sample_request]
    )
    @pytest.mark.parametrize(
        "chunks, match",
        [
            ([None], "must be a base-64 string of slot gaps, got None"),
            ([[1, 3, 5], 7], "must be a base-64 string of slot gaps, got 7"),
            (["@@@@"], "is not base-64 text"),
            ([_b64(b"\x00\x80")], "ends inside a varint at 1"),
            ([_b64(b"\x80" * 9 + b"\x00")], "varint longer than 9 bytes at 0"),
            # a 9-byte varint of 2**63 - 1 after the entry 5
            ([[5], _b64(b"\xff" * 8 + b"\x7f")], re.escape("slot past 2**63 - 1 at 0")),
        ],
        ids=["missing", "non-string", "non-base-64", "unterminated", "10-byte-varint", "past-int64-after-prev"],
    )
    def test_malformed_list_is_a_protocol_error(self, receive, chunks, match):
        with pytest.raises(ProtocolError, match=match):
            receive(chunks)

    @pytest.mark.parametrize(
        "receive, kind",
        [
            (_alice_receives_declaration, "DETECTIONS 'slots'"),
            (_bob_receives_keep, "SIFT_KEEP 'keep'"),
            (_bob_receives_sample_request, "SAMPLE_REQUEST 'positions'"),
        ],
        ids=["declaration", "keep", "sample-request"],
    )
    def test_entry_at_the_bound_is_a_protocol_error(self, receive, kind):
        # each of these lists is bounded by 8: past Alice's last pair slot,
        # past Bob's last declared slot, past the end of the sifted key
        with pytest.raises(ProtocolError, match=f"{kind} entry 8 at 2 is not below 8"):
            receive([[1], [3, 8]])

    def test_record_at_n_slots_is_a_protocol_error(self):
        n = small_cfg().n_slots
        with pytest.raises(ProtocolError, match=f"DETECTIONS 'slots' entry {n} at 8 is not below {n}"):
            _run_bob_against(records=[*range(8), n])

    def test_empty_frame_that_is_not_final_is_a_protocol_error(self):
        # an honest sender sends an empty frame only for an empty list, as
        # its final frame; refusing others bounds the frames of a list too
        with pytest.raises(ProtocolError, match="SIFT_KEEP 'keep' frame is empty but not final"):
            _bob_receives_keep([[], [1]])


# An honest SUMMARY after an error test with no errors on a single-pair source
_HONEST_SUMMARY = {"n_errors": 0, "multi_pair_fraction": 0.0}


def _alice_receives_sample_bits(payload):
    """Alice's whole endpoint against a scripted Bob who declares no
    detections and then answers the (empty) error test with `payload`."""
    cfg = small_cfg()
    link, peer = memory_pair()
    peer.send(Message("HELLO", {"config": cfg.to_dict(), "wire_version": session_mod.WIRE_VERSION}))
    for frame in _slot_frames("slots", [[]], "bases"):
        peer.send(Message("DETECTIONS", frame))
    peer.send(Message("SAMPLE_BITS", payload))
    peer.close()
    run_alice_endpoint(cfg, link)


class TestHostilePayloads:
    """A SUMMARY or SAMPLE_BITS payload that is malformed ends the session
    with a ProtocolError naming the field, never another exception."""

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: {"n_errors": 0}, "SUMMARY lacks the field 'multi_pair_fraction'"),
            (lambda d: {**d, "n_slots": 50_000}, "SUMMARY has an unknown field 'n_slots'"),
            (lambda d: {**d, "n_errors": 1.0}, re.escape("SUMMARY n_errors must be an integer in [0, 0], got 1.0")),
            (lambda d: {**d, "n_errors": True}, re.escape("n_errors must be an integer in [0, 0], got True")),
            (lambda d: {**d, "n_errors": -1}, re.escape("n_errors must be an integer in [0, 0], got -1")),
            # an error on a sample of no bits, which the nine-field SUMMARY of
            # wire version 4 let through
            (lambda d: {**d, "n_errors": 1}, re.escape("n_errors must be an integer in [0, 0], got 1")),
            (lambda d: {**d, "multi_pair_fraction": "0"},
             re.escape("SUMMARY multi_pair_fraction must be a number in [0, 1], got '0'")),
            (lambda d: {**d, "multi_pair_fraction": -0.5}, re.escape("in [0, 1], got -0.5")),
            (lambda d: {**d, "multi_pair_fraction": 1.5}, re.escape("in [0, 1], got 1.5")),
            (lambda d: {**d, "multi_pair_fraction": math.nan}, re.escape("in [0, 1], got nan")),
        ],
        ids=["missing", "old-extra", "float-errors", "bool-errors", "negative-errors", "errors-past-sample",
             "string-fraction", "negative-fraction", "fraction-above-1", "nan-fraction"],
    )
    def test_malformed_summary_is_a_protocol_error(self, edit, match):
        sample_request = _slot_frames("positions", [[]])[0]
        with pytest.raises(ProtocolError, match=match):
            _run_bob_against(("SAMPLE_REQUEST", sample_request), ("SUMMARY", edit(_HONEST_SUMMARY)))

    def test_honest_summary_is_accepted(self):
        # the scripted conversation above is honest up to the summary; Bob
        # counts the compared bits himself and takes only the two numbers
        sample_request = _slot_frames("positions", [[1, 3, 6]])[0]
        summary = {"n_errors": 2, "multi_pair_fraction": 0.25}
        bob = _run_bob_against(("SAMPLE_REQUEST", sample_request), ("SUMMARY", summary))
        assert bob.summary.qber.n_compared == len(bob.disclosed_positions) == 3
        assert bob.summary.qber.n_errors == 2
        assert bob.summary.to_dict() == session_mod.finalize(
            small_cfg(), 8, 8, protocol.qber_report(3, 2), 0.25
        ).to_dict()

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({}, "bit array is not base-64 text"),
            ({"bits": 5}, "bit array is not base-64 text"),
            ({"bits": "@@@@"}, "bit array is not base-64 text"),
            ({"bits": pack_bits([0])}, "bit array too long: 1 bytes for 0 bits"),
        ],
        ids=["missing", "non-string", "non-base-64", "too-long"],
    )
    def test_malformed_sample_bits_are_a_protocol_error(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            _alice_receives_sample_bits(payload)


class _SummaryRewriter(tp.Transport):
    """A link that overwrites fields of every SUMMARY sent through it."""

    def __init__(self, inner: tp.Transport, **fields):
        self.inner, self.fields = inner, fields

    def send(self, message):
        if message.type == "SUMMARY":
            message = Message("SUMMARY", {**message.payload, **self.fields})
        self.inner.send(message)

    def recv(self):
        return self.inner.recv()

    def close(self):
        self.inner.close()


class TestCraftedConversations:
    """Pin the conversation layer on hand-built records."""

    def _fake_sim(self, cfg, x, y, z, bob_bit):
        return SimulationResult(
            pair_slots=np.array([4], dtype=np.int64),
            n_pairs=np.array([1]),
            x=np.array([x]),
            y=np.array([y]),
            z=np.array([z]),
            theta=np.zeros(1),
            coinc=np.array([True]),
            det1=np.array([1]),
            det2=np.array([4]),
            bob_bits=np.array([bob_bit], dtype=np.uint8),
            multi_pair=np.array([False]),
            alice_rng=np.random.default_rng(1),
        )

    def test_single_coincidence_matching_bases(self, monkeypatch):
        monkeypatch.setattr(
            session_mod, "simulate_quantum", lambda cfg: self._fake_sim(cfg, 0, 1, 0, 1)
        )
        alice, bob = run_session_detailed(small_cfg())
        assert len(alice.sifted_key) == len(bob.sifted_key) == 1
        assert alice.summary.n_sifted == 1
        assert alice.summary.qber.qber == 0.0

    def test_single_coincidence_mismatched_bases(self, monkeypatch):
        monkeypatch.setattr(
            session_mod, "simulate_quantum", lambda cfg: self._fake_sim(cfg, 0, 1, 1, 1)
        )
        alice, bob = run_session_detailed(small_cfg())
        assert len(alice.sifted_key) == len(bob.sifted_key) == 0
        assert alice.summary.qber.qber is None

    def test_corrupt_summary_is_detected_not_deadlocked(self, monkeypatch):
        # Alice's link claims more errors than the one disclosed bit; Bob
        # refuses her SUMMARY and the orchestrator must surface that
        # instead of hanging
        monkeypatch.setattr(
            session_mod, "simulate_quantum", lambda cfg: self._fake_sim(cfg, 0, 1, 0, 1)
        )
        alice_link, bob_link = memory_pair()
        with pytest.raises(ProtocolError, match=re.escape("n_errors must be an integer in [0, 1], got 2")):
            run_session_detailed(small_cfg(), (_SummaryRewriter(alice_link, n_errors=2), bob_link))

    def test_alice_failure_is_reported_over_bobs_closed_channel(self, monkeypatch):
        # Bob only sees the transport close; the error to surface is Alice's
        def boom(cfg):
            raise ValueError("boom")

        monkeypatch.setattr(session_mod, "simulate_quantum", boom)
        with pytest.raises(ValueError, match="boom"):
            run_session_detailed(small_cfg())


class TestExactSummary:
    def test_expected_values_at_defaults(self):
        summary = exact_session_summary(SessionConfig())
        assert summary.n_slots == 5_000_000
        assert summary.raw_rate_hz == pytest.approx(3921.0560847676825)
        assert summary.sifted_rate_hz == pytest.approx(1960.5280423838412)
        assert summary.qber.qber == pytest.approx(0.06, abs=1e-12)
        assert summary.multi_pair_fraction == pytest.approx(0.01986667022208717)
        assert summary.key_rate.rate == pytest.approx(0.34511016169104747, abs=1e-9)

    def test_requires_static_channel(self):
        with pytest.raises(ConfigError, match="static"):
            exact_session_summary(SessionConfig(channel=PerSlotUniformChannel(0, 0.1)))

    def test_requires_no_dark_counts(self):
        with pytest.raises(ConfigError, match="dark"):
            exact_session_summary(SessionConfig(detectors=DetectorParams(dark_count_prob=0.01)))

    def test_efficiency_scales_rates_but_not_qber(self):
        cfg = SessionConfig(detectors=DetectorParams(efficiency=0.5))
        summary = exact_session_summary(cfg)
        assert summary.raw_rate_hz == pytest.approx(3921.0560847676825 * 0.25)
        assert summary.qber.qber == pytest.approx(0.06, abs=1e-12)

    def test_monte_carlo_converges_to_exact(self):
        cfg = small_cfg(duration_s=5.0, sample_fraction=1.0)
        sampled = run_session(cfg)
        exact = exact_session_summary(cfg)
        assert abs(sampled.qber.qber - exact.qber.qber) < 4 * sampled.qber.stderr
        assert sampled.raw_rate_hz == pytest.approx(exact.raw_rate_hz, rel=0.02)
