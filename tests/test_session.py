"""Session engine, conversation, and summary bookkeeping tests."""

import base64
import math
import re
import socket
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfsqkd.session as session_mod
import dfsqkd.transport as tp
from dfsqkd import protocol
from dfsqkd.optics import DetectorParams, PerSlotUniformChannel, RandomWalkChannel, StaticChannel, detect_batch
from dfsqkd.protocol import QberReport, sample_positions
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
            {"detectors": {"efficiency": True}},
            {"detectors": {"dark_count_prob": False}},
            {"detectors": {"efficiency": math.nan}},
            {"detectors": {"efficiency": 1.5}},
            {"detectors": {"dark_count_prob": 1.0}},
            {"duration_s": 1e20},  # slot counts past int64
            {"clock_hz": 1.0, "duration_s": 2.0**63, "pair_rate_hz": 0.0},
            {"clock_hz": 1e200, "duration_s": 1e200, "pair_rate_hz": 1.0},  # the product overflows
            # a walk that bb84 draws and that can pass the float range
            {"protocol": "bb84", "channel": {"kind": "random_walk", "theta0_deg": 0, "step_sigma_deg": 1e308}},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SessionConfig.from_dict(kwargs)

    def test_walk_past_the_float_range_is_refused_only_where_it_is_drawn(self):
        walk = {"kind": "random_walk", "theta0_deg": 0, "step_sigma_deg": 1e306}
        with pytest.raises(ConfigError, match="^step_sigma 1e\\+306 deg over 5000000 slots takes the random walk"):
            SessionConfig.from_dict({"protocol": "bb84", "channel": walk})
        # dfs2 draws no angle, and a walk just inside the bound runs finite
        SessionConfig.from_dict({"protocol": "dfs2", "channel": walk})
        sigma = sys.float_info.max / 2 / 14 / 50_000
        cfg = small_cfg(protocol="bb84", channel=RandomWalkChannel(0.0, sigma))
        sim = simulate_quantum(cfg, "alice")
        assert np.isfinite(cfg.channel.sample_batch(sim.pair_slots, np.random.default_rng(cfg.seeds.channel))).all()

    @pytest.mark.parametrize(
        "name, value",
        [("seeds", (0, 0, 0, 0)), ("visibility", 0.0), ("visibility", 1.0)],
        ids=["seed-0", "visibility-0", "visibility-1"],
    )
    def test_edge_values_are_accepted(self, name, value):
        # each edge of a closed range is a config that runs
        value = Seeds(*value) if name == "seeds" else value
        alice, bob = run_session_detailed(small_cfg(duration_s=0.05, **{name: value}))
        assert alice.summary.to_dict() == bob.summary.to_dict()
        assert alice.summary.n_coincidences > 0

    def test_longest_session_is_accepted(self):
        cfg = SessionConfig(clock_hz=1.0, duration_s=2.0**62, pair_rate_hz=0.0)
        assert cfg.n_slots == 2**62

    def test_dict_round_trip(self):
        cfg = small_cfg(channel=PerSlotUniformChannel(-0.1, 0.4), sample_fraction=0.3)
        again = SessionConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            SessionConfig.from_dict({"prtocol": "dfs2"})


# Chi-square quantiles at 1 - 1e-6 by degrees of freedom, from the
# regularized incomplete gamma function (scipy is not a dependency).
CHI2_1E6 = {1: 23.93, 20: 65.42, 100: 182.13}

# (mean pairs per slot, clock slots, gap bins): over 1e6 pair slots each,
# with the last gap bin the law's tail.
SOURCE_LAWS = [(0.04, 26_000_000, 101), (0.5, 2_600_000, 21)]


def _chi2(observed, probs):
    """Chi-square statistic of counts against bin probabilities whose last
    bin takes the tail."""
    expected = observed.sum() * np.asarray(probs)
    return float(np.sum((observed - expected) ** 2 / expected))


class TestPoissonPairs:
    """The source's skip method: geometric gaps between pair slots, and
    multi-pair flags with the law of a Poisson count truncated at zero
    being 2 or more."""

    @pytest.mark.parametrize("mu, n_slots, bins", SOURCE_LAWS)
    def test_gaps_are_geometric(self, mu, n_slots, bins):
        slots = session_mod._draw_pair_slots(np.random.default_rng(21), mu, n_slots)
        assert len(slots) > 10**6
        gaps = np.diff(slots, prepend=-1)
        p = -math.expm1(-mu)
        probs = p * (1 - p) ** np.arange(bins - 1)
        observed = np.bincount(np.minimum(gaps, bins) - 1, minlength=bins)
        assert _chi2(observed, [*probs, 1 - probs.sum()]) < CHI2_1E6[bins - 1]

    @pytest.mark.parametrize("p", [1e-6, 0.04, 0.5])
    def test_inversion_gaps_follow_the_geometric_law(self, p):
        # about 1e6 gaps each: mean 1/p, variance (1 - p)/p^2, P(gap = 1) = p
        mu = -math.log1p(-p)
        slots = session_mod._draw_pair_slots(np.random.default_rng(23), mu, int(1e6 / p))
        gaps = np.diff(slots, prepend=-1).astype(float)
        n, var = len(gaps), (1 - p) / p**2
        # the sample variance's variance is (mu4 - var^2) / n, and the
        # geometric law's excess kurtosis is 6 + p^2 / (1 - p)
        for got, want, stderr in [
            (gaps.mean(), 1 / p, math.sqrt(var / n)),
            (gaps.var(ddof=1), var, var * math.sqrt((8 + p**2 / (1 - p)) / n)),
            (np.mean(gaps == 1), p, math.sqrt(p * (1 - p) / n)),
        ]:
            assert abs(got - want) < 5 * stderr, (got, want, stderr)

    @pytest.mark.parametrize("mu, n_slots", [law[:2] for law in SOURCE_LAWS])
    def test_multi_pair_flags_are_bernoulli(self, mu, n_slots):
        rng = np.random.default_rng(22)
        multi_pair = session_mod._multi_pair(rng, mu, len(session_mod._draw_pair_slots(rng, mu, n_slots)))
        assert multi_pair.dtype == bool and len(multi_pair) > 10**6
        # P(count = 1 | count >= 1); every other count is a multi-pair slot
        single = mu * math.exp(-mu) / -math.expm1(-mu)
        observed = np.bincount(multi_pair, minlength=2)
        assert _chi2(observed, [single, 1 - single]) < CHI2_1E6[1]

    @pytest.mark.parametrize(
        "mu, n_slots, i",
        [
            (0.04, 10_000, 0),
            (0.04, 10_000, 1),
            (0.04, 10_000, 57),
            (0.5, 1000, 300),
            (1e-12, 1000, None),
            (0.0, 1000, None),
        ],
        ids=["first", "second", "later", "dense", "none-at-a-tiny-rate", "rate-0"],
    )
    def test_a_session_ends_just_before_a_pair_slot_of_a_longer_one(self, mu, n_slots, i):
        # the pair slots of a session of s slots, s one of the pair slots
        # of a longer session from the same seed, are the longer one's below
        # s, and the stream stands k + 1 words on, past the gap that reaches
        # s. With no pair slot, k = 0: one word at a tiny rate, none at 0
        longer = session_mod._draw_pair_slots(np.random.default_rng(25), mu, n_slots)
        s = n_slots if i is None else int(longer[i])
        if i is None:
            assert len(longer) == 0
        rng = np.random.default_rng(25)
        got = session_mod._draw_pair_slots(rng, mu, s)
        _assert_same(got, longer[longer < s])
        replay = np.random.default_rng(25)
        replay.bit_generator.advance(len(got) + 1 if mu else 0)
        assert rng.bit_generator.state == replay.bit_generator.state


class TestEngine:
    def test_slot_record_invariants(self):
        cfg = small_cfg(duration_s=0.05, detectors=DetectorParams(efficiency=0.8, dark_count_prob=0.01))
        sim = _both_parts(cfg)
        k, n = len(sim.pair_slots), len(sim.slots)
        assert k, "expected some pair slots"
        assert len(sim.x) == len(sim.y) == k
        assert len(sim.z) == len(sim.bob_bits) == n
        assert np.all(np.diff(sim.pair_slots) > 0)
        assert np.all((sim.pair_slots >= 0) & (sim.pair_slots < cfg.n_slots))
        # Bob's records are the pair slots that became coincidences
        assert 0 < n < k
        assert np.isin(sim.slots, sim.pair_slots).all() and np.all(np.diff(sim.slots) > 0)
        assert set(sim.bob_bits) <= {0, 1}
        assert sim.multi_pair.dtype == bool and len(sim.multi_pair) == k

    def test_each_call_simulates_one_endpoints_part(self):
        # a call simulates one endpoint's part, in-process as over TCP, so
        # it must name the endpoint
        cfg = small_cfg()
        with pytest.raises(TypeError):
            simulate_quantum(cfg)
        for reader in (None, "both", "eve"):
            with pytest.raises(ValueError, match=f"^reader must be 'alice' or 'bob', got {reader!r}$"):
                simulate_quantum(cfg, reader)

    def test_zero_pair_rate_produces_nothing(self):
        sim = _both_parts(small_cfg(pair_rate_hz=0.0))
        assert len(sim.pair_slots) == len(sim.slots) == len(sim.bob_bits) == 0

    def test_tiny_pair_rate_produces_nothing(self):
        # gaps near 2**63: a batch of them would overflow int64 uncapped, and
        # on 1e15 slots or more a batch of gaps capped at the session's end
        # would too (its sum wrapped and slots past the session came out);
        # at a subnormal mean pairs per slot a gap's quotient passes the
        # float range before its cap
        cases = ((1e-12, 0.5), (1e-300, 0.5), (1e-290, 1e10), (1e-290, 9.2e13), (1e-318, 9.2e13))
        for rate, duration_s in cases:
            assert len(simulate_quantum(small_cfg(pair_rate_hz=rate, duration_s=duration_s), "alice").pair_slots) == 0

    def test_coincidence_count_matches_pair_slots_for_ideal_detectors(self):
        cfg = small_cfg()
        sim = simulate_quantum(cfg, "bob")
        # noiseless detectors convert every pair slot into a coincidence,
        # and Bob's slots are the pair slots' array itself, not a copy
        assert sim.slots is sim.pair_slots
        expected = cfg.n_slots * (1 - math.exp(-cfg.mean_pairs_per_slot))
        sigma = math.sqrt(expected)
        assert abs(len(sim.pair_slots) - expected) < 4 * sigma


KERNELS = {"dfs2": protocol.dfs2_probs_batch, "bb84": protocol.bb84_port1_batch}
CHANNELS = {
    "static": StaticChannel(np.radians(20)),
    "uniform": PerSlotUniformChannel(-np.pi / 6, np.pi / 6),
    "random_walk": RandomWalkChannel(0.1, 1e-3),
}
DETECTORS = {"ideal": DetectorParams(), "lossy": DetectorParams(efficiency=0.8, dark_count_prob=1e-4)}


def _reference_outcomes(protocol_name, probs, u):
    """Outcomes (uint8) decided on whole kernel rows: the count of a row's
    running sums (np.cumsum) below u for dfs2, photon 1's port for bb84."""
    if protocol_name == "dfs2":
        return np.minimum((np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1), 3).astype(np.uint8)
    return 2 * (u >= probs).astype(np.uint8)


def _random_symbol_bits(rng, n):
    """x, y and z bits (uint8) of n pair slots."""
    return (rng.integers(0, 2, size=n).astype(np.uint8) for _ in range(3))


def _uniforms_with_ties(protocol_name, probs, rng):
    """Uniforms for the kernel rows `probs`, every third one equal to one of
    its row's thresholds, where a strict and a loose compare part."""
    u = rng.random(len(probs))
    tied = np.arange(0, len(probs), 3)
    if protocol_name == "dfs2":
        u[tied] = np.cumsum(probs, axis=1)[tied, rng.integers(0, 3, len(tied))]
    else:
        u[tied] = probs[tied]
    return u


def _reference_gaps(words, p):
    """One geometric gap per raw word w, by inversion:
    floor(log(u) / log(1 - p)) + 1 with u = ((w >> 11) + 1) 2^-53."""
    u = ((words >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    return np.floor(np.log(u) / math.log1p(-p)).astype(np.int64) + 1


def _reference_bits(rng, k):
    """k bits from ceil(k/64) raw words: bit i is (words[i // 64] >> (i % 64)) & 1."""
    words = rng.bit_generator.random_raw(-(-k // 64))
    i = np.arange(k)
    return ((words[i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)).astype(np.uint8)


def _reference_pair_slots(cfg):
    """The pair slots from one draw of more raw words than the session can
    use, one per gap, and a source stream that has then drawn exactly the
    k + 1 words of the k pair slots' gaps and of the gap past the last slot."""
    p = -math.expm1(-cfg.mean_pairs_per_slot)
    expected = cfg.n_slots * p
    words = np.random.default_rng(cfg.seeds.source).bit_generator.random_raw(int(expected + 10 * math.sqrt(expected)) + 100)
    slots = np.cumsum(_reference_gaps(words, p)) - 1
    k = int(np.searchsorted(slots, cfg.n_slots))
    assert k < len(slots)
    replay = np.random.default_rng(cfg.seeds.source)
    replay.bit_generator.random_raw(k + 1)
    return slots[:k], replay


def _reference_pair_counts(cfg, k, replay):
    """Each of the k pair slots' pair counts, by inverse CDF of the Poisson
    law truncated at zero on its uniform of the source stream `replay`."""
    mu = cfg.mean_pairs_per_slot
    # P(count = n | count >= 1) for n = 1, 2, ... until a term is below rounding
    terms = [mu * math.exp(-mu) / -math.expm1(-mu)]
    while terms[-1] > 1e-17:
        terms.append(terms[-1] * mu / (len(terms) + 1))
    cdf = np.cumsum(terms)
    counts = 1 + np.searchsorted(cdf, replay.random(k), side="right")
    return np.minimum(counts, len(cdf))


def _reference_simulation(cfg):
    """The engine's result from the seeds of `cfg` by the one-shot path:
    every gap from one draw of raw words, bits by their shift definition,
    pair counts by inverse CDF, the channel's angle at every pair slot,
    one kernel call over every pair slot, outcomes decided on whole rows,
    the detector layer's draws even for ideal detectors, and its mask
    applied to Bob's records afterwards; and the share of the
    coincidences that held more than one pair, over that mask."""
    seeds = cfg.seeds
    rng_alice, rng_bob, rng_channel = (np.random.default_rng(seed) for seed in (seeds.alice, seeds.bob, seeds.channel))
    pair_slots, rng_source = _reference_pair_slots(cfg)
    k = len(pair_slots)
    n_pairs = _reference_pair_counts(cfg, k, rng_source)
    x = _reference_bits(rng_alice, k)
    y = _reference_bits(rng_alice, k)
    z = _reference_bits(rng_bob, k)
    theta = cfg.channel.sample_batch(pair_slots, rng_channel)
    u = rng_source.random(k)
    outcome = _reference_outcomes(cfg.protocol, KERNELS[cfg.protocol](4 * x + 2 * y + z, theta, cfg.visibility), u)
    coinc, fired = detect_batch(outcome, cfg.detectors, rng_source)
    if cfg.protocol == "dfs2":
        bob_bits = protocol.OUTCOME_BIT[fired]
    else:
        bob_bits = protocol.BB84_PORT_BIT[z, fired >> 1]
    n_coinc = np.count_nonzero(coinc)
    return SimpleNamespace(
        pair_slots=pair_slots,
        x=x,
        y=y,
        alice_rng=rng_alice,
        multi_pair=n_pairs >= 2,
        slots=pair_slots[coinc],
        z=z[coinc],
        bob_bits=bob_bits[coinc],
        multi_pair_fraction=float((n_pairs >= 2)[coinc].sum() / n_coinc) if n_coinc else 0.0,
    )


SIMULATION_ARRAYS = ("pair_slots", "x", "y", "multi_pair", "slots", "z", "bob_bits")


def _both_parts(cfg):
    """Alice's and Bob's parts of the quantum side, simulated as an
    in-process session simulates them, on one draw of their prefix, with
    Bob's outcomes decided: one namespace of every SIMULATION_ARRAYS name
    and Alice's stream."""
    prefix = session_mod._draw_prefix(cfg)
    alice, bob = simulate_quantum(cfg, "alice", prefix), simulate_quantum(cfg, "bob", prefix)
    return SimpleNamespace(
        pair_slots=alice.pair_slots,
        x=alice.x,
        y=alice.y,
        alice_rng=alice.alice_rng,
        multi_pair=alice.multi_pair,
        slots=bob.slots,
        z=bob.z,
        bob_bits=bob.bob_bits,
    )


def _kept_streams(monkeypatch) -> dict:
    """Every stream the session module makes from here on, as a list per
    seed in the order made."""
    streams, make = {}, session_mod._stream

    def kept(seed, words=0):
        rng = make(seed, words)
        streams.setdefault(seed, []).append(rng)
        return rng

    monkeypatch.setattr(session_mod, "_stream", kept)
    return streams


def _assert_same(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


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
            sim = _both_parts(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sim.pair_slots) < 20_000
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("batch", [1, 3, 4096, 65536])
    def test_output_does_not_depend_on_the_gap_batch(self, monkeypatch, batch):
        # lossy detectors on a random walk: every stream is drawn from, and
        # 2 s is about 7 900 pair slots, so the short batches are many
        cfg = small_cfg(protocol="bb84", duration_s=2.0, channel=CHANNELS["random_walk"], detectors=DETECTORS["lossy"])
        mu, n = cfg.mean_pairs_per_slot, cfg.n_slots
        want = _both_parts(cfg)
        want_next = np.random.default_rng(cfg.seeds.source)
        session_mod._draw_pair_slots(want_next, mu, n)
        monkeypatch.setattr(session_mod, "GAP_BATCH", batch)
        got = _both_parts(cfg)
        for name in SIMULATION_ARRAYS:
            _assert_same(getattr(got, name), getattr(want, name))
        assert got.alice_rng.bit_generator.state == want.alice_rng.bit_generator.state
        # the source stream goes on from the same place
        got_next = np.random.default_rng(cfg.seeds.source)
        session_mod._draw_pair_slots(got_next, mu, n)
        np.testing.assert_array_equal(got_next.bit_generator.random_raw(16), want_next.bit_generator.random_raw(16))

    @pytest.mark.parametrize("room", [1, 3, 100])
    def test_output_does_not_depend_on_the_room_estimate(self, monkeypatch, room):
        # an estimate far too small grows the slot array at every batch
        mu, n = 0.04, 50_000
        want_next = np.random.default_rng(24)
        want = session_mod._draw_pair_slots(want_next, mu, n)
        monkeypatch.setattr(session_mod, "_room", lambda left, p: room)
        got_next = np.random.default_rng(24)
        got = session_mod._draw_pair_slots(got_next, mu, n)
        _assert_same(got, want)
        np.testing.assert_array_equal(got_next.bit_generator.random_raw(16), want_next.bit_generator.random_raw(16))

    def test_pair_slot_draws_hold_little_beyond_their_result(self):
        # 2e7 clock slots at the default rate, about 785 000 pair slots
        # (6.7 MiB of slots and flags): beyond the result, the draws hold
        # about one gap batch, where a list of batches, their concatenation
        # and a float per pair slot took 14 MiB more
        tracemalloc.start()
        try:
            rng = np.random.default_rng(4)
            slots = session_mod._draw_pair_slots(rng, 0.04, 20_000_000)
            multi_pair = session_mod._multi_pair(rng, 0.04, len(slots))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(slots) > 700_000
        extra = peak - slots.base.nbytes - multi_pair.nbytes
        assert extra < 64 * session_mod.GAP_BATCH, f"{extra / 2**20:.1f} MiB"

    @pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 1000])
    def test_bits_are_the_raw_words_least_significant_bit_first(self, k):
        rng = np.random.default_rng(k)
        bits = session_mod._bits(rng, k)
        replay = np.random.default_rng(k)
        _assert_same(bits, _reference_bits(replay, k))
        # exactly ceil(k / 64) words, no more
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_a_billion_clock_slots_take_seconds(self):
        # 1e4 s at 40 pairs/s: 1e9 clock slots, about 4e5 pair slots
        cfg = small_cfg(pair_rate_hz=40, duration_s=1e4)
        start = time.perf_counter()
        sim = _both_parts(cfg)
        elapsed = time.perf_counter() - start
        expected = cfg.n_slots * -math.expm1(-cfg.mean_pairs_per_slot)
        assert cfg.n_slots == 10**9
        assert abs(len(sim.pair_slots) - expected) < 5 * math.sqrt(expected)
        assert elapsed < 5.0, f"{elapsed:.2f} s"

    # Measured with numpy 2.4: at most 16.8 B per pair slot for both parts
    # of the engine on one prefix (21.8 when one run decided both at once;
    # whole-session outcome uniforms and gathers made it 31.1, and an int64
    # outcome per pair slot 38.1) and 26.8 B for the whole session over 10
    # runs (30.1 while Alice gathered each declaration frame by index, and
    # 32.9 with Bob's outcome blocks of 2**16 on his own thread beside her
    # lookups). The bounds leave room for other numpy versions.
    @pytest.mark.parametrize(
        "run, bound", [(_both_parts, 25), (run_session_detailed, 29)], ids=["simulate", "session"]
    )
    @pytest.mark.parametrize("protocol_name", protocol.PROTOCOLS)
    def test_peak_memory_per_pair_slot(self, protocol_name, run, bound):
        # the default 4000 pairs/s for 50 s: about 196 000 pair slots
        cfg = small_cfg(protocol=protocol_name, duration_s=50.0, channel=CHANNELS["static"])
        k = len(simulate_quantum(cfg, "alice").pair_slots)
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / k <= bound, f"{peak / k:.0f} B per pair slot"

    @pytest.mark.parametrize("protocol_name", protocol.PROTOCOLS)
    def test_static_table_equals_the_per_row_kernel(self, protocol_name):
        rng = np.random.default_rng(5)
        x, y, z = _random_symbol_bits(rng, 1000)
        s = 4 * x.astype(np.intp) + 2 * y + z
        slots = np.arange(1000)
        for deg in (0.0, 7.5, 20.0, 45.0, 90.0, -33.0):
            cfg = small_cfg(protocol=protocol_name, channel=StaticChannel(np.radians(deg)))
            theta = np.full(1000, np.radians(deg))
            probs = KERNELS[protocol_name](s, theta, cfg.visibility)
            # on the source stream's uniforms, drawn a block at a time
            got = session_mod._outcomes(cfg, x, y, z, slots, np.random.default_rng(9), np.random.default_rng(0))
            _assert_same(got, _reference_outcomes(protocol_name, probs, np.random.default_rng(9).random(1000)))
            # and on uniforms tied to a threshold, the table's rows read by
            # symbol, as _outcomes reads them
            table = KERNELS[protocol_name](np.arange(8), np.full(8, np.radians(deg)), cfg.visibility)
            u = _uniforms_with_ties(protocol_name, probs, rng)
            _assert_same(session_mod._decide(cfg, table, u, s), _reference_outcomes(protocol_name, probs, u))

    @pytest.mark.parametrize("protocol_name", protocol.PROTOCOLS)
    @pytest.mark.parametrize("block", [7, 4096])
    def test_kernel_blocks_equal_one_call(self, monkeypatch, protocol_name, block):
        rng = np.random.default_rng(6)
        x, y, z = _random_symbol_bits(rng, 10_000)
        s = 4 * x.astype(np.intp) + 2 * y + z
        slots = np.arange(10_000)
        cfg = small_cfg(protocol=protocol_name, channel=PerSlotUniformChannel(-np.pi, np.pi))
        theta = cfg.channel.sample_batch(slots, np.random.default_rng(7))
        probs = KERNELS[protocol_name](s, theta, cfg.visibility)
        monkeypatch.setattr(session_mod, "BORN_BLOCK", block)
        got = session_mod._outcomes(cfg, x, y, z, slots, np.random.default_rng(9), np.random.default_rng(7))
        _assert_same(got, _reference_outcomes(protocol_name, probs, np.random.default_rng(9).random(10_000)))
        # each block's rows decided on their own, on uniforms tied to a threshold
        u = _uniforms_with_ties(protocol_name, probs, rng)
        blocks = [session_mod._decide(cfg, probs[i : i + block], u[i : i + block]) for i in range(0, 10_000, block)]
        _assert_same(np.concatenate(blocks), _reference_outcomes(protocol_name, probs, u))

    @pytest.mark.parametrize("block", [1, 7, 4096, None], ids=["1", "7", "4096", "default"])
    @pytest.mark.parametrize("detectors", DETECTORS)
    @pytest.mark.parametrize(
        "protocol_name, channel", [("dfs2", "static"), ("bb84", "random_walk")], ids=["table", "per-row"]
    )
    def test_outcome_blocks_equal_one_draw(self, monkeypatch, protocol_name, channel, detectors, block):
        # 2 s is about 7 900 pair slots, 20 s about 78 000: more than one
        # block at each size
        if block is not None:
            monkeypatch.setattr(session_mod, "BORN_BLOCK", block)
        cfg = small_cfg(
            protocol=protocol_name,
            channel=CHANNELS[channel],
            detectors=DETECTORS[detectors],
            duration_s=2.0 if block is not None else 20.0,
        )
        streams = _kept_streams(monkeypatch)
        sim = _both_parts(cfg)
        k = len(sim.pair_slots)
        assert k > session_mod.BORN_BLOCK
        # _reference_simulation draws the outcome uniforms as one random(k)
        ref = _reference_simulation(cfg)
        for name in SIMULATION_ARRAYS:
            _assert_same(getattr(sim, name), getattr(ref, name))
        # Bob's source stream, the last made, then stands where k + 1 gap
        # words, k multi-pair uniforms, one draw of k outcome uniforms and,
        # for lossy detectors, the six words per pair slot that follow them
        # leave it
        _, replay = _reference_pair_slots(cfg)
        replay.random(k)
        replay.random(k)
        if detectors == "lossy":
            replay.bit_generator.advance(6 * k)
        assert streams[cfg.seeds.source][-1].bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("n", [0, 1, 7, 65_536, 100_003])
    def test_uniforms_are_generator_random_from_raw_words(self, n):
        rng = np.random.default_rng(n + 3)
        got = session_mod._uniforms(rng.bit_generator, np.empty(n))
        replay = np.random.default_rng(n + 3)
        want = replay.random(n)
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        # one word each, no more
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("channel", ["uniform", "random_walk"])
    @pytest.mark.parametrize("protocol_name", protocol.PROTOCOLS)
    def test_only_an_angle_dependent_law_draws_the_channel(self, monkeypatch, protocol_name, channel):
        # dfs2's outcome law has no angle terms, so its sessions decide every
        # pair slot from the symbol table and leave the channel stream alone
        model = CHANNELS[channel]
        original, calls = type(model).sample_batch, []

        def sample_batch(self, slots, rng):
            calls.append(len(slots))
            return original(self, slots, rng)

        monkeypatch.setattr(type(model), "sample_batch", sample_batch)
        sim = _both_parts(small_cfg(protocol=protocol_name, channel=model))
        assert calls == ([] if protocol_name == "dfs2" else [len(sim.pair_slots)])

    @pytest.mark.parametrize("detectors", DETECTORS)
    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("protocol_name", protocol.PROTOCOLS)
    def test_engine_equals_the_one_shot_reference(self, protocol_name, channel, detectors):
        # 20 s: about 78 000 pair slots, more than one BORN_BLOCK
        cfg = small_cfg(
            protocol=protocol_name, channel=CHANNELS[channel], detectors=DETECTORS[detectors], duration_s=20.0
        )
        sim = _both_parts(cfg)
        assert len(sim.pair_slots) > session_mod.BORN_BLOCK
        ref = _reference_simulation(cfg)
        for name in SIMULATION_ARRAYS:
            _assert_same(getattr(sim, name), getattr(ref, name))
        # Alice's stream is left where the one-shot draws leave it: x and y
        # took ceil(k / 64) words each
        assert sim.alice_rng.bit_generator.state == ref.alice_rng.bit_generator.state


class TestSessions:
    def test_determinism(self):
        cfg = small_cfg()
        a1, b1 = run_session_detailed(cfg)
        a2, b2 = run_session_detailed(cfg)
        assert a1.summary.to_dict() == a2.summary.to_dict()
        np.testing.assert_array_equal(a1.sifted_key, a2.sifted_key)
        np.testing.assert_array_equal(b1.sifted_key, b2.sifted_key)

    def test_sides_agree(self):
        cfg = small_cfg()
        alice, bob = run_session_detailed(cfg)
        assert alice.summary.to_dict() == bob.summary.to_dict()
        n_sifted = alice.summary.n_sifted
        assert len(alice.sifted_key) == len(bob.sifted_key) == n_sifted
        # the error count reported is exactly the disagreement on the sample,
        # which Alice draws from her stream where the engine leaves it
        positions = sample_positions(n_sifted, cfg.sample_fraction, simulate_quantum(cfg, "alice").alice_rng)
        assert len(positions) == alice.summary.qber.n_compared
        mism = np.count_nonzero(alice.sifted_key[positions] != bob.sifted_key[positions])
        assert mism == alice.summary.qber.n_errors > 0

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
        over_socket = run_session_detailed(cfg, link=(StreamTransport(left), StreamTransport(right)))[0].summary
        assert in_process.n_coincidences > 2_000_000
        assert over_socket.to_dict() == in_process.to_dict()
        assert max(frame_sizes) <= 2 * 2**20

    def test_default_session_sends_at_most_10_bytes_per_sifted_bit(self, frame_sizes):
        # every frame of both endpoints, length prefixes included
        summary = run_session(SessionConfig(duration_s=10))
        assert sum(frame_sizes) / summary.n_sifted <= 10


def _endpoints_on_threads(cfg, links):
    """Alice's and Bob's endpoints over `links`, as two processes run them,
    Bob on a thread of his own (session._run_pair), each drawing the
    prefix of the quantum side itself. Returns both results."""
    return session_mod._run_pair(
        lambda link: run_alice_endpoint(cfg, link), lambda link: run_bob_endpoint(cfg, link), links
    )


class TestEachEndpointSimulatesItsOwnSide:
    """Each endpoint runs the quantum side itself from the shared config
    and seeds, as the CLI runs them, and reads only its own part of it:
    over a socket pair from its own draw of the prefix, in-process from
    one draw that both share."""

    @pytest.mark.parametrize(
        "cfg",
        [
            small_cfg(protocol="bb84", duration_s=2.0, channel=CHANNELS["random_walk"], detectors=DETECTORS["lossy"]),
            small_cfg(duration_s=2.0, channel=CHANNELS["uniform"]),
        ],
        ids=["bb84-walk-lossy", "dfs2-uniform"],
    )
    def test_endpoints_that_simulate_alone_equal_the_shared_run(self, monkeypatch, cfg):
        # lists of several frames: about 7 800 pair slots in frames of 1000
        monkeypatch.setattr(session_mod, "SLOT_CHUNK", 1000)
        want_alice, want_bob = run_session_detailed(cfg)
        got_alice, got_bob = _endpoints_on_threads(cfg, tuple(map(StreamTransport, socket.socketpair())))
        assert want_alice.summary.n_coincidences > 3 * session_mod.SLOT_CHUNK
        for got, want in ((got_alice, want_alice), (got_bob, want_bob)):
            assert got.summary.to_dict() == want.summary.to_dict()
            _assert_same(got.sifted_key, want.sifted_key)

    @pytest.mark.parametrize("detectors", DETECTORS)
    @pytest.mark.parametrize("protocol_name", protocol.PROTOCOLS)
    def test_alice_runs_no_born_kernel_and_no_detector_layer(self, monkeypatch, protocol_name, detectors):
        # She reads no outcome and no detector draw; Bob decides both.
        cfg = small_cfg(protocol=protocol_name, channel=CHANNELS["random_walk"], detectors=DETECTORS[detectors])
        want = run_session(cfg)
        calls = []
        for owner, name in ((protocol, "dfs2_probs_batch"), (protocol, "bb84_port1_batch"), (session_mod, "detect_batch")):

            def traced(*args, _original=getattr(owner, name), _name=name):
                calls.append((threading.current_thread().name, _name))
                return _original(*args)

            monkeypatch.setattr(owner, name, traced)
        alice, bob = _endpoints_on_threads(cfg, tuple(map(StreamTransport, socket.socketpair())))
        assert alice.summary.to_dict() == bob.summary.to_dict() == want.to_dict()
        kernel = KERNELS[protocol_name].__name__
        assert {who for who, _ in calls} == {"bob-endpoint"}
        assert {name for _, name in calls} == {kernel, *(["detect_batch"] if detectors == "lossy" else [])}

    @pytest.mark.parametrize("mode", ["in-process", "socket-pair"])
    @pytest.mark.parametrize("detectors", DETECTORS)
    def test_bob_declares_before_deciding_under_ideal_detectors(self, monkeypatch, detectors, mode):
        # His declaration does not depend on his outcomes unless the
        # detector layer thins it, so it goes first and they follow, in
        # either mode.
        # about 1 950 pair slots: lists of two frames, outcomes in 4 blocks
        monkeypatch.setattr(session_mod, "SLOT_CHUNK", 1000)
        monkeypatch.setattr(session_mod, "BORN_BLOCK", 500)
        events = []
        decide = session_mod._decide

        def logged_decide(*args):
            events.append("decide")
            return decide(*args)

        monkeypatch.setattr(session_mod, "_decide", logged_decide)
        cfg = small_cfg(detectors=DETECTORS[detectors])
        if mode == "in-process":
            alice_link, bob_link = memory_pair()
            run_session_detailed(cfg, (alice_link, _Logged(bob_link, events)))
        else:
            alice_link, bob_link = map(StreamTransport, socket.socketpair())
            _endpoints_on_threads(cfg, (alice_link, _Logged(bob_link, events)))
        declared = events.index("DETECTIONS")
        # more than one frame of each
        assert events.count("DETECTIONS") > 1 and events.count("decide") > 1
        if detectors == "ideal":
            assert declared < events.index("decide")
        else:
            assert events.index("decide") < declared

    @pytest.mark.parametrize("detectors", DETECTORS)
    @pytest.mark.parametrize("protocol_name", protocol.PROTOCOLS)
    def test_multi_pair_fraction_counts_bobs_coincidences(self, protocol_name, detectors):
        # Alice counts the flags of the slots Bob declares, which lossy
        # detectors thin: the share over the engine's coincidence mask.
        cfg = small_cfg(
            protocol=protocol_name, duration_s=5.0, channel=CHANNELS["uniform"], detectors=DETECTORS[detectors]
        )
        want = _reference_simulation(cfg).multi_pair_fraction
        alice, bob = _endpoints_on_threads(cfg, tuple(map(StreamTransport, socket.socketpair())))
        in_process = run_session(cfg)
        k = len(simulate_quantum(cfg, "alice").pair_slots)
        assert alice.summary.n_coincidences == k if detectors == "ideal" else 0 < alice.summary.n_coincidences < k
        for got in (alice.summary, bob.summary, in_process):
            assert type(got.multi_pair_fraction) is float
            assert got.multi_pair_fraction == want

    @pytest.mark.parametrize("detectors", DETECTORS)
    def test_each_reader_draws_only_what_it_reads(self, monkeypatch, detectors):
        # bb84 on a random walk, so that Bob draws every stream. Each draws
        # the prefix on a source stream of its own, and then makes one more,
        # moved on to where the prefix left the first, to draw from.
        cfg = small_cfg(protocol="bb84", duration_s=2.0, channel=CHANNELS["random_walk"], detectors=DETECTORS[detectors])
        streams = _kept_streams(monkeypatch)
        alice = simulate_quantum(cfg, "alice")
        bob = simulate_quantum(cfg, "bob")
        sources = streams[cfg.seeds.source][1::2]
        ref = _reference_simulation(cfg)
        k = len(ref.pair_slots)
        # Alice's source stream stops after the k + 1 gap words and the k
        # multi-pair words; she holds her part and none of Bob's
        _, replay = _reference_pair_slots(cfg)
        replay.bit_generator.advance(k)
        assert sources[0].bit_generator.state == replay.bit_generator.state
        for name in ("pair_slots", "x", "y", "multi_pair"):
            _assert_same(getattr(alice, name), getattr(ref, name))
        assert alice.alice_rng.bit_generator.state == ref.alice_rng.bit_generator.state
        assert alice.slots is alice.z is alice.bob_bits is None
        # Bob skips the multi-pair words; under ideal detectors his
        # declaration is ready and his outcomes wait for the first read of
        # his bits
        if detectors == "ideal":
            assert sources[1].bit_generator.state == replay.bit_generator.state
        for name in ("pair_slots", "slots", "z", "bob_bits"):
            _assert_same(getattr(bob, name), getattr(ref, name))
        assert bob.x is bob.y is bob.multi_pair is bob.alice_rng is None
        # then his source stream stands after the outcome words and, for
        # lossy detectors, the detector words
        replay.random(k)
        if detectors == "lossy":
            replay.bit_generator.advance(6 * k)
        assert sources[1].bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("pair_rate_hz", [4000.0, 1e-9, 0.0], ids=["default", "none-at-a-tiny-rate", "rate-0"])
    def test_streams_go_on_where_the_prefix_leaves_them(self, monkeypatch, pair_rate_hz):
        # each endpoint moves its source and alice streams on by word count,
        # not by drawing again: to where the prefix's own draws leave them
        # (k + 1 gap words; one at a tiny rate, none at rate 0), and the
        # source stream past the k multi-pair words, which Alice draws and
        # Bob skips. Under ideal detectors Bob has drawn nothing more yet.
        cfg = small_cfg(pair_rate_hz=pair_rate_hz)
        streams = _kept_streams(monkeypatch)
        prefix = session_mod._draw_prefix(cfg)
        alice = simulate_quantum(cfg, "alice", prefix)
        simulate_quantum(cfg, "bob", prefix)
        prefix_source, alice_source, bob_source = streams[cfg.seeds.source]
        prefix_alice, alice_rng = streams[cfg.seeds.alice]
        assert alice_rng is alice.alice_rng
        assert alice_rng.bit_generator.state == prefix_alice.bit_generator.state
        prefix_source.bit_generator.advance(len(prefix[0]))
        for source in (alice_source, bob_source):
            assert source.bit_generator.state == prefix_source.bit_generator.state

    def test_bob_reads_only_his_records(self, monkeypatch):
        cfg = small_cfg(protocol="bb84", channel=CHANNELS["random_walk"], detectors=DETECTORS["lossy"])
        want = run_session(cfg)
        simulate = session_mod.simulate_quantum

        def bobs_records_alone(cfg, reader, prefix=None):
            sim = simulate(cfg, reader, prefix)
            return _BobsRecords(sim.slots, sim.z, sim.bob_bits) if reader == "bob" else sim

        monkeypatch.setattr(session_mod, "simulate_quantum", bobs_records_alone)
        alice, bob = run_session_detailed(cfg)
        assert bob.summary.to_dict() == alice.summary.to_dict() == want.to_dict()
        alice, bob = _endpoints_on_threads(cfg, tuple(map(StreamTransport, socket.socketpair())))
        assert bob.summary.to_dict() == alice.summary.to_dict() == want.to_dict()


class TestSiftExchange:
    """The two halves of the sifting conversation, driven directly."""

    def test_matching_and_mismatching_bases(self, sift_halves):
        # slots 2 and 9 match bases, slot 5 does not
        a_key, b_key = sift_halves(
            pair_slots=[2, 5, 9], x=[0, 1, 1], y=[1, 1, 0], slots=[2, 5, 9], z=[0, 0, 1], bits=[0, 1, 1]
        )
        np.testing.assert_array_equal(a_key, [1, 0])
        np.testing.assert_array_equal(b_key, [0, 1])

    @pytest.mark.parametrize("mode", ["in-process", "socket-pair"])
    def test_keep_bits_to_a_closed_peer_are_a_closed_transport(self, mode):
        # Bob declares and then closes his end, as his link does when his
        # endpoint fails: Alice's SIFT_KEEP fails at once, in-process as
        # over a socket pair
        link, peer = memory_pair() if mode == "in-process" else map(StreamTransport, socket.socketpair())
        (declaration,) = _slot_frames("slots", [[2, 5]], "bases")
        peer.send(Message("DETECTIONS", declaration))
        peer.close()
        zeros = np.zeros(8, dtype=np.uint8)
        try:
            with pytest.raises(tp.TransportClosed):
                alice_sift_exchange(link, np.arange(8), zeros, zeros, np.zeros(8, bool))
        finally:
            link.close()

    def test_unknown_slot_rejected(self, sift_halves):
        with pytest.raises(ProtocolError, match="without pairs: slot 3"):
            sift_halves(
                pair_slots=[2, 5], x=[0, 1], y=[1, 0], slots=[3], z=[0], bits=[1]
            )

    @pytest.mark.parametrize(
        "pair_slots, slot",
        [([2, 5], 6), ([], 0)],
        ids=["past-the-last-pair-slot", "no-pair-slots"],
    )
    def test_slot_past_the_last_pair_slot_rejected(self, sift_halves, pair_slots, slot):
        # Alice's bound is one past her last pair slot, so every slot her
        # lookup (_indices_in) meets lies at or below that pair slot
        n = len(pair_slots)
        with pytest.raises(ProtocolError, match=f"'slots' rises to {slot}, not below {slot}"):
            sift_halves(pair_slots=pair_slots, x=[0] * n, y=[0] * n, slots=[slot], z=[0], bits=[1])

    @pytest.mark.parametrize("known, slots, missing", [([2, 5], [2, 3, 4], 3)], ids=["between"])
    def test_indices_in_names_the_first_missing_slot(self, known, slots, missing):
        known, slots = np.array(known, dtype=np.int64), np.array(slots, dtype=np.int64)
        with pytest.raises(ProtocolError, match=f"not here: slot {missing}$"):
            session_mod._indices_in(known, slots, "not here")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 2**63 - 1), unique=True, max_size=40).map(sorted),
        st.data(),
    )
    def test_indices_in_equals_searchsorted(self, known, data):
        # any subset of `known`; a whole span of it, as Bob declares under
        # ideal detectors; and that span with one slot dropped. Slots that
        # `known` lacks (none past its last entry), added to the subset or to
        # the span, or put in place of one of the span's own, are refused,
        # the first one named. A span of `known`, and only a span, comes back
        # as its slice.
        picked = data.draw(st.lists(st.booleans(), min_size=len(known), max_size=len(known)))
        subset = [v for v, keep in zip(known, picked) if keep]
        found, refused = [subset], []
        if known:
            lacked = data.draw(st.lists(st.integers(0, known[-1]), min_size=1, max_size=4))
            lacked = sorted(set(lacked) - set(known))
            if lacked:
                refused.append((sorted(set(subset) | set(lacked)), lacked[0]))
            i = data.draw(st.integers(0, len(known) - 1))
            span = known[i : data.draw(st.integers(i + 1, len(known)))]
            dropped = data.draw(st.integers(0, len(span) - 1))
            shorter = span[:dropped] + span[dropped + 1 :]
            found += [span, shorter]
            extra = data.draw(st.integers(span[0], span[-1]))
            if extra not in known:
                refused += [(sorted([*span, extra]), extra), (sorted([*shorter, extra]), extra)]
        known = np.array(known, dtype=np.int64)
        for slots in found:
            slots = np.array(slots, dtype=np.int64)
            got, want = session_mod._indices_in(known, slots, "not here"), np.searchsorted(known, slots)
            if len(want) == 0 or want[-1] - want[0] + 1 == len(want):
                assert isinstance(got, slice) and got.step is None
                got = np.arange(got.start, got.stop)
            _assert_same(got, want)
        for slots, first in refused:
            with pytest.raises(ProtocolError, match=f"^not here: slot {first}$"):
                session_mod._indices_in(known, np.array(slots, dtype=np.int64), "not here")

    def test_indices_in_holds_one_chunk_at_a_time(self):
        # one full frame among 784 054 pair slots, Alice's at 200 s: the
        # SLOT_CHUNK slots from the 400 000th on, less one in the middle, so
        # that the lookup merges. Beyond the returned indices it holds a few
        # arrays of one or two frames' length, none of the pair slots'
        known = np.cumsum(np.random.default_rng(8).integers(1, 50, 784_054))
        n = session_mod.SLOT_CHUNK
        span = np.arange(400_000, 400_001 + n)
        slots = np.delete(known[span], n // 2)
        tracemalloc.start()
        try:
            idx = session_mod._indices_in(known, slots, "not here")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(idx, np.delete(span, n // 2))
        assert peak - idx.nbytes < 80 * n, f"{(peak - idx.nbytes) / 2**20:.1f} MiB"
        # the whole of `known` is its one span
        assert session_mod._indices_in(known, known, "not here") == slice(0, len(known))


def _slot_frames(key, chunks, *bit_names):
    """Payloads carrying one slot list, one frame per chunk, each with an
    all-zero bit array per name in bit_names. A chunk that is a list of
    slots is packed, continuing from the previous chunk; any other value
    goes under `key` as it is, and None leaves `key` out. The helpers
    below send them from a scripted peer (_scripted)."""
    frames = []
    prev = -1
    for chunk in chunks:
        slots = chunk if isinstance(chunk, list) else []
        payload = {name: pack_bits([0] * len(slots)) for name in bit_names}
        if isinstance(chunk, list):
            payload[key] = pack_slots(chunk, prev)
            prev = chunk[-1] if chunk else prev
        elif chunk is not None:
            payload[key] = chunk
        frames.append(payload)
    return frames


def _chunked(entries):
    """An honest sender's chunks of a list: SLOT_CHUNK entries each, then
    a shorter last one, which is empty when SLOT_CHUNK divides the length."""
    entries, chunk = list(entries), session_mod.SLOT_CHUNK
    return [entries[i : i + chunk] for i in range(0, len(entries) + 1, chunk)]


def _scripted(*messages):
    """A link whose peer has sent `messages`, (type, payload) pairs, and
    then nothing more (InMemoryTransport.shutdown_send), so that a
    receiver that accepts them all meets a closed channel rather than
    waiting forever. The link can still send to the peer."""
    link, peer = memory_pair()
    for kind, payload in messages:
        peer.send(Message(kind, payload))
    peer.shutdown_send()
    return link


def _hello(cfg):
    return "HELLO", {"config": cfg.to_dict(), "wire_version": session_mod.WIRE_VERSION}


def _alice_receives_declaration(chunks):
    link = _scripted(*(("DETECTIONS", payload) for payload in _slot_frames("slots", chunks, "bases")))
    alice_sift_exchange(link, np.arange(8), np.zeros(8, dtype=np.int64), np.zeros(8, dtype=np.int64), np.zeros(8, bool))


def _record_bits(n):
    """The bits of Bob's n records in a scripted conversation: mixed, so
    that his sifted key shows which records he kept."""
    return np.random.default_rng(n).integers(0, 2, n).astype(np.uint8)


class _BobsRecords:
    """Stands in for Bob's SimulationResult with his records alone: their
    slots, bases and bits. Reading any other field fails."""

    def __init__(self, slots, z, bob_bits):
        self.slots, self.z, self.bob_bits = slots, z, bob_bits

    def __getattr__(self, name):
        raise AssertionError(f"Bob's endpoint read SimulationResult.{name}")


def _run_bob_against(*frames, records=tuple(range(8)), keep=None, sample_fraction=0.1):
    """Bob's whole endpoint, holding records on the slots `records` (eight
    on slots 0-7 by default) with the bits _record_bits gives, against a
    scripted Alice who sends HELLO, then the SIFT_KEEP payloads `keep` (by
    default keep bits of all ones, one frame per frame of his declaration),
    then `frames`. Returns Bob's result."""
    cfg = small_cfg(sample_fraction=sample_fraction)
    if keep is None:
        keep = [{"keep": pack_bits([1] * len(chunk))} for chunk in _chunked(records)]
    link = _scripted(_hello(cfg), *(("SIFT_KEEP", payload) for payload in keep), *frames)
    n = len(records)
    sim = _BobsRecords(np.array(records, dtype=np.int64), np.zeros(n, dtype=np.uint8), _record_bits(n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_mod, "simulate_quantum", lambda cfg, reader, prefix=None: sim)
        return run_bob_endpoint(cfg, link)


def _bob_receives_sample_request(chunks):
    """Bob's whole endpoint against a scripted Alice whose SAMPLE_REQUEST on
    his eight sifted bits has the frames `chunks`, at the sample fraction
    that agrees with the positions they hold (from 1 to 8), then, if its
    last frame is short and so ends it, an honest SUMMARY."""
    lists = [chunk for chunk in chunks if isinstance(chunk, list)]
    n = sum(map(len, lists))
    frames = [("SAMPLE_REQUEST", payload) for payload in _slot_frames("positions", chunks)]
    if lists and len(lists[-1]) < session_mod.SLOT_CHUNK:
        frames.append(("SUMMARY", _HONEST_SUMMARY))
    _run_bob_against(*frames, sample_fraction=min(max(n, 1), 8) / 8)


class _Tap(tp.Transport):
    """A link that keeps every message sent on it as a (type, payload) pair."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append((message.type, message.payload))


class TestListFraming:
    """Every list of the conversation goes as n // SLOT_CHUNK + 1 frames:
    frames of exactly SLOT_CHUNK entries, then one of fewer, possibly
    none, that ends the list."""

    @pytest.mark.parametrize("n", range(11))
    def test_round_trip_in_frames_of_three(self, monkeypatch, n):
        monkeypatch.setattr(session_mod, "SLOT_CHUNK", 3)
        rng = np.random.default_rng(n)
        slots = np.sort(rng.choice(100, size=n, replace=False)).astype(np.int64)
        bits = rng.integers(0, 2, size=n).astype(np.uint8)
        tap = _Tap()
        session_mod._send_list(tap, "DETECTIONS", "slots", slots, bases=bits)
        sizes = [3] * (n // 3) + [n % 3]
        # a frame's entry count is its number of varint bytes below 0x80
        assert [np.count_nonzero(np.frombuffer(p["slots"], np.uint8) < 0x80) for _, p in tap.sent] == sizes
        declaration = _scripted(*tap.sent)
        frames = list(session_mod._recv_slots(declaration, "DETECTIONS", "slots", 100))
        assert [payload for payload, _ in frames] == [p for _, p in tap.sent]
        _assert_same(np.concatenate([got for _, got in frames]), slots)
        # each frame answered by one of exactly its share of the bits
        answer = _scripted(*(("SAMPLE_BITS", {"bits": payload["bases"]}) for payload, _ in frames))
        _assert_same(session_mod._recv_bits(answer, "SAMPLE_BITS", "bits", n), bits)
        assert [len(payload["bases"]) for payload, _ in frames] == [-(-k // 8) for k in sizes]
        # the receivers took every frame and no more
        for receiver in (declaration, answer):
            with pytest.raises(tp.TransportClosed):
                receiver.recv()

    def test_session_stays_under_the_frame_cap_whatever_its_error_test(self, monkeypatch, frame_sizes):
        # every sifted bit disclosed: about 9 800 sample bits, which as one
        # SAMPLE_BITS frame would pass a 600-byte cap
        monkeypatch.setattr(tp, "MAX_FRAME_BYTES", 600)
        monkeypatch.setattr(session_mod, "SLOT_CHUNK", 100)
        summary = run_session(small_cfg(duration_s=5.0, sample_fraction=1.0))
        assert summary.qber.n_compared == summary.n_sifted > 9_000
        assert max(frame_sizes) <= 4 + 600


class TestHostileSlotLists:
    """Every site that receives a slot list refuses a malformed one with a
    ProtocolError that says what was wrong. A well-formed list is always
    non-negative and strictly increasing (see the property tests in
    test_transport.py), so order, sign and type need no checks here. The
    tests send frames of 3 entries, so that a list can go on past its
    first frame."""

    @pytest.fixture(autouse=True)
    def frames_of_three(self, monkeypatch):
        monkeypatch.setattr(session_mod, "SLOT_CHUNK", 3)

    @pytest.mark.parametrize(
        "receive", [_alice_receives_declaration, _bob_receives_sample_request]
    )
    @pytest.mark.parametrize(
        "chunks, match",
        [
            ([None], "must be bytes of slot gaps, got None"),
            ([[1, 3, 5], 7], "must be bytes of slot gaps, got 7"),
            (["@@@@"], "must be bytes of slot gaps, got '@@@@'"),
            ([b"\x00\x80"], "ends inside a varint at 1"),
            ([b"\x80" * 9 + b"\x00"], "varint longer than 9 bytes at 0"),
            # a 9-byte varint of 2**63 - 1 after the entry 5: past int64
            # and past the bound, 8, of both receivers
            ([[3, 4, 5], b"\xff" * 8 + b"\x7f"], f"rises to {2**63 + 5}, not below 8"),
            # the gap varints of [0, 1, 2] as base-64 text, as wire version
            # 9 sent them
            ([base64.b64encode(b"\x00\x00\x00").decode()], "must be bytes of slot gaps, got 'AAAA'"),
        ],
        ids=["missing", "non-string", "non-base-64", "unterminated", "10-byte-varint", "past-int64-after-prev",
             "wire-9-string"],
    )
    def test_malformed_list_is_a_protocol_error(self, receive, chunks, match):
        # the field is named: 'slots' in the declaration, 'positions' in
        # SAMPLE_REQUEST
        key = "'slots'" if receive is _alice_receives_declaration else "'positions'"
        with pytest.raises(ProtocolError, match=match) as refused:
            receive(chunks)
        assert key in str(refused.value)

    # Each receiver's bound: one past Alice's last pair slot (slots 0-7),
    # the length of Bob's sifted key (8 bits).
    RECEIVERS = pytest.mark.parametrize(
        "receive, key, bound",
        [
            (_alice_receives_declaration, "'slots'", 8),
            (_bob_receives_sample_request, "'positions'", 8),
        ],
        ids=["declaration", "sample-request"],
    )

    @RECEIVERS
    def test_last_entry_below_the_bound_is_accepted(self, receive, key, bound):
        receive([[0, 1, 2], [bound - 1]])

    @RECEIVERS
    def test_entry_at_the_bound_is_a_protocol_error(self, receive, key, bound):
        # in a frame after the first, which the decoder checks against the
        # same bound
        with pytest.raises(ProtocolError, match=f"{key} rises to {bound}, not below {bound}"):
            receive([[0, 1, 2], [bound]])

    @RECEIVERS
    def test_full_frame_then_an_empty_one_is_accepted(self, receive, key, bound):
        receive([[0, 1, 2], []])

    @pytest.mark.parametrize(
        "receive, kind",
        [
            (_alice_receives_declaration, "DETECTIONS"),
            (_bob_receives_sample_request, "SAMPLE_REQUEST"),
        ],
        ids=["declaration", "sample-request"],
    )
    def test_frame_of_more_than_slot_chunk_entries_is_a_protocol_error(self, receive, kind):
        # every frame before the last holds exactly SLOT_CHUNK entries, so
        # an oversize frame is refused, not taken for a full one
        with pytest.raises(ProtocolError, match=f"^{kind} frame holds 4 entries, more than 3$"):
            receive([[0, 1, 2, 3], [4]])

    def test_bases_as_text_are_a_protocol_error(self):
        # two slots' bases as base-64 text, as wire version 9 sent them
        bases = base64.b64encode(pack_bits([0, 0])).decode()
        link = _scripted(("DETECTIONS", {"slots": pack_slots([0, 1]), "bases": bases}))
        zeros = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ProtocolError, match="^DETECTIONS 'bases' must be bytes, got 'AA=='$"):
            alice_sift_exchange(link, np.arange(8), zeros, zeros, np.zeros(8, bool))

    @pytest.mark.parametrize(
        "receive", [_alice_receives_declaration, _bob_receives_sample_request]
    )
    def test_full_frames_then_a_close_is_a_closed_transport(self, receive):
        # only a short frame ends a list
        with pytest.raises(tp.TransportClosed):
            receive([[0, 1, 2], [3, 4, 5]])

    @pytest.mark.parametrize(
        "receive, key",
        [
            (_alice_receives_declaration, "'slots'"),
            (_bob_receives_sample_request, "'positions'"),
        ],
        ids=["declaration", "sample-request"],
    )
    def test_full_frames_run_into_the_bound(self, receive, key):
        # entries rise strictly below the bound, so a peer that never sends
        # a short frame is refused by its bound / SLOT_CHUNK + 1st frame
        with pytest.raises(ProtocolError, match=f"{key} rises to 8, not below 8"):
            receive([[0, 1, 2], [3, 4, 5], [6, 7, 8]])


class TestHostileKeep:
    """Alice's SIFT_KEEP is one keep bit per slot of Bob's declaration, in
    one frame per declaration frame. Bob knows how many frames and bits to
    expect, so any other count is refused."""

    def test_keep_bits_select_across_frames(self, monkeypatch):
        # eight records declared in frames of 3, 3 and 2 slots
        monkeypatch.setattr(session_mod, "SLOT_CHUNK", 3)
        keep = [{"keep": pack_bits(bits)} for bits in ([1, 0, 1], [1, 1, 0], [0, 1])]
        sample_request = _slot_frames("positions", [[0]])[0]
        bob = _run_bob_against(("SAMPLE_REQUEST", sample_request), ("SUMMARY", _HONEST_SUMMARY), keep=keep)
        np.testing.assert_array_equal(bob.sifted_key, _record_bits(8)[[0, 2, 3, 4, 7]])
        assert bob.summary.n_sifted == 5

    def test_empty_declaration_takes_one_empty_frame(self):
        sample_request = _slot_frames("positions", [[]])[0]
        bob = _run_bob_against(
            ("SAMPLE_REQUEST", sample_request), ("SUMMARY", _HONEST_SUMMARY), records=(), keep=[{"keep": b""}]
        )
        assert len(bob.sifted_key) == bob.summary.n_sifted == 0

    @pytest.mark.parametrize(
        "records, keep, match",
        [
            (range(8), [{"keep": pack_bits([1] * 16)}], "SIFT_KEEP 'keep' too long: 2 bytes for 8 bits"),
            (range(9), [{"keep": pack_bits([1] * 8)}], "SIFT_KEEP 'keep' too short: 1 bytes for 9 bits"),
            (range(8), [{}], "SIFT_KEEP 'keep' must be bytes, got None"),
            (range(8), [{"keep": 5}], "SIFT_KEEP 'keep' must be bytes, got 5"),
            (range(8), [{"keep": "@@@@"}], "SIFT_KEEP 'keep' must be bytes, got '@@@@'"),
            # the kept slots as gap varints, as wire version 5 sent them
            (range(8), [{"keep": pack_slots(list(range(8))), "final": True}], "too long: 8 bytes for 8 bits"),
            # eight keep bits as base-64 text, as wire version 9 sent them
            (range(8), [{"keep": base64.b64encode(pack_bits([1] * 8)).decode()}],
             "SIFT_KEEP 'keep' must be bytes, got '/w=='"),
        ],
        ids=["too-many-bits", "too-few-bits", "missing", "non-string", "non-base-64", "old-slot-list", "wire-9-string"],
    )
    def test_malformed_keep_bits_are_a_protocol_error(self, records, keep, match):
        with pytest.raises(ProtocolError, match=match):
            _run_bob_against(records=tuple(records), keep=keep)

    def test_too_few_frames_then_a_close(self, monkeypatch):
        monkeypatch.setattr(session_mod, "SLOT_CHUNK", 3)
        with pytest.raises(tp.TransportClosed):
            _run_bob_against(keep=[{"keep": pack_bits([1] * 3)}] * 2)

    def test_too_few_frames_then_the_next_message(self, monkeypatch):
        monkeypatch.setattr(session_mod, "SLOT_CHUNK", 3)
        sample_request = _slot_frames("positions", [[]])[0]
        with pytest.raises(ProtocolError, match="expected SIFT_KEEP, got SAMPLE_REQUEST"):
            _run_bob_against(("SAMPLE_REQUEST", sample_request), keep=[{"keep": pack_bits([1] * 3)}] * 2)

    def test_full_declaration_takes_an_empty_last_frame(self, monkeypatch):
        # eight records in frames of 4, 4 and 0 slots: the keep bits too
        monkeypatch.setattr(session_mod, "SLOT_CHUNK", 4)
        sample_request = _slot_frames("positions", [[]])[0]
        with pytest.raises(ProtocolError, match="expected SIFT_KEEP, got SAMPLE_REQUEST"):
            _run_bob_against(("SAMPLE_REQUEST", sample_request), keep=[{"keep": pack_bits([1] * 4)}] * 2)

    def test_one_extra_frame(self):
        keep = [{"keep": pack_bits([1] * 8)}] * 2
        with pytest.raises(ProtocolError, match="expected SAMPLE_REQUEST, got SIFT_KEEP"):
            _run_bob_against(keep=keep)


# An honest SUMMARY after an error test with no errors on a single-pair source
_HONEST_SUMMARY = {"n_errors": 0, "multi_pair_fraction": 0.0}


def _alice_receives_sample_bits(payload):
    """Alice's whole endpoint against a scripted Bob who declares no
    detections and then answers the (empty) error test with `payload`."""
    cfg = small_cfg()
    (declaration,) = _slot_frames("slots", [[]], "bases")
    run_alice_endpoint(cfg, _scripted(_hello(cfg), ("DETECTIONS", declaration), ("SAMPLE_BITS", payload)))


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
        # no records, so the agreed sample is empty
        sample_request = _slot_frames("positions", [[]])[0]
        with pytest.raises(ProtocolError, match=match):
            _run_bob_against(
                ("SAMPLE_REQUEST", sample_request),
                ("SUMMARY", edit(_HONEST_SUMMARY)),
                records=(),
                keep=[{"keep": b""}],
            )

    def test_honest_summary_is_accepted(self):
        # the scripted conversation above is honest up to the summary; Bob
        # counts the compared bits himself and takes only the two numbers
        sample_request = _slot_frames("positions", [[1, 3, 6]])[0]
        summary = {"n_errors": 2, "multi_pair_fraction": 0.25}
        # three of the eight sifted bits
        bob = _run_bob_against(("SAMPLE_REQUEST", sample_request), ("SUMMARY", summary), sample_fraction=0.375)
        np.testing.assert_array_equal(bob.sifted_key, _record_bits(8))
        assert bob.summary.qber.n_compared == 3
        assert bob.summary.qber.n_errors == 2
        assert bob.summary.to_dict() == session_mod.finalize(
            small_cfg(sample_fraction=0.375), 8, 8, protocol.qber_report(3, 2), 0.25
        ).to_dict()

    @pytest.mark.parametrize("fraction", [0, 0.0, 1, 1.0])
    def test_summary_fraction_at_either_end_is_accepted(self, fraction):
        # an honest Alice's share of multi-pair slots may be exactly 0 or 1
        sample_request = _slot_frames("positions", [[1, 3, 6]])[0]
        summary = {"n_errors": 0, "multi_pair_fraction": fraction}
        bob = _run_bob_against(("SAMPLE_REQUEST", sample_request), ("SUMMARY", summary), sample_fraction=0.375)
        assert type(bob.summary.multi_pair_fraction) is float
        assert bob.summary.multi_pair_fraction == fraction

    @pytest.mark.parametrize("positions", [list(range(8)), []], ids=["every-bit", "none"])
    def test_sample_request_of_another_size_is_refused(self, positions):
        # HELLO fixes the sample fraction, so the agreed sample of eight
        # sifted bits at 0.1 is one bit; Bob disclosed as many as asked for
        sample_request = _slot_frames("positions", [positions])[0]
        match = f"SAMPLE_REQUEST asks for {len(positions)} positions, not the agreed 1"
        with pytest.raises(ProtocolError, match=match):
            _run_bob_against(("SAMPLE_REQUEST", sample_request), ("SUMMARY", _HONEST_SUMMARY))

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({}, "SAMPLE_BITS 'bits' must be bytes, got None"),
            ({"bits": 5}, "SAMPLE_BITS 'bits' must be bytes, got 5"),
            ({"bits": "@@@@"}, "SAMPLE_BITS 'bits' must be bytes, got '@@@@'"),
            ({"bits": pack_bits([0])}, "SAMPLE_BITS 'bits' too long: 1 bytes for 0 bits"),
            # no bits as base-64 text, as wire version 9 sent them
            ({"bits": ""}, "SAMPLE_BITS 'bits' must be bytes, got ''"),
        ],
        ids=["missing", "non-string", "non-base-64", "too-long", "wire-9-string"],
    )
    def test_malformed_sample_bits_are_a_protocol_error(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            _alice_receives_sample_bits(payload)


class _Logged(tp.Transport):
    """A link that appends the type of every message sent through it to
    `events`."""

    def __init__(self, inner: tp.Transport, events: list):
        self.inner, self.events = inner, events

    def send(self, message):
        self.events.append(message.type)
        self.inner.send(message)

    def recv(self):
        return self.inner.recv()

    def close(self):
        self.inner.close()


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
    """Pin the conversation layer on hand-built records, which stand in
    for both endpoints' simulations in-process."""

    def _fake_sim(self, cfg, x, y, z, bob_bit):
        slots = np.array([4], dtype=np.int64)
        return SimulationResult(
            pair_slots=slots,
            x=np.array([x], dtype=np.uint8),
            y=np.array([y], dtype=np.uint8),
            alice_rng=np.random.default_rng(1),
            multi_pair=np.zeros(1, dtype=bool),
            slots=slots,
            z=np.array([z], dtype=np.uint8),
            bob_bits=np.array([bob_bit], dtype=np.uint8),
        )

    def test_single_coincidence_matching_bases(self, monkeypatch):
        monkeypatch.setattr(
            session_mod, "simulate_quantum", lambda cfg, reader, prefix=None: self._fake_sim(cfg, 0, 1, 0, 1)
        )
        alice, bob = run_session_detailed(small_cfg())
        assert len(alice.sifted_key) == len(bob.sifted_key) == 1
        assert alice.summary.n_sifted == 1
        assert alice.summary.qber.qber == 0.0

    def test_single_coincidence_mismatched_bases(self, monkeypatch):
        monkeypatch.setattr(
            session_mod, "simulate_quantum", lambda cfg, reader, prefix=None: self._fake_sim(cfg, 0, 1, 1, 1)
        )
        alice, bob = run_session_detailed(small_cfg())
        assert len(alice.sifted_key) == len(bob.sifted_key) == 0
        assert alice.summary.qber.qber is None

    def test_corrupt_summary_is_detected_not_deadlocked(self, monkeypatch):
        # Alice's link claims more errors than the one disclosed bit; Bob
        # refuses her SUMMARY and the orchestrator must surface that
        # instead of hanging
        monkeypatch.setattr(
            session_mod, "simulate_quantum", lambda cfg, reader, prefix=None: self._fake_sim(cfg, 0, 1, 0, 1)
        )
        alice_link, bob_link = memory_pair()
        with pytest.raises(ProtocolError, match=re.escape("n_errors must be an integer in [0, 1], got 2")):
            run_session_detailed(small_cfg(), (_SummaryRewriter(alice_link, n_errors=2), bob_link))

    def test_alice_failure_is_reported_over_bobs_closed_channel(self, monkeypatch):
        # Alice fails after sifting, while Bob waits for her error test: he
        # only sees the transport close; the error to surface is Alice's
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(session_mod, "sample_positions", boom)
        with pytest.raises(ValueError, match="boom"):
            run_session_detailed(small_cfg())

    def test_bobs_failure_is_raised_when_both_sides_fail(self):
        # neither failure is the other's close, so Bob's goes first, and his
        # thread has ended
        def fails(error):
            def endpoint(link):
                raise error

            return endpoint

        with pytest.raises(KeyError, match="bob"):
            session_mod._run_pair(fails(ValueError("alice")), fails(KeyError("bob")), memory_pair())
        assert "bob-endpoint" not in {t.name for t in threading.enumerate()}


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
