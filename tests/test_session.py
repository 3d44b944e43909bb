"""Session engine, conversation, and summary bookkeeping tests."""

import math
import socket
import tracemalloc

import numpy as np
import pytest

import dfsqkd.session as session_mod
from dfsqkd import protocol
from dfsqkd.optics import DetectorParams, PerSlotUniformChannel, RandomWalkChannel, StaticChannel
from dfsqkd.protocol import QberReport
from dfsqkd.session import (
    ConfigError,
    Seeds,
    SessionConfig,
    SimulationResult,
    exact_session_summary,
    run_session,
    run_session_detailed,
    simulate_quantum,
)
from dfsqkd.transport import StreamTransport


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
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SessionConfig(**kwargs)

    def test_dict_round_trip(self):
        cfg = small_cfg(channel=PerSlotUniformChannel(-0.1, 0.4), sample_fraction=0.3)
        again = SessionConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            SessionConfig.from_dict({"prtocol": "dfs2"})


class TestPoissonPairs:
    def test_mean_and_multi_pair_tail_at_mu_0p04(self):
        rng = np.random.default_rng(123)
        n = 10**7
        draws = rng.poisson(0.04, n)
        assert abs(draws.mean() - 0.04) < 4 * math.sqrt(0.04 / n)
        p_tail = 1 - math.exp(-0.04) * 1.04  # P(n >= 2) = 7.79e-4
        tail = np.count_nonzero(draws >= 2) / n
        assert abs(tail - p_tail) < 4 * math.sqrt(p_tail * (1 - p_tail) / n)


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
    """The engine's memory grows with pair slots, not clock slots, and its
    chunked draws and tabled kernel give the values of one-shot ones."""

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

    def test_chunked_pair_counts_equal_one_draw_over_every_slot(self):
        cfg = small_cfg(duration_s=26.0)
        n, mu = cfg.n_slots, cfg.mean_pairs_per_slot
        assert n > 2 * session_mod.SOURCE_CHUNK and n % session_mod.SOURCE_CHUNK
        sim = simulate_quantum(cfg)
        one_shot = np.random.default_rng(cfg.seeds.source)
        counts = one_shot.poisson(mu, n)
        slots = np.flatnonzero(counts)
        np.testing.assert_array_equal(sim.pair_slots, slots)
        np.testing.assert_array_equal(sim.n_pairs, counts[slots])
        # the stream continues exactly where one draw would leave it
        chunked = np.random.default_rng(cfg.seeds.source)
        session_mod._draw_pair_slots(chunked, mu, n)
        np.testing.assert_array_equal(chunked.random(16), one_shot.random(16))

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


class TestTransportSubstitution:
    def test_stream_and_memory_give_identical_sessions(self):
        cfg = small_cfg()
        mem_alice, mem_bob = run_session_detailed(cfg)
        left, right = socket.socketpair()
        st_alice, st_bob = run_session_detailed(cfg, link=(StreamTransport(left), StreamTransport(right)))
        assert st_alice.summary.to_dict() == mem_alice.summary.to_dict()
        np.testing.assert_array_equal(st_alice.sifted_key, mem_alice.sifted_key)
        np.testing.assert_array_equal(st_bob.sifted_key, mem_bob.sifted_key)


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
        import dfsqkd.transport as tp

        with pytest.raises(tp.ProtocolError, match="without pairs"):
            sift_halves(
                pair_slots=[2, 5], x=[0, 1], y=[1, 0], slots=[3], z=[0], bits=[1]
            )


class TestCraftedConversations:
    """Pin the conversation layer on hand-built records."""

    def _fake_sim(self, cfg, x, y, z, bob_bit):
        return SimulationResult(
            n_slots=cfg.n_slots,
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
        # a fake engine that lies about n_slots makes Bob's verification
        # fail; the orchestrator must surface that instead of hanging
        sim = self._fake_sim(small_cfg(), 0, 1, 0, 1)
        sim.n_slots = 10
        monkeypatch.setattr(session_mod, "simulate_quantum", lambda cfg: sim)
        import dfsqkd.transport as tp

        with pytest.raises(tp.ProtocolError, match="disagrees"):
            run_session_detailed(small_cfg())

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
