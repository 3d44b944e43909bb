"""Unit tests for wave plates, modulators, channel models, detectors."""

import numpy as np
import pytest

from dfsqkd.optics import (
    ChannelSampler,
    DetectorParams,
    PerSlotUniformChannel,
    RandomWalkChannel,
    StaticChannel,
    channel_from_dict,
    channel_unitary,
    detect_batch,
    hwp_unitary,
    modulator_unitary,
    rotation_unitary,
)
from dfsqkd.qstate import PSI_MINUS, apply_collective, overlap2

DEG_GRID = np.radians(np.arange(-180, 181, 1.0))


class TestWavePlates:
    def test_hwp_at_zero(self):
        np.testing.assert_allclose(hwp_unitary(0.0), [[1, 0], [0, -1]], atol=1e-15)

    def test_hwp_at_quarter_turn(self):
        np.testing.assert_allclose(hwp_unitary(np.pi / 2), [[0, -1], [-1, 0]], atol=1e-15)

    def test_hwp_is_real_symmetric_involution_det_minus_one(self):
        for theta in DEG_GRID:
            m = hwp_unitary(theta)
            assert np.max(np.abs(m.imag)) == 0.0
            np.testing.assert_allclose(m, m.T, atol=1e-15)
            np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)
            assert np.linalg.det(m).real == pytest.approx(-1.0, abs=1e-12)

    def test_rotation_group_law_and_det(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.uniform(-np.pi, np.pi, 2)
            np.testing.assert_allclose(
                rotation_unitary(a) @ rotation_unitary(b), rotation_unitary(a + b), atol=1e-12
            )
        for theta in DEG_GRID:
            assert np.linalg.det(rotation_unitary(theta)).real == pytest.approx(1.0, abs=1e-12)

    def test_rotation_at_zero_and_quarter_turn(self):
        np.testing.assert_allclose(rotation_unitary(0.0), np.eye(2), atol=1e-15)
        u = rotation_unitary(np.pi / 2)
        np.testing.assert_allclose(u @ [1, 0], [0, -1], atol=1e-15)  # H -> -V
        np.testing.assert_allclose(u @ [0, 1], [1, 0], atol=1e-15)  # V -> H


class TestChannelRealization:
    def test_plate_pair_equals_rotation_on_grid(self):
        for theta in DEG_GRID:
            np.testing.assert_allclose(
                channel_unitary(theta), rotation_unitary(theta), atol=1e-12
            )

    def test_identity_at_zero(self):
        np.testing.assert_allclose(channel_unitary(0.0), np.eye(2), atol=1e-15)

    def test_matches_two_by_two_product_oracle(self):
        theta = np.pi / 6
        c, s = np.cos(theta), np.sin(theta)
        product = np.array([[c, -s], [-s, -c]]) @ np.array([[1, 0], [0, -1]])
        np.testing.assert_allclose(channel_unitary(theta), product, atol=1e-15)

    def test_collective_channel_leaves_singlet_alone(self):
        for theta in np.radians([0, 17, 45, 90, 133]):
            out = apply_collective(channel_unitary(theta), PSI_MINUS)
            assert overlap2(out, PSI_MINUS) > 1 - 1e-12


class TestModulators:
    def test_off_is_identity(self):
        for idx in (1, 2, 3, 4):
            np.testing.assert_allclose(modulator_unitary(idx, False), np.eye(2), atol=1e-15)

    def test_on_matrices(self):
        np.testing.assert_allclose(modulator_unitary(1, True), [[1, 0], [0, -1]], atol=1e-15)
        np.testing.assert_allclose(modulator_unitary(2, True), [[0, -1], [-1, 0]], atol=1e-15)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(modulator_unitary(3, True), [[s, -s], [-s, -s]], atol=1e-12)
        np.testing.assert_allclose(modulator_unitary(3, True), modulator_unitary(4, True), atol=1e-15)

    def test_bad_index(self):
        with pytest.raises(ValueError, match="modulator index"):
            modulator_unitary(5, True)


class TestChannelModels:
    def test_static_always_returns_theta(self):
        s = StaticChannel(0.3)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(s.sample_batch(np.array([0, 123456]), rng), [0.3, 0.3])
        np.testing.assert_array_equal(s.sample_batch(np.arange(5), rng), [0.3] * 5)

    def test_uniform_degenerate(self):
        s = PerSlotUniformChannel(0.0, 0.0)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(s.sample_batch(np.array([7]), rng), [0.0])

    def test_uniform_bounds(self):
        s = PerSlotUniformChannel(-0.2, 0.5)
        vals = s.sample_batch(np.arange(1000), np.random.default_rng(1))
        assert vals.min() >= -0.2 and vals.max() <= 0.5

    def test_walk_degenerate_sigma_zero(self):
        s = RandomWalkChannel(0.7, 0.0)
        rng = np.random.default_rng(2)
        np.testing.assert_allclose(s.sample_batch(np.array([0, 10, 10, 5000]), rng), 0.7)

    def test_walk_out_of_order_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="out of order"):
            RandomWalkChannel(0.0, 0.1).sample_batch(np.array([5, 3]), rng)
        with pytest.raises(ValueError, match="out of order"):
            RandomWalkChannel(0.0, 0.1).sample_batch(np.array([-1, 3]), rng)

    def test_walk_is_one_scaled_step_per_slot_and_keeps_no_state(self):
        slots = np.array([3, 4, 9, 9, 20, 100, 5000])
        theta0, sigma = 0.1, 0.05
        walker = RandomWalkChannel(theta0, sigma)
        steps = np.random.default_rng(7).normal(0.0, sigma, len(slots))
        walk = theta0 + np.cumsum(steps * np.sqrt(np.diff(slots, prepend=0)))
        np.testing.assert_array_equal(walker.sample_batch(slots, np.random.default_rng(7)), walk)
        # a second query starts again from theta0 at slot 0
        np.testing.assert_array_equal(walker.sample_batch(slots, np.random.default_rng(7)), walk)

    def test_walk_increment_variance_is_sigma_squared_per_slot(self):
        # 50 000 increments over each gap size, in shuffled order
        gap_sizes = np.array([1, 7, 50, 400])
        rng = np.random.default_rng(8)
        gaps = rng.permutation(np.repeat(gap_sizes, 50_000))
        theta0, sigma = 0.2, 0.01
        theta = RandomWalkChannel(theta0, sigma).sample_batch(np.cumsum(gaps), rng)
        increments = np.diff(theta, prepend=theta0)
        for g in gap_sizes:
            d = increments[gaps == g]
            var = sigma**2 * g
            assert abs(d.mean()) < 5 * np.sqrt(var / len(d))
            assert abs(np.mean(d**2) / var - 1) < 5 * np.sqrt(2 / len(d))

    def test_invalid_model_parameters_rejected(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            PerSlotUniformChannel(0.5, 0.1)
        with pytest.raises(ValueError, match="step_sigma"):
            RandomWalkChannel(0.0, -0.1)

    def test_round_trip_through_dict(self):
        # The dict form goes into HELLO and config files: pinned literally.
        pinned = [
            (StaticChannel(0.1), {"kind": "static", "theta_deg": 5.729577951308233}),
            (
                PerSlotUniformChannel(-0.1, 0.2),
                {"kind": "per_slot_uniform", "lo_deg": -5.729577951308233, "hi_deg": 11.459155902616466},
            ),
            (
                RandomWalkChannel(0.0, 0.01),
                {"kind": "random_walk", "theta0_deg": 0.0, "step_sigma_deg": 0.5729577951308232},
            ),
        ]
        for model, d in pinned:
            assert model.to_dict() == d
            assert list(model.to_dict()) == list(d)
            again = channel_from_dict(d)
            assert type(again) is type(model)
            assert again.to_dict() == d

    def test_each_model_is_a_channel_sampler_with_its_own_sample_batch(self):
        # perfbench/spans.py wraps sample_batch on each subclass, read from
        # the class's own __dict__.
        models = {StaticChannel, PerSlotUniformChannel, RandomWalkChannel}
        assert set(ChannelSampler.__subclasses__()) == models
        for model in models:
            assert "sample_batch" in model.__dict__


class TestDetectorParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="efficiency"):
            DetectorParams(efficiency=1.5)
        with pytest.raises(ValueError, match="dark_count_prob"):
            DetectorParams(dark_count_prob=1.0)


class TestDetect:
    def test_outcome_detector_map(self):
        coinc, fired = detect_batch(np.arange(4), DetectorParams(), np.random.default_rng(0))
        assert coinc.all()
        assert fired.tolist() == [0, 1, 2, 3]
        assert fired.dtype == np.int64

    def test_ideal_detectors_pass_the_outcome_through(self):
        coinc, fired = detect_batch(np.array([1]), DetectorParams(), np.random.default_rng(0))
        assert coinc.tolist() == [True]
        assert fired.tolist() == [1]

    def test_dead_detectors_never_coincide(self):
        rng = np.random.default_rng(0)
        coinc, _ = detect_batch(np.tile(np.arange(4), 100), DetectorParams(efficiency=0.0), rng)
        assert not coinc.any()

    def test_no_pair_no_darks_is_silent(self):
        # a session without pair slots hands the layer nothing; it must
        # return nothing and leave the source stream untouched
        rng = np.random.default_rng(0)
        coinc, fired = detect_batch(np.empty(0, dtype=np.int64), DetectorParams(), rng)
        assert len(coinc) == len(fired) == 0
        assert rng.random() == np.random.default_rng(0).random()

    def test_identity_on_a_million_slots(self):
        # noiseless detector layer: coincidence rate equals pair rate exactly
        rng = np.random.default_rng(10)
        outcomes = rng.integers(0, 4, size=10**6)
        coinc, fired = detect_batch(outcomes, DetectorParams(), rng)
        assert coinc.all()
        np.testing.assert_array_equal(fired, outcomes)

    def test_efficiency_thins_coincidences(self):
        rng = np.random.default_rng(11)
        n = 200_000
        eff = 0.8
        coinc, _ = detect_batch(np.zeros(n, dtype=int), DetectorParams(efficiency=eff), rng)
        rate = coinc.mean()
        sigma = np.sqrt(eff**2 * (1 - eff**2) / n)
        assert abs(rate - eff**2) < 4 * sigma

    def test_dark_counts_can_break_a_side(self):
        # with dark probability 1 every detector fires: no side resolves
        rng = np.random.default_rng(12)
        params = DetectorParams(efficiency=1.0, dark_count_prob=0.999999999)
        coinc, _ = detect_batch(np.arange(4), params, rng)
        assert not coinc.any()
