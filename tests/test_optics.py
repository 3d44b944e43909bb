"""Unit tests for wave plates, modulators, channel models, detectors."""

import numpy as np
import pytest

from dfsqkd.optics import (
    WALK_CHUNK,
    DetectorParams,
    PerSlotUniformChannel,
    RandomWalkChannel,
    StaticChannel,
    channel_from_dict,
    channel_unitary,
    detect_batch,
    eom_unitary,
    hwp_unitary,
    modulator,
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
            np.testing.assert_allclose(eom_unitary(modulator(idx, False)), np.eye(2), atol=1e-15)

    def test_on_matrices(self):
        np.testing.assert_allclose(eom_unitary(modulator(1, True)), [[1, 0], [0, -1]], atol=1e-15)
        np.testing.assert_allclose(eom_unitary(modulator(2, True)), [[0, -1], [-1, 0]], atol=1e-15)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(
            eom_unitary(modulator(3, True)), [[s, -s], [-s, -s]], atol=1e-12
        )
        np.testing.assert_allclose(
            eom_unitary(modulator(3, True)), eom_unitary(modulator(4, True)), atol=1e-15
        )

    def test_bad_index(self):
        with pytest.raises(ValueError, match="modulator index"):
            modulator(5, True)


class TestChannelModels:
    def test_static_always_returns_theta(self):
        s = StaticChannel(0.3).sampler()
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(s.sample_batch(np.array([0, 123456]), rng), [0.3, 0.3])
        np.testing.assert_array_equal(s.sample_batch(np.arange(5), rng), [0.3] * 5)

    def test_uniform_degenerate(self):
        s = PerSlotUniformChannel(0.0, 0.0).sampler()
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(s.sample_batch(np.array([7]), rng), [0.0])

    def test_uniform_bounds(self):
        s = PerSlotUniformChannel(-0.2, 0.5).sampler()
        vals = s.sample_batch(np.arange(1000), np.random.default_rng(1))
        assert vals.min() >= -0.2 and vals.max() <= 0.5

    def test_walk_degenerate_sigma_zero(self):
        s = RandomWalkChannel(0.7, 0.0).sampler()
        rng = np.random.default_rng(2)
        np.testing.assert_allclose(s.sample_batch(np.array([0, 10, 10, 5000]), rng), 0.7)

    def test_walk_out_of_order_rejected(self):
        s = RandomWalkChannel(0.0, 0.1).sampler()
        rng = np.random.default_rng(3)
        s.sample_batch(np.array([10]), rng)
        with pytest.raises(ValueError, match="out of order"):
            s.sample_batch(np.array([4]), rng)
        with pytest.raises(ValueError, match="out of order"):
            RandomWalkChannel(0.0, 0.1).sampler().sample_batch(np.array([5, 3]), rng)

    def test_walk_batch_matches_sequential(self):
        # two consecutive slices continue the walk where one call over all
        # the slots would (up to rounding: the second restarts its sum);
        # one call, drawn in chunks, equals the one-shot running step sum
        chunk = WALK_CHUNK
        slots = np.array([3, 4, 9, 20, 21, 100, chunk, chunk + 1, 2 * chunk + 5])
        theta0, sigma = 0.1, 0.05
        split = RandomWalkChannel(theta0, sigma).sampler()
        rng = np.random.default_rng(7)
        in_two = np.concatenate([split.sample_batch(slots[:3], rng), split.sample_batch(slots[3:], rng)])
        at_once = RandomWalkChannel(theta0, sigma).sampler().sample_batch(slots, np.random.default_rng(7))
        walk = theta0 + np.cumsum(np.random.default_rng(7).normal(0.0, sigma, size=slots[-1]))
        np.testing.assert_allclose(in_two, at_once, atol=1e-12)
        np.testing.assert_array_equal(at_once, walk[slots - 1])

    def test_invalid_model_parameters_rejected(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            PerSlotUniformChannel(0.5, 0.1)
        with pytest.raises(ValueError, match="step_sigma"):
            RandomWalkChannel(0.0, -0.1)

    def test_round_trip_through_dict(self):
        for model in (StaticChannel(0.1), PerSlotUniformChannel(-0.1, 0.2), RandomWalkChannel(0.0, 0.01)):
            again = channel_from_dict(model.to_dict())
            assert type(again) is type(model)


class TestDetectorParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="efficiency"):
            DetectorParams(efficiency=1.5)
        with pytest.raises(ValueError, match="dark_count_prob"):
            DetectorParams(dark_count_prob=1.0)


class TestDetect:
    def test_outcome_detector_map(self):
        coinc, det1, det2 = detect_batch(np.arange(4), DetectorParams(), np.random.default_rng(0))
        assert coinc.all()
        assert list(zip(det1, det2)) == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_ideal_detectors_pass_the_outcome_through(self):
        coinc, det1, det2 = detect_batch(np.array([1]), DetectorParams(), np.random.default_rng(0))
        assert coinc.tolist() == [True]
        assert (det1[0], det2[0]) == (1, 4)

    def test_dead_detectors_never_coincide(self):
        rng = np.random.default_rng(0)
        coinc, _, _ = detect_batch(np.tile(np.arange(4), 100), DetectorParams(efficiency=0.0), rng)
        assert not coinc.any()

    def test_no_pair_no_darks_is_silent(self):
        # a session without pair slots hands the layer nothing; it must
        # return nothing and leave the source stream untouched
        rng = np.random.default_rng(0)
        coinc, det1, det2 = detect_batch(np.empty(0, dtype=np.int64), DetectorParams(), rng)
        assert len(coinc) == len(det1) == len(det2) == 0
        assert rng.random() == np.random.default_rng(0).random()

    def test_identity_on_a_million_slots(self):
        # noiseless detector layer: coincidence rate equals pair rate exactly
        rng = np.random.default_rng(10)
        outcomes = rng.integers(0, 4, size=10**6)
        coinc, det1, det2 = detect_batch(outcomes, DetectorParams(), rng)
        assert coinc.all()
        np.testing.assert_array_equal(det1, 1 + (outcomes >> 1))
        np.testing.assert_array_equal(det2, 3 + (outcomes & 1))

    def test_efficiency_thins_coincidences(self):
        rng = np.random.default_rng(11)
        n = 200_000
        eff = 0.8
        coinc, _, _ = detect_batch(np.zeros(n, dtype=int), DetectorParams(efficiency=eff), rng)
        rate = coinc.mean()
        sigma = np.sqrt(eff**2 * (1 - eff**2) / n)
        assert abs(rate - eff**2) < 4 * sigma

    def test_dark_counts_can_break_a_side(self):
        # with dark probability 1 every detector fires: no side resolves
        rng = np.random.default_rng(12)
        params = DetectorParams(efficiency=1.0, dark_count_prob=0.999999999)
        coinc, _, _ = detect_batch(np.arange(4), params, rng)
        assert not coinc.any()
