"""Unit tests for encoding, decoding, sifting, QBER, key rate, and the
BB84 baseline.

The encoded-state targets and all expected matrices here are written out
by hand (or built from independently frozen 2x2 matrices) so the encoder
is checked against something it does not share code with.
"""

import subprocess
import sys

import numpy as np
import pytest

from dfsqkd import protocol, qstate
from dfsqkd.optics import DetectorParams, StaticChannel, detect_batch
from dfsqkd.protocol import (
    ENCODED_TARGETS,
    OUTCOME_BIT,
    alice_unitary,
    bb84_port1_prob,
    bb84_prepare,
    binary_entropy,
    bob_analyzers,
    bob_photon1_analyzer,
    dfs2_outcome_probs,
    encode_state,
    exact_qber,
    key_rate,
    mc_qber,
    modulator_pattern,
    predicted_qber,
    qber_report,
    sample_positions,
)
from dfsqkd.qstate import KET_H, KET_MINUS, KET_PLUS, KET_V, PSI_MINUS, overlap2
from dfsqkd.session import Seeds, SessionConfig, run_session_detailed, simulate_bob, simulate_quantum
from dfsqkd.transport import ProtocolError

# Hand-expanded code states in the (HH, HV, VH, VV) basis.
HAND_TARGETS = {
    (0, 0): np.array([0, 1, -1, 0]) / np.sqrt(2),
    (0, 1): np.array([1, 0, 0, 1]) / np.sqrt(2),
    (1, 0): np.array([1, -1, 1, 1]) / 2.0,
    (1, 1): np.array([1, 1, -1, 1]) / 2.0,
}

# Independently frozen modulator matrices (on-state).
M1 = np.array([[1, 0], [0, -1]], dtype=float)
M2 = np.array([[0, -1], [-1, 0]], dtype=float)
M3 = np.array([[1, -1], [-1, -1]], dtype=float) / np.sqrt(2)


class TestSwitchingTable:
    def test_all_four_rows(self):
        assert modulator_pattern(0, 0) == (False, False, False)
        assert modulator_pattern(0, 1) == (True, True, False)
        assert modulator_pattern(1, 0) == (False, True, True)
        assert modulator_pattern(1, 1) == (True, False, True)

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError):
            modulator_pattern(2, 0)

class TestAliceUnitary:
    def test_matches_frozen_matrix_products(self):
        # beam order M3 -> M2 -> M1, so the matrix product is M1 M2 M3
        eye = np.eye(2)
        expected = {
            (0, 0): eye,
            (0, 1): M1 @ M2,
            (1, 0): M2 @ M3,
            (1, 1): M1 @ M3,
        }
        for key, matrix in expected.items():
            np.testing.assert_allclose(alice_unitary(*key), matrix, atol=1e-12)

    def test_identity_when_all_off(self):
        np.testing.assert_allclose(alice_unitary(0, 0), np.eye(2), atol=1e-15)

    def test_every_row_reaches_its_code_state(self):
        for (x, y), target in HAND_TARGETS.items():
            produced = encode_state(x, y, PSI_MINUS)
            assert overlap2(produced, target) > 1 - 1e-9, (x, y)

    def test_targets_table_matches_hand_expansion(self):
        for key, hand in HAND_TARGETS.items():
            assert overlap2(ENCODED_TARGETS[key], hand) == pytest.approx(1.0, abs=1e-12)

    def test_encoding_a_werner_source_keeps_the_white_noise(self):
        v = 0.7
        rho = encode_state(1, 0, qstate.werner_mix(PSI_MINUS, v))
        expected = v * qstate.ket_density(ENCODED_TARGETS[(1, 0)]) + (1 - v) * np.eye(4) / 4
        np.testing.assert_allclose(rho, expected, atol=1e-12)


class TestBobMeasurement:
    def test_z0_is_hv_on_both_photons(self):
        a1, a2 = bob_analyzers(0)
        np.testing.assert_allclose(a1, KET_H, atol=1e-15)
        np.testing.assert_allclose(a2, KET_H, atol=1e-15)

    def test_z1_transmit_port_collects_antidiagonal(self):
        a1 = bob_photon1_analyzer(1)
        assert overlap2(a1, KET_MINUS) == pytest.approx(1.0, abs=1e-12)

    def test_z1_on_diagonal_code_state_fires_only_bit1_pairs(self):
        # hand result: after M4 the state is proportional to HH - VV
        probs = dfs2_outcome_probs(1, 1, 1, 0.0, 1.0)
        np.testing.assert_allclose(probs[[1, 2]], [0, 0], atol=1e-12)
        assert probs[0] + probs[3] == pytest.approx(1.0, abs=1e-12)

    def test_outcome_bit_table_consistent_with_rule(self):
        # (D1,D4) and (D2,D3) decode to bit 0, (D1,D3) and (D2,D4) to bit 1
        rule = {(1, 4): 0, (2, 3): 0, (1, 3): 1, (2, 4): 1}
        # ideal detectors fire outcome o's detector pair (1 + o // 2, 3 + o % 2)
        _, fired = detect_batch(np.arange(4), DetectorParams(), np.random.default_rng(0))
        assert fired.tolist() == [0, 1, 2, 3]
        assert OUTCOME_BIT[fired].tolist() == [rule[1 + (o >> 1), 3 + (o & 1)] for o in fired]

    def test_detector_pair_rule_reproduces_the_bit_values(self):
        # singlet (y=0 state) in the z=0 basis: only bit-0 pairs fire
        probs = dfs2_outcome_probs(0, 0, 0, 0.0, 1.0)
        np.testing.assert_allclose(probs[[0, 3]], [0, 0], atol=1e-12)
        # phi+ (y=1 state): only bit-1 pairs fire
        probs = dfs2_outcome_probs(0, 1, 0, 0.0, 1.0)
        np.testing.assert_allclose(probs[[1, 2]], [0, 0], atol=1e-12)
        # anti-diagonal code state in z=1: bit 0 again
        probs = dfs2_outcome_probs(1, 0, 1, 0.0, 1.0)
        np.testing.assert_allclose(probs[[0, 3]], [0, 0], atol=1e-12)


class TestFaultTolerance:
    """The rotation-immunity claims, made testable."""

    def test_matched_bases_are_deterministic_for_perfect_source(self):
        for theta in np.radians(np.arange(-180, 181, 15)):
            for (x, y) in HAND_TARGETS:
                probs = dfs2_outcome_probs(x, y, x, theta, 1.0)
                wrong = probs[OUTCOME_BIT != y].sum()
                assert wrong < 1e-12, (x, y, theta)

    def test_mismatched_bases_leak_nothing(self):
        for theta in np.radians([0, 30, 77]):
            for (x, y) in HAND_TARGETS:
                probs = dfs2_outcome_probs(x, y, 1 - x, theta, 1.0)
                bit1 = probs[OUTCOME_BIT == 1].sum()
                assert bit1 == pytest.approx(0.5, abs=1e-12)

    def test_dfs2_series_has_no_angle_terms(self):
        # the fit zeroes only its own rounding, never a term by name, and
        # every dfs2 angle term is rounding
        coefficients = protocol.series_coefficients("dfs2")
        assert coefficients.shape == (4, 5, 8)
        assert not coefficients[:, 1:].any()
        assert protocol.angle_free("dfs2") and not protocol.angle_free("bb84")

    @pytest.mark.parametrize("name", protocol.PROTOCOLS)
    def test_fitted_coefficients_are_zero_or_far_above_rounding(self, name):
        # a tolerance anywhere between rounding and the smallest term gives
        # the same series
        magnitudes = np.abs(protocol.series_coefficients(name))
        assert np.all((magnitudes == 0) | (magnitudes >= 1e6 * protocol.SERIES_TOLERANCE))

    def test_dfs2_kernel_is_the_symbol_table_at_any_angle(self):
        # bit for bit, which is what lets a dfs2 session skip the channel
        rng = np.random.default_rng(32)
        s = rng.integers(0, 8, 10_000)
        for visibility in (0.0, 0.5, 0.88, 1.0):
            table = protocol.dfs2_probs_batch(np.arange(8), np.zeros(8), visibility)
            got = protocol.dfs2_probs_batch(s, rng.uniform(-2 * np.pi, 4 * np.pi, len(s)), visibility)
            np.testing.assert_array_equal(got, table[s])


class TestBatchKernels:
    """The session engine's kernels sum a series fitted from the scalar
    density pipeline, and must give its values at any angle."""

    # off the fit's grid, negative and past 2 pi
    THETAS = np.random.default_rng(31).uniform(-2 * np.pi, 4 * np.pi, 240)

    def _rows(self):
        """(s, theta) columns: every symbol s = 4x + 2y + z at each angle."""
        return np.tile(np.arange(8), len(self.THETAS)), np.repeat(self.THETAS, 8)

    @staticmethod
    def _scalar(oracle, s, thetas, visibility):
        """The scalar pipeline's value on each row, the symbol split into bits."""
        return [oracle(si >> 2, si >> 1 & 1, si & 1, t, visibility) for si, t in zip(s.tolist(), thetas)]

    def test_angles_cover_both_signs_and_more_than_a_turn(self):
        assert (self.THETAS < 0).any() and (self.THETAS > 2 * np.pi).any()

    @pytest.mark.parametrize("visibility", [0.0, 0.5, 0.88, 1.0])
    def test_dfs2_kernel_equals_the_scalar_pipeline(self, visibility):
        s, thetas = self._rows()
        got = protocol.dfs2_probs_batch(s, thetas, visibility)
        want = self._scalar(dfs2_outcome_probs, s, thetas, visibility)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("visibility", [0.0, 0.5, 0.88, 1.0])
    def test_bb84_kernel_equals_the_scalar_pipeline(self, visibility):
        s, thetas = self._rows()
        got = protocol.bb84_port1_batch(s, thetas, visibility)
        want = self._scalar(bb84_port1_prob, s, thetas, visibility)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_fit_waits_for_first_use(self):
        # the fit's scalar runs would otherwise add to every CLI start
        code = "import dfsqkd.cli, dfsqkd.protocol as p; print(p.series_coefficients.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
        assert out.strip() == "0"


class TestSift:
    """The sifting rule, run through the session's two sifting halves."""

    def test_all_match(self, sift_halves):
        a_key, b_key = sift_halves(
            pair_slots=[5, 9, 11], x=[0, 1, 0], y=[1, 0, 0], slots=[5, 9, 11], z=[0, 1, 0], bits=[0, 1, 1]
        )
        np.testing.assert_array_equal(a_key, [1, 0, 0])
        np.testing.assert_array_equal(b_key, [0, 1, 1])

    def test_none_match(self, sift_halves):
        a_key, b_key = sift_halves(
            pair_slots=[2, 3], x=[0, 1], y=[1, 0], slots=[2, 3], z=[1, 0], bits=[1, 0]
        )
        assert len(a_key) == len(b_key) == 0

    def test_misaligned_inputs(self, sift_halves):
        # a declaration whose bases do not cover its slots is refused
        with pytest.raises(ProtocolError, match="too short"):
            sift_halves(
                pair_slots=range(9), x=[0] * 9, y=[0] * 9, slots=range(9), z=[0], bits=[0] * 9
            )

    def test_kept_fraction_is_half_for_uniform_bases(self, sift_halves):
        rng = np.random.default_rng(21)
        n = 10**5
        x, y, z, bits = rng.integers(0, 2, (4, n))
        a_key, b_key = sift_halves(np.arange(n), x, y, np.arange(n), z, bits)
        # each side keeps its own bits where the bases match
        np.testing.assert_array_equal(a_key, y[x == z])
        np.testing.assert_array_equal(b_key, bits[x == z])
        sigma = np.sqrt(0.25 / n)
        assert abs(len(a_key) / n - 0.5) < 4 * sigma


class TestQberEstimate:
    """The error test on the disclosed sample, as sessions run it."""

    def test_identical_keys(self):
        cfg = SessionConfig(duration_s=0.5, visibility=1.0, sample_fraction=0.5, seeds=Seeds(5, 6, 7, 8))
        alice, bob = run_session_detailed(cfg)
        np.testing.assert_array_equal(alice.sifted_key, bob.sifted_key)
        report = alice.summary.qber
        assert report.qber == 0.0
        assert report.n_compared == round(0.5 * len(alice.sifted_key))

    def test_complementary_keys(self):
        # a quarter-turn swaps H and V and maps the diagonal basis onto
        # itself with the bits exchanged: every sifted BB84 bit flips
        cfg = SessionConfig(
            protocol="bb84", duration_s=0.5, visibility=1.0, sample_fraction=0.25,
            channel=StaticChannel(np.pi / 2), seeds=Seeds(5, 6, 7, 8),
        )
        alice, bob = run_session_detailed(cfg)
        np.testing.assert_array_equal(alice.sifted_key, 1 - bob.sifted_key)
        assert alice.summary.qber.qber == 1.0

    def test_stderr_matches_binomial_formula(self):
        # 6% errors over 1e5 compared bits -> stderr about 7.5e-4 (0.1%)
        report = qber_report(100_000, 6000)
        assert report.qber == pytest.approx(0.06)
        assert report.stderr == pytest.approx(7.509993342207434e-4, abs=1e-12)

    def test_disclosed_positions_are_valid_and_unique(self):
        positions = sample_positions(1000, 0.1, np.random.default_rng(5))
        assert len(np.unique(positions)) == len(positions) == 100
        assert positions.min() >= 0 and positions.max() < 1000
        assert np.all(np.diff(positions) > 0)


class TestKeyRate:
    def test_perfect_key(self):
        result = key_rate(0.0)
        assert result.rate == 1.0 and result.secure

    def test_six_percent(self):
        # direct evaluation of 1 - 2*H2(0.06)
        assert key_rate(0.06).rate == pytest.approx(0.34511016169104747, abs=1e-12)

    def test_threshold_and_above_give_zero(self):
        for q in (0.11, 0.15, 0.5, 1.0):
            result = key_rate(q)
            assert result.rate == 0.0 and not result.secure

    def test_just_below_threshold_is_tiny_but_secure(self):
        result = key_rate(0.1099)
        assert result.secure and 0 < result.rate < 1e-3

    def test_monotone_below_threshold(self):
        rates = [key_rate(q).rate for q in np.linspace(0, 0.1099, 50)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            key_rate(1.5)

    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)


class TestBB84Baseline:
    def test_prepare_pure(self):
        rho = bb84_prepare(0, 0, 1.0)
        np.testing.assert_allclose(rho, np.outer(KET_V, KET_V), atol=1e-15)

    def test_prepare_fully_mixed(self):
        np.testing.assert_allclose(bb84_prepare(1, 1, 0.0), np.eye(2) / 2, atol=1e-15)

    def test_prepare_equals_heralded_source_state(self):
        v = 0.88
        _, heralded = qstate.herald_photon1(qstate.werner_mix(PSI_MINUS, v), KET_PLUS)
        np.testing.assert_allclose(bb84_prepare(1, 0, v), heralded, atol=1e-12)

    def test_matching_basis_error_probability(self):
        for theta in np.radians([0, 10, 30, 45]):
            for v in (1.0, 0.88):
                for (x, y) in HAND_TARGETS:
                    p1 = bb84_port1_prob(x, y, x, theta, v)
                    p_err = (1 - p1) if protocol.BB84_PORT_BIT[x, 0] == y else p1
                    expected = (1 - v) / 2 + v * np.sin(theta) ** 2
                    assert p_err == pytest.approx(expected, abs=1e-12)

    def test_round_is_deterministic_without_noise(self):
        cfg = SessionConfig(protocol="bb84", duration_s=0.1, visibility=1.0, seeds=Seeds(3, 3, 3, 3))
        # ideal detectors: Bob's records are every pair slot, as Alice's are
        prefix = simulate_quantum(cfg)
        bob = simulate_bob(cfg, prefix)
        matched = prefix.x == bob.z
        assert {(x, y) for x, y in zip(prefix.x[matched], prefix.y[matched])} == set(HAND_TARGETS)
        np.testing.assert_array_equal(bob.decide()[matched], prefix.y[matched])

    def test_round_at_45_degrees_is_a_coin_flip(self):
        cfg = SessionConfig(
            protocol="bb84", duration_s=10.0, visibility=1.0,
            channel=StaticChannel(np.pi / 4), seeds=Seeds(4, 4, 4, 4),
        )
        prefix = simulate_quantum(cfg)
        bob = simulate_bob(cfg, prefix)
        matched = prefix.x == bob.z
        n = int(matched.sum())
        errors = np.count_nonzero(bob.decide()[matched] != prefix.y[matched])
        assert n > 10_000
        assert abs(errors / n - 0.5) < 4 * np.sqrt(0.25 / n)


class TestErrorRateRoutes:
    """Closed form, density pipeline, and Monte Carlo must agree."""

    def test_exact_equals_predicted_everywhere(self):
        for prot in ("dfs2", "bb84"):
            for theta in np.radians(np.arange(0, 50, 5)):
                for v in (1.0, 0.88, 0.5):
                    assert exact_qber(prot, theta, v) == pytest.approx(
                        predicted_qber(prot, theta, v), abs=1e-9
                    )

    def test_dfs_curve_is_flat_and_bb84_sinusoidal(self):
        assert predicted_qber("dfs2", 0.6, 0.88) == pytest.approx(0.06)
        assert predicted_qber("bb84", 0.0, 0.88) == pytest.approx(0.06)
        assert predicted_qber("bb84", np.pi / 4, 1.0) == pytest.approx(0.5)

    def test_monte_carlo_matches_exact_within_4_sigma(self):
        rng = np.random.default_rng(77)
        n = 10**5
        for prot in ("dfs2", "bb84"):
            for theta_deg in range(0, 50, 5):
                for v in (1.0, 0.88):
                    theta = np.radians(theta_deg)
                    estimate = mc_qber(prot, theta, v, n, rng)
                    truth = exact_qber(prot, theta, v)
                    sigma = np.sqrt(max(truth * (1 - truth), 1e-12) / n)
                    assert abs(estimate - truth) <= 4 * sigma + 1e-9, (prot, theta_deg, v)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="protocol"):
            predicted_qber("e91", 0.0, 1.0)
