"""Unit tests for the polarization-state linear algebra core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqkd import qstate
from dfsqkd.optics import rotation_unitary
from dfsqkd.qstate import (
    KET_H,
    KET_MINUS,
    KET_PLUS,
    KET_V,
    PHI_PLUS,
    PSI_MINUS,
    apply_collective,
    apply_photon,
    born_probs,
    herald_photon1,
    overlap2,
    tensor,
    werner_mix,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestBasisAndTensor:
    def test_tensor_products(self):
        np.testing.assert_allclose(tensor(KET_H, KET_V), [0, 1, 0, 0])
        np.testing.assert_allclose(tensor(KET_PLUS, KET_H), [INV_SQRT2, 0, INV_SQRT2, 0])
        np.testing.assert_allclose(
            tensor(KET_MINUS, KET_MINUS), [0.5, -0.5, -0.5, 0.5], atol=1e-15
        )

    def test_bell_states_are_unit(self):
        assert np.linalg.norm(PSI_MINUS) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(PHI_PLUS) == pytest.approx(1.0, abs=1e-12)


class TestApply:
    def test_identity_leaves_singlet(self):
        out = apply_photon(np.eye(2), 1, PSI_MINUS)
        np.testing.assert_allclose(out, PSI_MINUS, atol=1e-15)

    def test_phase_flip_on_photon1_gives_triplet(self):
        # hand expansion: (HV - VH) -> (HV + VH) under diag(1,-1) x I
        psi_plus = np.array([0, 1, 1, 0]) * INV_SQRT2
        out = apply_photon(np.diag([1.0, -1.0]), 1, PSI_MINUS)
        np.testing.assert_allclose(out, psi_plus, atol=1e-15)

    def test_invalid_photon_index(self):
        with pytest.raises(ValueError, match="photon index"):
            apply_photon(np.eye(2), 3, PSI_MINUS)

    def test_unitary_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = random_unitary(rng, 2)
            ket = random_ket(rng, 4)
            back = apply_photon(u.conj().T, 1, apply_photon(u, 1, ket))
            assert np.max(np.abs(back - ket)) < 1e-12

    def test_collective_rotation_fixes_singlet_and_phi_plus(self):
        for theta in np.radians(np.arange(-180, 181, 7)):
            u = rotation_unitary(theta)
            assert overlap2(apply_collective(u, PSI_MINUS), PSI_MINUS) > 1 - 1e-12
            assert overlap2(apply_collective(u, PHI_PLUS), PHI_PLUS) > 1 - 1e-12

    def test_collective_half_turn_swaps_hh_to_vv(self):
        hh = tensor(KET_H, KET_H)
        vv = tensor(KET_V, KET_V)
        out = apply_collective(rotation_unitary(np.pi / 2), hh)
        assert overlap2(out, vv) == pytest.approx(1.0, abs=1e-12)

    def test_density_evolution_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(5)
        rho = werner_mix(PSI_MINUS, 0.7)
        for _ in range(10):
            rho = apply_collective(random_unitary(rng, 2), rho)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)


class TestWernerMix:
    def test_pure_limit(self):
        rho = werner_mix(PSI_MINUS, 1.0)
        np.testing.assert_allclose(rho, np.outer(PSI_MINUS, PSI_MINUS.conj()), atol=1e-15)

    def test_fully_mixed_limit(self):
        np.testing.assert_allclose(werner_mix(PSI_MINUS, 0.0), np.eye(4) / 4, atol=1e-15)

    def test_eigenvalues(self):
        v = 0.88
        evals = np.sort(np.linalg.eigvalsh(werner_mix(PSI_MINUS, v)))
        expected = np.sort([v + (1 - v) / 4] + [(1 - v) / 4] * 3)
        np.testing.assert_allclose(evals, expected, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="visibility"):
            werner_mix(PSI_MINUS, 1.2)


class TestBornProbs:
    def test_singlet_in_hv(self):
        probs = born_probs(PSI_MINUS, KET_H, KET_H)
        np.testing.assert_allclose(probs, [0, 0.5, 0.5, 0], atol=1e-12)

    def test_phi_plus_in_hv(self):
        probs = born_probs(PHI_PLUS, KET_H, KET_H)
        np.testing.assert_allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_fully_mixed_is_flat_for_any_analyzers(self):
        rng = np.random.default_rng(3)
        rho = werner_mix(PSI_MINUS, 0.0)
        for _ in range(10):
            probs = born_probs(rho, random_ket(rng, 2), random_ket(rng, 2))
            np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_probabilities_normalized(self, data, seed):
        rng = np.random.default_rng(seed)
        state = random_ket(rng, 4)
        if data.draw(st.booleans()):
            state = werner_mix(state, data.draw(st.floats(0, 1)))
        probs = born_probs(state, random_ket(rng, 2), random_ket(rng, 2))
        assert np.all(probs >= -1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestHeralding:
    def test_singlet_heralded_on_plus_gives_minus(self):
        prob, rho1 = herald_photon1(PSI_MINUS, KET_PLUS)
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(rho1, np.outer(KET_MINUS, KET_MINUS), atol=1e-12)

    def test_singlet_heralded_on_h_gives_v(self):
        prob, rho1 = herald_photon1(PSI_MINUS, KET_H)
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(rho1, np.outer(KET_V, KET_V), atol=1e-12)

    def test_werner_heralding_keeps_white_noise_form(self):
        v = 0.88
        prob, rho1 = herald_photon1(werner_mix(PSI_MINUS, v), KET_PLUS)
        expected = v * np.outer(KET_MINUS, KET_MINUS) + (1 - v) * np.eye(2) / 2
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(rho1, expected, atol=1e-12)

    def test_herald_probabilities_sum_over_orthonormal_pair(self):
        rng = np.random.default_rng(9)
        rho = werner_mix(random_ket(rng, 4), 0.6)
        a = random_ket(rng, 2)
        p1, _ = herald_photon1(rho, a)
        p2, _ = herald_photon1(rho, qstate.orthogonal_ket(a))
        assert p1 + p2 == pytest.approx(1.0, abs=1e-12)

    def test_impossible_heralding_raises(self):
        hh = tensor(KET_H, KET_H)
        with pytest.raises(ValueError, match="heralding"):
            herald_photon1(hh, KET_V)


class TestOverlap:
    def test_self_overlap(self):
        assert overlap2(PSI_MINUS, PSI_MINUS) == pytest.approx(1.0)

    def test_orthogonal_bell_states(self):
        assert overlap2(PSI_MINUS, PHI_PLUS) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_code_state_identity(self):
        # the x=1, y=1 code state equals (H|+> - V|->)/sqrt(2)
        direct = (tensor(KET_H, KET_PLUS) - tensor(KET_V, KET_MINUS)) * INV_SQRT2
        from_bell = qstate.normalize(PHI_PLUS + PSI_MINUS)
        assert overlap2(direct, from_bell) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        assert overlap2(-PSI_MINUS, PSI_MINUS) == pytest.approx(1.0)
