"""Exact linear algebra for one- and two-photon polarization states.

States are plain numpy arrays: single-photon kets are complex vectors of
shape (2,) on the (H, V) basis, two-photon kets are shape (4,) on the
(HH, HV, VH, VV) product basis with photon 1 as the left tensor factor,
and mixed states are density matrices of shape (2, 2) or (4, 4) on the
same orderings. All operations are pure and draw nothing at random.

Tolerance: 1e-12 for algebraic identities.
"""

from __future__ import annotations

import numpy as np

TOL_ALGEBRA = 1e-12

_SQRT2 = np.sqrt(2.0)

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / _SQRT2
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / _SQRT2

# Bell pair produced by the source (singlet) and its rotation-immune partner.
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQRT2
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / _SQRT2

for _arr in (KET_H, KET_V, KET_PLUS, KET_MINUS, PSI_MINUS, PHI_PLUS):
    _arr.setflags(write=False)


def normalize(ket: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(ket)
    if norm < TOL_ALGEBRA:
        raise ValueError("cannot normalize a zero ket")
    return ket / norm


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product ket of photon 1 (left factor) and photon 2."""
    return np.outer(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)).ravel()


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2x2 matrices: the same products, without the generic
    shape handling that costs more than they do."""
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(4, 4)


def ket_density(ket: np.ndarray) -> np.ndarray:
    """Projector |ket><ket| as a density matrix."""
    k = np.asarray(ket, dtype=complex)
    return np.outer(k, k.conj())


def orthogonal_ket(ket: np.ndarray) -> np.ndarray:
    """The single-photon ket orthogonal to `ket` (fixed phase convention)."""
    return np.array([-np.conj(ket[1]), np.conj(ket[0])], dtype=complex)


def _embed(u: np.ndarray, which: int) -> np.ndarray:
    eye = np.eye(2, dtype=complex)
    if which == 1:
        return _kron(u, eye)
    if which == 2:
        return _kron(eye, u)
    raise ValueError(f"photon index must be 1 or 2, got {which}")


def _apply_full(full: np.ndarray, state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return full @ state
    if state.ndim == 2:
        return full @ state @ full.conj().T
    raise ValueError("state must be a ket (1-d) or a density matrix (2-d)")


def apply_photon(u: np.ndarray, which: int, state: np.ndarray) -> np.ndarray:
    """Act with a 2x2 unitary on one photon of a two-photon state.

    ``which`` selects the arm: 1 applies u (x) I, 2 applies I (x) u.
    Works on kets and on density matrices (conjugation).
    """
    return _apply_full(_embed(np.asarray(u, dtype=complex), which), state)


def apply_collective(u: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Act with the same 2x2 unitary on both photons (u (x) u)."""
    u = np.asarray(u, dtype=complex)
    return _apply_full(_kron(u, u), state)


def werner_mix(pure: np.ndarray, visibility: float) -> np.ndarray:
    """Isotropic mixture V |psi><psi| + (1-V) I/4 of a two-photon ket.

    This is the imperfect-source model: fringe visibility equals V in
    every analyzer basis and the matched-basis error rate is (1-V)/2.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    return visibility * ket_density(pure) + (1.0 - visibility) * np.eye(4, dtype=complex) / 4.0


def analyzer_bras(analyzer1: np.ndarray, analyzer2: np.ndarray) -> np.ndarray:
    """4x4 matrix whose rows are the product bras of the four PBS outcomes.

    Row order is (a1,a2), (a1,a2-perp), (a1-perp,a2), (a1-perp,a2-perp),
    matching detector pairs (D1,D3), (D1,D4), (D2,D3), (D2,D4).
    """
    a1p = orthogonal_ket(analyzer1)
    a2p = orthogonal_ket(analyzer2)
    rows = [
        tensor(analyzer1, analyzer2),
        tensor(analyzer1, a2p),
        tensor(a1p, analyzer2),
        tensor(a1p, a2p),
    ]
    return np.array([r.conj() for r in rows])


def born_probs(state: np.ndarray, analyzer1: np.ndarray, analyzer2: np.ndarray) -> np.ndarray:
    """Outcome probabilities of a joint PBS measurement on both photons.

    Returns the four probabilities in :func:`analyzer_bras` row order.
    Accepts a two-photon ket or density matrix.
    """
    bras = analyzer_bras(analyzer1, analyzer2)
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        amps = bras @ state
        return np.abs(amps) ** 2
    probs = np.einsum("oi,ij,oj->o", bras, state, bras.conj())
    return np.real(probs)


def herald_photon1(state: np.ndarray, analyzer2: np.ndarray) -> tuple[float, np.ndarray]:
    """Project photon 2 onto an analyzer ket and return photon 1's state.

    Returns (probability of the projection, normalized 2x2 conditional
    density of photon 1). Raises if the projection probability is below
    1e-12 (heralding impossible).
    """
    rho = np.asarray(state, dtype=complex)
    if rho.ndim == 1:
        rho = ket_density(rho)
    a2 = np.asarray(analyzer2, dtype=complex)
    # M_ij = <i a2| rho |j a2> over photon-1 indices i, j
    rho4 = rho.reshape(2, 2, 2, 2)
    cond = np.einsum("k,ikjl,l->ij", a2.conj(), rho4, a2)
    prob = float(np.real(np.trace(cond)))
    if prob < 1e-12:
        raise ValueError("heralding probability is zero for this analyzer")
    return prob, cond / prob


def overlap2(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap |<a|b>|^2 of two kets; global phase drops out."""
    return float(np.abs(np.vdot(a, b)) ** 2)
