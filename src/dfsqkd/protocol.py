"""Protocol logic for the two-photon rotation-immune QKD scheme.

Alice encodes a basis bit x and a key bit y onto the singlet source by
switching three electro-optic modulators on photon 1; the four encoded
states span the subspace left pointwise invariant by collective
polarization rotations, so the channel angle never reaches the key. Bob
chooses a basis bit z with a fourth modulator and reads both photons
through polarizing beam splitters. A standard single-photon BB84
baseline over the same channel is included for comparison.

Conventions fixed here and relied on everywhere else:

* modulator traversal order on photon 1 is M3, then M2, then M1 (the
  only order that reproduces the published switching table);
* detectors D1/D2 are photon 1's transmit/reflect ports, D3/D4 the same
  for photon 2; outcome index o in 0..3 means (D1,D3), (D1,D4), (D2,D3),
  (D2,D4) in that order;
* a coincidence on (D1,D4) or (D2,D3) decodes to bit 0, the other two
  pairs to bit 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import qstate
from .optics import modulator_unitary, rotation_unitary
from .qstate import KET_H, KET_MINUS, KET_PLUS, KET_V, PHI_PLUS, PSI_MINUS

PROTOCOLS = ("dfs2", "bb84")

# Security threshold for BB84-type protocols: no secret key above 11%.
QBER_SECURE_THRESHOLD = 0.11

# Switching table: (x, y) -> (M1, M2, M3). x chooses the basis, y the bit.
MODULATOR_PATTERNS = {
    (0, 0): (False, False, False),
    (0, 1): (True, True, False),
    (1, 0): (False, True, True),
    (1, 1): (True, False, True),
}

# The four encoded states, built independently of the modulator chain so
# the encoder has something to be checked against. x=0 is the
# {phi+, psi-} basis, x=1 its diagonal counterpart.
ENCODED_TARGETS = {
    (0, 0): PSI_MINUS.copy(),
    (0, 1): PHI_PLUS.copy(),
    (1, 0): qstate.normalize(PHI_PLUS - PSI_MINUS),
    (1, 1): qstate.normalize(PHI_PLUS + PSI_MINUS),
}

# Joint outcome index -> decoded bit: (D1,D4) and (D2,D3) are bit 0.
OUTCOME_BIT = np.array([1, 0, 0, 1], dtype=np.int8)

# BB84 baseline: ideal single-photon states keyed by (x, y), and the
# detector-port -> bit map per Bob basis (port 0 is D1).
BB84_STATES = {
    (0, 0): KET_V.copy(),
    (0, 1): KET_H.copy(),
    (1, 0): KET_MINUS.copy(),
    (1, 1): KET_PLUS.copy(),
}
BB84_PORT_BIT = np.array([[1, 0], [0, 1]], dtype=np.int8)


def _check_bit(name: str, value: int) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value}")
    return int(value)


def modulator_pattern(x: int, y: int) -> tuple[bool, bool, bool]:
    """(M1, M2, M3) on/off pattern for basis bit x and key bit y."""
    return MODULATOR_PATTERNS[(_check_bit("x", x), _check_bit("y", y))]


def alice_unitary(x: int, y: int) -> np.ndarray:
    """Net action of Alice's modulator chain on photon 1.

    The photon traverses M3 first, then M2, then M1, so the matrix
    product runs M1 . M2 . M3.
    """
    m1, m2, m3 = modulator_pattern(x, y)
    return modulator_unitary(1, m1) @ modulator_unitary(2, m2) @ modulator_unitary(3, m3)


def encode_state(x: int, y: int, source: np.ndarray) -> np.ndarray:
    """Run the source state (singlet, pure or mixed) through Alice's
    modulators. Matches the corresponding encoded target up to a global
    phase when the source is the pure singlet."""
    return qstate.apply_photon(alice_unitary(x, y), 1, source)


def bob_photon1_analyzer(z: int) -> np.ndarray:
    """Analyzer ket of photon 1's transmit port (detector D1).

    z=0 measures {H, V} directly; z=1 switches M4 on in front of the
    PBS, which makes D1 collect the anti-diagonal component.
    """
    if _check_bit("z", z) == 0:
        return KET_H.copy()
    u4 = modulator_unitary(4, True)
    return u4.conj().T @ KET_H


def bob_analyzers(z: int) -> tuple[np.ndarray, np.ndarray]:
    """(photon-1, photon-2) analyzer kets for Bob's basis bit z.

    Photon 2 has no modulator and is always read in {H, V}.
    """
    return bob_photon1_analyzer(z), KET_H.copy()


# --------------------------------------------------------------------------
# Exact outcome probabilities. The scalar versions run the full density
# pipeline in qstate. The *_batch versions, for the session engine, sum a
# series in the channel angle fitted once from the scalar ones: R(theta)
# on one photon gives harmonics 1, cos 2theta, sin 2theta (bb84), on two
# also cos 4theta, sin 4theta (dfs2). Values at 2 order + 1 angles fix it.
# --------------------------------------------------------------------------


def dfs2_outcome_probs(x: int, y: int, z: int, theta: float, visibility: float) -> np.ndarray:
    """Born probabilities of the four detector pairs for one encoded
    symbol after the collective-rotation channel."""
    rho = qstate.werner_mix(PSI_MINUS, visibility)
    rho = encode_state(x, y, rho)
    rho = qstate.apply_collective(rotation_unitary(theta), rho)
    return qstate.born_probs(rho, *bob_analyzers(z))


def _harmonics(thetas: np.ndarray, order: int) -> list[np.ndarray]:
    """The series' terms after its constant, up to cos and sin of 2 order theta."""
    return [f(2 * m * thetas) for m in range(1, order + 1) for f in (np.cos, np.sin)]


# Fitted coefficients below this are rounding, not physics, and are set to
# 0. The fit leaves absent terms at 1e-16 or less; present ones are 0.25
# or more.
SERIES_TOLERANCE = 64 * np.finfo(float).eps


@functools.cache
def series_coefficients(protocol: str) -> np.ndarray:
    """Each pure-source Born probability's coefficients in the series, shape
    (outcomes, terms, symbol s = 4x + 2y + z), fitted on first use. Only
    the rounding the fit leaves (below SERIES_TOLERANCE) is set to 0, so
    whether a law depends on the angle is read off the fit: dfs2's angle
    terms all come out 0, its rotation immunity computed, not assumed."""
    order = 2 if protocol == "dfs2" else 1
    angles = np.pi * np.arange(2 * order + 1) / (2 * order + 1)
    basis = np.column_stack([np.ones_like(angles), *_harmonics(angles, order)])
    oracle = dfs2_outcome_probs if protocol == "dfs2" else lambda *args: [bb84_port1_prob(*args)]
    values = [[oracle(s >> 2, (s >> 1) & 1, s & 1, t, 1.0) for t in angles] for s in range(8)]
    coefficients = np.linalg.solve(basis, np.array(values).transpose(2, 1, 0))
    coefficients[np.abs(coefficients) < SERIES_TOLERANCE] = 0.0
    coefficients.flags.writeable = False
    return coefficients


def angle_free(protocol: str) -> bool:
    """Whether the protocol's outcome law has no angle terms, so that every
    channel angle gives the law at angle 0."""
    return not series_coefficients(protocol)[:, 1:].any()


def _series_batch(protocol: str, s, thetas, visibility: float) -> np.ndarray:
    """Born probabilities of each row's symbol s = 4x + 2y + z, shape
    (outcomes, n), summed one 1-D column at a time: p = V p_pure + (1 - V) / k,
    white noise spread over k = 4 detector pairs (dfs2) or 2 ports (bb84)."""
    coefficients = visibility * series_coefficients(protocol)
    coefficients[:, 0] += (1.0 - visibility) / (4 if protocol == "dfs2" else 2)
    order = coefficients.shape[1] // 2  # of 2 order + 1 terms
    terms = _harmonics(np.asarray(thetas, dtype=float), order)
    out = np.empty((len(coefficients), len(s)))
    for column, (constant, *rest) in zip(out, coefficients):
        np.take(constant, s, out=column)
        for c, term in zip(rest, terms):
            column += np.take(c, s) * term
    return out


def dfs2_probs_batch(s: np.ndarray, thetas: np.ndarray, visibility: float) -> np.ndarray:
    """Per-symbol :func:`dfs2_outcome_probs`, shape (n, 4), from its series."""
    return _series_batch("dfs2", s, thetas, visibility).T


def bb84_prepare(x: int, y: int, visibility: float) -> np.ndarray:
    """Single-photon state for the BB84 baseline: the ideal state chosen
    by (x, y), mixed with white noise exactly as the heralded photon of
    the imperfect pair source would be."""
    _check_bit("x", x), _check_bit("y", y)
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    ket = BB84_STATES[(x, y)]
    return visibility * qstate.ket_density(ket) + (1.0 - visibility) * np.eye(2, dtype=complex) / 2.0


def bb84_port1_prob(x: int, y: int, z: int, theta: float, visibility: float) -> float:
    """Probability that Bob's photon lands in detector D1 (transmit port)."""
    rho = bb84_prepare(x, y, visibility)
    u = rotation_unitary(theta)
    rho = u @ rho @ u.conj().T
    a1 = bob_photon1_analyzer(z)
    return float(np.real(a1.conj() @ rho @ a1))


def bb84_port1_batch(s: np.ndarray, thetas: np.ndarray, visibility: float) -> np.ndarray:
    """Per-symbol :func:`bb84_port1_prob`, shape (n,), from its series."""
    return _series_batch("bb84", s, thetas, visibility)[0]


# --------------------------------------------------------------------------
# Error estimation (sifting itself is the conversation in session.py)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QberReport:
    """Error estimate from a disclosed sample. qber and stderr are None
    when nothing was compared. The counts are ints for a sampled session
    and expected values (floats) in the infinite-shot limit."""

    n_compared: int
    n_errors: int
    qber: Optional[float]
    stderr: Optional[float]


def qber_report(n_compared: int, n_errors: int) -> QberReport:
    if n_compared == 0:
        return QberReport(0, 0, None, None)
    q = n_errors / n_compared
    return QberReport(n_compared, n_errors, q, float(np.sqrt(q * (1.0 - q) / n_compared)))


def sample_size(n: int, fraction: float) -> int:
    """How many of n sifted bits the error test discloses: the fraction,
    rounded, but at least one bit of a key that has any."""
    return min(n, max(1, round(fraction * n)))


def sample_positions(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """sample_size(n, fraction) random key positions to disclose (sorted),
    drawn directly, without shuffling all n."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"sample_fraction must be in (0, 1], got {fraction}")
    return np.sort(rng.choice(n, sample_size(n, fraction), replace=False, shuffle=False)).astype(np.int64)


# --------------------------------------------------------------------------
# Key rate
# --------------------------------------------------------------------------


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


@dataclass(frozen=True)
class KeyRateResult:
    qber_in: Optional[float]
    rate: float
    secure: bool


def key_rate(qber: float) -> KeyRateResult:
    """Asymptotic secret fraction 1 - 2 H2(e), floored at zero, with the
    11% security threshold."""
    if not 0.0 <= qber <= 1.0:
        raise ValueError(f"qber must be in [0, 1], got {qber}")
    secure = qber < QBER_SECURE_THRESHOLD
    rate = max(0.0, 1.0 - 2.0 * binary_entropy(qber)) if secure else 0.0
    return KeyRateResult(qber_in=float(qber), rate=rate, secure=secure)


# --------------------------------------------------------------------------
# Analytic and Monte-Carlo error rates (independent routes used to check
# the simulator and each other)
# --------------------------------------------------------------------------


def _check_protocol(protocol: str) -> str:
    p = protocol.lower()
    if p not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    return p


def predicted_qber(protocol: str, theta: float, visibility: float) -> float:
    """Closed-form matched-basis error rate.

    The encoded protocol sees only the source noise, (1-V)/2, at any
    rotation angle; single-photon BB84 adds the rotation term V sin^2.
    """
    p = _check_protocol(protocol)
    base = (1.0 - visibility) / 2.0
    if p == "dfs2":
        return base
    return base + visibility * float(np.sin(theta)) ** 2


def _symbol_error_probs(p: str, theta: float, visibility: float) -> list[float]:
    """Matched-basis error probability of each symbol, in (x, y) order
    (0,0), (0,1), (1,0), (1,1), via the full density pipeline."""
    out = []
    for x in (0, 1):
        for y in (0, 1):
            if p == "dfs2":
                probs = dfs2_outcome_probs(x, y, x, theta, visibility)
                out.append(float(probs[OUTCOME_BIT != y].sum()))
            else:
                p1 = bb84_port1_prob(x, y, x, theta, visibility)
                ports = np.array([p1, 1.0 - p1])
                out.append(float(ports[BB84_PORT_BIT[x] != y].sum()))
    return out


def exact_qber(protocol: str, theta: float, visibility: float) -> float:
    """Matched-basis error rate via the full density pipeline, pooled
    uniformly over the four symbols. Independent of
    :func:`predicted_qber`."""
    return sum(_symbol_error_probs(_check_protocol(protocol), theta, visibility)) / 4.0


def mc_qber(protocol: str, theta: float, visibility: float, n_bits: int, rng: np.random.Generator) -> float:
    """Monte-Carlo matched-basis error rate over n_bits sampled rounds.

    Per-symbol error probabilities come from the scalar density pipeline
    (an independent route from the closed form). Rounds are drawn as
    counts: symbol counts from a uniform multinomial, then each symbol's
    error count from a binomial. That is the distribution of sampling
    every round, at a cost that does not grow with n_bits.
    """
    # With a perfect source, rounding leaves some "zero" errors at -1e-17.
    p_err = np.clip(_symbol_error_probs(_check_protocol(protocol), theta, visibility), 0.0, 1.0)
    counts = rng.multinomial(int(n_bits), [0.25] * 4)
    return int(rng.binomial(counts, p_err).sum()) / n_bits
