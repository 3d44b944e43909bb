"""Optical elements, channel-noise models, and the detector layer.

Angle convention: every function takes the polarization-action angle
theta. A physical half-wave plate producing that action sits at theta/2
to its optical axis; the plate angle never appears in an interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Fixed axis angles of the four electro-optic modulators (as polarization
# half-angles): M1 at 0, M2 at 45 deg, M3 and M4 at 22.5 deg.
MODULATOR_AXES = {1: 0.0, 2: np.pi / 4, 3: np.pi / 8, 4: np.pi / 8}


def hwp_unitary(theta: float) -> np.ndarray:
    """Polarization action of a half-wave plate.

    Maps H -> cos(theta) H - sin(theta) V and
    V -> -(sin(theta) H + cos(theta) V): a reflection, so the matrix is
    real, symmetric, involutory, with determinant -1.
    """
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [-s, -c]], dtype=complex)


def rotation_unitary(theta: float) -> np.ndarray:
    """Ideal polarization rotation: H -> cos H - sin V, V -> sin H + cos V."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]], dtype=complex)


def rotation_batch(thetas: np.ndarray) -> np.ndarray:
    """Stack of rotation matrices, shape (n, 2, 2). Real dtype."""
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas), np.sin(thetas)
    out = np.empty(thetas.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = s
    out[..., 1, 0] = -s
    out[..., 1, 1] = c
    return out


def channel_unitary(theta: float) -> np.ndarray:
    """Noise-channel realization: a fixed compensating plate followed by
    the noise plate at theta. The pair reproduces the ideal rotation
    exactly (the compensator cancels the reflection's phase flip)."""
    return hwp_unitary(theta) @ hwp_unitary(0.0)


@dataclass(frozen=True)
class EomSetting:
    """An electro-optic modulator: off = identity, on = HWP action at
    twice its axis angle."""

    on: bool
    axis_angle: float


def modulator(index: int, on: bool) -> EomSetting:
    """Setting for one of the four fixed modulators M1..M4."""
    try:
        axis = MODULATOR_AXES[index]
    except KeyError:
        raise ValueError(f"modulator index must be 1..4, got {index}") from None
    return EomSetting(on=on, axis_angle=axis)


def eom_unitary(setting: EomSetting) -> np.ndarray:
    if not setting.on:
        return np.eye(2, dtype=complex)
    return hwp_unitary(2.0 * setting.axis_angle)


# --------------------------------------------------------------------------
# Channel models. The frozen model describes the noise process; sampler()
# returns the per-session cursor that actually draws angles. A sampler must
# not be shared across concurrent sessions; RandomWalk samplers must be
# queried with non-decreasing slot indices.
# --------------------------------------------------------------------------


# Walk steps drawn per chunk; bounds the walk's memory by the chunk size.
WALK_CHUNK = 1 << 20


class ChannelSampler:
    def sample_batch(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class StaticChannel:
    """Fixed rotation angle (one plate setting per experimental point)."""

    theta: float

    def sampler(self) -> ChannelSampler:
        return _StaticSampler(self.theta)

    def to_dict(self) -> dict:
        return {"kind": "static", "theta_deg": float(np.degrees(self.theta))}


@dataclass(frozen=True)
class PerSlotUniformChannel:
    """Angle drawn independently and uniformly in [lo, hi] each slot."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("channel bounds must satisfy lo <= hi")

    def sampler(self) -> ChannelSampler:
        return _UniformSampler(self.lo, self.hi)

    def to_dict(self) -> dict:
        return {
            "kind": "per_slot_uniform",
            "lo_deg": float(np.degrees(self.lo)),
            "hi_deg": float(np.degrees(self.hi)),
        }


@dataclass(frozen=True)
class RandomWalkChannel:
    """Gaussian random walk: one step of width step_sigma per clock slot."""

    theta0: float
    step_sigma: float

    def __post_init__(self):
        if self.step_sigma < 0:
            raise ValueError("step_sigma must be >= 0")

    def sampler(self) -> ChannelSampler:
        return _WalkSampler(self.theta0, self.step_sigma)

    def to_dict(self) -> dict:
        return {
            "kind": "random_walk",
            "theta0_deg": float(np.degrees(self.theta0)),
            "step_sigma_deg": float(np.degrees(self.step_sigma)),
        }


# Fields of each channel kind in a config dict, besides "kind".
_CHANNEL_FIELDS = {
    "static": ("theta_deg",),
    "per_slot_uniform": ("lo_deg", "hi_deg"),
    "random_walk": ("theta0_deg", "step_sigma_deg"),
}


def channel_from_dict(d: dict):
    kind = d.get("kind")
    if kind not in _CHANNEL_FIELDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    unknown = set(d) - {"kind", *_CHANNEL_FIELDS[kind]}
    if unknown:
        raise ValueError(f"unknown fields for a {kind} channel: {sorted(unknown)}")
    if kind == "static":
        return StaticChannel(theta=np.radians(d["theta_deg"]))
    if kind == "per_slot_uniform":
        return PerSlotUniformChannel(lo=np.radians(d["lo_deg"]), hi=np.radians(d["hi_deg"]))
    return RandomWalkChannel(
        theta0=np.radians(d["theta0_deg"]), step_sigma=np.radians(d["step_sigma_deg"])
    )


class _StaticSampler(ChannelSampler):
    def __init__(self, theta: float):
        self.theta = float(theta)

    def sample_batch(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.full(len(slots), self.theta)


class _UniformSampler(ChannelSampler):
    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = float(lo), float(hi)

    def sample_batch(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=len(slots))


class _WalkSampler(ChannelSampler):
    """Walk state advances one Gaussian step per slot; queries must come
    in non-decreasing slot order (the step draws are consumed lazily).

    Steps are drawn WALK_CHUNK at a time. The running step sum is carried
    into each chunk's cumulative sum and the start angle added after it,
    so the angles equal those of one draw over every step.
    """

    def __init__(self, theta0: float, step_sigma: float):
        self.theta = float(theta0)
        self.step_sigma = float(step_sigma)
        self._last_slot = 0

    def sample_batch(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        slots = np.asarray(slots, dtype=np.int64)
        if len(slots) == 0:
            return np.empty(0)
        if np.any(np.diff(slots) < 0) or slots[0] < self._last_slot:
            raise ValueError("random-walk channel queried out of order")
        total = int(slots[-1] - self._last_slot)
        offsets = slots - self._last_slot  # 0 means "no new step yet"
        values = np.full(len(slots), self.theta)
        step_sum = 0.0
        for start in range(0, total, WALK_CHUNK):
            steps = rng.normal(0.0, self.step_sigma, size=min(WALK_CHUNK, total - start))
            if start:
                steps[0] += step_sum
            sums = np.cumsum(steps)
            step_sum = sums[-1]
            # the slots at offsets start + 1 .. start + len(steps)
            lo, hi = np.searchsorted(offsets, [start, start + len(steps)], side="right")
            values[lo:hi] = self.theta + sums[offsets[lo:hi] - 1 - start]
        if total:
            self.theta = float(self.theta + step_sum)
            self._last_slot = int(slots[-1])
        return values


# --------------------------------------------------------------------------
# Detector layer
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectorParams:
    """Per-detector efficiency and dark-count probability per coincidence
    window. Defaults are idealized (the experiment's values are not
    quantified)."""

    efficiency: float = 1.0
    dark_count_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ValueError(f"dark_count_prob must be in [0, 1), got {self.dark_count_prob}")

    def to_dict(self) -> dict:
        return {
            "efficiency": float(self.efficiency),
            "dark_count_prob": float(self.dark_count_prob),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DetectorParams":
        return cls(**d)


def detect_batch(
    true_outcomes: np.ndarray, params: DetectorParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized detector layer over pair slots.

    Outcome index o names the detector pair (1 + o // 2, 3 + o % 2). Each
    photon's true detector fires with probability `efficiency`; every
    detector additionally fires with `dark_count_prob`. A side resolves
    only if exactly one of its two detectors fired (double fires within
    the window are discarded).

    Draw order: (n, 2) efficiency uniforms, then (n, 4) dark uniforms.
    Returns (coincidence mask, detector_photon1, detector_photon2); the
    detector arrays are valid only where the coincidence mask is true.
    """
    outcomes = np.asarray(true_outcomes, dtype=np.int64)
    n = len(outcomes)
    eff = rng.random((n, 2)) < params.efficiency
    dark = rng.random((n, 4)) < params.dark_count_prob

    true_d1 = outcomes >> 1  # 0 -> D1, 1 -> D2
    true_d2 = outcomes & 1  # 0 -> D3, 1 -> D4
    fired = dark.copy()
    rows = np.arange(n)
    fired[rows, true_d1] |= eff[:, 0]
    fired[rows, 2 + true_d2] |= eff[:, 1]

    side1 = fired[:, 0] != fired[:, 1]
    side2 = fired[:, 2] != fired[:, 3]
    det1 = np.where(fired[:, 0], 1, 2)
    det2 = np.where(fired[:, 2], 3, 4)
    return side1 & side2, det1, det2
