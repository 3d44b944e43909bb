"""Optical elements, channel-noise models, and the detector layer.

Angle convention: every function takes the polarization-action angle
theta. A physical half-wave plate producing that action sits at theta/2
to its optical axis; the plate angle never appears in an interface.
"""

from __future__ import annotations

import sys
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


class ConfigError(ValueError):
    """Invalid session configuration."""


def require_finite(owner, *names: str) -> None:
    """Refuse each named field of `owner` that is not a finite real number
    with a ConfigError naming it. A bool is not one."""
    for name in names:
        value = getattr(owner, name)
        # The comparison is false for NaN, the infinities and an int past
        # the float range.
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            shown = float(value) if isinstance(value, float) else value  # nan, not np.float64(nan)
            raise ConfigError(f"{name} must be a finite number, got {shown!r}")


# --------------------------------------------------------------------------
# Channel models. The frozen model describes the noise process; sampler()
# returns the object that draws its angles at the given slots from a stream.
# --------------------------------------------------------------------------


class ChannelSampler:
    def sample_batch(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class StaticChannel:
    """Fixed rotation angle (one plate setting per experimental point)."""

    theta: float

    def __post_init__(self):
        require_finite(self, "theta")

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
        require_finite(self, "lo", "hi")
        if self.hi < self.lo:
            raise ConfigError("channel bounds must satisfy lo <= hi")

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
    """Gaussian random walk: one step of width step_sigma per clock slot,
    from theta0 at slot 0."""

    theta0: float
    step_sigma: float

    def __post_init__(self):
        require_finite(self, "theta0", "step_sigma")
        if self.step_sigma < 0:
            raise ConfigError("step_sigma must be >= 0")

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
    """The walk at the queried slots, which must not decrease: one normal
    per slot, scaled by the square root of the steps since the previous
    one (or since slot 0), gives each angle the law of one step per clock
    slot."""

    def __init__(self, theta0: float, step_sigma: float):
        self.theta0 = float(theta0)
        self.step_sigma = float(step_sigma)

    def sample_batch(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        gaps = np.diff(np.asarray(slots, dtype=np.int64), prepend=0)
        if np.any(gaps < 0):
            raise ValueError("random-walk channel queried out of order")
        return self.theta0 + np.cumsum(rng.normal(0.0, self.step_sigma, len(gaps)) * np.sqrt(gaps))


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
