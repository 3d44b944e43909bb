"""Optical elements, channel-noise models, and the detector layer.

Angle convention: every function takes the polarization-action angle
theta. A physical half-wave plate producing that action sits at theta/2
to its optical axis; the plate angle never appears in an interface.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

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


def channel_unitary(theta: float) -> np.ndarray:
    """Noise-channel realization: a fixed compensating plate followed by
    the noise plate at theta. The pair reproduces the ideal rotation
    exactly (the compensator cancels the reflection's phase flip)."""
    return hwp_unitary(theta) @ hwp_unitary(0.0)


def modulator_unitary(index: int, on: bool) -> np.ndarray:
    """One of the four fixed modulators M1..M4: the identity when off, the
    HWP action at twice its axis angle when on."""
    try:
        axis = MODULATOR_AXES[index]
    except KeyError:
        raise ValueError(f"modulator index must be 1..4, got {index}") from None
    return hwp_unitary(2.0 * axis) if on else np.eye(2, dtype=complex)


class ConfigError(ValueError):
    """Invalid session configuration."""


def require_finite(owner, *names: str) -> None:
    """Refuse each named field of `owner`, an object or a dict, that is not
    a finite real number with a ConfigError naming it. A bool is not one."""
    for name in names:
        value = owner[name] if isinstance(owner, dict) else getattr(owner, name)
        # The comparison is false for NaN, the infinities and an int past
        # the float range.
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            shown = float(value) if isinstance(value, float) else value  # nan, not np.float64(nan)
            raise ConfigError(f"{name} must be a finite number, got {shown!r}")


# --------------------------------------------------------------------------
# Channel models. Each is a frozen dataclass of angles in radians that
# draws its own angle at the given slots from a stream. Its dict form
# names the model by `kind` and gives each field in degrees as <field>_deg.
# --------------------------------------------------------------------------


class ChannelSampler:
    """Base of the channel models. perfbench/spans.py times each model by
    wrapping the sample_batch in its own class body."""

    kind: str

    def sample_batch(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        angles = {f"{f.name}_deg": float(np.degrees(getattr(self, f.name))) for f in fields(self)}
        return {"kind": self.kind, **angles}


@dataclass(frozen=True)
class StaticChannel(ChannelSampler):
    """Fixed rotation angle (one plate setting per experimental point)."""

    kind = "static"
    theta: float

    def __post_init__(self):
        require_finite(self, "theta")

    def sample_batch(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.full(len(slots), float(self.theta))


@dataclass(frozen=True)
class PerSlotUniformChannel(ChannelSampler):
    """Angle drawn independently and uniformly in [lo, hi] each slot."""

    kind = "per_slot_uniform"
    lo: float
    hi: float

    def __post_init__(self):
        require_finite(self, "lo", "hi")
        if self.hi < self.lo:
            raise ConfigError("channel bounds must satisfy lo <= hi")

    def sample_batch(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=len(slots))


@dataclass(frozen=True)
class RandomWalkChannel(ChannelSampler):
    """Gaussian random walk: one step of width step_sigma per clock slot,
    from theta0 at slot 0.

    The walk is queried at slots that must not decrease: one normal per
    slot, scaled by the square root of the steps since the previous one
    (or since slot 0), gives each angle the law of one step per clock
    slot.
    """

    kind = "random_walk"
    theta0: float
    step_sigma: float

    def __post_init__(self):
        require_finite(self, "theta0", "step_sigma")
        if self.step_sigma < 0:
            raise ConfigError("step_sigma must be >= 0")

    def sample_batch(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        slots = np.asarray(slots, dtype=np.int64)
        # The gaps from slot 0, written in place: np.diff with prepend=0
        # copies the slots first and costs several times more.
        gaps = np.empty_like(slots)
        gaps[:1] = slots[:1]
        np.subtract(slots[1:], slots[:-1], out=gaps[1:])
        if np.any(gaps < 0):
            raise ValueError("random-walk channel queried out of order")
        theta = rng.normal(0.0, self.step_sigma, len(gaps))
        theta *= np.sqrt(gaps)
        np.cumsum(theta, out=theta)
        theta += self.theta0
        return theta


def channel_from_dict(d: dict) -> ChannelSampler:
    models = {model.kind: model for model in ChannelSampler.__subclasses__()}
    kind = d.get("kind")
    if kind not in models:
        raise ValueError(f"unknown channel kind {kind!r}")
    names = [f.name for f in fields(models[kind])]
    unknown = set(d) - {"kind", *(f"{name}_deg" for name in names)}
    if unknown:
        raise ValueError(f"unknown fields for a {kind} channel: {sorted(unknown)}")
    require_finite(d, *(f"{name}_deg" for name in names))
    return models[kind](**{name: np.radians(d[f"{name}_deg"]) for name in names})


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
        require_finite(self, "efficiency", "dark_count_prob")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ConfigError(f"dark_count_prob must be in [0, 1), got {self.dark_count_prob}")


def detect_batch(
    true_outcomes: np.ndarray, params: DetectorParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized detector layer over pair slots.

    Outcome index o names the detector pair (1 + o // 2, 3 + o % 2). Each
    photon's true detector fires with probability `efficiency`; every
    detector additionally fires with `dark_count_prob`. A side resolves
    only if exactly one of its two detectors fired (double fires within
    the window are discarded).

    Draw order: (n, 2) efficiency uniforms, then (n, 4) dark uniforms.
    Returns (coincidence mask, index of the detector pair that fired, in
    the outcome indexing above); the index is valid only where the
    coincidence mask is true.
    """
    outcomes = np.asarray(true_outcomes)
    n = len(outcomes)
    eff = rng.random((n, 2)) < params.efficiency
    fired = rng.random((n, 4)) < params.dark_count_prob  # dark counts first

    true_d1 = outcomes >> 1  # 0 -> D1, 1 -> D2
    true_d2 = outcomes & 1  # 0 -> D3, 1 -> D4
    rows = np.arange(n)
    fired[rows, true_d1] |= eff[:, 0]
    fired[rows, 2 + true_d2] |= eff[:, 1]

    side1 = fired[:, 0] != fired[:, 1]
    side2 = fired[:, 2] != fired[:, 3]
    # A resolved side fired D2 (D4) exactly when D1 (D3) stayed dark.
    return side1 & side2, 2 * ~fired[:, 0] + ~fired[:, 2]
