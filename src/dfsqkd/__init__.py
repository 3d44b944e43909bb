"""Two-photon fault-tolerant QKD simulator and protocol harness.

The package simulates a polarization-entangled QKD scheme whose four
signal states live in the subspace left invariant by collective
rotations, together with a standard single-photon BB84 baseline over the
same noisy channel, a time-slotted session engine, and a framed
classical-channel protocol for the sifting conversation.
"""

from .optics import DetectorParams, PerSlotUniformChannel, RandomWalkChannel, StaticChannel
from .session import Seeds, SessionConfig, exact_session_summary, run_session, run_session_detailed
from .transport import TransportError

__version__ = "0.1.0"
