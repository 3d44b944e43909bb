"""Golden outputs: the exact bytes that seeded runs print.

Each case runs the CLI in-process with the default seeds and pins the
SHA-256 of its stdout (the summary JSON for `run`, the CSV for `sweep`).
A change that moves any of these hashes changes a seeded output, which
the determinism contract in `dfsqkd.session` only allows together with a
version bump and regenerated goldens.

The encoded protocol's summary does not depend on the channel angle, so
the static and random-walk dfs2 runs print the same bytes; the walk's
own draws are pinned separately through the engine's per-pair-slot
angles.
"""

import hashlib

import numpy as np
import pytest

from dfsqkd.cli import main
from dfsqkd.optics import RandomWalkChannel
from dfsqkd.session import SessionConfig, simulate_quantum

GOLDEN_STDOUT = {
    "dfs2-static-20": (
        ["run", "--duration", "2", "--theta", "20"],
        "a3b3a5aaed9d3ec116da4fa1a5d76294a89d2034d1dd33eda97bc7d6c9ee1b3b",
    ),
    "bb84-static-20": (
        ["run", "--duration", "2", "--theta", "20", "--protocol", "bb84"],
        "7c0275b4d35294d428b263309dd412a7a36e0108469057c6fdc627a350339710",
    ),
    "dfs2-random-walk": (
        ["run", "--duration", "2", "--channel", "random-walk", "--theta", "5", "--channel-sigma", "0.5"],
        "a3b3a5aaed9d3ec116da4fa1a5d76294a89d2034d1dd33eda97bc7d6c9ee1b3b",
    ),
    "dfs2-uniform-lossy": (
        [
            "run", "--duration", "2", "--channel", "per-slot-uniform", "--channel-lo", "-30",
            "--channel-hi", "30", "--efficiency", "0.8", "--dark", "1e-4",
        ],
        "3b2f79e86771e7695fec9c6f985d0dc0804f8e3e63aba9187680306e466c2395",
    ),
    "sweep-4-points": (
        ["sweep", "--duration", "1", "--thetas", "0,30", "--protocols", "dfs2,bb84"],
        "b4210e5fc6af4f082d8c2c10fdebdce9074ed746a2d63370fa53e81d9e8722ff",
    ),
}

WALK_THETAS_SHA256 = "945a07dd809e9e3cfece314e60d65910f89dd191b75bc3613fa734c41aba5f2b"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT))
def test_stdout_matches_golden(case, capsys):
    argv, expected = GOLDEN_STDOUT[case]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == expected


def test_random_walk_angles_match_golden():
    cfg = SessionConfig(duration_s=2.0, channel=RandomWalkChannel(np.radians(5.0), np.radians(0.5)))
    theta = simulate_quantum(cfg).theta
    assert len(theta) == 7667
    assert _sha256(np.ascontiguousarray(theta, dtype="<f8").tobytes()) == WALK_THETAS_SHA256
