"""Golden outputs: the exact bytes that seeded runs print.

Each case runs the CLI in-process with the default seeds and pins the
SHA-256 of its stdout (the summary JSON for `run`, the CSV for `sweep`),
in sampled and in exact mode.
A change that moves any of these hashes changes a seeded output, which
the determinism contract in `dfsqkd.session` only allows together with a
version bump and regenerated goldens.

The encoded protocol's summary does not depend on the channel angle, so
the static and random-walk dfs2 runs print the same bytes; the walk's
own draws are pinned separately through the channel's angles at the
engine's pair slots. The default config's dict form and the HELLO frame
that carries it are pinned too.
"""

import hashlib

import numpy as np
import pytest

from dfsqkd.cli import main
from dfsqkd.optics import RandomWalkChannel
from dfsqkd.session import WIRE_VERSION, SessionConfig, simulate_quantum
from dfsqkd.transport import Message, encode_frame

GOLDEN_STDOUT = {
    "dfs2-static-20": (
        ["run", "--duration", "2", "--theta", "20"],
        "4f0b64449326383287b011a2bc082eb2d782464adc106d99895a165b657f30c1",
    ),
    "bb84-static-20": (
        ["run", "--duration", "2", "--theta", "20", "--protocol", "bb84"],
        "9ac7412a548b1a2bf79c79dda28f2a007e41d337bd4cb5f60f14bdb1ed17b283",
    ),
    "dfs2-random-walk": (
        ["run", "--duration", "2", "--channel", "random-walk", "--theta", "5", "--channel-sigma", "0.5"],
        "4f0b64449326383287b011a2bc082eb2d782464adc106d99895a165b657f30c1",
    ),
    "dfs2-uniform-lossy": (
        [
            "run", "--duration", "2", "--channel", "per-slot-uniform", "--channel-lo", "-30",
            "--channel-hi", "30", "--efficiency", "0.8", "--dark", "1e-4",
        ],
        "497c82e5e92e7fa2f89fe6e19f0e48c6215bd09062408c408ad5376562f1236e",
    ),
    "sweep-4-points": (
        ["sweep", "--duration", "1", "--thetas", "0,30", "--protocols", "dfs2,bb84"],
        "cb3415a62c77610169aef9bbfb15be646d2ee29ad646923a13c73be504b2a112",
    ),
    "dfs2-exact-20": (
        ["run", "--exact", "--theta", "20"],
        "de5f9e968e3e59672343438edd5d8642ae6a95803186b31f5980158c5d83e599",
    ),
    "bb84-exact-20": (
        ["run", "--exact", "--theta", "20", "--protocol", "bb84"],
        "ecc4c0db8789b4abb01068770f143632a952af8be41723f74bdfd76762871edf",
    ),
    "sweep-exact": (
        ["sweep", "--exact", "--thetas", "0,30"],
        "184eafb21b07c22684826d42748b9d227f21ea0a4d4165e704619742b9c3d16f",
    ),
}

WALK_THETAS_SHA256 = "9cf87592929e8e1da6b64d3ed7c3a33d9e56873b2e4c09b375754d2f03a23e18"

DEFAULT_CONFIG_DICT = {
    "protocol": "dfs2",
    "clock_hz": 100000.0,
    "pair_rate_hz": 4000.0,
    "duration_s": 50.0,
    "visibility": 0.88,
    "channel": {"kind": "static", "theta_deg": 0.0},
    "detectors": {"efficiency": 1.0, "dark_count_prob": 0.0},
    "sample_fraction": 0.1,
    "seeds": {"alice": 1, "bob": 2, "channel": 3, "source": 4},
}
DEFAULT_HELLO_SHA256 = "d8aacb711d75c5aa6b92651fbcb61caae578234b6552cd416d20d8e4f54ab028"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT))
def test_stdout_matches_golden(case, capsys):
    argv, expected = GOLDEN_STDOUT[case]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == expected


def test_random_walk_angles_match_golden():
    cfg = SessionConfig(duration_s=2.0, channel=RandomWalkChannel(np.radians(5.0), np.radians(0.5)))
    theta = cfg.channel.sample_batch(simulate_quantum(cfg).pair_slots, np.random.default_rng(cfg.seeds.channel))
    assert len(theta) == 7905
    assert _sha256(np.ascontiguousarray(theta, dtype="<f8").tobytes()) == WALK_THETAS_SHA256


def test_default_config_dict_matches_golden():
    d = SessionConfig().to_dict()
    assert d == DEFAULT_CONFIG_DICT
    assert list(d) == list(DEFAULT_CONFIG_DICT)
    assert all(type(d[k]) is type(v) for k, v in DEFAULT_CONFIG_DICT.items())


def test_default_hello_frame_matches_golden():
    hello = Message("HELLO", {"config": SessionConfig().to_dict(), "wire_version": WIRE_VERSION})
    assert _sha256(encode_frame(hello)) == DEFAULT_HELLO_SHA256
