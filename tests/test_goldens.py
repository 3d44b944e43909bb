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
that carries it are pinned too, and so is every frame each endpoint sends
in three whole sessions, in order, and Bob's declaration frames apart.
"""

import hashlib

import numpy as np
import pytest

from dfsqkd.cli import build_config, build_parser, main
from dfsqkd.optics import RandomWalkChannel
from dfsqkd.session import WIRE_VERSION, SessionConfig, run_session_detailed, simulate_quantum
from dfsqkd.transport import Message, Transport, encode_frame, memory_pair

GOLDEN_STDOUT = {
    "dfs2-static-20": (
        ["run", "--duration", "2", "--theta", "20"],
        "a0d56f2f88a7803ad63ecfc468b6940ef8bb91658de95a54f9ee9ae61f038ec1",
    ),
    "bb84-static-20": (
        ["run", "--duration", "2", "--theta", "20", "--protocol", "bb84"],
        "7b7f832b4166c8364e2fef00182029dc54681e33e701d8e8e9e85c13e37003eb",
    ),
    "dfs2-random-walk": (
        ["run", "--duration", "2", "--channel", "random-walk", "--theta", "5", "--channel-sigma", "0.5"],
        "a0d56f2f88a7803ad63ecfc468b6940ef8bb91658de95a54f9ee9ae61f038ec1",
    ),
    "dfs2-uniform-lossy": (
        [
            "run", "--duration", "2", "--channel", "per-slot-uniform", "--channel-lo", "-30",
            "--channel-hi", "30", "--efficiency", "0.8", "--dark", "1e-4",
        ],
        "727cd202e40d62ec92b35a7a081e4a02290455861a3d79bde412b0cd860cff6b",
    ),
    "sweep-4-points": (
        ["sweep", "--duration", "1", "--thetas", "0,30", "--protocols", "dfs2,bb84"],
        "1496b1915d952e2e60c1594251a885c0b644475443afc6d090790d49eba68462",
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

WALK_THETAS_SHA256 = "75bfee4d1c24627a1d6819db7d1e5ce9b632b6022e87184d51deec6d6fa71be2"

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
DEFAULT_HELLO_SHA256 = "0d38f6a72e9473c176fdf5d569863854cbd7cc620bb9e8ee20a30fc09c8a5f81"

# `run` flags, then the SHA-256 of every frame Alice sends and of every
# frame Bob sends, each in order with its length prefix.
GOLDEN_FRAMES = {
    "dfs2-static-200s": (
        ["--duration", "200"],
        "411371ad8b0bda3170bdd5a45ab01e98446ce6d212726f64dd5682680b05771b",
        "89f9f3b14b3aa8750e5cfb91757559045c81c34ffd337d80eb2bd73c4143207d",
    ),
    "bb84-uniform-lossy-60s": (
        [
            "--duration", "60", "--protocol", "bb84", "--channel", "per-slot-uniform", "--channel-lo", "-30",
            "--channel-hi", "30", "--efficiency", "0.8", "--dark", "1e-4",
        ],
        "d564e9f62ddc373da4b7183d75528e2b5c3ae2039fbc85b3946bfa13f6e99aef",
        "a4a59175d550d16ba7a33467f306fc7f14b68ee945f3fe40786ce4e99ba40535",
    ),
    "dfs2-every-bit-sampled-60s": (
        ["--duration", "60", "--sample-fraction", "1"],
        "3c3874aad09194f644bdf3a980382657526e6d4b80bf22c0125c3d3cfb3efead",
        "31a1ebc6ad5372784d7a1064204a7755775fa7fe66152fd3d558fb982d73f8de",
    ),
}


# The SHA-256 of Bob's DETECTIONS frames, his declaration, in each case
# above. Wire version 10 sends the fields of version 9 as binary fields
# beside a JSON header (transport.encode_frame), where version 9 sent them
# as base-64 text; every decoded field is the same. Alice sends no
# DETECTIONS since version 9.
GOLDEN_DECLARATIONS = {
    "dfs2-static-200s": "6e70a1de8d27b7e32ba5af7f1e99273f242ae409e6bf8248a7c2d89bfeefe243",
    "bb84-uniform-lossy-60s": "f47d223643039e431ff4b0eeb902f3a152e9cf0dce8c5fc8fd0cb48068ea0ae2",
    "dfs2-every-bit-sampled-60s": "e103b20ffcf528883798a87dd0097ab9b4c194f933bd0508d263cdd9fe6ab266",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT))
def test_stdout_matches_golden(case, capsys):
    argv, expected = GOLDEN_STDOUT[case]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == expected


def test_random_walk_angles_match_golden():
    cfg = SessionConfig(duration_s=2.0, channel=RandomWalkChannel(np.radians(5.0), np.radians(0.5)))
    pair_slots = simulate_quantum(cfg).pair_slots
    theta = cfg.channel.sample_batch(pair_slots, np.random.default_rng(cfg.seeds.channel))
    assert len(theta) == 7810
    assert _sha256(np.ascontiguousarray(theta, dtype="<f8").tobytes()) == WALK_THETAS_SHA256


def test_default_config_dict_matches_golden():
    d = SessionConfig().to_dict()
    assert d == DEFAULT_CONFIG_DICT
    assert list(d) == list(DEFAULT_CONFIG_DICT)
    assert all(type(d[k]) is type(v) for k, v in DEFAULT_CONFIG_DICT.items())


def test_default_hello_frame_matches_golden():
    hello = Message("HELLO", {"config": SessionConfig().to_dict(), "wire_version": WIRE_VERSION})
    assert _sha256(encode_frame(hello)) == DEFAULT_HELLO_SHA256


class _Hashing(Transport):
    """A link that hashes each frame it sends, and its DETECTIONS frames
    apart."""

    def __init__(self, inner: Transport):
        self.inner, self.sent, self.detections = inner, hashlib.sha256(), hashlib.sha256()

    def send(self, message):
        frame = encode_frame(message)
        self.sent.update(frame)
        if message.type == "DETECTIONS":
            self.detections.update(frame)
        self.inner.send(message)

    def recv(self):
        return self.inner.recv()

    def close(self):
        self.inner.close()


def _hashed_session(case: str) -> tuple[_Hashing, _Hashing]:
    alice, bob = map(_Hashing, memory_pair())
    run_session_detailed(build_config(build_parser().parse_args(["run", *GOLDEN_FRAMES[case][0]])), link=(alice, bob))
    return alice, bob


@pytest.mark.parametrize("case", sorted(GOLDEN_FRAMES))
def test_frames_match_golden(case):
    _, alice_sha256, bob_sha256 = GOLDEN_FRAMES[case]
    alice, bob = _hashed_session(case)
    assert (alice.sent.hexdigest(), bob.sent.hexdigest()) == (alice_sha256, bob_sha256)


@pytest.mark.parametrize("case", sorted(GOLDEN_DECLARATIONS))
def test_bobs_declaration_is_unchanged_and_alice_sends_no_detections(case):
    alice, bob = _hashed_session(case)
    assert bob.detections.hexdigest() == GOLDEN_DECLARATIONS[case]
    assert alice.detections.hexdigest() == hashlib.sha256().hexdigest()
