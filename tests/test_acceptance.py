"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Statistical criteria run sampled sessions at fixed seeds with the stated
tolerances; nothing here is tuned to the sampler, only to the physics.
"""

import json
import math
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from dfsqkd import protocol, qstate
from dfsqkd.cli import main
from dfsqkd.optics import StaticChannel, channel_unitary, rotation_unitary
from dfsqkd.protocol import (
    ENCODED_TARGETS,
    encode_state,
    exact_qber,
    key_rate,
    mc_qber,
    predicted_qber,
)
from dfsqkd.qstate import PSI_MINUS, apply_collective, overlap2
from dfsqkd.session import Seeds, SessionConfig, exact_session_summary, run_session
from dfsqkd.transport import Message, decode_frame, encode_frame, pack_bits, pack_slots

SWEEP_THETAS_DEG = [0, 10, 20, 30, 45]
VISIBILITY = 0.88


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    else:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.1f}s)")


def sweep_config(protocol_name: str, theta_deg: float, ordinal: int) -> SessionConfig:
    return SessionConfig(
        protocol=protocol_name,
        duration_s=55.0,
        visibility=VISIBILITY,
        channel=StaticChannel(math.radians(theta_deg)),
        sample_fraction=1.0,
        seeds=Seeds(
            alice=101 + 1000 * ordinal,
            bob=202 + 1000 * ordinal,
            channel=303 + 1000 * ordinal,
            source=404 + 1000 * ordinal,
        ),
    )


def test_criterion_1_encoder_exactness():
    with criterion(1, "encoder exactness"):
        start = time.perf_counter()
        for (x, y), target in ENCODED_TARGETS.items():
            produced = encode_state(x, y, PSI_MINUS)
            assert overlap2(produced, target) > 1 - 1e-9, (x, y)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_dfs_invariance():
    with criterion(2, "collective-rotation invariance"):
        start = time.perf_counter()
        for theta in np.radians(np.arange(-180.0, 181.0, 1.0)):
            u = rotation_unitary(theta)
            assert np.max(np.abs(channel_unitary(theta) - u)) < 1e-12
            for state in ENCODED_TARGETS.values():
                assert overlap2(apply_collective(u, state), state) > 1 - 1e-12
        assert time.perf_counter() - start < 1.0


@pytest.fixture(scope="module")
def dfs2_sweep():
    results = {}
    for i, theta_deg in enumerate(SWEEP_THETAS_DEG):
        results[theta_deg] = run_session(sweep_config("dfs2", theta_deg, i))
    return results


@pytest.fixture(scope="module")
def bb84_sweep():
    results = {}
    for i, theta_deg in enumerate(SWEEP_THETAS_DEG):
        results[theta_deg] = run_session(sweep_config("bb84", theta_deg, 100 + i))
    return results


def test_criterion_3_qber_flatness(dfs2_sweep):
    with criterion(3, "encoded-protocol QBER flatness"):
        qbers = []
        for theta_deg, summary in dfs2_sweep.items():
            q = summary.qber
            assert summary.n_sifted >= 10**5, (theta_deg, summary.n_sifted)
            assert q.stderr < 1e-3
            assert abs(q.qber - 0.06) < 4 * q.stderr, (theta_deg, q.qber, q.stderr)
            qbers.append(q.qber)
        assert max(qbers) - min(qbers) < 0.005


def test_criterion_4_bb84_sinusoid(dfs2_sweep, bb84_sweep):
    with criterion(4, "BB84 sinusoid and security flags"):
        for theta_deg, summary in bb84_sweep.items():
            q = summary.qber
            assert summary.n_sifted >= 10**5
            expected = predicted_qber("bb84", math.radians(theta_deg), VISIBILITY)
            assert abs(q.qber - expected) < 4 * q.stderr, (theta_deg, q.qber, expected)
            if expected > 0.11:
                assert not summary.key_rate.secure
                assert summary.key_rate.rate == 0.0
        # at zero angle both protocols see only the source noise
        qb, qd = bb84_sweep[0].qber, dfs2_sweep[0].qber
        combined = math.hypot(qb.stderr, qd.stderr)
        assert abs(qb.qber - qd.qber) < 4 * combined
        # the exact mode must sit on the analytic curve
        for theta_deg in SWEEP_THETAS_DEG:
            for prot in ("dfs2", "bb84"):
                cfg = replace(sweep_config(prot, theta_deg, 0), sample_fraction=0.1)
                exact = exact_session_summary(cfg)
                expected = predicted_qber(prot, math.radians(theta_deg), VISIBILITY)
                assert abs(exact.qber.qber - expected) < 1e-9


def test_criterion_5_fringe_visibility(tmp_path, capsys):
    with criterion(5, "fringe visibility"):
        start = time.perf_counter()
        out_csv = tmp_path / "fringe.csv"
        code = main(["fringe", "--visibility", "0.88", "--out", str(out_csv)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(report["fitted_visibility"] - 0.88) <= 0.01
        phases = [c["phase_deg"] for c in report["curves"]]
        delta = abs(phases[0] - phases[1]) % 180.0
        assert min(delta, 180.0 - delta) == pytest.approx(90.0, abs=2.0)
        assert time.perf_counter() - start < 5.0
        # perfect source: the exact fringe bottoms out at zero
        code = main(["fringe", "--exact", "--visibility", "1", "--out", str(out_csv)])
        capsys.readouterr()
        assert code == 0
        probs = [
            float(line.split(",")[2])
            for line in out_csv.read_text().strip().splitlines()[1:]
        ]
        assert min(probs) <= 1e-12


def test_criterion_6_rate_bookkeeping():
    with criterion(6, "rate bookkeeping at the experiment's settings"):
        start = time.perf_counter()
        cfg = SessionConfig(sample_fraction=1.0, seeds=Seeds(7, 8, 9, 10))
        assert cfg.pair_rate_hz == 4000 and cfg.clock_hz == 1e5 and cfg.duration_s == 50
        summary = run_session(cfg)
        assert abs(summary.sifted_rate_hz - 2000.0) <= 100.0  # 2000/s within 5%
        assert 5e-4 <= summary.qber.stderr <= 1.05e-3  # the 0.1% error bar
        expected_multi = 0.01986667022208717  # Poisson conditional at mu=0.04
        sigma = math.sqrt(expected_multi * (1 - expected_multi) / summary.n_coincidences)
        assert abs(summary.multi_pair_fraction - expected_multi) < 4 * sigma
        assert abs(summary.multi_pair_fraction - 0.020) < 0.002
        assert time.perf_counter() - start < 60.0


def test_criterion_7_key_rate_function():
    with criterion(7, "key-rate function"):
        assert key_rate(0.0).rate == 1.0
        assert abs(key_rate(0.06).rate - 0.3452) <= 1e-4
        for q in (0.11, 0.15, 0.3, 1.0):
            result = key_rate(q)
            assert result.rate == 0.0 and not result.secure


def _spawn_cli(args):
    return subprocess.Popen(
        [sys.executable, "-m", "dfsqkd.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _random_message(rng: np.random.Generator) -> Message:
    kind = ["HELLO", "DETECTIONS", "SIFT_KEEP", "SAMPLE_REQUEST", "SAMPLE_BITS", "SUMMARY", "BYE"][
        rng.integers(0, 7)
    ]
    if kind == "DETECTIONS":
        # Bob's declaration: his slots and bases
        n = int(rng.integers(0, 60))
        slots = np.sort(rng.choice(10**6, size=n, replace=False))
        return Message(kind, {"slots": pack_slots(slots), "bases": pack_bits(rng.integers(0, 2, n))})
    if kind == "SIFT_KEEP":
        return Message(kind, {"keep": pack_bits(rng.integers(0, 2, int(rng.integers(0, 64))))})
    if kind == "SAMPLE_REQUEST":
        return Message(kind, {"positions": pack_slots(np.sort(rng.choice(10**6, 15, replace=False)))})
    if kind == "SAMPLE_BITS":
        return Message(kind, {"bits": pack_bits(rng.integers(0, 2, int(rng.integers(0, 64))))})
    if kind == "SUMMARY":
        return Message(kind, {"a": int(rng.integers(0, 100)), "b": float(rng.random()), "c": None})
    if kind == "HELLO":
        return Message(kind, {"config": {"seed": int(rng.integers(0, 2**31))}})
    return Message(kind, {})


def test_criterion_8_determinism_and_transport_substitution(capsys, tmp_path):
    with criterion(8, "determinism and transport substitution"):
        # byte-identical repeated runs: summary JSON and sweep CSV
        argv = ["run", "--duration", "0.5", "--theta", "12"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

        sweep_argv = ["sweep", "--duration", "0.5", "--thetas", "0,20", "--protocols", "dfs2,bb84"]
        assert main(sweep_argv) == 0
        sweep_first = capsys.readouterr().out
        assert main(sweep_argv) == 0
        assert capsys.readouterr().out == sweep_first

        # in-process vs byte-stream loopback, via the real CLI entry points
        port_probe = socket.socket()
        port_probe.bind(("127.0.0.1", 0))
        port = port_probe.getsockname()[1]
        port_probe.close()
        common = ["--duration", "0.5", "--theta", "12"]
        alice = _spawn_cli(["serve-alice", "--listen", f"127.0.0.1:{port}", *common])
        assert "listening on" in alice.stderr.readline()
        bob = subprocess.run(
            [sys.executable, "-m", "dfsqkd.cli", "connect-bob", "--connect", f"127.0.0.1:{port}", *common],
            capture_output=True,
            text=True,
            timeout=120,
        )
        alice_out, _ = alice.communicate(timeout=120)
        assert alice.returncode == 0 and bob.returncode == 0
        assert alice_out == bob.stdout == first

        # frame codec: 1000 random valid messages survive a round trip
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            msg = _random_message(rng)
            assert decode_frame(encode_frame(msg)) == msg


def test_criterion_9_statistical_sanity():
    with criterion(9, "Monte-Carlo convergence scaling"):
        theta = math.radians(20)
        truth = exact_qber("dfs2", theta, VISIBILITY)
        shot_ladder = [10**3, 10**5, 10**7]
        replicas = 24
        mean_abs_dev = []
        for n in shot_ladder:
            devs = []
            for rep in range(replicas):
                rng = np.random.default_rng(5_000_000 + rep)
                devs.append(abs(mc_qber("dfs2", theta, VISIBILITY, n, rng) - truth))
            mean_abs_dev.append(np.mean(devs))
        # deviations must shrink monotonically and scale like 1/sqrt(N)
        assert mean_abs_dev[0] > mean_abs_dev[1] > mean_abs_dev[2]
        slope = np.polyfit(np.log10(shot_ladder), np.log10(mean_abs_dev), 1)[0]
        assert abs(slope - (-0.5)) <= 0.1, (slope, mean_abs_dev)
