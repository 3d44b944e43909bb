"""CLI behavior: output stability, exit codes, networked mode."""

import json
import socket
import subprocess
import sys

import numpy as np
import pytest

from dfsqkd.cli import main
from dfsqkd.protocol import predicted_qber
from dfsqkd.session import WIRE_VERSION, SessionConfig
from dfsqkd.transport import Message, StreamTransport, expect

FAST = ["--duration", "0.5"]


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_prints_summary_json(self, capsys):
        code, out, _ = run_main(capsys, ["run", *FAST])
        assert code == 0
        summary = json.loads(out)
        assert summary["n_slots"] == 50_000
        assert set(summary) == {
            "n_slots",
            "n_coincidences",
            "n_sifted",
            "raw_rate_hz",
            "sifted_rate_hz",
            "qber",
            "key_rate",
            "multi_pair_fraction",
            "final_key_bits",
        }

    def test_byte_identical_across_runs(self, capsys):
        _, out1, _ = run_main(capsys, ["run", *FAST, "--theta", "20"])
        _, out2, _ = run_main(capsys, ["run", *FAST, "--theta", "20"])
        assert out1 == out2

    def test_seed_flag_changes_the_outcome(self, capsys):
        _, out1, _ = run_main(capsys, ["run", *FAST])
        _, out2, _ = run_main(capsys, ["run", *FAST, "--seed-source", "99"])
        assert out1 != out2

    def test_exact_mode_reports_expected_values(self, capsys):
        code, out, _ = run_main(capsys, ["run", "--exact", "--theta", "10", "--protocol", "bb84"])
        assert code == 0
        summary = json.loads(out)
        assert summary["qber"]["qber"] == pytest.approx(
            predicted_qber("bb84", np.radians(10), 0.88), abs=1e-9
        )
        assert summary["qber"]["stderr"] == 0.0

    def test_perfect_source_flat_channel_has_no_errors(self, capsys):
        code, out, _ = run_main(
            capsys, ["run", *FAST, "--visibility", "1", "--theta", "20", "--sample-fraction", "1"]
        )
        summary = json.loads(out)
        assert summary["qber"]["qber"] == 0.0

    def test_bad_flag_value_exits_2(self, capsys):
        code, _, err = run_main(capsys, ["run", "--pair-rate", "-5"])
        assert code == 2
        assert "config error" in err

    def test_bad_channel_bounds_exit_2(self, capsys):
        code, _, err = run_main(
            capsys,
            ["run", "--channel", "per-slot-uniform", "--channel-lo", "10", "--channel-hi", "5"],
        )
        assert code == 2
        assert "config error" in err

    def test_random_walk_channel_runs(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["run", *FAST, "--channel", "random-walk", "--theta", "5", "--channel-sigma", "0.5"],
        )
        assert code == 0
        summary = json.loads(out)
        # the walk wanders but the encoded protocol stays at the noise floor
        assert abs(summary["qber"]["qber"] - 0.06) < 6 * summary["qber"]["stderr"]

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        # each file paired with the name the diagnostic must mention
        cases = [
            ('{"prtocol": "dfs2"}', "prtocol"),
            ('{"channel": {"kind": "static"}}', "theta_deg"),
            ('{"channel": "static"}', "channel"),
            ('{"channel": {"kind": "random_walk", "theta0_deg": 0}}', "step_sigma_deg"),
            ('{"detectors": {"efficency": 0.9}}', "efficency"),
            ('{"seeds": [1, 2]}', "seeds"),
            ('{"seeds": {"alice": -1}}', "alice"),
            ('{"seeds": {"alice": 1.5}}', "alice"),
            ('{"channel": {"kind": "static", "theta_deg": 5, "sigma": 1}}', "sigma"),
            ('{"duration_s": Infinity}', "duration_s"),
            ('{"clock_hz": Infinity}', "clock_hz"),
            ('{"duration_s": NaN}', "duration_s"),
            ('{"pair_rate_hz": NaN}', "pair_rate_hz"),
            ('{"channel": {"kind": "static", "theta_deg": NaN}}', "theta"),
            ('{"channel": {"kind": "static", "theta_deg": Infinity}}', "theta"),
            ('{"channel": {"kind": "static", "theta_deg": [1, 2]}}', "theta"),
            ('{"channel": {"kind": "random_walk", "theta0_deg": 0, "step_sigma_deg": NaN}}', "step_sigma"),
            ('{"channel": {"kind": "random_walk", "theta0_deg": 0, "step_sigma_deg": [0.1]}}', "step_sigma"),
        ]
        bad = tmp_path / "cfg.json"
        for text, name in cases:
            bad.write_text(text)
            code, _, err = run_main(capsys, ["run", "--config", str(bad)])
            assert code == 2, text
            assert "config error" in err and name in err, (text, err)

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration_s": 0.5, "visibility": 1.0}))
        _, out, _ = run_main(capsys, ["run", "--config", str(cfg), "--sample-fraction", "1"])
        assert json.loads(out)["qber"]["qber"] == 0.0


class TestSweep:
    def test_exact_sweep_matches_the_analytic_curves(self, capsys):
        code, out, _ = run_main(capsys, ["sweep", "--exact", "--thetas", "0,10,20,30,45"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta_deg,protocol,n_sifted,qber,qber_stderr,key_rate,secure"
        for line in lines[1:]:
            theta_deg, prot, _, qber, _, rate, secure = line.split(",")
            expected = predicted_qber(prot, np.radians(float(theta_deg)), 0.88)
            assert abs(float(qber) - expected) < 1e-9
            assert (secure == "true") == (expected < 0.11)
            if secure == "false":
                assert float(rate) == 0.0

    def test_rows_are_ordered_and_stable(self, capsys):
        argv = ["sweep", *FAST, "--thetas", "10,0", "--protocols", "bb84,dfs2"]
        _, out1, _ = run_main(capsys, argv)
        _, out2, _ = run_main(capsys, argv)
        assert out1 == out2
        rows = [line.split(",")[:2] for line in out1.strip().splitlines()[1:]]
        assert rows == [["0.0", "bb84"], ["10.0", "bb84"], ["0.0", "dfs2"], ["10.0", "dfs2"]]

    def test_sampled_sweep_tracks_predictions(self, capsys):
        _, out, _ = run_main(
            capsys,
            ["sweep", "--duration", "2", "--sample-fraction", "1", "--thetas", "0,30", "--protocols", "bb84"],
        )
        for line in out.strip().splitlines()[1:]:
            theta_deg, prot, n_sifted, qber, stderr, _, _ = line.split(",")
            expected = predicted_qber(prot, np.radians(float(theta_deg)), 0.88)
            assert abs(float(qber) - expected) < 4 * float(stderr)

    def test_unknown_protocol_exits_2(self, capsys):
        code, _, _ = run_main(capsys, ["sweep", "--protocols", "e91"])
        assert code == 2

    def test_csv_file_output(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_main(
            capsys, ["sweep", "--exact", "--thetas", "0", "--out", str(out_path)]
        )
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("theta_deg,")


class TestFringe:
    def test_exact_fit_recovers_the_visibility(self, capsys):
        # without --out the CSV goes to stdout and the fit report to stderr
        code, out, err = run_main(capsys, ["fringe", "--exact", "--shots", "10"])
        assert code == 0
        assert out.startswith("theta1_deg,")
        report = json.loads(err)
        assert report["fitted_visibility"] == pytest.approx(0.88, abs=1e-9)

    def test_sampled_fit_is_close(self, tmp_path, capsys):
        out_csv = tmp_path / "fringe.csv"
        code, out, _ = run_main(capsys, ["fringe", "--out", str(out_csv)])
        report = json.loads(out)
        assert abs(report["fitted_visibility"] - 0.88) < 0.01
        phases = [c["phase_deg"] for c in report["curves"]]
        delta = abs(phases[0] - phases[1]) % 180.0
        assert min(delta, 180 - delta) == pytest.approx(90.0, abs=2.0)

    def test_perfect_source_fringe_dips_to_zero(self, tmp_path, capsys):
        out_csv = tmp_path / "fringe.csv"
        run_main(capsys, ["fringe", "--exact", "--visibility", "1", "--out", str(out_csv)])
        rows = out_csv.read_text().strip().splitlines()[1:]
        probs = [float(r.split(",")[2]) for r in rows]
        assert min(probs) <= 1e-12

    def test_csv_and_fit_are_deterministic(self, capsys):
        _, out1, _ = run_main(capsys, ["fringe", "--shots", "500"])
        _, out2, _ = run_main(capsys, ["fringe", "--shots", "500"])
        assert out1 == out2


def _free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _spawn(args):
    return subprocess.Popen(
        [sys.executable, "-m", "dfsqkd.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestNetworkedMode:
    def test_loopback_matches_in_process_byte_for_byte(self):
        port = _free_port()
        common = [*FAST, "--theta", "12"]
        alice = _spawn(["serve-alice", "--listen", f"127.0.0.1:{port}", *common])
        assert "listening on" in alice.stderr.readline()
        bob = subprocess.run(
            [sys.executable, "-m", "dfsqkd.cli", "connect-bob", "--connect", f"127.0.0.1:{port}", *common],
            capture_output=True,
            text=True,
            timeout=120,
        )
        alice_out, _ = alice.communicate(timeout=120)
        run = subprocess.run(
            [sys.executable, "-m", "dfsqkd.cli", "run", *common],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert alice.returncode == bob.returncode == run.returncode == 0
        assert alice_out == bob.stdout == run.stdout

    def test_seed_mismatch_exits_4_on_both_ends(self):
        port = _free_port()
        alice = _spawn(["serve-alice", "--listen", f"127.0.0.1:{port}", *FAST, "--seed-alice", "1"])
        assert "listening on" in alice.stderr.readline()
        bob = subprocess.run(
            [sys.executable, "-m", "dfsqkd.cli", "connect-bob", "--connect", f"127.0.0.1:{port}", *FAST, "--seed-alice", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        _, alice_err = alice.communicate(timeout=120)
        assert alice.returncode == 4
        assert bob.returncode == 4
        # both ends name the field that differs
        assert "seeds.alice" in alice_err
        assert "seeds.alice" in bob.stderr

    @pytest.mark.parametrize("version", [WIRE_VERSION - 1, None], ids=["older", "missing"])
    def test_other_wire_version_exits_4_naming_the_field(self, version):
        port = _free_port()
        alice = _spawn(["serve-alice", "--listen", f"127.0.0.1:{port}", *FAST])
        assert "listening on" in alice.stderr.readline()
        hello = {"config": SessionConfig(duration_s=0.5).to_dict()}
        if version is not None:
            hello["wire_version"] = version
        with socket.create_connection(("127.0.0.1", port)) as sock:
            StreamTransport(sock).send(Message("HELLO", hello))
            sock.shutdown(socket.SHUT_WR)  # an Alice that accepts it meets end of stream
            _, err = alice.communicate(timeout=120)
        assert alice.returncode == 4
        assert "differs from ours in: wire_version\n" in err

    def test_malformed_summary_exits_3_naming_the_field(self):
        # a raw-socket Alice that is honest until her SUMMARY, which has the
        # shape of wire version 4: it lacks both fields of version 5
        with socket.create_server(("127.0.0.1", 0)) as server:
            server.settimeout(120)
            bob = _spawn(["connect-bob", "--connect", f"127.0.0.1:{server.getsockname()[1]}", *FAST])
            conn, _ = server.accept()
            with conn:
                conn.settimeout(120)
                alice = StreamTransport(conn)
                hello = {"config": SessionConfig(duration_s=0.5).to_dict(), "wire_version": WIRE_VERSION}
                alice.send(Message("HELLO", hello))
                expect(alice, "HELLO")
                alice.send(Message("DETECTIONS", {"slots": "", "bases": "", "bits": "", "final": True}))
                expect(alice, "DETECTIONS")
                alice.send(Message("SIFT_KEEP", {"keep": "", "final": True}))
                alice.send(Message("SAMPLE_REQUEST", {"positions": "", "final": True}))
                expect(alice, "SAMPLE_BITS")
                alice.send(Message("SUMMARY", {"n_slots": 50_000}))
                _, err = bob.communicate(timeout=120)
        assert bob.returncode == 3
        assert "SUMMARY lacks the field 'n_errors'" in err

    def test_peer_disconnect_exits_3_with_diagnostic(self):
        port = _free_port()
        alice = _spawn(["serve-alice", "--listen", f"127.0.0.1:{port}", *FAST])
        assert "listening on" in alice.stderr.readline()
        sock = socket.create_connection(("127.0.0.1", port))
        sock.close()
        _, err = alice.communicate(timeout=120)
        assert alice.returncode == 3
        assert "session failed" in err
