"""CLI behavior: output stability, exit codes, networked mode."""

import argparse
import dataclasses
import json
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from dfsqkd import cli
from dfsqkd.cli import CHANNEL_FLAGS, MAX_FRINGE_POINTS, SESSION_FLAGS, build_config, build_parser, main
from dfsqkd.optics import ChannelSampler
from dfsqkd.protocol import predicted_qber
from dfsqkd.session import WIRE_VERSION, SessionConfig, run_bob_endpoint
from dfsqkd.transport import Message, StreamTransport, expect, pack_bits, validate_detections_payload

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--duration", "1e20"],
            ["--duration", "1e14", "--pair-rate", "0.001"],
            ["--clock", "1e200", "--duration", "1e200", "--pair-rate", "1"],
            ["--exact", "--duration", "1e20"],
        ],
        ids=["duration", "duration-tiny-rate", "product-overflows", "exact"],
    )
    def test_slot_count_past_int64_exits_2(self, capsys, argv):
        # slots are int64 in the engine and on the wire; these ended in an
        # OverflowError traceback (exit 1), or ran in exact mode
        code, out, err = run_main(capsys, ["run", *argv])
        assert code == 2 and out == ""
        assert "clock_hz * duration_s" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--channel-lo", "5", "--channel-hi", "10"], "--channel-lo, --channel-hi"),
            (["--channel", "static", "--channel-sigma", "1"], "--channel-sigma"),
            (["--channel", "per-slot-uniform", "--channel-lo", "5", "--channel-hi", "10", "--theta", "30"], "--theta"),
            (["--channel", "random-walk", "--channel-sigma", "1", "--channel-lo", "3"], "--channel-lo"),
        ],
        ids=["static-lo-hi", "static-sigma", "uniform-theta", "walk-lo"],
    )
    def test_channel_flag_the_model_does_not_read_exits_2(self, capsys, argv, named):
        # each of these ran and silently dropped the flag
        code, out, err = run_main(capsys, ["run", *FAST, *argv])
        assert code == 2 and out == ""
        assert f"channel does not read {named}\n" in err

    @pytest.mark.parametrize(
        "argv, needs",
        [
            (["--channel", "per-slot-uniform"], "--channel-lo and --channel-hi"),
            (["--channel", "per-slot-uniform", "--channel-hi", "10"], "--channel-lo"),
            (["--channel", "per-slot-uniform", "--channel-lo", "5"], "--channel-hi"),
            (["--channel", "random-walk", "--theta", "5"], "--channel-sigma"),
        ],
        ids=["uniform-none", "uniform-hi-only", "uniform-lo-only", "walk-theta-only"],
    )
    def test_channel_flag_the_model_needs_exits_2_naming_it(self, capsys, argv, needs):
        code, out, err = run_main(capsys, ["run", *FAST, *argv])
        assert code == 2 and out == ""
        assert err.endswith(f"channel needs {needs}\n")

    def test_random_walk_channel_runs(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["run", *FAST, "--channel", "random-walk", "--theta", "5", "--channel-sigma", "0.5"],
        )
        assert code == 0
        summary = json.loads(out)
        # the walk wanders but the encoded protocol stays at the noise floor
        assert abs(summary["qber"]["qber"] - 0.06) < 6 * summary["qber"]["stderr"]

    def test_random_walk_past_the_float_range_exits_2(self, capsys):
        # it ran on NaN angles and printed a QBER as if measured, with numpy's
        # overflow warning on stderr (an error here, as in every test)
        argv = ["run", *FAST, "--protocol", "bb84", "--channel", "random-walk", "--channel-sigma", "1e308"]
        code, out, err = run_main(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("config error: step_sigma 1e+308 deg") and err.count("\n") == 1

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
            ('{"detectors": {"efficiency": true, "dark_count_prob": false}}', "efficiency"),
            ('{"detectors": {"dark_count_prob": false}}', "dark_count_prob"),
            ('{"detectors": {"efficiency": 1.5}}', "efficiency"),
            # each checked as given, before the conversion to radians
            ('{"channel": {"kind": "static", "theta_deg": "5"}}', "theta_deg must be a finite number, got '5'"),
            ('{"channel": {"kind": "static", "theta_deg": null}}', "theta_deg must be a finite number, got None"),
            ('{"channel": {"kind": "static", "theta_deg": true}}', "theta_deg must be a finite number, got True"),
            ('{"channel": {"kind": "per_slot_uniform", "lo_deg": [1], "hi_deg": 5}}',
             "lo_deg must be a finite number, got [1]"),
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
        # an empty list would print a CSV of only its header
        for protocols in ("e91", "", ","):
            code, out, err = run_main(capsys, ["sweep", "--protocols", protocols])
            assert code == 2 and out == ""
            assert "--protocols" in err

    @pytest.mark.parametrize(
        "argv, config, kind",
        [
            (["--channel", "random-walk", "--channel-sigma", "1"], None, "random_walk"),
            (["--channel", "per-slot-uniform", "--channel-lo", "-10", "--channel-hi", "10"], None, "per_slot_uniform"),
            ([], {"kind": "random_walk", "theta0_deg": 0, "step_sigma_deg": 0.1}, "random_walk"),
        ],
        ids=["random-walk-flags", "per-slot-uniform-flags", "random-walk-config"],
    )
    def test_channel_that_is_not_static_exits_2(self, tmp_path, capsys, argv, config, kind):
        # each point sets its own static angle, which would silently
        # replace the channel asked for
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"channel": config}))
            argv = ["--config", str(path)]
        code, out, err = run_main(capsys, ["sweep", "--exact", "--thetas", "0", *argv])
        assert code == 2 and out == ""
        assert kind in err

    @pytest.mark.parametrize(
        "argv, config, named",
        [
            (["--protocol", "bb84", "--theta", "20"], None, ["protocol", "channel.theta_deg"]),
            ([], {"protocol": "bb84"}, ["protocol"]),
            ([], {"channel": {"kind": "static", "theta_deg": 5}}, ["channel.theta_deg"]),
        ],
        ids=["protocol-theta-flags", "protocol-config", "theta-config"],
    )
    def test_protocol_or_angle_exits_2_naming_it(self, tmp_path, capsys, argv, config, named):
        # each point sets its own protocol and angle, which would silently
        # replace these
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path)]
        code, out, err = run_main(capsys, ["sweep", "--exact", "--thetas", "0", *argv])
        assert code == 2 and out == ""
        assert "cannot honour " + ", ".join(sorted(named)) + "\n" in err

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

    @pytest.mark.parametrize(
        "flag, value",
        [("analyzer2", "nan"), ("theta1-start", "-inf"), ("theta1-stop", "inf"), ("theta1-step", "nan")],
    )
    def test_non_finite_flag_exits_2_naming_it(self, capsys, flag, value):
        code, _, err = run_main(capsys, ["fringe", "--exact", f"--{flag}={value}"])
        assert code == 2
        assert f"{flag.replace('-', '_')} must be a finite number" in err

    @pytest.mark.parametrize("shots", ["0", str(2**63), str(10**23)])
    def test_shots_outside_int64_exits_2_naming_it(self, capsys, shots):
        # numpy's binomial ended the largest in an OverflowError traceback
        code, out, err = run_main(capsys, ["fringe", "--exact", "--shots", shots])
        assert code == 2 and out == ""
        assert f"--shots must be from 1 to 2**63 - 1, got {shots}" in err

    @pytest.mark.parametrize(
        "argv",
        [["--theta1-step=1e-300"], ["--theta1-step=1e-320"], ["--theta1-start=-1e308", "--theta1-stop=1e308"]],
        ids=["tiny-step", "subnormal-step", "huge-range"],
    )
    def test_grid_past_the_cap_exits_2_naming_the_step(self, capsys, argv):
        # counted before the grid is built: np.arange used to fail on the
        # first with "Maximum allowed size exceeded" (exit 3)
        code, out, err = run_main(capsys, ["fringe", "--exact", "--shots", "10", *argv])
        assert code == 2 and out == ""
        assert f"gives more than {MAX_FRINGE_POINTS} analyzer angles" in err
        assert "--theta1-step" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (
                ["--channel", "random-walk", "--channel-sigma", "5", "--protocol", "bb84", "--efficiency", "0.1"],
                ["channel", "protocol", "efficiency"],
            ),
            (["--theta", "20", "--duration", "3"], ["theta", "duration"]),
            (["--seed-alice", "9"], ["seeds.alice"]),
        ],
        ids=["channel-protocol-efficiency", "theta-duration", "seed-alice"],
    )
    def test_setting_it_cannot_honour_exits_2_naming_it(self, capsys, argv, named):
        # the scan reads only the source's visibility and seed; it used to
        # print the same fringe whatever else was set
        code, out, err = run_main(capsys, ["fringe", "--exact", "--shots", "10", *argv])
        assert code == 2 and out == ""
        for name in named:
            assert name in err

    def test_config_file_setting_it_cannot_honour_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"visibility": 0.9, "pair_rate_hz": 100}))
        code, out, err = run_main(capsys, ["fringe", "--exact", "--config", str(path)])
        assert code == 2 and out == ""
        assert "pair_rate_hz" in err

    def test_visibility_and_source_seed_are_honoured(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"visibility": 0.9}))
        code, _, err = run_main(
            capsys, ["fringe", "--exact", "--shots", "10", "--config", str(path), "--seed-source", "5"]
        )
        assert code == 0
        assert json.loads(err)["fitted_visibility"] == pytest.approx(0.9, abs=1e-9)


class TestFlagTables:
    """The tables that map CLI flags to config keys and channel model
    fields."""

    @staticmethod
    def _config_flags():
        """The action of each session flag, by its dest."""
        parser = argparse.ArgumentParser()
        cli._add_config_flags(parser)
        return {a.dest: a for a in parser._actions}

    def test_every_config_flag_is_in_a_table(self):
        # every flag but the file and the model sets a key
        others = {"help", "config", "channel"}
        assert set(self._config_flags()) - others == set(SESSION_FLAGS) | set(CHANNEL_FLAGS.values())

    @pytest.mark.parametrize("dest", SESSION_FLAGS)
    def test_session_flag_lands_on_its_key(self, dest):
        action = self._config_flags()[dest]
        section, _, name = SESSION_FLAGS[dest].rpartition(".")
        default = SessionConfig().to_dict()
        default = (default[section] if section else default)[name]
        if action.choices:
            value = next(c for c in action.choices if c != default)
        elif action.type is int:
            value = default + 1
        else:
            value = default / 2 or 0.25
        args = build_parser().parse_args(["run", action.option_strings[0], str(value)])
        built = build_config(args).to_dict()
        assert (built[section] if section else built)[name] == value

    @pytest.mark.parametrize("model", ChannelSampler.__subclasses__(), ids=lambda m: m.kind)
    def test_every_channel_field_has_a_flag(self, model):
        flags = self._config_flags()
        for f in dataclasses.fields(model):
            assert CHANNEL_FLAGS[f.name] in flags


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

    def test_sessions_back_to_back_on_one_port(self):
        # Bob closes only after Alice has, so her end of the first session's
        # connection holds the port in TIME_WAIT; the second listener binds
        # it only with SO_REUSEADDR
        port = _free_port()
        for _ in range(2):
            alice = _spawn(["serve-alice", "--listen", f"127.0.0.1:{port}", *FAST])
            assert "listening on" in alice.stderr.readline()
            with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
                bob = run_bob_endpoint(SessionConfig(duration_s=0.5), StreamTransport(sock))
                alice_out, alice_err = alice.communicate(timeout=120)
                assert sock.recv(1) == b""
            assert alice.returncode == 0, alice_err
            assert json.loads(alice_out) == bob.summary.to_dict()

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

    def test_walk_past_the_float_range_exits_2_on_both_ends(self):
        # refused from the config alone, before either end opens a socket:
        # Bob exited 3 when Alice's engine refused it after HELLO
        port = _free_port()
        walk = [*FAST, "--protocol", "bb84", "--channel", "random-walk", "--channel-sigma", "1e308"]
        alice = _spawn(["serve-alice", "--listen", f"127.0.0.1:{port}", *walk])
        bob = _spawn(["connect-bob", "--connect", f"127.0.0.1:{port}", *walk])
        for end in (alice, bob):
            _, err = end.communicate(timeout=120)
            assert end.returncode == 2
            assert err.startswith("config error: step_sigma 1e+308 deg") and err.count("\n") == 1

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
                # Bob's declaration of his own coincidences, one short
                # frame; she keeps none of them
                declared = validate_detections_payload(expect(alice, "DETECTIONS").payload)
                alice.send(Message("SIFT_KEEP", {"keep": pack_bits(np.zeros(len(declared)))}))
                alice.send(Message("SAMPLE_REQUEST", {"positions": b""}))
                expect(alice, "SAMPLE_BITS")
                alice.send(Message("SUMMARY", {"n_slots": 50_000}))
                _, err = bob.communicate(timeout=120)
        assert bob.returncode == 3
        assert "SUMMARY lacks the field 'n_errors'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-alice", "--listen", "127.0.0.1:70000"],
            ["serve-alice", "--listen", "127.0.0.1:-5"],
            ["connect-bob", "--connect", "127.0.0.1:70000"],
        ],
        ids=["listen-past-65535", "listen-negative", "connect-past-65535"],
    )
    def test_port_out_of_range_exits_2_naming_the_address(self, capsys, argv):
        # refused before any socket opens
        code, _, err = run_main(capsys, [*argv, *FAST])
        assert code == 2
        assert f"port must be in 0..65535, got {argv[-1]!r}" in err

    @pytest.mark.parametrize("command", ["serve-alice", "connect-bob"])
    def test_endpoint_socket_has_nagle_off(self, monkeypatch, capsys, command):
        # the socket each endpoint hands to StreamTransport sends a small
        # frame at once (TCP_NODELAY); here the peer then stays silent
        nodelay = []

        class Recording(StreamTransport):
            def __init__(self, sock):
                nodelay.append(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
                super().__init__(sock)

        monkeypatch.setattr(cli, "StreamTransport", Recording)
        done = threading.Event()
        if command == "connect-bob":
            peer = socket.create_server(("127.0.0.1", 0))
            address, holder = f"127.0.0.1:{peer.getsockname()[1]}", None
        else:
            port = _free_port()
            address, peer = f"127.0.0.1:{port}", None

            def connect():
                # until Alice listens, then silent until she has given up
                while not done.is_set():
                    try:
                        with socket.create_connection(("127.0.0.1", port), timeout=5):
                            done.wait(60)
                            return
                    except ConnectionRefusedError:
                        time.sleep(0.01)

            holder = threading.Thread(target=connect)
            holder.start()
        try:
            flag = "--listen" if command == "serve-alice" else "--connect"
            code, _, err = run_main(capsys, [command, "--timeout", "0.3", flag, address, *FAST])
        finally:
            done.set()
            if holder is not None:
                holder.join(timeout=10)
            if peer is not None:
                peer.close()
        assert holder is None or not holder.is_alive()
        assert code == 3, err
        assert nodelay == [1]

    def test_silent_peer_exits_3_naming_the_timeout(self):
        # a listener that accepts and then sends nothing: Bob waits for its
        # HELLO no longer than his --timeout
        with socket.create_server(("127.0.0.1", 0)) as server:
            server.settimeout(120)
            argv = ["connect-bob", "--timeout", "0.5", "--connect", f"127.0.0.1:{server.getsockname()[1]}", *FAST]
            start = time.monotonic()
            bob = _spawn(argv)
            conn, _ = server.accept()
            with conn:
                _, err = bob.communicate(timeout=20)
            elapsed = time.monotonic() - start
        assert bob.returncode == 3
        assert err == "session failed: the peer was silent for --timeout 0.5 s\n"
        assert elapsed < 10

    def test_no_peer_exits_3_naming_the_timeout(self, capsys):
        # the listener's accept waits no longer than --timeout either
        code, _, err = run_main(capsys, ["serve-alice", "--timeout", "0.2", "--listen", "127.0.0.1:0", *FAST])
        assert code == 3
        assert err.endswith("session failed: the peer was silent for --timeout 0.2 s\n")

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e10"])
    @pytest.mark.parametrize("command", ["serve-alice", "connect-bob"])
    def test_timeout_that_is_not_a_positive_number_exits_2(self, capsys, command, value):
        # refused before any socket opens
        code, _, err = run_main(capsys, [command, "--timeout", value, *FAST])
        assert code == 2
        assert "timeout must be" in err

    def test_peer_disconnect_exits_3_with_diagnostic(self):
        port = _free_port()
        alice = _spawn(["serve-alice", "--listen", f"127.0.0.1:{port}", *FAST])
        assert "listening on" in alice.stderr.readline()
        sock = socket.create_connection(("127.0.0.1", port))
        sock.close()
        _, err = alice.communicate(timeout=120)
        assert alice.returncode == 3
        assert "session failed" in err
