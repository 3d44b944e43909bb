"""Experiment runner: single sessions, angle sweeps, fringe scans, and
the two-process networked mode.

Angles are degrees at every external surface (flags, config files, CSV)
and radians inside. Exit codes: 0 ok, 2 config error, 3 runtime error,
4 handshake mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import socket
import sys
from dataclasses import fields, replace
from typing import Optional

import numpy as np

from . import protocol, qstate
from .optics import ChannelSampler, StaticChannel, require_finite
from .session import (
    ConfigError,
    HandshakeMismatch,
    Seeds,
    SessionConfig,
    differing_keys,
    exact_session_summary,
    run_alice_endpoint,
    run_bob_endpoint,
    run_session,
)
from .transport import StreamTransport, TransportError, TransportTimeout

# Sweep points perturb the base seeds by this stride so every point is an
# independent (but still reproducible) experiment.
SEED_STRIDE = 1000003
# Most analyzer angles one fringe scan evaluates.
MAX_FRINGE_POINTS = 10_000
# Longest wait, in seconds, for the peer to connect or send. It spans the
# peer's run of the quantum side: about 1 s for 6000 s at the default rate
# (2.6 s for the whole `run --duration 6000`, on a 2-core x86-64 host).
DEFAULT_TIMEOUT_S = 600.0


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Optional[str], header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


# --------------------------------------------------------------------------
# Config assembly: defaults <- config file <- flags
# --------------------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="flat JSON config file")
    p.add_argument("--protocol", choices=protocol.PROTOCOLS)
    p.add_argument("--theta", type=float, metavar="DEG", help="static channel rotation angle")
    p.add_argument("--visibility", type=float, metavar="F")
    p.add_argument("--duration", type=float, metavar="S")
    p.add_argument("--pair-rate", type=float, metavar="HZ")
    p.add_argument("--clock", type=float, metavar="HZ")
    p.add_argument("--sample-fraction", type=float, metavar="F")
    p.add_argument("--efficiency", type=float, metavar="F", help="per-detector efficiency")
    p.add_argument("--dark", type=float, metavar="F", help="dark count probability per window")
    p.add_argument(
        "--channel",
        choices=[m.kind.replace("_", "-") for m in ChannelSampler.__subclasses__()],
        help="channel model (default static at --theta)",
    )
    p.add_argument("--channel-lo", type=float, metavar="DEG")
    p.add_argument("--channel-hi", type=float, metavar="DEG")
    p.add_argument("--channel-sigma", type=float, metavar="DEG", help="random-walk step width")
    for f in fields(Seeds):
        p.add_argument(f"--seed-{f.name}", type=int, metavar="N")


# The config key each session flag sets, by its argparse name; a dotted key
# sets a field of that section.
SESSION_FLAGS = {
    "protocol": "protocol",
    "visibility": "visibility",
    "duration": "duration_s",
    "pair_rate": "pair_rate_hz",
    "clock": "clock_hz",
    "sample_fraction": "sample_fraction",
    "efficiency": "detectors.efficiency",
    "dark": "detectors.dark_count_prob",
    **{f"seed_{f.name}": f"seeds.{f.name}" for f in fields(Seeds)},
}
# The flag that gives each channel model field, in degrees, by argparse name.
CHANNEL_FLAGS = {"theta": "theta", "theta0": "theta", "lo": "channel_lo", "hi": "channel_hi", "step_sigma": "channel_sigma"}


def _channel_dict(args) -> Optional[dict]:
    kind = args.channel or "static"
    model = next(m for m in ChannelSampler.__subclasses__() if m.kind == kind.replace("-", "_"))
    reads = {f.name: CHANNEL_FLAGS[f.name] for f in fields(model)}
    given = [name for name in dict.fromkeys(CHANNEL_FLAGS.values()) if getattr(args, name) is not None]
    # Any other channel flag would be dropped.
    unread = [f"--{name.replace('_', '-')}" for name in given if name not in reads.values()]
    if unread:
        raise ConfigError(f"a {kind} channel does not read {', '.join(unread)}")
    if args.channel is None and not given:
        return None
    # Every field but the angle needs its flag; an unset angle is 0.
    missing = [f"--{flag.replace('_', '-')}" for flag in reads.values() if flag not in (*given, "theta")]
    if missing:
        raise ConfigError(f"{kind} channel needs {' and '.join(missing)}")
    values = {**vars(args), "theta": args.theta or 0.0}
    return {"kind": model.kind, **{f"{name}_deg": values[flag] for name, flag in reads.items()}}


def build_config(args) -> SessionConfig:
    d = SessionConfig().to_dict()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        d.update(file_cfg)
        for key in ("channel", "detectors", "seeds"):
            if not isinstance(d[key], dict):
                raise ConfigError(f"config field {key!r} must be a JSON object")

    for name, key in SESSION_FLAGS.items():
        value = getattr(args, name)
        if value is not None:
            section, _, field = key.rpartition(".")
            (d[section] if section else d)[field] = value
    channel = _channel_dict(args)
    if channel is not None:
        d["channel"] = channel
    return SessionConfig.from_dict(d)


def _refuse_unread(cfg: SessionConfig, read: SessionConfig, rule: str) -> None:
    """Refuse, naming each by its dotted key, the settings of `cfg` that a
    command would drop: those where `read`, what it honours, differs."""
    unread = differing_keys(cfg.to_dict(), read.to_dict())
    if unread:
        raise ConfigError(f"{rule}; it cannot honour {', '.join(unread)}")


def _offset_seeds(cfg: SessionConfig, ordinal: int) -> SessionConfig:
    shift = SEED_STRIDE * ordinal
    mask = (1 << 63) - 1
    seeds = {f.name: (getattr(cfg.seeds, f.name) + shift) & mask for f in fields(Seeds)}
    return replace(cfg, seeds=Seeds(**seeds))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = build_config(args)
    summary = exact_session_summary(cfg) if args.exact else run_session(cfg)
    _print_json(summary.to_dict())
    return 0


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects a comma-separated number list: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    return values


def cmd_sweep(args) -> int:
    base = build_config(args)
    thetas = _parse_float_list(args.thetas, "--thetas")
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    if not protocols:
        raise ConfigError("--protocols must name at least one protocol")
    for p in protocols:
        if p not in protocol.PROTOCOLS:
            raise ConfigError(f"unknown protocol {p!r} in --protocols")
    default = SessionConfig()
    _refuse_unread(
        base,
        replace(base, protocol=default.protocol, channel=default.channel),
        f"sweep sets each point's protocol and static channel angle (asked: {base.protocol} "
        f"on a {base.channel.kind} channel)",
    )

    points = sorted((prot, theta) for prot in set(protocols) for theta in set(thetas))
    rows = []
    for ordinal, (prot, theta_deg) in enumerate(points):
        cfg = replace(
            _offset_seeds(base, ordinal),
            protocol=prot,
            channel=StaticChannel(math.radians(theta_deg)),
        )
        if args.exact:
            summary = exact_session_summary(cfg)
        else:
            summary = run_session(cfg)
        q = summary.qber
        rows.append(
            [
                float(theta_deg),
                prot,
                summary.n_sifted,
                q.qber,
                q.stderr,
                summary.key_rate.rate,
                summary.key_rate.secure,
            ]
        )
    _write_csv(
        args.out,
        ["theta_deg", "protocol", "n_sifted", "qber", "qber_stderr", "key_rate", "secure"],
        rows,
    )
    return 0


def _polarizer_ket(angle_rad: float) -> np.ndarray:
    return np.array([math.cos(angle_rad), math.sin(angle_rad)], dtype=complex)


def _fit_sinusoid(theta_deg: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of a + b cos 2t + c sin 2t; returns the fringe
    visibility amp/offset and the phase (deg) where the curve peaks."""
    t = np.radians(theta_deg)
    design = np.column_stack([np.ones_like(t), np.cos(2 * t), np.sin(2 * t)])
    (a, b, c), *_ = np.linalg.lstsq(design, values, rcond=None)
    visibility = float(np.hypot(b, c) / a)
    phase_deg = float(np.degrees(math.atan2(c, b) / 2.0))
    return visibility, phase_deg


def cmd_fringe(args) -> int:
    cfg = build_config(args)
    # The scan measures the source alone; any other setting would be ignored.
    default = SessionConfig()
    read = replace(default, visibility=cfg.visibility, seeds=replace(default.seeds, source=cfg.seeds.source))
    _refuse_unread(cfg, read, "fringe reads only visibility and seeds.source")
    require_finite(args, "analyzer2", "theta1_start", "theta1_stop", "theta1_step")
    if args.theta1_step <= 0:
        raise ConfigError("--theta1-step must be positive")
    # numpy's binomial takes an int64 count.
    if not 1 <= args.shots < 2**63:
        raise ConfigError(f"--shots must be from 1 to 2**63 - 1, got {args.shots}")
    # np.arange's length, counted before it allocates the grid
    n_points = (args.theta1_stop + 1e-9 - args.theta1_start) / args.theta1_step
    if n_points > MAX_FRINGE_POINTS:
        raise ConfigError(
            f"--theta1-step {args.theta1_step:g} gives more than {MAX_FRINGE_POINTS} analyzer angles "
            "from --theta1-start to --theta1-stop"
        )
    grid = np.arange(args.theta1_start, args.theta1_stop + 1e-9, args.theta1_step)
    if len(grid) < 3:
        raise ConfigError("fringe scan needs at least 3 analyzer angles")

    rho = qstate.werner_mix(qstate.PSI_MINUS, cfg.visibility)
    rng = np.random.default_rng(cfg.seeds.source)
    analyzer2 = [args.analyzer2, args.analyzer2 + 90.0]

    rows = []
    fits = []
    for curve_id, a2_deg in enumerate(analyzer2):
        a2 = _polarizer_ket(math.radians(a2_deg))
        probs = np.array(
            [
                qstate.born_probs(rho, _polarizer_ket(math.radians(t1)), a2)[0]
                for t1 in grid
            ]
        )
        counts = rng.binomial(args.shots, probs)
        for t1, p, n in zip(grid, probs, counts):
            rows.append([float(t1), curve_id, float(p), int(n)])
        series = probs if args.exact else counts / args.shots
        vis, phase = _fit_sinusoid(grid, series)
        fits.append(
            {
                "curve_id": curve_id,
                "analyzer2_deg": float(a2_deg),
                "visibility": vis,
                "phase_deg": phase,
            }
        )

    _write_csv(args.out, ["theta1_deg", "curve_id", "probability", "count"], rows)
    report = {
        "fitted_visibility": float(np.mean([f["visibility"] for f in fits])),
        "mode": "exact" if args.exact else "sampled",
        "curves": fits,
    }
    out = sys.stdout if args.out else sys.stderr
    out.write(json.dumps(report, indent=2) + "\n")
    return 0


def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"address must look like HOST:PORT, got {text!r}")
    try:
        number = int(port)
    except ValueError as exc:
        raise ConfigError(f"bad port in {text!r}") from exc
    if not 0 <= number <= 65535:
        raise ConfigError(f"port must be in 0..65535, got {text!r}")
    return host, number


def cmd_serve_alice(args) -> int:
    cfg = build_config(args)
    host, port = _parse_hostport(args.listen)

    def accept() -> socket.socket:
        with socket.create_server((host, port), backlog=1) as server:
            server.settimeout(args.timeout)
            bound = server.getsockname()
            sys.stderr.write(f"listening on {bound[0]}:{bound[1]}\n")
            sys.stderr.flush()
            return server.accept()[0]

    return _run_endpoint(run_alice_endpoint, cfg, accept, args)


def cmd_connect_bob(args) -> int:
    cfg = build_config(args)
    host, port = _parse_hostport(args.connect)
    return _run_endpoint(run_bob_endpoint, cfg, lambda: socket.create_connection((host, port), args.timeout), args)


def _run_endpoint(run, cfg: SessionConfig, connect, args) -> int:
    """Run one endpoint over the socket that `connect` opens and print its
    summary. --timeout bounds the wait for the peer to connect and for
    each of its frames. Nagle's algorithm is off, so that a small frame
    goes at once instead of waiting for the peer's delayed ACK."""
    require_finite(args, "timeout")
    # The socket layer holds a timeout as a signed 64-bit count of nanoseconds.
    if not 0 < args.timeout * 1e9 < 2**63:
        raise ConfigError(f"--timeout must be positive and below {2**63 / 1e9:.6g} s, got {args.timeout:g}")
    try:
        sock = connect()
        sock.settimeout(args.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link = StreamTransport(sock)
        try:
            result = run(cfg, link)
        finally:
            link.close()
    except (TimeoutError, TransportTimeout) as exc:
        raise TransportTimeout(f"the peer was silent for --timeout {args.timeout:g} s") from exc
    _print_json(result.summary.to_dict())
    return 0


# --------------------------------------------------------------------------
# Parser and entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsqkd",
        description="Two-photon fault-tolerant QKD simulator and BB84 baseline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one session and print its summary JSON")
    _add_config_flags(p_run)
    p_run.add_argument("--exact", action="store_true", help="infinite-shot limit, no sampling")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="error rate vs channel angle, CSV output")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--thetas", default="0,5,10,15,20,25,30,35,40,45", metavar="DEGS")
    p_sweep.add_argument("--protocols", default="dfs2,bb84", metavar="LIST")
    p_sweep.add_argument("--exact", action="store_true")
    p_sweep.add_argument("--out", metavar="PATH", help="CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fringe = sub.add_parser("fringe", help="two-photon coincidence fringes and visibility fit")
    _add_config_flags(p_fringe)
    p_fringe.add_argument("--analyzer2", type=float, default=45.0, metavar="DEG")
    p_fringe.add_argument("--theta1-start", type=float, default=0.0, metavar="DEG")
    p_fringe.add_argument("--theta1-stop", type=float, default=180.0, metavar="DEG")
    p_fringe.add_argument("--theta1-step", type=float, default=5.0, metavar="DEG")
    p_fringe.add_argument("--shots", type=int, default=20000)
    p_fringe.add_argument("--exact", action="store_true", help="fit the exact probabilities")
    p_fringe.add_argument("--out", metavar="PATH", help="CSV path (default stdout)")
    p_fringe.set_defaults(func=cmd_fringe)

    p_alice = sub.add_parser("serve-alice", help="networked mode: wait for Bob and run a session")
    _add_config_flags(p_alice)
    p_alice.add_argument("--listen", default="127.0.0.1:9155", metavar="HOST:PORT")
    p_alice.set_defaults(func=cmd_serve_alice)

    p_bob = sub.add_parser("connect-bob", help="networked mode: connect to Alice")
    _add_config_flags(p_bob)
    p_bob.add_argument("--connect", default="127.0.0.1:9155", metavar="HOST:PORT")
    p_bob.set_defaults(func=cmd_connect_bob)
    for p in (p_alice, p_bob):
        p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S, metavar="S", help="longest wait for the peer")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except HandshakeMismatch as exc:
        sys.stderr.write(f"handshake mismatch: {exc}\n")
        return 4
    except (TransportError, OSError, RuntimeError, ValueError) as exc:
        sys.stderr.write(f"session failed: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
