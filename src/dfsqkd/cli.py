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
from .optics import StaticChannel
from .session import (
    ConfigError,
    HandshakeMismatch,
    Seeds,
    SessionConfig,
    exact_session_summary,
    run_alice_endpoint,
    run_bob_endpoint,
    run_session,
)
from .transport import StreamTransport, TransportError

# Sweep points perturb the base seeds by this stride so every point is an
# independent (but still reproducible) experiment.
SEED_STRIDE = 1000003


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
    p.add_argument("--protocol", choices=("dfs2", "bb84"))
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
        choices=("static", "per-slot-uniform", "random-walk"),
        help="channel model (default static at --theta)",
    )
    p.add_argument("--channel-lo", type=float, metavar="DEG")
    p.add_argument("--channel-hi", type=float, metavar="DEG")
    p.add_argument("--channel-sigma", type=float, metavar="DEG", help="random-walk step width")
    for f in fields(Seeds):
        p.add_argument(f"--seed-{f.name}", type=int, metavar="N")


def _channel_dict(args) -> Optional[dict]:
    kind = args.channel
    if kind is None and args.theta is None:
        return None
    if kind in (None, "static"):
        return {"kind": "static", "theta_deg": args.theta or 0.0}
    if kind == "per-slot-uniform":
        if args.channel_lo is None or args.channel_hi is None:
            raise ConfigError("per-slot-uniform channel needs --channel-lo and --channel-hi")
        return {"kind": "per_slot_uniform", "lo_deg": args.channel_lo, "hi_deg": args.channel_hi}
    if args.channel_sigma is None:
        raise ConfigError("random-walk channel needs --channel-sigma")
    return {
        "kind": "random_walk",
        "theta0_deg": args.theta or 0.0,
        "step_sigma_deg": args.channel_sigma,
    }


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

    scalar_flags = {
        "protocol": args.protocol,
        "visibility": args.visibility,
        "duration_s": args.duration,
        "pair_rate_hz": args.pair_rate,
        "clock_hz": args.clock,
        "sample_fraction": args.sample_fraction,
    }
    for key, value in scalar_flags.items():
        if value is not None:
            d[key] = value

    channel = _channel_dict(args)
    if channel is not None:
        d["channel"] = channel

    detectors = dict(d["detectors"])
    if args.efficiency is not None:
        detectors["efficiency"] = args.efficiency
    if args.dark is not None:
        detectors["dark_count_prob"] = args.dark
    d["detectors"] = detectors

    seeds = dict(d["seeds"])
    for f in fields(Seeds):
        value = getattr(args, f"seed_{f.name}")
        if value is not None:
            seeds[f.name] = value
    d["seeds"] = seeds

    return SessionConfig.from_dict(d)


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
    for p in protocols:
        if p not in protocol.PROTOCOLS:
            raise ConfigError(f"unknown protocol {p!r} in --protocols")

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
    if args.theta1_step <= 0:
        raise ConfigError("--theta1-step must be positive")
    if args.shots < 1:
        raise ConfigError("--shots must be >= 1")
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
        return host, int(port)
    except ValueError as exc:
        raise ConfigError(f"bad port in {text!r}") from exc


def cmd_serve_alice(args) -> int:
    cfg = build_config(args)
    host, port = _parse_hostport(args.listen)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen(1)
        bound = server.getsockname()
        sys.stderr.write(f"listening on {bound[0]}:{bound[1]}\n")
        sys.stderr.flush()
        conn, _addr = server.accept()
    link = StreamTransport(conn)
    try:
        result = run_alice_endpoint(cfg, link)
    finally:
        link.close()
    _print_json(result.summary.to_dict())
    return 0


def cmd_connect_bob(args) -> int:
    cfg = build_config(args)
    host, port = _parse_hostport(args.connect)
    sock = socket.create_connection((host, port))
    link = StreamTransport(sock)
    try:
        result = run_bob_endpoint(cfg, link)
    finally:
        link.close()
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
