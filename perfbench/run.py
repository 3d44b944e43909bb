"""The dfsqkd benchmark: seeded QKD sessions, timed end to end.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; the package is imported from
``src/``. Each operation (one session, one two-process TCP session or one
whole sweep) runs in a fresh process (``child.py``), one at a time in a
closed loop, until ``--seconds`` is used up; operations come in pairs on
the same stream seeds so that every result is checked against a repeat.
Every output is checked (see ``check_summary``); an operation that fails
a check, raises, or passes its deadline counts as failed, with its cause.

A shared host's speed can drift by 20% and more over minutes, in every
process alike. So operation times are given in reference units: each
operation's wall time is divided by the mean wall time of a fixed piece
of work (``reference.py``, no dfsqkd code) timed just before and just
after it, in as many processes at once as the operation runs. The
reference does not change with the program, so a faster program reads
lower; a slower host does not. The raw seconds are in the details line.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones, computed over verified operations only (``null`` if
there are none). With ``--trace 1`` every second operation runs under
the span recorder (``spans.py``) and the metrics are per-layer medians
over those, plus the tracing overhead; the spans go to
``.perfbench_run/`` in the checkout. The line before the last holds the
run's details: seeds, machine facts, every operation and every failure.
``--smoke`` shrinks every session so that a run takes seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_run"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from reference import Reference  # noqa: E402

# Stream seeds are derived from the workload seed the way `dfsqkd sweep`
# offsets its points: the default seeds plus a multiple of this stride.
# Each operation pair of a run gets its own block of SWEEP_BLOCK strides,
# room for the 20 points a sweep offsets inside it.
SEED_STRIDE = 1000003
SWEEP_BLOCK = 32
PAIRS_PER_SEED = 1024
DEFAULT_SEEDS = {"alice": 1, "bob": 2, "channel": 3, "source": 4}

OP_DEADLINE_S = 45.0

SWEEP_THETAS = [0, 5, 10, 15, 20, 25, 30, 35, 40, 45]
SWEEP_PROTOCOLS = ["dfs2", "bb84"]

# Why each workload exists is in BENCHMARK.json. Sizes are (full, smoke).
WORKLOADS = {
    "session-static": {
        "mode": "inproc", "protocol": "dfs2", "theta_deg": 20.0, "pair_rate_hz": 4000.0,
        "duration_s": (200.0, 2.0),
    },
    "tcp-drift": {
        "mode": "tcp", "protocol": "dfs2", "walk_sigma_deg": 0.01, "pair_rate_hz": 4000.0,
        "duration_s": (200.0, 2.0),
    },
    "sweep": {
        "mode": "sweep", "pair_rate_hz": 4000.0, "duration_s": (10.0, 0.5),
    },
    "session-overcap": {
        "mode": "inproc", "protocol": "dfs2", "theta_deg": 20.0, "pair_rate_hz": 90000.0,
        "duration_s": (40.0, 1.0),
    },
}
VISIBILITY = 0.88
CLOCK_HZ = 1e5

END_TO_END = {
    "setup_s": "s",
    "op_ref_p50": "ref",
    "sim_s_per_ref": "sim_s/ref",
    "peak_rss_mb": "MiB",
    "wire_bytes_per_sifted_bit": "B/bit",
}


def stream_seeds(seed: int, pair: int) -> dict:
    shift = SEED_STRIDE * SWEEP_BLOCK * (PAIRS_PER_SEED * seed + pair)
    return {who: (base + shift) & ((1 << 63) - 1) for who, base in DEFAULT_SEEDS.items()}


def session_flags(w: dict, seeds: dict, smoke: bool) -> list[str]:
    """The `dfsqkd` command-line flags of one operation."""
    flags = ["--visibility", repr(VISIBILITY), "--clock", repr(CLOCK_HZ),
             "--pair-rate", repr(w["pair_rate_hz"]), "--duration", repr(w["duration_s"][smoke])]
    if "protocol" in w:
        flags += ["--protocol", w["protocol"]]
    if "theta_deg" in w:
        flags += ["--theta", repr(w["theta_deg"])]
    if "walk_sigma_deg" in w:
        flags += ["--channel", "random-walk", "--theta", "0", "--channel-sigma", repr(w["walk_sigma_deg"])]
    for who, value in seeds.items():
        flags += [f"--seed-{who}", str(value)]
    return flags


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


def predicted_qber(protocol: str, theta_deg: float) -> float:
    """(1-V)/2 for the encoded protocol at any rotation, plus V sin^2 for BB84."""
    base = (1.0 - VISIBILITY) / 2.0
    if protocol == "dfs2":
        return base
    return base + VISIBILITY * math.sin(math.radians(theta_deg)) ** 2


def qber_problem(qber, stderr, protocol: str, theta_deg: float) -> str | None:
    if qber is None or stderr is None:
        return "no error-test sample"
    want = predicted_qber(protocol, theta_deg)
    if abs(qber - want) > 5.0 * stderr:
        return f"QBER {qber:.5f} is more than 5 stderr ({stderr:.5f}) from {want:.5f}"
    return None


def check_summary(w: dict, duration_s: float, summary: dict, peer: dict) -> list[str]:
    """Problems with one session's summary (empty when it is correct)."""
    problems = []
    if summary != peer:
        problems.append("the two endpoints' summaries differ")
    n_slots = math.floor(CLOCK_HZ * duration_s)
    if summary.get("n_slots") != n_slots:
        problems.append(f"n_slots {summary.get('n_slots')} != floor(clock x duration) = {n_slots}")
    q = summary.get("qber") or {}
    p = qber_problem(q.get("qber"), q.get("stderr"), w["protocol"], w.get("theta_deg", 0.0))
    if p:
        problems.append(p)
    return problems


def check_sweep_csv(text: str) -> tuple[list[str], int]:
    """Problems with a sweep's CSV, and its total sifted bits."""
    lines = text.strip().split("\n")
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    want_points = sorted((p, float(t)) for p in SWEEP_PROTOCOLS for t in SWEEP_THETAS)
    try:
        col = {name: header.index(name) for name in ("theta_deg", "protocol", "n_sifted", "qber", "qber_stderr")}
        points = sorted((r[col["protocol"]], float(r[col["theta_deg"]])) for r in rows)
    except (ValueError, IndexError) as exc:
        return [f"malformed sweep CSV: {exc}"], 0
    if points != want_points:
        return [f"sweep CSV has points {points}, expected {want_points}"], 0
    problems = []
    sifted = 0
    for r in rows:
        sifted += int(r[col["n_sifted"]])
        q, s = r[col["qber"]], r[col["qber_stderr"]]
        p = qber_problem(None if q == "None" else float(q), None if s == "None" else float(s),
                         r[col["protocol"]], float(r[col["theta_deg"]]))
        if p:
            problems.append(f"{r[col['protocol']]} at {r[col['theta_deg']]} deg: {p}")
    return problems, sifted


# --------------------------------------------------------------------------
# Running one operation
# --------------------------------------------------------------------------


def _spawn(job: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
    )


def _finish(proc: subprocess.Popen, deadline: float) -> dict:
    """The child's result object; the child is killed at the deadline."""
    try:
        stdout, stderr = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": {"type": "Timeout", "message": f"no result within {OP_DEADLINE_S} s"}}
    lines = stdout.decode(errors="replace").strip().split("\n")
    try:
        return json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        tail = stderr.decode(errors="replace").strip().split("\n")[-1:]
        return {"error": {"type": "ChildCrash", "message": f"exit code {proc.returncode}: {tail}"}}


def _read_port_line(proc: subprocess.Popen, deadline: float) -> int | None:
    """Alice's first stdout line is ``PORT <n>``; read it without buffering
    so the rest of her output stays in the pipe for ``communicate``."""
    fd = proc.stdout.fileno()
    data = b""
    while not data.endswith(b"\n"):
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        chunk = os.read(fd, 1) if ready else b""
        if not chunk:
            return None
        data += chunk
    return int(data.split()[1])


def run_op(w: dict, seeds: dict, smoke: bool, trace: bool) -> dict:
    """Run one operation and return its record (times, results, failure)."""
    flags = session_flags(w, seeds, smoke)
    job = {"mode": w["mode"], "flags": flags, "trace": trace, "deadline_s": OP_DEADLINE_S}
    if w["mode"] == "sweep":
        job["sweep_flags"] = ["--thetas", ",".join(map(str, SWEEP_THETAS)),
                              "--protocols", ",".join(SWEEP_PROTOCOLS)]
    start = time.monotonic()
    deadline = start + OP_DEADLINE_S
    if w["mode"] == "tcp":
        # Bob starts once Alice listens, as with serve-alice and connect-bob.
        alice = _spawn(dict(job, mode="alice"))
        port = _read_port_line(alice, deadline)
        if port is None:
            results = [_finish(alice, deadline)]
            results[0].setdefault("error", {"type": "NoListener", "message": "Alice reported no port"})
        else:
            bob = _spawn(dict(job, mode="bob", port=port))
            results = [_finish(alice, deadline), _finish(bob, deadline)]
    else:
        results = [_finish(_spawn(job), deadline)]
    end = time.monotonic()

    op = {"seeds": seeds, "traced": trace, "wall_s": end - start, "problems": [],
          "numpy": next((r["numpy"] for r in results if "numpy" in r), None)}
    errors = [r["error"] for r in results if "error" in r]
    if errors:
        # The side that saw the peer hang up is rarely the root cause.
        op["failure"] = next((e for e in errors if e["type"] != "TransportClosed"), errors[0])
        return op

    op["setup_s"] = max(r["ready"] for r in results) - start
    op["op_s"] = max(r["end"] for r in results) - max(r["ready"] for r in results)
    op["rss_mb"] = max(r["rss_kib"] for r in results) / 1024.0
    # Each side tallies the frames it sends; together they are the wire.
    frames, nbytes = Counter(), Counter()
    for r in results:
        frames.update(r["tally"]["frames"])
        nbytes.update(r["tally"]["bytes"])
    op["tally"] = {"frames": frames, "bytes": nbytes, "total_bytes": sum(nbytes.values()),
                   "max_frame_bytes": max(r["tally"]["max_frame_bytes"] for r in results)}
    op["cli_times"] = {k: max(r["cli_times"][k] for r in results) for k in results[0]["cli_times"]}
    if trace:
        op["spans"] = [s for r in results for s in r["spans"]]

    duration = w["duration_s"][smoke]
    if w["mode"] == "sweep":
        op["problems"], op["n_sifted"] = check_sweep_csv(results[0]["csv"])
        op["sim_s"] = duration * len(SWEEP_THETAS) * len(SWEEP_PROTOCOLS)
        op["output"] = results[0]["csv"]
    else:
        summary = results[0]["summary"]
        peer = results[1]["summary"] if w["mode"] == "tcp" else results[0]["peer_summary"]
        op["problems"] = check_summary(w, duration, summary, peer)
        op["n_sifted"] = summary["n_sifted"]
        op["sim_s"] = duration
        op["output"] = results[0]["summary_json"]
    return op


# --------------------------------------------------------------------------
# The run
# --------------------------------------------------------------------------


def l3_bytes() -> int | None:
    # glibc's _SC_LEVEL3_CACHE_SIZE (194), which os.sysconf_names lacks.
    try:
        return os.sysconf(os.sysconf_names.get("SC_LEVEL3_CACHE_SIZE", 194)) or None
    except (ValueError, OSError):
        return None


def machine_facts(ops: list[dict]) -> dict:
    numpy_version = next((op["numpy"] for op in ops if "numpy" in op), None)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "l3_bytes": l3_bytes(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> list[dict]:
    w = WORKLOADS[name]
    ops: list[dict] = []
    t_begin = time.monotonic()
    with Reference(2 if w["mode"] == "tcp" else 1) as reference:
        ref_before = reference.measure()
        while True:
            i = len(ops)
            if i % 2 == 0 and i >= 2:
                elapsed = time.monotonic() - t_begin
                pair_wall = statistics.median(op["wall_s"] + op["ref_s"] for op in ops) * 2
                if elapsed + pair_wall > seconds:
                    break
            op = run_op(w, stream_seeds(seed, i // 2), smoke, trace and i % 2 == 1)
            ref_after = reference.measure()
            op["pair"] = i // 2
            op["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
            ops.append(op)

    # A repeat on the same seeds must give byte-identical output (tracing
    # included), or both operations of the pair fail.
    for a, b in zip(ops[0::2], ops[1::2]):
        if "output" in a and "output" in b and a["output"] != b["output"]:
            for op in (a, b):
                op["problems"].append("output differs from the repeat on the same seeds")

    # Over TCP the session must equal an in-process session on the same config.
    if w["mode"] == "tcp":
        ref = run_op(dict(w, mode="inproc"), ops[0]["seeds"], smoke, False)
        for op in ops:
            if op["pair"] == 0 and "output" in op:
                if "output" not in ref:
                    op["problems"].append(f"in-process reference failed: {ref.get('failure')}")
                elif ref["output"] != op["output"]:
                    op["problems"].append("TCP summary differs from the in-process session")

    for op in ops:
        if "failure" not in op and op["problems"]:
            op["failure"] = {"type": "CheckFailed", "message": "; ".join(op["problems"])}
    return ops


def end_to_end_metrics(ops: list[dict]) -> dict:
    good = [op for op in ops if "failure" not in op]
    values = dict.fromkeys(END_TO_END)
    if good:
        sifted = sum(op["n_sifted"] for op in good)
        values.update(
            setup_s=statistics.median(op["setup_s"] for op in good),
            op_ref_p50=statistics.median(op["op_s"] / op["ref_s"] for op in good),
            sim_s_per_ref=sum(op["sim_s"] for op in good) / sum(op["wall_s"] / op["ref_s"] for op in ops),
            peak_rss_mb=statistics.median(op["rss_mb"] for op in good),
            wire_bytes_per_sifted_bit=sum(op["tally"]["total_bytes"] for op in good) / sifted if sifted else None,
        )
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def raw_seconds(ops: list[dict]) -> dict:
    """Operation times in plain seconds, with the reference time they were
    divided by (untraced, verified operations)."""
    good = [op for op in ops if "failure" not in op and not op["traced"]]
    if not good:
        return {}
    return {
        "op_s_p50": statistics.median(op["op_s"] for op in good),
        "sim_s_per_s": sum(op["sim_s"] for op in good) / sum(op["wall_s"] for op in good),
        "ref_s_p50": statistics.median(op["ref_s"] for op in good),
    }


def per_layer_metrics(ops: list[dict], name: str, seed: int) -> tuple[dict, list[str]]:
    """Medians over the traced, verified operations; writes their spans."""
    good = [op for op in ops if "failure" not in op]
    traced = [op for op in good if op["traced"]]
    problems = []
    per_op = []
    for op in traced:
        problems += spans.account(op["spans"])
        points = sum(1 for s in op["spans"] if s["name"] == "session.run") if WORKLOADS[name]["mode"] == "sweep" else 0
        per_op.append(spans.layer_values(op["spans"], op["tally"], op["cli_times"], points))
    untraced = [op["op_s"] / op["ref_s"] for op in good if not op["traced"]]
    metrics = {}
    for metric, unit, _better, _moves in spans.LAYER_METRICS:
        if metric.startswith("transport.failures."):
            kind = metric.rsplit(".", 1)[1]
            value = sum(1 for op in ops if op["traced"] and op.get("failure", {}).get("type") == kind)
        elif metric == "trace.overhead_ratio":
            value = (statistics.median(op["op_s"] / op["ref_s"] for op in traced) / statistics.median(untraced)
                     if traced and untraced else None)
        else:
            value = statistics.median(v[metric] for v in per_op) if per_op else None
        metrics[metric] = {"value": value, "unit": unit}

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed,
                   "operations": [{"pair": op["pair"], "table": spans.span_table(op["spans"]),
                                   "spans": op["spans"]} for op in traced]}, fh)
    if traced:
        sys.stderr.write(f"{'span':34} {'endpoint':8} {'calls':>6} {'busy_s':>9} {'child_s':>9} {'self_s':>9}\n")
        for r in spans.span_table(traced[0]["spans"]):
            sys.stderr.write(f"{r['name']:34} {r['endpoint']:8} {r['calls']:6d} "
                             f"{r['busy_s']:9.4f} {r['child_s']:9.4f} {r['self_s']:9.4f}\n")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sessions, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dfsqkd" / "__init__.py").is_file():
        sys.stderr.write(f"no dfsqkd sources under {ROOT / 'src'}: run from a source checkout\n")
        return 2
    if args.seed < 0:
        sys.stderr.write("--seed must be >= 0\n")
        return 2

    ops = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    failed = [op for op in ops if "failure" in op]
    if args.trace:
        metrics, problems = per_layer_metrics(ops, args.workload, args.seed)
    else:
        metrics, problems = end_to_end_metrics(ops), []

    failures: dict[str, int] = {}
    for op in failed:
        failures[op["failure"]["type"]] = failures.get(op["failure"]["type"], 0) + 1
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_facts(ops),
        "failed_frac": len(failed) / len(ops),
        "failures": failures,
        "trace_problems": problems,
        "op_s_samples": sum(1 for op in ops if "failure" not in op and not op["traced"]),
        "raw": raw_seconds(ops),
        "operations": [
            {k: op.get(k) for k in ("pair", "seeds", "traced", "setup_s", "op_s", "wall_s", "ref_s", "rss_mb",
                                    "n_sifted", "failure")}
            for op in ops
        ],
    }
    sys.stdout.write(json.dumps(details) + "\n")
    result = {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
