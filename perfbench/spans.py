"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from its spans.

The recorder wraps public functions of ``dfsqkd`` from the outside: it
replaces each name where its caller looks it up (``session.py`` binds
``detect_batch``, ``pack_bits``, ``sample_positions`` and others by name
at import, so those are wrapped in ``dfsqkd.session``), keeps every span
in memory and restores the original attributes on ``uninstall``. It is
only installed for traced operations; timed runs never see it.

A span records its name, start and end (``time.monotonic``, which is one
clock for every process of the machine), the span that caused it, the
thread and process, and the endpoint (``alice`` or ``bob``) whose
conversation it belongs to. Bob runs on a thread in-process and in his
own process over TCP, so the endpoint comes from the enclosing
``session.alice``/``session.bob`` span, or from the process role.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

MESSAGE_TYPES = ("HELLO", "DETECTIONS", "SIFT_KEEP", "SAMPLE_REQUEST", "SAMPLE_BITS", "SUMMARY", "BYE")
FAILURE_TYPES = ("FrameError", "ProtocolError", "TransportClosed")

# Every per-layer metric: (name, unit, better, the end-to-end metric and
# workload it should move). BENCHMARK.json lists the same names; the
# benchmark's test keeps the two in step.
LAYER_METRICS = [
    ("session.simulate_quantum.busy_s", "s", "lower",
     "op_ref_p50, sim_s_per_ref on session-static and tcp-drift"),
    ("session.simulate_quantum.self_s", "s", "lower",
     "op_ref_p50, peak_rss_mb on session-static and tcp-drift (pair counts, Alice/Bob draws, outcome sampling)"),
    ("session.pair_slots", "count", "higher",
     "work count: sim_s_per_ref at a fixed size; chunked generation moves peak_rss_mb on tcp-drift"),
    ("session.alice.self_s", "s", "lower", "op_ref_p50 on session-static and sweep (per-element loops)"),
    ("session.bob.self_s", "s", "lower", "op_ref_p50 on session-static and sweep"),
    ("session.sift.busy_s", "s", "lower", "op_ref_p50 on session-static and sweep"),
    ("session.finalize.busy_s", "s", "lower", "op_ref_p50 on sweep"),
    ("session.funnel.coincidences_per_pair_slot", "ratio", "higher", "useful share of pair slots, all workloads"),
    ("session.funnel.sifted_per_coincidence", "ratio", "higher", "useful share of coincidences, all workloads"),
    ("protocol.born.dfs2.busy_s", "s", "lower",
     "op_ref_p50 on session-static (table, real arithmetic) and tcp-drift (real arithmetic)"),
    ("protocol.born.dfs2.rows", "count", "lower", "op_ref_p50 on session-static"),
    ("protocol.born.dfs2.ns_per_row", "ns", "lower", "op_ref_p50 on session-static and tcp-drift"),
    ("protocol.born.bb84.busy_s", "s", "lower", "op_ref_p50 on sweep"),
    ("protocol.born.bb84.rows", "count", "lower", "op_ref_p50 on sweep"),
    ("protocol.born.bb84.ns_per_row", "ns", "lower", "op_ref_p50 on sweep"),
    ("protocol.sample_positions.busy_s", "s", "lower", "op_ref_p50 on session-static"),
    ("optics.channel.busy_s", "s", "lower", "op_ref_p50, peak_rss_mb on tcp-drift (~0 on session-static)"),
    ("optics.channel.steps", "count", "lower", "peak_rss_mb on tcp-drift"),
    ("optics.detect.busy_s", "s", "lower", "op_ref_p50 on session-static and tcp-drift"),
    ("transport.encode.busy_s", "s", "lower", "op_ref_p50 on session-static and sweep"),
    ("transport.decode.busy_s", "s", "lower", "op_ref_p50 on session-static and sweep"),
    ("transport.validate.busy_s", "s", "lower", "op_ref_p50 on session-static and sweep"),
    ("transport.send.busy_s", "s", "lower", "op_ref_p50 on all workloads"),
    ("transport.recv.wait_s", "s", "lower", "op_ref_p50 on tcp-drift (time a receiver waits on its peer)"),
    *[(f"transport.frames.{t}", "count", "lower", "wire_bytes_per_sifted_bit on all workloads") for t in MESSAGE_TYPES],
    *[(f"transport.bytes.{t}", "B", "lower", "wire_bytes_per_sifted_bit on all workloads") for t in MESSAGE_TYPES],
    ("transport.max_frame_bytes", "B", "lower", "failures on session-overcap once it stays below the 16 MiB cap"),
    *[(f"transport.failures.{t}", "count", "lower", "traced operations that failed with it; failures on session-overcap")
      for t in FAILURE_TYPES],
    ("cli.import_s", "s", "lower", "setup_s on all workloads"),
    ("cli.build_config_s", "s", "lower", "setup_s on all workloads"),
    ("cli.connect_s", "s", "lower", "setup_s on tcp-drift"),
    ("cli.sweep.points", "count", "higher", "work count: op_ref_p50 on sweep"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced op_ref_p50 of the same run"),
]


class Recorder:
    """Wraps dfsqkd functions and keeps one record per call."""

    def __init__(self, endpoint: str = "alice"):
        self.default_endpoint = endpoint
        self.spans: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._pid = os.getpid()

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, counts=None, endpoint: str | None = None) -> None:
        """Replace ``owner.attr`` by a timed call of the original.

        ``counts(args, result)`` returns counters to attach to the span;
        ``endpoint`` makes the span set the endpoint of everything it calls.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            local = recorder._local
            stack = local.__dict__.setdefault("stack", [])
            outer_endpoint = getattr(local, "endpoint", recorder.default_endpoint)
            span = {
                "id": next(recorder._ids),
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "endpoint": endpoint or outer_endpoint,
                "pid": recorder._pid,
                "thread": threading.get_ident(),
            }
            if endpoint:
                local.endpoint = endpoint
            stack.append(span)
            span["start"] = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                stack.pop()
                local.endpoint = outer_endpoint
                recorder.spans.append(span)
            if counts is not None:
                span["counts"] = counts(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the calls into each layer, at the name their caller uses."""
        from dfsqkd import optics, protocol, session, transport

        self.wrap(session, "run_session_detailed", "session.run")
        self.wrap(session, "run_alice_endpoint", "session.alice", endpoint="alice",
                  counts=lambda a, r: {"coincidences": r.summary.n_coincidences, "sifted": r.summary.n_sifted})
        self.wrap(session, "run_bob_endpoint", "session.bob", endpoint="bob")
        self.wrap(session, "simulate_quantum", "session.simulate_quantum",
                  counts=lambda a, r: {"pair_slots": len(r.pair_slots)})
        self.wrap(session, "alice_sift_exchange", "session.sift")
        self.wrap(session, "bob_sift_exchange", "session.sift")
        self.wrap(session, "finalize", "session.finalize")
        self.wrap(session, "detect_batch", "optics.detect")
        self.wrap(session, "sample_positions", "protocol.sample_positions")
        self.wrap(session, "qber_report", "protocol.qber_report")
        self.wrap(session, "pack_bits", "transport.pack_bits")
        self.wrap(session, "unpack_bits", "transport.unpack_bits")
        self.wrap(protocol, "dfs2_probs_batch", "protocol.born.dfs2", counts=lambda a, r: {"rows": len(a[0])})
        self.wrap(protocol, "bb84_port1_batch", "protocol.born.bb84", counts=lambda a, r: {"rows": len(a[0])})
        for sampler in optics.ChannelSampler.__subclasses__():
            # The walk draws one step per clock slot up to the last one asked
            # for; the other models draw at most one value per pair slot.
            self.wrap(sampler, "sample_batch", "optics.channel", counts=_channel_steps(sampler))
        self.wrap(transport, "encode_frame", "transport.encode")
        self.wrap(transport, "_parse_body", "transport.decode")
        self.wrap(transport, "validate_detections_payload", "transport.validate")
        for cls in (transport.InMemoryTransport, transport.StreamTransport):
            self.wrap(cls, "send", "transport.send")
            self.wrap(cls, "recv", "transport.recv")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _channel_steps(sampler):
    if sampler.__name__ == "_WalkSampler":
        return lambda a, r: {"steps": int(a[1][-1]) if len(a[1]) else 0}
    if sampler.__name__ == "_StaticSampler":
        return lambda a, r: {"steps": 0}
    return lambda a, r: {"steps": len(a[1])}


# -- analysis ------------------------------------------------------------------


def account(spans: list[dict]) -> list[str]:
    """Fill in each span's busy, child and self time and check the nesting.

    Children of a span ran on its thread, one after another, inside its
    interval, so self time is busy time minus the children's busy time.
    Returns a description of every span for which that does not hold.
    """
    by_id = {(s["pid"], s["id"]): s for s in spans}
    for s in spans:
        s["busy_s"] = s["end"] - s["start"]
        s["child_s"] = 0.0
    problems = []
    for s in spans:
        if s["parent"] is None:
            continue
        p = by_id[(s["pid"], s["parent"])]
        if s["start"] < p["start"] or s["end"] > p["end"] or s["thread"] != p["thread"]:
            problems.append(f"span {s['name']} lies outside its parent {p['name']}")
        p["child_s"] += s["busy_s"]
    for s in spans:
        s["self_s"] = s["busy_s"] - s["child_s"]
        if s["self_s"] < -1e-9 or abs(s["self_s"] + s["child_s"] - s["busy_s"]) > 1e-9:
            problems.append(f"span {s['name']}: self {s['self_s']} + child {s['child_s']} != busy {s['busy_s']}")
    return problems


def layer_values(spans: list[dict], tally: dict, cli_times: dict, sweep_points: int) -> dict:
    """Per-layer numbers of one operation (spans already accounted)."""
    busy = defaultdict(float)
    self_time = defaultdict(float)
    counts = defaultdict(int)
    by_id = {(s["pid"], s["id"]): s for s in spans}
    for s in spans:
        name = s["name"]
        busy[name] += s["busy_s"]
        self_time[name] += s["self_s"]
        for k, v in s.get("counts", {}).items():
            counts[f"{name}.{k}"] += v
    # Sifting waits on the peer inside recv; keep only its own work.
    sift_wait = 0.0
    for s in spans:
        if s["name"] != "transport.recv":
            continue
        p = by_id.get((s["pid"], s["parent"]))
        while p is not None and p["name"] != "session.sift":
            p = by_id.get((p["pid"], p["parent"]))
        if p is not None:
            sift_wait += s["self_s"]

    pair_slots = counts["session.simulate_quantum.pair_slots"]
    n_coinc, n_sifted = counts["session.alice.coincidences"], counts["session.alice.sifted"]
    v = {
        "session.simulate_quantum.busy_s": busy["session.simulate_quantum"],
        "session.simulate_quantum.self_s": self_time["session.simulate_quantum"],
        "session.pair_slots": pair_slots,
        "session.alice.self_s": self_time["session.alice"],
        "session.bob.self_s": self_time["session.bob"],
        "session.sift.busy_s": busy["session.sift"] - sift_wait,
        "session.finalize.busy_s": busy["session.finalize"],
        "session.funnel.coincidences_per_pair_slot": n_coinc / pair_slots if pair_slots else 0.0,
        "session.funnel.sifted_per_coincidence": n_sifted / n_coinc if n_coinc else 0.0,
        "protocol.sample_positions.busy_s": busy["protocol.sample_positions"],
        "optics.channel.busy_s": busy["optics.channel"],
        "optics.channel.steps": counts["optics.channel.steps"],
        "optics.detect.busy_s": busy["optics.detect"],
        "transport.encode.busy_s": busy["transport.encode"],
        "transport.decode.busy_s": busy["transport.decode"],
        "transport.validate.busy_s": busy["transport.validate"],
        "transport.send.busy_s": busy["transport.send"],
        "transport.recv.wait_s": self_time["transport.recv"],
        "transport.max_frame_bytes": tally["max_frame_bytes"],
        "cli.sweep.points": sweep_points,
    }
    for kind in ("dfs2", "bb84"):
        rows = counts[f"protocol.born.{kind}.rows"]
        t = busy[f"protocol.born.{kind}"]
        v[f"protocol.born.{kind}.busy_s"] = t
        v[f"protocol.born.{kind}.rows"] = rows
        # 0 when the kernel did no rows in this workload.
        v[f"protocol.born.{kind}.ns_per_row"] = t / rows * 1e9 if rows else 0.0
    for t in MESSAGE_TYPES:
        v[f"transport.frames.{t}"] = tally["frames"].get(t, 0)
        v[f"transport.bytes.{t}"] = tally["bytes"].get(t, 0)
    v.update(cli_times)
    return v


def span_table(spans: list[dict]) -> list[dict]:
    """Calls, busy, child and self time per (span name, endpoint)."""
    rows = {}
    for s in spans:
        key = (s["name"], s["endpoint"])
        r = rows.setdefault(key, {"name": s["name"], "endpoint": s["endpoint"], "calls": 0,
                                  "busy_s": 0.0, "child_s": 0.0, "self_s": 0.0})
        r["calls"] += 1
        for k in ("busy_s", "child_s", "self_s"):
            r[k] += s[k]
    return sorted(rows.values(), key=lambda r: -r["busy_s"])
