"""One benchmark operation in a fresh process.

Usage: ``python3 perfbench/child.py JOB_JSON``, where the job names a
mode and the ``dfsqkd`` command-line flags of the session:

* ``inproc``: ``run_session_detailed`` over an in-process transport pair;
* ``sweep``: ``cli.main(["sweep", ...])``, CSV captured from stdout;
* ``alice``: listen on 127.0.0.1, print ``PORT <n>``, accept, then
  ``run_alice_endpoint`` over ``StreamTransport``;
* ``bob``: connect to the job's port, then ``run_bob_endpoint``.

The last line of stdout is one JSON object with the times (from
``time.monotonic``, one clock for all processes), the summary, the frame
tally, the peak resident memory of this process and, for a traced job,
the spans. A failure is reported in the same object with its exception
type and message. Running each operation in its own process makes
``ru_maxrss`` the peak of that operation alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import queue
import resource
import socket
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


class FrameTally:
    """Counts the frames one side puts on the wire, by message type."""

    def __init__(self):
        self.frames = Counter()
        self.bytes = Counter()
        self.max_frame_bytes = 0

    def add(self, frame: bytes) -> None:
        # Bodies are canonical JSON with sorted keys, so the top-level
        # "type" is the last key: ...,"type":"NAME"}
        kind = frame[frame.rindex(b'"type":"') + 8 : -2].decode("ascii")
        self.frames[kind] += 1
        self.bytes[kind] += len(frame)
        self.max_frame_bytes = max(self.max_frame_bytes, len(frame) - 4)

    def to_dict(self) -> dict:
        return {
            "frames": dict(self.frames),
            "bytes": dict(self.bytes),
            "max_frame_bytes": self.max_frame_bytes,
        }


class CountingQueue(queue.Queue):
    """Queue behind an InMemoryTransport; frames put on it are tallied."""

    def __init__(self, tally: FrameTally):
        super().__init__()
        self._tally = tally

    def put(self, item, block=True, timeout=None):
        if isinstance(item, bytes):
            self._tally.add(item)
        super().put(item, block, timeout)


class CountingSocket:
    """The socket methods StreamTransport uses; sent frames are tallied
    (StreamTransport hands each frame to one sendall)."""

    def __init__(self, sock: socket.socket, tally: FrameTally):
        self._sock = sock
        self._tally = tally

    def sendall(self, data: bytes) -> None:
        self._tally.add(data)
        self._sock.sendall(data)

    def recv(self, n: int) -> bytes:
        return self._sock.recv(n)

    def shutdown(self, how: int) -> None:
        self._sock.shutdown(how)

    def close(self) -> None:
        self._sock.close()


def run(job: dict, out: dict) -> None:
    t0 = time.monotonic()
    import numpy
    from dfsqkd import cli, session, transport

    t1 = time.monotonic()
    args = cli.build_parser().parse_args(["run", *job["flags"]])
    cfg = cli.build_config(args)
    t2 = time.monotonic()
    out.update(numpy=numpy.__version__,
               cli_times={"cli.import_s": t1 - t0, "cli.build_config_s": t2 - t1, "cli.connect_s": 0.0})

    tally = FrameTally()

    def counting_pair():
        a_to_b, b_to_a = CountingQueue(tally), CountingQueue(tally)
        return transport.InMemoryTransport(a_to_b, b_to_a), transport.InMemoryTransport(b_to_a, a_to_b)

    recorder = None
    if job.get("trace"):
        import spans

        recorder = spans.Recorder(endpoint="bob" if job["mode"] == "bob" else "alice")

    mode = job["mode"]
    if mode in ("alice", "bob"):
        deadline = job["deadline_s"]
        if mode == "alice":
            server = socket.create_server(("127.0.0.1", 0))
            server.settimeout(deadline)
            os.write(1, f"PORT {server.getsockname()[1]}\n".encode())
            with server:
                conn, _ = server.accept()
        else:
            conn = socket.create_connection(("127.0.0.1", job["port"]), timeout=deadline)
        conn.settimeout(deadline)
        link = transport.StreamTransport(CountingSocket(conn, tally))
        ready = time.monotonic()
        out["cli_times"]["cli.connect_s"] = ready - t2
    else:
        ready = time.monotonic()

    out["ready"] = ready
    if recorder:
        recorder.install()
    try:
        if mode == "inproc":
            alice, bob = session.run_session_detailed(cfg, counting_pair())
            out["summary"] = alice.summary.to_dict()
            out["peer_summary"] = bob.summary.to_dict()
        elif mode == "sweep":
            # cli.main builds its own transport per point: count through the
            # name run_session_detailed looks up.
            session.memory_pair = counting_pair
            text, errors = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(errors):
                rc = cli.main(["sweep", *job["flags"], *job["sweep_flags"]])
            out["csv"] = text.getvalue()
            if rc != 0:
                raise RuntimeError(f"dfsqkd sweep exited with code {rc}: {errors.getvalue().strip()}")
        else:
            endpoint = session.run_alice_endpoint if mode == "alice" else session.run_bob_endpoint
            try:
                result = endpoint(cfg, link)
            finally:
                link.close()
            out["summary"] = result.summary.to_dict()
    finally:
        out["end"] = time.monotonic()
        if recorder:
            recorder.uninstall()
            out["spans"] = recorder.spans
        out["tally"] = tally.to_dict()
    if "summary" in out:
        out["summary_json"] = json.dumps(out["summary"], indent=2)


def main() -> int:
    job = json.loads(sys.argv[1])
    out: dict = {}
    try:
        run(job, out)
    except Exception as exc:  # the operation's outcome is reported, not raised
        traceback.print_exc()
        out["error"] = {"type": type(exc).__name__, "message": str(exc)[:500]}
    out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
