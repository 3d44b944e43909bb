"""A fixed piece of work that times the host rather than the program.

``run.py`` divides each operation's wall time by the reference time
measured next to it, so that a host running slower or faster for a few
minutes moves both alike. The work holds no dfsqkd code, so a change to
the program never changes it.

Run as ``python3 perfbench/reference.py``, it is the second process of a
two-process reference: it runs the work once for each line on stdin and
prints the seconds it took.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

_X = np.random.default_rng(12345).random(2_000_000)


def reference_s() -> float:
    """Wall seconds of work of the kinds a session does: dicts, strings,
    sorting and JSON in the interpreter, then numpy arithmetic."""
    start = time.perf_counter()
    table = {i: str(i * 7919 % 100_003) for i in range(70_000)}
    json.loads(json.dumps(sorted(table.items(), key=lambda kv: kv[1])))
    float((np.cos(_X) * np.sin(_X)).sum())
    return time.perf_counter() - start


class Reference:
    """Times ``reference_s`` in as many processes at once as an operation
    runs (1 or 2) and gives their mean. Two processes load the host as a
    two-process session does; one process alone can run faster than
    either of them would."""

    def __init__(self, processes: int):
        self._peer = None
        if processes == 2:
            self._peer = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
            )

    def measure(self) -> float:
        if self._peer is None:
            return reference_s()
        self._peer.stdin.write("\n")
        self._peer.stdin.flush()
        mine = reference_s()
        return (mine + float(self._peer.stdout.readline())) / 2

    def close(self) -> None:
        if self._peer is None:
            return
        self._peer.stdin.close()
        try:
            self._peer.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._peer.kill()
            self._peer.wait()
        self._peer = None

    def __enter__(self) -> Reference:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(reference_s(), flush=True)
