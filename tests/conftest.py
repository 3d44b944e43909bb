"""Shared fixtures."""

import os
import threading
from pathlib import Path
import numpy as np
import pytest

from dfsqkd import session
from dfsqkd.transport import memory_pair

# pytest imports dfsqkd from src/ (pyproject's `pythonpath`); the CLI tests'
# child processes find it there too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves alive a thread it started, after a join of
    up to a second each."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    for t in leaked:
        t.join(1.0)
    alive = [t.name for t in leaked if t.is_alive()]
    if alive:
        pytest.fail(f"threads left running: {alive}")


@pytest.fixture
def sift_halves():
    """Run the two halves of the sifting conversation against each other
    in-process, as session._run_pair runs two endpoints: Alice holds
    (pair_slots, x, y), and Bob holds his records (slots, z, bits), which
    he declares. Returns (alice key, bob key)."""

    def run(pair_slots, x, y, slots, z, bits):
        alice = session.AliceSide(
            np.asarray(pair_slots), np.asarray(x), np.asarray(y), np.zeros(len(pair_slots), dtype=bool), None
        )
        bob = session.BobSide(np.asarray(slots, dtype=np.int64), np.asarray(z), lambda: np.asarray(bits))
        (alice_key, _, _), bob_key = session._run_pair(
            lambda link: session.alice_sift_exchange(link, alice),
            lambda link: session.bob_sift_exchange(link, bob),
            memory_pair(),
        )
        return alice_key, bob_key

    return run
