"""Shared fixtures."""

import os
import threading
from pathlib import Path

import numpy as np
import pytest

from dfsqkd.session import alice_sift_exchange, bob_sift_exchange
from dfsqkd.transport import TransportClosed, memory_pair

# pytest imports dfsqkd from src/ (pyproject's `pythonpath`); the CLI tests'
# child processes find it there too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def sift_halves():
    """Run the two halves of the sifting conversation against each other
    in-process: Alice holds (pair_slots, x, y), Bob declares (slots, z)
    and holds his bits. Returns (alice key, bob key)."""

    def run(pair_slots, x, y, slots, z, bits):
        a_link, b_link = memory_pair()
        out = {}

        def bob():
            try:
                out["bob"] = bob_sift_exchange(b_link, np.asarray(slots), np.asarray(z), np.asarray(bits))
            except TransportClosed:
                pass

        t = threading.Thread(target=bob)
        t.start()
        try:
            out["alice"] = alice_sift_exchange(
                a_link, np.asarray(pair_slots), np.asarray(x), np.asarray(y)
            )
        finally:
            a_link.close()
            t.join()
            b_link.close()
        return out["alice"], out["bob"]

    return run
