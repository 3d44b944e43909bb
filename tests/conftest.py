"""Shared fixtures."""

import os
import threading
from pathlib import Path

import numpy as np
import pytest

from dfsqkd import session
from dfsqkd.transport import TransportClosed, memory_pair

# pytest imports dfsqkd from src/ (pyproject's `pythonpath`); the CLI tests'
# child processes find it there too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def sift_halves():
    """Run the two halves of the sifting conversation against each other
    in-process: Alice holds (pair_slots, x, y), and Bob holds his records
    (slots, z, bits), which he declares. Returns (alice key, bob key). An
    exception on Bob's thread closes his link, so that Alice is not left
    waiting, and is raised here, unless all Bob saw was the close that
    Alice's own failure caused."""

    def run(pair_slots, x, y, slots, z, bits):
        a_link, b_link = memory_pair()
        out, bob_error = {}, []

        def bob():
            try:
                out["bob"] = session.bob_sift_exchange(
                    b_link, np.asarray(slots, dtype=np.int64), np.asarray(z), np.asarray(bits)
                )
            except BaseException as exc:  # noqa: BLE001 - raised below
                bob_error.append(exc)
                b_link.close()

        t = threading.Thread(target=bob)
        t.start()
        alice_error = None
        try:
            out["alice"], _ = session.alice_sift_exchange(a_link, np.asarray(pair_slots), np.asarray(x), np.asarray(y))
        except BaseException as exc:  # noqa: BLE001 - raised below
            alice_error = exc
        finally:
            a_link.close()
            t.join()
            b_link.close()
        if bob_error and not (alice_error is not None and isinstance(bob_error[0], TransportClosed)):
            raise bob_error[0]
        if alice_error is not None:
            raise alice_error
        return out["alice"], out["bob"]

    return run
