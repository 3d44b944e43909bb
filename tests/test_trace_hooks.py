"""The benchmark's span recorder still finds the names it wraps.

`perfbench/spans.py` replaces functions of `dfsqkd` by name to time each
layer of a traced run. A rename that drops one of those names would make
every traced benchmark operation fail; this test makes it fail here.
"""

from pathlib import Path

from dfsqkd.optics import DetectorParams, RandomWalkChannel
from dfsqkd.session import SessionConfig, run_session, simulate_quantum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans(monkeypatch, cfg: SessionConfig) -> list[dict]:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    recorder = spans.Recorder()
    recorder.install()
    try:
        run_session(cfg)
    finally:
        recorder.uninstall()
    return recorder.spans


def _span_names(monkeypatch, cfg: SessionConfig) -> set[str]:
    return {span["name"] for span in _spans(monkeypatch, cfg)}


def test_recorder_wraps_the_layers_of_a_session(monkeypatch):
    # Only an angle-dependent law on a varying channel draws channel angles.
    cfg = SessionConfig(protocol="bb84", duration_s=1.0, channel=RandomWalkChannel(0.0, 1e-4))
    names = _span_names(monkeypatch, cfg)
    assert {"session.sift", "transport.validate", "optics.channel", "protocol.born.bb84"} <= names


def test_recorder_finds_the_detector_layer_of_lossy_detectors(monkeypatch):
    # Ideal detectors skip the detector layer; lossy ones still call it.
    cfg = SessionConfig(duration_s=1.0, detectors=DetectorParams(efficiency=0.8, dark_count_prob=1e-4))
    assert {"optics.detect", "protocol.born.dfs2"} <= _span_names(monkeypatch, cfg)


def test_an_in_process_session_draws_its_prefix_once(monkeypatch):
    # The recorder counts pair slots on the span of this name, so a rename
    # reads 0 and a second call reads double.
    cfg = SessionConfig(duration_s=1.0)
    drawn = [span for span in _spans(monkeypatch, cfg) if span["name"] == "session.simulate_quantum"]
    assert [span["counts"] for span in drawn] == [{"pair_slots": len(simulate_quantum(cfg).pair_slots)}]
