"""The benchmark's span recorder still finds the names it wraps.

`perfbench/spans.py` replaces functions of `dfsqkd` by name to time each
layer of a traced run. A rename that drops one of those names would make
every traced benchmark operation fail; this test makes it fail here.
"""

from pathlib import Path

from dfsqkd.session import SessionConfig, run_session

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_recorder_wraps_the_layers_of_a_session(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    recorder = spans.Recorder()
    recorder.install()
    try:
        run_session(SessionConfig(duration_s=1.0))
    finally:
        recorder.uninstall()
    names = {span["name"] for span in recorder.spans}
    assert {"session.sift", "transport.validate", "optics.channel"} <= names
