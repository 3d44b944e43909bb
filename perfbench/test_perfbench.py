"""The benchmark's own test, on tiny sessions: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().split("\n")[-1])


def test_spec_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        m[:3] for m in spans.LAYER_METRICS
    ]
    assert set(LISTED) <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", LISTED)
def test_every_end_to_end_metric_with_its_unit(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["session-static", "tcp-drift"])
def test_every_per_layer_metric_with_its_unit(workload):
    result = smoke(workload, 1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m[0]: m[1] for m in spans.LAYER_METRICS}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["session.simulate_quantum.busy_s"] > 0
    assert values["transport.frames.HELLO"] == 2 and values["transport.frames.BYE"] == 1


def _corrupting(monkeypatch, corrupt):
    original = run._finish

    def finish(proc, deadline):
        result = original(proc, deadline)
        if "summary" in result:
            corrupt(result["summary"])
        return result

    monkeypatch.setattr(run, "_finish", finish)


def test_a_corrupted_summary_is_counted_as_failed(monkeypatch):
    _corrupting(monkeypatch, lambda s: s["qber"].update(qber=s["qber"]["qber"] + 0.2))
    ops = run.run_workload("session-static", 3, 0.1, trace=False, smoke=True)
    assert ops and all(op["failure"]["type"] == "CheckFailed" for op in ops)
    assert all(m["value"] is None for m in run.end_to_end_metrics(ops).values())


def test_a_wrong_slot_count_is_counted_as_failed(monkeypatch):
    _corrupting(monkeypatch, lambda s: s.update(n_slots=s["n_slots"] - 1))
    ops = run.run_workload("session-static", 3, 0.1, trace=False, smoke=True)
    assert all("n_slots" in op["failure"]["message"] for op in ops)


def test_a_sweep_row_off_the_prediction_fails():
    header = "theta_deg,protocol,n_sifted,qber,qber_stderr,key_rate,secure"
    rows = [f"{t}.0,{p},1000,{run.predicted_qber(p, t)},0.01,0.5,true"
            for p in run.SWEEP_PROTOCOLS for t in run.SWEEP_THETAS]
    assert run.check_sweep_csv("\n".join([header, *rows])) == ([], 20000)
    rows[-1] = f"45.0,bb84,1000,{run.predicted_qber('bb84', 45) + 0.1},0.01,0.5,true"  # 10 stderr off
    problems, _ = run.check_sweep_csv("\n".join([header, *rows]))
    assert len(problems) == 1
    problems, _ = run.check_sweep_csv("\n".join([header, *rows[:-1]]))
    assert problems


def test_no_sources_means_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "spans.py", "child.py"):
        (bench / f).write_text((HERE / f).read_text())
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
