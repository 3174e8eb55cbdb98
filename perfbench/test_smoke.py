"""Smoke test of the benchmark on tiny grids and short runs.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload path through the tracer and the output checks, and
requires the exact counters to repeat between two traced runs.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SHORT_MARCH = {"grid.n_points": 32, "run.dt": 0.002, "run.t_final": 0.2,
               "run.stride": 10, "run.fit_window": [0.1, 0.2]}
TINY = {
    "run_decay": SHORT_MARCH,
    "sweep_k": SHORT_MARCH,
    # The H2 scaling checks take a median over states, so all 20 stay; at
    # N=32 the exact H1_SUB(4.4) residual of some states exceeds 1e-8.
    "verify_battery": {"grid.n_points": 64, "run.dt": 0.001,
                       "run.t_final": 0.1, "run.stride": 10,
                       "verify.poincare_fields": 2,
                       "verify.product_fields": 2},
}
STEPS = {"run_decay": 100, "sweep_k": 300, "verify_battery": 100}


def _bench() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_runs_repeat_exact_counters(workload):
    reports = [run.run_workload(workload, 1, 0, True, TINY[workload])
               for _ in range(2)]
    for report in reports:
        assert report["correct"], report["problems"]
        assert report["absent"] == []
        assert set(report["metrics"]) == {m["name"]
                                          for m in _bench()["per_layer"]}
    exact = [{name: m["value"] for name, m in r["metrics"].items()
              if m["unit"] == "count"} for r in reports]
    assert exact[0] == exact[1]
    assert exact[0]["integrator.steps"] == STEPS[workload]
    assert exact[0]["spectral.fft.calls"] > 0
    assert exact[0]["spectral.fft.points"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    report = run.run_workload("verify_battery", 2, 0, False,
                              TINY["verify_battery"])
    assert report["correct"], report["problems"]
    assert report["failed"] == 0
    names = {m["name"] for m in _bench()["end_to_end"]}
    assert set(report["metrics"]) == names
    for name in names:
        assert report["metrics"][name]["value"] > 0
    # one host-speed probe before and one after every measured invocation
    probes = report["samples"]["probe_s"]
    assert len(probes) == len(report["samples"]["raw_wall_s"]) >= 1
    assert all(len(p) == 2 and min(p) > 0 for p in probes)


def _run_once(workload: str, work: Path) -> tuple[Path, dict]:
    out_dir = work / "out"
    out_dir.mkdir()
    config = work / "config.yaml"
    run.make_config(workload, 3, config, out_dir, TINY[workload])
    invoke = run.Invoker(work, config, run.WORKLOADS[workload]["argv"],
                         float("inf"))
    inv = invoke()
    assert not inv["problems"], inv["problems"]
    values, problems = run.extract(workload, out_dir, inv["stdout"])
    assert not problems
    return out_dir, values


def test_output_check_catches_broken_certificates_and_drift(tmp_path):
    out_dir, values = _run_once("run_decay", tmp_path)
    assert run.compare(values, values) == []

    drifted = dict(values, **{"energy.final": values["energy.final"] * 1.01})
    assert any("energy.final" in p for p in run.compare(values, drifted))
    column = list(values["csv.energy"])
    column[-1] *= 1 + 1e-6
    assert run.compare(values, dict(values, **{"csv.energy": column}))

    summary_path = out_dir / "decay.json"
    summary = json.loads(summary_path.read_text())
    summary["identity_residuals"]["L2"] = 1e-6
    summary["status"] = "identity_failure"
    summary_path.write_text(json.dumps(summary))
    _, problems = run.extract("run_decay", out_dir, "")
    assert any("L2" in p for p in problems)
    assert any("status" in p for p in problems)

    (out_dir / "decay.svg").unlink()
    _, problems = run.extract("run_decay", out_dir, "")
    assert problems == ["missing output decay.svg"]
