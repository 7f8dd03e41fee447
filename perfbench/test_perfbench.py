"""Tests of the benchmark itself, at tiny scale.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import run

assert run.ensure_importable()

from perfbench import workloads  # noqa: E402
from repro.runtime import ScenarioOutcome  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _main(capsys, workload: str, trace: int, seed: int = 3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)],
                    scale=workloads.TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    provenance = json.loads(lines[-2])["provenance"]
    return code, provenance, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_metric_with_its_unit(capsys, workload, trace):
    code, provenance, result = _main(capsys, workload, trace)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert provenance["backends_run"] == ["analytic"]
    assert provenance["seed"] == 3 and provenance["host.probe_s"] > 0


def test_traced_counts_repeat_exactly(capsys):
    counts = []
    for _ in range(2):
        _, _, result = _main(capsys, "chain_storm", 1)
        counts.append({name: metric["value"]
                       for name, metric in result["metrics"].items()
                       if metric["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["sim.events"] > 0 and counts[0]["runtime.builds"] > 0


def test_gate_trips_on_a_corrupted_outcome(capsys, monkeypatch):
    real_sweep = workloads.run_sweep

    def corrupting_sweep(*args, **kwargs):
        result = real_sweep(*args, **kwargs)
        result.outcomes[0] = dataclasses.replace(result.outcomes[0],
                                                 events_processed=-1)
        return result

    monkeypatch.setattr(workloads, "run_sweep", corrupting_sweep)
    code, _, result = _main(capsys, "paper_grid", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_gate_trips_when_passes_differ():
    def outcome(name, events):
        return ScenarioOutcome(
            scenario_name=name, scheduler_name="FCFS", seed=1, duration=0.1,
            events_processed=events)

    reference = workloads.Pass(1.0, [outcome("a", 5)], {"a": 1.0}, 0.0, 1.0)
    other = workloads.Pass(1.0, [outcome("a", 6)], {"a": 1.0}, 0.0, 1.0)
    attempted, failed, problems = run.gate([reference, other])
    assert attempted == 2 and failed == 0
    assert problems == ["pass 1 differs from pass 0 in ['a']"]


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", Path(tmp_path))
    assert run.main(["--workload", "paper_grid", "--seed", "1"]) == 2
