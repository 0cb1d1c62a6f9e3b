"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs once for one second through the real command, at the
benchmark's own set-up count and quality set, and must print every
end-to-end metric named in ``BENCHMARK.json`` with its unit and the
recorded ``norm_edp_geo``; the traced run must print every per-layer
metric.  A deliberately corrupted response, and a quality figure that
differs from ``quality_ref.json``, must each trip the correctness gate.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, timeout: float = 300.0):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], float)
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_benchmark_json_names_match_the_code():
    from layers import PER_LAYER
    from measure import END_TO_END
    from workloads import WORKLOADS

    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    from gate import quality_reference

    proc, result = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", "0")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] is True and result["failed"] == 0
    _assert_metrics(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in proc.stdout.split(json.dumps(result))[0]
    reference, note = quality_reference(workload)
    if reference is not None:
        assert result["metrics"]["norm_edp_geo"]["value"] == reference
    else:
        pytest.skip(f"quality reference not compared: {note}")


def test_traced_run_prints_every_per_layer_metric():
    proc, result = _run("--workload", "tiny_http", "--seed", "3", "--seconds", "1",
                        "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] is True
    _assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["tracing.overhead_ratio"]["value"] > 0.5
    assert result["metrics"]["http.added_ms"]["value"] != 0.0


def test_without_the_repository_the_command_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny_http", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _served_pair():
    from repro.engine import MappingEngine, MappingRequest
    from repro.workloads import problem_by_name
    from stack import engine_config

    request = MappingRequest(problem_by_name("BERT_QKV"), searcher="random",
                             iterations=4, seed=11, tag="t")
    return request, MappingEngine(None, engine_config()).map(request)


def test_gate_accepts_a_served_response_and_trips_on_an_altered_edp():
    from gate import Gate

    request, response = _served_pair()
    gate = Gate()
    assert gate.check(request, response)
    altered = dataclasses.replace(
        response, stats=dataclasses.replace(response.stats, cycles=response.stats.cycles + 1))
    assert altered.stats.edp != response.stats.edp
    assert not gate.check(request, altered)
    assert not gate.check(request, dataclasses.replace(
        response, norm_edp=response.norm_edp * (1 + 2 ** -40)))
    assert len(gate.failures) == 2
    assert gate.check_solo([(request, response)]) == 0
    assert gate.check_solo([(request, altered)]) == 1


def test_a_corrupted_response_fails_the_run(monkeypatch, tmp_path):
    import measure

    real_drive = measure.drive

    def corrupting_drive(*args, **kwargs):
        setups, result, summary, quality_records, panel, snapshot = real_drive(*args, **kwargs)
        record = next(r for r in result.records if r.ok)
        record.response = dataclasses.replace(
            record.response, norm_edp=record.response.norm_edp * 1.5)
        return setups, result, summary, quality_records, panel, snapshot

    monkeypatch.setattr(measure, "drive", corrupting_drive)
    result = measure.run("tiny_http", 3, 1.0, False, root=ROOT, out_dir=tmp_path)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_a_changed_quality_figure_fails_the_run(monkeypatch, tmp_path, capsys):
    import gate
    import measure

    recorded = json.loads(gate.QUALITY_REF.read_text())
    if recorded["host"] != gate.quality_host():
        pytest.skip(f"quality reference recorded on {recorded['host']}")
    recorded["norm_edp_geo"]["tiny_http"] *= 1 + 2 ** -40
    changed = tmp_path / "quality_ref.json"
    changed.write_text(json.dumps(recorded))
    monkeypatch.setattr(gate, "QUALITY_REF", changed)
    result = measure.run("tiny_http", 3, 1.0, False, root=ROOT, out_dir=tmp_path)
    assert result["correct"] is False
    assert "GATE FAILURE norm_edp_geo" in capsys.readouterr().out
