"""One benchmark run: set up the stack, drive a workload, gate, report."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.engine import MappingRequest
from repro.workloads import problem_by_name

from gate import Gate, geomean, paper_panel, quality_reference, solo_sample
from stack import children_peak_rss_mb, launch, provenance
from workloads import (
    ITERATIONS,
    PROBLEMS,
    WARMUP_SEED_BASE,
    WORKLOADS,
    Record,
    RequestStream,
    closed_loop,
    serve_all,
    summarize,
)

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p50_ms.heavy": "ms",
    "latency_p90_ms.heavy": "ms",
    "goodput_rps": "1/s",
    "norm_edp_geo": "x",
    "peak_rss_mb": "MB",
}
#: Fresh stack launches per run; ``setup_s`` is their median.
SETUPS = 3
#: Responses re-served solo through an in-process engine (cohort bit-identity).
SOLO_SAMPLE = 10
#: Seeds per (problem, searcher) of the paper-quality panel.
PANEL_SEEDS = 2
PANEL_SEARCHERS = ("gradient", "annealing", "genetic", "random")


def panel_requests() -> list:
    """Iso-iteration panel: every problem x searcher at ``ITERATIONS``,
    on fixed seeds so the comparison repeats exactly on every run."""
    requests = []
    for name in PROBLEMS:
        for searcher in PANEL_SEARCHERS:
            for k in range(PANEL_SEEDS):
                requests.append(MappingRequest(
                    problem_by_name(name), searcher=searcher, iterations=ITERATIONS,
                    seed=WARMUP_SEED_BASE + 100_000 + k,
                    tag=f"panel-{name}-{searcher}-{k}",
                ))
    return requests


def run_provenance(root: Path, spec, seed: int, seconds: float) -> Dict[str, object]:
    """Provenance plus the workload's fixed parameters."""
    return provenance(root, {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "iterations": spec.iterations,
        "clients": spec.clients,
        "goodput_factor": spec.goodput_factor,
        "quality_count": spec.quality_count,
        "setups": SETUPS,
    })


def drive(workload: str, seed: int, seconds: float, setups: int = SETUPS):
    """Set the stack up ``setups`` times, keep the last, run the load, then
    serve the quality set and (for gradient workloads) the paper panel
    untimed through the router.

    Returns ``(setup times, load result, summary, quality records, panel
    records, router metrics snapshot after the load)``.  The stack is
    closed on return.
    """
    spec = WORKLOADS[workload]
    stream = RequestStream(workload, seed)
    setup_times: List[float] = []
    stack = None
    for _ in range(setups):
        if stack is not None:
            stack.close()
        stack, setup_s = launch(True, stream.warmup())
        setup_times.append(setup_s)
    try:
        result = closed_loop(stack, stream, seconds)
        summary = summarize(spec, result)
        # Counters of the timed load only, before the untimed requests.
        snapshot = stack.router.metrics_snapshot()
        quality_records = serve_all(stack, stream.quality_set(), http=False)
        panel = []
        if "gradient" in spec.searchers:
            panel = serve_all(stack, panel_requests(), http=False)
    finally:
        stack.close()
    return setup_times, result, summary, quality_records, panel, snapshot


def gate_records(
    gate: Gate, records: List[Record], seed: int, solo: bool,
) -> int:
    """Gate every served response; returns the number of bad ones."""
    bad = 0
    served = [r for r in records if r.ok]
    for record in served:
        if not gate.check(record.request, record.response):
            bad += 1
    if solo and served:
        picks = solo_sample(SOLO_SAMPLE, len(served), seed)
        bad += gate.check_solo([(served[i].request, served[i].response) for i in picks])
    return bad


def quality(records: List[Record]) -> float:
    """Geomean normalized EDP of the quality set (NaN if any failed)."""
    if not records or any(not r.ok for r in records):
        return float("nan")
    return geomean(r.response.norm_edp for r in records)


def check_quality(gate: Gate, workload: str, norm_edp_geo: float) -> Tuple[Optional[float], str]:
    """Compare ``norm_edp_geo`` with ``quality_ref.json``, exactly; a
    mismatch is a gate failure.  Returns the reference and how it applied."""
    reference, note = quality_reference(workload)
    if reference is not None and reference != norm_edp_geo:
        gate.failures.append(
            f"norm_edp_geo {norm_edp_geo!r} != recorded {reference!r}: mapping "
            "quality changed (re-record perfbench/quality_ref.json only for an "
            "intended change)")
    return reference, note


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        root: Path, out_dir: Path) -> Dict[str, object]:
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    spec = WORKLOADS[workload]
    if trace:
        from layers import traced_run

        return traced_run(workload, seed, seconds, root=root, out_dir=out_dir)
    setup_times, result, summary, quality_records, panel, snapshot = drive(
        workload, seed, seconds)
    untimed = quality_records + panel
    gate = Gate()
    bad = gate_records(gate, result.records + untimed, seed,
                       solo="gradient" not in spec.searchers)
    norm_edp_geo = quality(quality_records)
    reference, reference_note = check_quality(gate, workload, norm_edp_geo)
    attempted = summary["attempted"] + len(untimed)
    failed = summary["failed"] + sum(not r.ok for r in untimed) + bad
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": summary["throughput_rps"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p90_ms": summary["latency_p90_ms"],
        "latency_p50_ms.heavy": summary["latency_p50_ms.heavy"],
        "latency_p90_ms.heavy": summary["latency_p90_ms.heavy"],
        "goodput_rps": summary["goodput_rps"],
        "norm_edp_geo": norm_edp_geo,
        "peak_rss_mb": children_peak_rss_mb(),
    }
    panel_view = paper_panel([r.response for r in panel if r.ok]) if panel else None
    report = {
        "workload": workload,
        "provenance": run_provenance(root, spec, seed, seconds),
        "setup_times_s": setup_times,
        "fail_ratio": failed / max(attempted, 1),
        "gate": {"checked": gate.checked, "failures": gate.failures[:20],
                 "quality_reference": reference, "quality_note": reference_note},
        "summary": summary,
        "router": snapshot.get("router", {}).get("counters"),
        "paper_panel": panel_view,
    }
    _write(out_dir, f"{workload}-seed{seed}-trace0.json", report)
    _print_report(report, values)
    return {
        "correct": not gate.failures and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in END_TO_END.items()},
    }


def _write(out_dir: Path, name: str, payload: Dict[str, object]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(json.dumps(payload, indent=2, default=str))


def _print_report(report: Dict[str, object], values: Dict[str, float]) -> None:
    print(f"# workload {report['workload']}")
    print("# provenance " + json.dumps(report["provenance"], default=str))
    for name, unit in END_TO_END.items():
        print(f"{name:24s} {values[name]:.6g} {unit}")
    print(f"{'fail_ratio':24s} {report['fail_ratio']:.6g} share")
    print("# load " + json.dumps(report["summary"]))
    panel = report["paper_panel"]
    if panel:
        for problem, row in panel["per_problem_norm_edp"].items():
            cells = "  ".join(f"{s}={v:.4g}" for s, v in row.items())
            print(f"# norm_edp {problem:14s} {cells}")
        print("# iso-iteration geomean ratios " + json.dumps(panel["iso_iteration_ratios"]))
    for failure in report["gate"]["failures"]:
        print(f"# GATE FAILURE {failure}")
