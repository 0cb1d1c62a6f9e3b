"""The traced run: per-layer metrics from spans, stages and the layer ledger.

Three sources, none of them inside ``src/``:

* **Spans** — :class:`SpanRecorder` wraps public functions of each layer
  (``MapSpace.project``, ``Surrogate.objective_and_gradient_batch``,
  ``CostModel.evaluate_megabatch``, ...) for the duration of the traced
  replay.  A span records name, start, end, parent span and request id;
  spans stay in memory and are written out when the run ends.  A span's
  self time is its duration minus the time its child spans cover.
* **Stages and counters** — the ``stages`` dict every response carries
  (admission/batch wait, prewarm, kernel, search rounds, finalize, router
  overhead) and ``ClusterRouter.metrics_snapshot()``, from one run of the
  workload's load against a fresh stack.
* **The layer ledger** — the same seeded requests through progressively
  deeper stacks: ``Searcher.run`` on a raw oracle -> ``engine.map`` ->
  ``MappingServer.submit`` -> ``ClusterRouter.submit`` -> HTTP.  Each
  level starts from fresh state; the difference of adjacent medians is
  the cost the outer layer adds.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import pipeline as core_pipeline
from repro.core.encoding import MappingEncoder
from repro.core.pipeline import MindMappings
from repro.core.surrogate import Surrogate
from repro.costmodel import CachedOracle, CostModel, default_accelerator
from repro.engine import MappingEngine, MappingRequest, MappingResponse, make_searcher
from repro.mapspace import MapSpace
from repro.search import (
    GeneticSearcher,
    RandomSearcher,
    Searcher,
    SimulatedAnnealingSearcher,
)
from repro.core import GradientSearcher
from repro.serve import server as serve_server
from repro.serve.server import MappingServer

from gate import Gate
from measure import drive, gate_records, run_provenance
from stack import engine_config, launch
from workloads import WORKLOADS, Record, RequestStream, caller, quantile

ALGORITHMS = ("cnn-layer", "gemm", "mttkrp")
#: Requests replayed through every ledger level.
LEDGER_REQUESTS = {"mm_gradient": 15, "tiny_http": 60}
#: Ledger requests come from this far into the stream, so they never
#: pre-fill response-cache entries of the workload's own leading requests.
LEDGER_OFFSET = 500_000
#: Untraced/traced replays of the serving level, alternated; the minimum
#: wall time per arm gives the tracing overhead.
OVERHEAD_PAIRS = 2

#: Per-layer metrics: name -> unit.  Every traced run reports all of them;
#: a layer the workload does not exercise reads 0.
PER_LAYER = {
    "http.added_ms": "ms",
    "cluster.added_ms": "ms",
    "cluster.router_overhead_ms": "ms",
    "cluster.failovers": "count",
    "serve.admission_wait_ms": "ms",
    "serve.batch_wait_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.rejected": "count",
    "serve.cache_hit_ratio": "share",
    "serve.vs_map_ratio": "x",
    "cohort.prewarm_ms": "ms",
    "costmodel.kernel_ms": "ms",
    "costmodel.lanes_per_call": "count",
    "costmodel.us_per_lane": "us",
    "costmodel.oracle_hit_ratio": "share",
    "engine.finalize_ms": "ms",
    "search.rounds_ms": "ms",
    "search.ask_us": "us",
    "search.tell_us": "us",
    "surrogate.fwd_bwd_us": "us",
    "surrogate.calls": "count",
    "surrogate.rows_per_call": "count",
    "encoding.decode_us": "us",
    "encoding.decode_calls": "count",
    "mapspace.project_us": "us",
    "mapspace.sample_us": "us",
    "mapspace.sample_calls": "count",
    **{f"phase1.dataset_s.{a}": "s" for a in ALGORITHMS},
    **{f"phase1.train_s.{a}": "s" for a in ALGORITHMS},
    "phase1.costmodel.lanes_per_call": "count",
    "phase1.costmodel.us_per_lane": "us",
    "phase1.mapspace.sample_us": "us",
    "phase1.mapspace.sample_calls": "count",
    "ledger.search_run_ms": "ms",
    "ledger.engine_map_ms": "ms",
    "ledger.server_submit_ms": "ms",
    "ledger.router_submit_ms": "ms",
    "ledger.http_ms": "ms",
    **{f"self_ms.{layer}": "ms" for layer in (
        "serve.cohort", "search", "surrogate", "encoding", "mapspace", "costmodel")},
    "tracing.overhead_ratio": "x",
}


_INHERITED = object()


class SpanRecorder:
    """Wraps public functions with span capture between :meth:`install` and
    :meth:`uninstall`.

    Spans are tuples ``(id, name, layer, start, end, parent, request,
    size)`` appended under a lock; the parent is the innermost open span
    on the same thread, and the request id is inherited from it unless
    the wrapped call names its own.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, func: Callable, name: str, layer: str,
              size: Optional[Callable] = None,
              request: Optional[Callable] = None) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent = stack[-1] if stack else (0, "")
            span_id = next(recorder._ids)
            request_id = request(args) if request is not None else parent[1]
            stack.append((span_id, request_id))
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                lanes = size(args) if size is not None else 1
                with recorder._lock:
                    recorder.spans.append(
                        (span_id, name, layer, start, end, parent[0], request_id, lanes))

        return wrapper

    def patch(self, owner: object, attr: str, name: str, layer: str, **kw) -> None:
        own = vars(owner).get(attr, _INHERITED)
        raw = getattr(owner, attr) if own is _INHERITED else own
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, name, layer, **kw))
        else:
            replacement = self._wrap(raw, name, layer, **kw)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        self.patch(serve_server, "serve_batch", "cohort.serve_batch", "serve.cohort",
                   size=lambda a: len(a[1]),
                   request=lambda a: "+".join(r.tag for r in a[1]))
        self.patch(MappingEngine, "map", "engine.map", "engine",
                   request=lambda a: a[1].tag)
        self.patch(Searcher, "run", "search.run", "search")
        for cls in (GradientSearcher, SimulatedAnnealingSearcher, GeneticSearcher,
                    RandomSearcher):
            for attr in ("ask", "tell"):
                self.patch(cls, attr, f"search.{attr}", "search")
        self.patch(Surrogate, "objective_and_gradient_batch", "surrogate.fwd_bwd",
                   "surrogate", size=lambda a: len(a[1]))
        self.patch(Surrogate, "predict_log2_norm_edp", "surrogate.predict",
                   "surrogate", size=lambda a: len(a[1]))
        self.patch(MappingEncoder, "decode", "encoding.decode", "encoding")
        self.patch(MapSpace, "project", "mapspace.project", "mapspace")
        self.patch(MapSpace, "sample", "mapspace.sample", "mapspace")
        self.patch(CostModel, "evaluate", "costmodel.evaluate", "costmodel")
        self.patch(CostModel, "evaluate_batch", "costmodel.evaluate_batch",
                   "costmodel", size=lambda a: len(a[1]))
        self.patch(CostModel, "evaluate_megabatch", "costmodel.evaluate_megabatch",
                   "costmodel", size=lambda a: len(a[1]))
        for attr in ("evaluate_many", "evaluate_many_grouped", "prewarm_grouped"):
            self.patch(CachedOracle, attr, f"costmodel.oracle.{attr}", "costmodel")
        self.patch(core_pipeline, "generate_dataset", "phase1.dataset", "phase1",
                   request=lambda a: a[0])
        self.patch(MindMappings, "from_dataset", "phase1.train", "phase1",
                   request=lambda a: a[1].algorithm)

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._patches):
            if own is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            covered[span[5]] = covered.get(span[5], 0.0) + (span[4] - span[3])
        return {span[0]: (span[4] - span[3]) - covered.get(span[0], 0.0)
                for span in self.spans}

    def dump(self, path: Path) -> None:
        keys = ("id", "name", "layer", "start", "end", "parent", "request", "size")
        path.write_text("\n".join(json.dumps(dict(zip(keys, span))) for span in self.spans))


# ----------------------------------------------------------------------
# Ledger levels
# ----------------------------------------------------------------------


def _pipelines(searchers: Sequence[str]) -> Dict[str, MindMappings]:
    """Phase 1 in process, shared by every in-process level."""
    if "gradient" not in searchers:
        return {}
    engine = MappingEngine(default_accelerator(), engine_config())
    return {algorithm: engine.pipeline_for(algorithm) for algorithm in ALGORITHMS}


def _fresh_engine(pipelines: Dict[str, MindMappings]) -> MappingEngine:
    engine = MappingEngine(default_accelerator(), engine_config())
    for algorithm, pipeline in pipelines.items():
        engine.install_pipeline(algorithm, pipeline)
    return engine


def _closed(call: Callable[[MappingRequest], MappingResponse],
            requests: Sequence[MappingRequest], clients: int,
            ) -> Tuple[List[float], List[MappingResponse], float]:
    """Serve ``requests`` with ``clients`` closed-loop callers; returns
    per-request latencies (ms), responses in order, and wall seconds."""
    latencies = [0.0] * len(requests)
    responses: List[Optional[MappingResponse]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            started = time.perf_counter()
            responses[index] = call(requests[index])
            latencies[index] = (time.perf_counter() - started) * 1000.0

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for future in [pool.submit(worker) for _ in range(clients)]:
            future.result()
    return latencies, responses, time.perf_counter() - started


def _search_run(pipelines, requests, clients):
    accelerator = default_accelerator()

    def call(request: MappingRequest) -> MappingResponse:
        space = MapSpace(request.problem, accelerator)
        config = {}
        if request.searcher in ("gradient", "mm"):
            config["surrogate"] = pipelines[request.problem.algorithm].surrogate
        else:
            config["cost_model"] = CostModel(accelerator)
        result = make_searcher(request.searcher, space, **config).run(
            request.iterations, seed=request.seed)
        return result

    latencies, _results, wall = _closed(call, requests, clients)
    return latencies, [], wall


def _engine_map(pipelines, requests, clients):
    engine = _fresh_engine(pipelines)
    return _closed(engine.map, requests, clients)


def _server_submit(pipelines, requests, clients):
    engine = _fresh_engine(pipelines)
    with MappingServer(engine) as server:
        return _closed(lambda r: server.submit(r).result(timeout=300.0),
                       requests, clients)


def _stack_level(stream: RequestStream, requests, clients, http: bool):
    stack, _ = launch(http, stream.warmup())
    try:
        make_call = caller(stack, http)
        local = threading.local()
        calls: List[Callable] = []

        def call(request: MappingRequest) -> MappingResponse:
            if not hasattr(local, "call"):
                local.call = make_call()
                calls.append(local.call)
            return local.call(request)

        try:
            return _closed(call, requests, clients)
        finally:
            for made in calls:
                getattr(made, "close", lambda: None)()
    finally:
        stack.close()


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _by_name(spans: Sequence[Tuple]) -> Dict[str, List[Tuple]]:
    by_name: Dict[str, List[Tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    return by_name


def _mean_us(spans: Sequence[Tuple]) -> float:
    return _mean([(s[4] - s[3]) * 1e6 for s in spans])


def _kernel_metrics(by_name: Dict[str, List[Tuple]]) -> Tuple[float, float]:
    """``(lanes per call, microseconds per lane)`` over every cost-kernel span."""
    kernels = [s for n in ("costmodel.evaluate", "costmodel.evaluate_batch",
                           "costmodel.evaluate_megabatch") for s in by_name.get(n, [])]
    lanes = sum(s[7] for s in kernels)
    if not lanes:
        return 0.0, 0.0
    return lanes / len(kernels), sum(s[4] - s[3] for s in kernels) * 1e6 / lanes


def _phase1_metrics(spans: Sequence[Tuple]) -> Dict[str, float]:
    """Phase-1 times per algorithm, and the cost kernel and map-space
    sampling as dataset generation drives them."""
    metrics: Dict[str, float] = {}
    for span in spans:
        if span[1] == "phase1.dataset":
            metrics[f"phase1.dataset_s.{span[6]}"] = span[4] - span[3]
        elif span[1] == "phase1.train":
            metrics[f"phase1.train_s.{span[6]}"] = span[4] - span[3]
    by_name = _by_name(spans)
    lanes_per_call, us_per_lane = _kernel_metrics(by_name)
    metrics.update({
        "phase1.costmodel.lanes_per_call": lanes_per_call,
        "phase1.costmodel.us_per_lane": us_per_lane,
        "phase1.mapspace.sample_us": _mean_us(by_name.get("mapspace.sample", [])),
        "phase1.mapspace.sample_calls": float(len(by_name.get("mapspace.sample", []))),
    })
    return metrics


def _span_metrics(recorder: SpanRecorder, n_requests: int) -> Dict[str, float]:
    by_name = _by_name(recorder.spans)

    def mean_us(*names: str) -> float:
        return _mean_us([s for n in names for s in by_name.get(n, [])])

    def count(*names: str) -> int:
        return sum(len(by_name.get(n, [])) for n in names)

    surrogate = by_name.get("surrogate.fwd_bwd", []) + by_name.get("surrogate.predict", [])
    lanes_per_call, us_per_lane = _kernel_metrics(by_name)
    self_times = recorder.self_times()
    per_layer_self: Dict[str, float] = {}
    for span in recorder.spans:
        per_layer_self[span[2]] = per_layer_self.get(span[2], 0.0) + self_times[span[0]]
    metrics = {
        "search.ask_us": mean_us("search.ask"),
        "search.tell_us": mean_us("search.tell"),
        "surrogate.fwd_bwd_us": mean_us("surrogate.fwd_bwd"),
        "surrogate.calls": len(surrogate) / n_requests,
        "surrogate.rows_per_call": _mean([s[7] for s in surrogate]),
        "encoding.decode_us": mean_us("encoding.decode"),
        "encoding.decode_calls": count("encoding.decode") / n_requests,
        "mapspace.project_us": mean_us("mapspace.project"),
        "mapspace.sample_us": mean_us("mapspace.sample"),
        "mapspace.sample_calls": count("mapspace.sample") / n_requests,
        "costmodel.lanes_per_call": lanes_per_call,
        "costmodel.us_per_lane": us_per_lane,
    }
    for layer in ("serve.cohort", "search", "surrogate", "encoding", "mapspace",
                  "costmodel"):
        metrics[f"self_ms.{layer}"] = per_layer_self.get(layer, 0.0) * 1000.0 / n_requests
    return metrics


def _stage_metrics(records: Sequence[Record], snapshot: Dict) -> Dict[str, float]:
    stages: Dict[str, List[float]] = {}
    served = [r.response for r in records if r.ok]
    for response in served:
        for key in ("admission_wait_s", "batch_wait_s", "prewarm_s", "kernel_s",
                    "search_rounds_s", "finalize_s", "router_overhead_s"):
            stages.setdefault(key, []).append(response.stages.get(key, 0.0) * 1000.0)
    shard = snapshot.get("shards", {}).get("0", {})
    counters = shard.get("counters", {})
    router = snapshot.get("router", {}).get("counters", {})
    served_count = max(counters.get("served", 0), 1)
    oracle = shard.get("oracle_cache") or {}
    return {
        "serve.admission_wait_ms": _mean(stages.get("admission_wait_s", [])),
        "serve.batch_wait_ms": _mean(stages.get("batch_wait_s", [])),
        "cohort.prewarm_ms": _mean(stages.get("prewarm_s", [])),
        "costmodel.kernel_ms": _mean(stages.get("kernel_s", [])),
        "search.rounds_ms": _mean(stages.get("search_rounds_s", [])),
        "engine.finalize_ms": _mean(stages.get("finalize_s", [])),
        "cluster.router_overhead_ms": _mean(stages.get("router_overhead_s", [])),
        "cluster.failovers": float(router.get("failovers", 0)),
        "serve.rejected": float(counters.get("rejected", 0) + router.get("rejected", 0)),
        "serve.batch_size_mean": float(shard.get("batch_size", {}).get("mean") or 0.0),
        "serve.cache_hit_ratio": (counters.get("response_cache_hits", 0)
                                  + counters.get("collapsed", 0)) / served_count,
        "costmodel.oracle_hit_ratio": float(oracle.get("hit_rate") or 0.0),
    }


def _identical(a: MappingResponse, b: MappingResponse) -> bool:
    return a.mapping == b.mapping and a.stats.edp == b.stats.edp and a.norm_edp == b.norm_edp


def traced_run(workload: str, seed: int, seconds: float, *, root: Path,
               out_dir: Path) -> Dict[str, object]:
    spec = WORKLOADS[workload]
    stream = RequestStream(workload, seed)
    count = LEDGER_REQUESTS[workload]
    requests = [stream.at(LEDGER_OFFSET + i) for i in range(count)]
    clients = spec.clients
    gate = Gate()
    recorder = SpanRecorder()
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    recorder.install()
    try:
        pipelines = _pipelines(spec.searchers)
        phase1_spans = list(recorder.spans)
        if phase1_spans:
            metrics.update(_phase1_metrics(phase1_spans))
        recorder.uninstall()
        recorder.clear()
        # Ledger, untraced: each level from fresh state, same requests.
        # The library levels are single-caller; the serving levels run at
        # the workload's heaviest concurrency.
        ledger = {
            "search_run": _search_run(pipelines, requests, 1),
            "engine_map": _engine_map(pipelines, requests, 1),
            "server_submit": _server_submit(pipelines, requests, clients),
            "router_submit": _stack_level(stream, requests, clients, http=False),
            "http": _stack_level(stream, requests, clients, http=True),
        }
        # The serving level, untraced vs traced.
        walls: Dict[bool, List[float]] = {False: [], True: []}
        traced_spans: List[Tuple] = []
        for _ in range(OVERHEAD_PAIRS):
            for traced in (False, True):
                if traced:
                    recorder.clear()
                    recorder.install()
                try:
                    _, responses, wall = _server_submit(pipelines, requests, clients)
                finally:
                    if traced:
                        recorder.uninstall()
                        traced_spans = list(recorder.spans)
                walls[traced].append(wall)
                for request, response in zip(requests, responses):
                    gate.check(request, response)
        recorder.spans = traced_spans
        metrics.update(_span_metrics(recorder, count))
        recorder.spans = phase1_spans + traced_spans
    finally:
        recorder.uninstall()
    metrics["tracing.overhead_ratio"] = min(walls[True]) / min(walls[False])
    for level, (latencies, _responses, _wall) in ledger.items():
        metrics[f"ledger.{level}_ms"] = quantile(latencies, 0.5)
    metrics["cluster.added_ms"] = (metrics["ledger.router_submit_ms"]
                                   - metrics["ledger.server_submit_ms"])
    metrics["http.added_ms"] = metrics["ledger.http_ms"] - metrics["ledger.router_submit_ms"]
    metrics["serve.vs_map_ratio"] = ledger["engine_map"][2] / min(walls[False])
    # Every level must answer every request identically, bit for bit.
    reference = ledger["engine_map"][1]
    for level in ("server_submit", "router_submit", "http"):
        for request, expected, got in zip(requests, reference, ledger[level][1]):
            if not _identical(expected, got):
                gate.failures.append(f"{request.tag}: {level} differs from engine.map")
    for request, response in zip(requests, reference):
        gate.check(request, response)
    # Stages and counters from the workload's own load.
    _setups, result, _summary, quality_records, panel, snapshot = drive(
        workload, seed, seconds, setups=1)
    records = result.records + quality_records + panel
    gate_records(gate, records, seed, solo=False)
    metrics.update(_stage_metrics(result.records, snapshot))
    failed = len(gate.failures) + sum(not r.ok for r in records)
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.dump(out_dir / f"{workload}-seed{seed}-spans.jsonl")
    report = {
        "workload": workload,
        "provenance": dict(run_provenance(root, spec, seed, seconds),
                           ledger_requests=count),
        "metrics": metrics,
        "overhead_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "gate": {"checked": gate.checked, "failures": gate.failures[:20]},
    }
    (out_dir / f"{workload}-seed{seed}-trace1.json").write_text(
        json.dumps(report, indent=2, default=str))
    print(f"# workload {workload} (traced)")
    print("# provenance " + json.dumps(report["provenance"], default=str))
    for name, unit in PER_LAYER.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    for failure in gate.failures[:20]:
        print(f"# GATE FAILURE {failure}")
    return {
        "correct": not gate.failures and failed == 0,
        "attempted": int(len(records) + count * (len(ledger) + 2 * OVERHEAD_PAIRS)),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in PER_LAYER.items()},
    }
