"""Seeded request streams and the closed-loop load generator that drives them.

All workloads use the same five problems and drive the HTTP gateway:

* ``mm_gradient`` — closed loop, one connection, Mind Mappings gradient
  searches.  The surrogate forward/backward and the scalar decode/project
  dominate; gradient requests bypass cohorts.
* ``tiny_http`` — closed loop, two connections, 4-iteration random
  searches where a Zipf-weighted hot catalog makes about half the
  requests repeats.  Gateway, router RPC, batch wait and the response
  cache dominate.

Every stream is a pure function of ``(workload, seed, index)``, so a
seed fixes the inputs whatever the host's speed: the order of (problem,
searcher) combos, each search's own seed, ``tiny_http``'s hot catalog and
its repeat pattern all come from the seed.  Measured request seeds stay
below :data:`WARMUP_SEED_BASE`, warm-up seeds sit above it.

``norm_edp_geo`` comes from a separate *quality set*: the first
``quality_count`` requests of the stream on the fixed :data:`TRACE_SEED`,
served untimed after the measuring window.  It is the same set on every
run and every seed, so the figure repeats exactly and a change to mapping
quality shows on any seed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import MappingRequest, MappingResponse
from repro.workloads import problem_by_name

from stack import HttpClient, decode_response

PROBLEMS = ("ResNet_Conv4", "AlexNet_Conv2", "BERT_QKV", "BERT_FFN1", "MTTKRP_0")
#: Iteration count of ``mm_gradient`` and of the paper-quality panel.
ITERATIONS = 32
TINY_ITERATIONS = 4
WARMUP_SEED_BASE = 9_000_000
#: The seed of the quality set (see the module docstring).
TRACE_SEED = 20_210_419
_SEED_SPAN = 8_000_000
#: Rates are the median over this many consecutive groups of completions,
#: so a few seconds of host slowdown move them less than a whole-run
#: average would.
RATE_GROUPS = 10
#: Latency quantiles are the median over consecutive groups of at least
#: this many requests (at most :data:`RATE_GROUPS` groups), so a burst of
#: host slowdown moves them less than one quantile over the whole run.
QUANTILE_GROUP = 100
#: tiny_http's hot catalog: its size and Zipf exponent.
HOT_SIZE = 24
ZIPF_S = 1.1


@dataclass(frozen=True)
class Workload:
    name: str
    searchers: Tuple[str, ...]
    iterations: int
    #: HTTP connections, each keeping one request in flight.
    clients: int
    #: ``goodput_rps`` counts requests answered within this multiple of
    #: the run's median latency.  It is about p95 / p50 on the recorded
    #: baseline, so some requests miss it and a heavier tail lowers
    #: goodput below throughput; being relative to the run's own median,
    #: it does not collapse when the whole host runs slower.
    goodput_factor: float
    #: Size of the quality set behind ``norm_edp_geo``.
    quality_count: int
    #: Share of requests drawn from the hot catalog (repeats).
    hot_share: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    "mm_gradient": Workload("mm_gradient", ("gradient",), ITERATIONS, 1, 1.35, 100),
    "tiny_http": Workload("tiny_http", ("random",), TINY_ITERATIONS, 2, 1.4, 200,
                          hot_share=0.45),
}


class RequestStream:
    """The deterministic request sequence of one (workload, seed)."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise KeyError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
        self.spec = WORKLOADS[workload]
        self.seed = int(seed)
        self._problems = [problem_by_name(name) for name in PROBLEMS]
        self._combos = [(p, s) for p in range(len(PROBLEMS)) for s in self.spec.searchers]

    def _request_seed(self, index: int) -> int:
        return 1 + ((self.seed * 7_919) % _SEED_SPAN + index) % _SEED_SPAN

    def _stratified(self, index: int) -> Tuple[int, str]:
        """Round-robin over the combos in a shuffled order per cycle, so any
        prefix of whole cycles holds every combo equally often."""
        k = len(self._combos)
        order = np.random.default_rng([self.seed, index // k]).permutation(k)
        return self._combos[int(order[index % k])]

    def at(self, index: int, tag: str = "r") -> MappingRequest:
        problem, searcher = self._stratified(index)
        seed = self._request_seed(index)
        if self.spec.hot_share:
            rng = np.random.default_rng([self.seed, 1, index])
            if rng.random() < self.spec.hot_share:
                weights = np.arange(1, HOT_SIZE + 1, dtype=np.float64) ** -ZIPF_S
                entry = int(rng.choice(HOT_SIZE, p=weights / weights.sum()))
                problem = entry % len(PROBLEMS)
                seed = self._request_seed(_SEED_SPAN // 2 + entry)
        return MappingRequest(
            self._problems[problem], searcher=searcher,
            iterations=self.spec.iterations, seed=seed, tag=f"{tag}{index}",
        )

    def quality_set(self) -> List[MappingRequest]:
        """The fixed requests behind ``norm_edp_geo`` (the same for every seed)."""
        fixed = RequestStream(self.spec.name, TRACE_SEED)
        return [fixed.at(index, tag="q") for index in range(self.spec.quality_count)]

    def warmup(self) -> List[MappingRequest]:
        """Requests that make the stack answerable: one per problem and
        searcher the workload uses, with seeds outside the measured set
        (so they never pre-fill a measured response-cache entry)."""
        return [
            MappingRequest(problem, searcher=searcher, iterations=self.spec.iterations,
                           seed=WARMUP_SEED_BASE + 10 * p + s, tag="warmup")
            for p, problem in enumerate(self._problems)
            for s, searcher in enumerate(self.spec.searchers)
        ]


@dataclass
class Record:
    """One request's fate as the load generator saw it."""

    index: int
    request: MappingRequest
    sent: float = 0.0
    done: float = 0.0
    response: Optional[MappingResponse] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.response is not None

    @property
    def latency_s(self) -> float:
        return self.done - self.sent


@dataclass
class LoadResult:
    records: List[Record]
    #: ``perf_counter`` time the measuring window opened, and its length.
    start: float
    duration_s: float


def caller(stack, http: bool) -> Callable[[], Callable[[MappingRequest], MappingResponse]]:
    """A factory of per-client call functions (one HTTP connection each,
    or direct ``ClusterRouter.submit``); each function raises on failure."""
    if not http:
        return lambda: (lambda request: stack.router.submit(request).result(timeout=300.0))

    def make() -> Callable[[MappingRequest], MappingResponse]:
        client = HttpClient(stack.address)

        def call(request: MappingRequest) -> MappingResponse:
            status, payload = client.map(request)
            return decode_response(status, payload)

        call.close = client.close  # type: ignore[attr-defined]
        return call

    return make


def closed_loop(stack, stream: RequestStream, seconds: float) -> LoadResult:
    """Each of ``clients`` threads holds one HTTP connection and sends its
    next request when the reply to the last one arrives, for ``seconds``.
    Requests still in flight when the window closes finish, but count
    toward neither latency nor throughput."""
    make_call = caller(stack, http=True)
    records: List[Record] = []
    lock = threading.Lock()
    counter = iter(range(10 ** 9))
    start = time.perf_counter()
    end = start + seconds

    def client_loop() -> None:
        call = make_call()
        try:
            while time.perf_counter() < end:
                with lock:
                    index = next(counter)
                record = Record(index, stream.at(index))
                record.sent = time.perf_counter()
                try:
                    record.response = call(record.request)
                except Exception as error:  # noqa: BLE001 — counted as failed
                    record.error = f"{type(error).__name__}: {error}"
                record.done = time.perf_counter()
                with lock:
                    records.append(record)
        finally:
            call.close()

    threads = [threading.Thread(target=client_loop, name=f"bench-client-{i}")
               for i in range(stream.spec.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda record: record.index)
    return LoadResult(records, start=start, duration_s=seconds)


def serve_all(stack, requests: Sequence[MappingRequest], http: bool) -> List[Record]:
    """Serve ``requests`` one at a time (untimed); records are indexed
    ``-1, -2, ...`` so they never mix with the timed stream's."""
    records: List[Record] = []
    if not requests:
        return records
    call = caller(stack, http)()
    try:
        for index, request in enumerate(requests):
            record = Record(-1 - index, request, sent=time.perf_counter())
            try:
                record.response = call(request)
            except Exception as error:  # noqa: BLE001 — counted as failed
                record.error = f"{type(error).__name__}: {error}"
            record.done = time.perf_counter()
            records.append(record)
    finally:
        getattr(call, "close", lambda: None)()
    return records


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted mean of all order statistics instead of one of them:
    the same target as the sample quantile, with a smaller sampling
    spread when a tail holds few, unevenly spaced samples (the mixed
    service times here put p90 near the edge of a slow group).
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ordered)
    if n == 0:
        return float("nan")
    if n == 1:
        return float(ordered[0])
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    grid = np.linspace(0.0, 1.0, 20_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    weights = np.diff(np.interp(np.arange(n + 1) / n,
                                np.concatenate(([0.0], grid)), cdf / cdf[-1]))
    return float(weights @ ordered)


def grouped_quantile(latencies: Sequence[float], q: float) -> float:
    """The median over consecutive groups of ``latencies`` (in send order)
    of each group's :func:`quantile`; one group below two full ones."""
    groups = max(1, min(RATE_GROUPS, len(latencies) // QUANTILE_GROUP))
    return float(np.median([quantile(chunk, q) for chunk in
                            np.array_split(np.asarray(latencies, dtype=np.float64), groups)]))


def windowed_rate(records: Sequence[Record], start: float, span: float) -> float:
    """Completions per second: the median over :data:`RATE_GROUPS`
    consecutive groups of completions of each group's rate (the plain
    rate over ``span`` when there are too few completions to group)."""
    done = sorted(record.done for record in records)
    size = len(done) // RATE_GROUPS
    if size < 2:
        return len(done) / span
    edges = [start] + done[size - 1::size][:RATE_GROUPS]
    return float(np.median([size / (b - a) for a, b in zip(edges, edges[1:])]))


def summarize(spec: Workload, result: LoadResult) -> Dict[str, object]:
    """End-to-end latency/throughput figures of one load run: the requests
    sent and answered inside the window.  The workloads have one load
    level, reported under both the plain and the ``.heavy`` names."""
    end = result.start + result.duration_s
    members = [r for r in result.records if r.sent < end]
    answered = sorted((r for r in members if r.ok and r.done <= end), key=lambda r: r.sent)
    latencies = [r.latency_s * 1000.0 for r in answered]
    p50_ms = grouped_quantile(latencies, 0.50)
    p90_ms = grouped_quantile(latencies, 0.90)
    limit_ms = spec.goodput_factor * p50_ms
    failed = sum(not r.ok for r in members)
    # A failed request never meets the limit.
    within_share = (sum(latency <= limit_ms for latency in latencies)
                    / max(len(latencies) + failed, 1))
    throughput = windowed_rate(answered, result.start, result.duration_s)
    return {
        "attempted": len(members),
        "failed": failed,
        "samples": len(latencies),
        "latency_limit_ms": limit_ms,
        "within_limit": within_share,
        "throughput_rps": throughput,
        "latency_p50_ms": p50_ms,
        "latency_p90_ms": p90_ms,
        "latency_p50_ms.heavy": p50_ms,
        "latency_p90_ms.heavy": p90_ms,
        "goodput_rps": throughput * within_share,
    }
