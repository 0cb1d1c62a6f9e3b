"""Bytes a serving process keeps per served request.

A shard keeps state for every request it serves: oracle-store entries
(each holding a ``Mapping``), response-cache entries, traces, and the
growth of the process-wide row registry and megabatch memos.  The bytes
kept per request decide how much traffic a shard absorbs before its RSS
grows.  These tests serve seeded requests through an in-process
:class:`MappingServer`, 32 at a time so cohorts batch them (random
requests then go through the megabatch kernel, as on a loaded shard), and
read the net ``tracemalloc`` growth per request over a measured batch
that follows a warm-up.

Recorded figures (x86_64, Python 3.11, numpy 2.x; these are allocation
sizes, so host speed does not move them):

============================================  ===========  =========
request                                       before       after
============================================  ===========  =========
random, 4 iterations, Table 1 problems         19,950 B     ~7,600 B
gradient, 32 iterations, small CNN layers      54,400 B    ~20,200 B
============================================  ===========  =========

"Before" is the code where every ``Mapping`` held fresh inner rows (loop
orders of numpy string scalars), every priced mapping cached its own
factor array and the order memo kept one row per order triple.  Each
bound is half its "before" figure.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core import MindMappingsConfig, TrainingConfig
from repro.costmodel import batch as batch_mod
from repro.costmodel import cache as cache_mod
from repro.costmodel import default_accelerator
from repro.engine import EngineConfig, MappingEngine, MappingRequest
from repro.mapspace import mapping as mapping_mod
from repro.serve import MappingServer, ServeConfig
from repro.workloads import make_cnn_layer, problem_by_name

#: Retained bytes per request of the "before" code (module docstring).
RANDOM_BEFORE_BYTES = 19_950
GRADIENT_BEFORE_BYTES = 54_400

#: Random requests served before measuring (by then the process-wide row
#: registry and order memos hold most rows this traffic draws) and measured.
RANDOM_WARMUP = 600
RANDOM_MEASURED = 300
GRADIENT_WARMUP = 24
GRADIENT_MEASURED = 24

RANDOM_PROBLEMS = ("ResNet_Conv4", "AlexNet_Conv2", "BERT_QKV", "BERT_FFN1", "MTTKRP_0")
GRADIENT_TARGETS = (
    make_cnn_layer("mem_target_a", n=4, k=64, c=32, h=16, w=16, r=3, s=3),
    make_cnn_layer("mem_target_b", n=2, k=128, c=64, h=8, w=8, r=3, s=3),
)
TRAIN_PROBLEMS = (
    make_cnn_layer("mem_train_a", n=2, k=32, c=32, h=16, w=16, r=3, s=3),
    make_cnn_layer("mem_train_b", n=4, k=64, c=32, h=8, w=8, r=3, s=3),
)


@pytest.fixture(autouse=True)
def fresh_process_state(monkeypatch):
    """Empty process-wide row registries and memos, as in a new shard
    process, so what earlier tests left in them does not shift the figure."""
    monkeypatch.setattr(mapping_mod, "_SHARED_ROWS", {})
    monkeypatch.setattr(cache_mod, "_PROBLEM_KEYS", {})
    monkeypatch.setattr(batch_mod, "_PROBLEM_TABLES", {})
    monkeypatch.setattr(batch_mod, "_SLOT_BLOCKS", {})
    monkeypatch.setattr(
        batch_mod, "_FACTOR_ROWS", batch_mod._RowMemo(4, list, batch_mod._FACTOR_ROWS.limit)
    )


def _serve_all(server, requests, chunk=32):
    """Serve ``requests`` ``chunk`` at a time, so cohorts batch them."""
    for start in range(0, len(requests), chunk):
        futures = [server.submit(request) for request in requests[start:start + chunk]]
        for future in futures:
            future.result(timeout=120)


def _retained_per_request(server, warmup, measured):
    """Net traced bytes still allocated per request after serving ``measured``."""
    _serve_all(server, warmup)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _serve_all(server, measured)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(measured)


def _serve(engine_config):
    # A trace ring this small is full after warm-up, as a busy shard's is.
    engine = MappingEngine(default_accelerator(), engine_config)
    return MappingServer(engine, ServeConfig(workers=1, trace_capacity=16))


def _requests(problems, searcher, iterations, seeds):
    return [
        MappingRequest(problems[i % len(problems)], searcher=searcher,
                       iterations=iterations, seed=seed)
        for i, seed in enumerate(seeds)
    ]


def test_random_request_retains_half_the_bytes():
    problems = [problem_by_name(name) for name in RANDOM_PROBLEMS]
    server = _serve(EngineConfig())
    try:
        per_request = _retained_per_request(
            server,
            _requests(problems, "random", 4, range(10_000, 10_000 + RANDOM_WARMUP)),
            _requests(problems, "random", 4, range(20_000, 20_000 + RANDOM_MEASURED)),
        )
    finally:
        server.shutdown(timeout=30.0)
    assert per_request <= RANDOM_BEFORE_BYTES / 2, per_request


def test_gradient_request_retains_half_the_bytes():
    config = EngineConfig(
        mm_config=MindMappingsConfig(
            dataset_samples=600,
            n_problems=2,
            training=TrainingConfig(hidden_layers=(16, 16), epochs=3),
        ),
        train_seed=0,
        training_problems={"cnn-layer": TRAIN_PROBLEMS},
    )
    server = _serve(config)
    try:
        per_request = _retained_per_request(
            server,
            _requests(GRADIENT_TARGETS, "gradient", 32,
                      range(10_000, 10_000 + GRADIENT_WARMUP)),
            _requests(GRADIENT_TARGETS, "gradient", 32,
                      range(20_000, 20_000 + GRADIENT_MEASURED)),
        )
    finally:
        server.shutdown(timeout=30.0)
    assert per_request <= GRADIENT_BEFORE_BYTES / 2, per_request
