"""Regenerate the frozen Phase-2 gradient-search trace fixture.

Run from the repository root after an *intentional* change to what the
projected-gradient step computes (and only then — the fixture exists to
catch unintentional drift, e.g. from a rewrite of the surrogate input
gradient or of decode/projection):

    PYTHONPATH=src python tests/golden/generate_gradient_trace_golden.py

Each case builds a seeded *untrained* surrogate (no Phase 1, so the
fixture does not depend on training numerics): the input whitener is
fitted on encodings of sampled mappings and the target whitener is a
seeded affine map.  A :class:`~repro.core.GradientSearcher` then runs 40
descent rounds plus 4 injection rounds, and every evaluated mapping and
every objective value (as ``float.hex``) is frozen to
``gradient_trace_golden.json``.  ``tests/test_gradient_trace_golden.py``
replays every case and requires a bitwise match.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core import GradientSearcher, MappingEncoder, Surrogate
from repro.core.dataset import TargetCodec
from repro.core.normalize import Whitener
from repro.costmodel.accelerator import default_accelerator
from repro.mapspace import MapSpace
from repro.workloads import problem_by_name

GOLDEN_PATH = Path(__file__).parent / "gradient_trace_golden.json"

PROBLEMS = ("ResNet_Conv4", "BERT_FFN1", "MTTKRP_0")
SEEDS = (0, 1)
RESTARTS = (1, 4)

#: Descent rounds per chain; with the default ``inject_every=10`` the run
#: also crosses ``ROUNDS // 10`` injection rounds.
ROUNDS = 40
HIDDEN_LAYERS = (32, 64, 32)
WHITENER_SAMPLES = 64


def build_case_surrogate(problem_name: str, seed: int):
    """(space, surrogate) for one case: untrained, seeded, whitened."""
    problem = problem_by_name(problem_name)
    space = MapSpace(problem, default_accelerator())
    encoder = MappingEncoder.for_problem(problem)
    codec = TargetCodec(n_tensors=len(encoder.tensors))
    rng = np.random.default_rng(seed)
    samples = [space.sample(rng) for _ in range(WHITENER_SAMPLES)]
    input_whitener = Whitener.fit(encoder.encode_batch(samples, problem))
    target_whitener = Whitener(
        mean=rng.normal(size=codec.width), std=rng.uniform(0.5, 2.0, codec.width)
    )
    surrogate = Surrogate.build(
        encoder,
        codec,
        input_whitener,
        target_whitener,
        algorithm=problem.algorithm,
        hidden_layers=HIDDEN_LAYERS,
        rng=seed,
    )
    return space, surrogate


def run_case(problem_name: str, seed: int, restarts: int) -> dict:
    """The full evaluated trace of one seeded multi-restart search."""
    space, surrogate = build_case_surrogate(problem_name, seed)
    searcher = GradientSearcher(space, surrogate, restarts=restarts)
    rounds = ROUNDS + ROUNDS // searcher.inject_every
    result = searcher.run(rounds * restarts, seed=seed)
    return {
        "mappings": [encode_mapping(mapping) for mapping in result.mappings],
        "objective_values": [float(v).hex() for v in result.objective_values],
    }


def encode_mapping(mapping) -> list:
    """Compact ``[tile_factors, loop-order dim indices, allocation]`` row."""
    index = {dim: i for i, dim in enumerate(mapping.dims)}
    return [
        [list(factors) for factors in mapping.tile_factors],
        [[index[dim] for dim in order] for order in mapping.loop_orders],
        [list(banks) for banks in mapping.allocation],
    ]


def case_key(problem_name: str, seed: int, restarts: int) -> str:
    return f"{problem_name}/seed={seed}/restarts={restarts}"


def build_golden() -> dict:
    return {
        case_key(name, seed, restarts): run_case(name, seed, restarts)
        for name in PROBLEMS
        for seed in SEEDS
        for restarts in RESTARTS
    }


def main() -> None:
    golden = build_golden()
    lines = [
        f"{json.dumps(key)}:{json.dumps(case, separators=(',', ':'))}"
        for key, case in golden.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
