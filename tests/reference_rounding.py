"""Scalar reference implementations of the projection's rounding steps.

The shipped code rounds with table-driven, row-vectorized numpy
(:func:`repro.mapspace.factors.nearest_factorization`,
:func:`~repro.mapspace.factors.nearest_compositions`).  These are the
plain loops they replaced, kept here as the oracle the parity tests check
the fast paths against, bit for bit.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils import factorizations


def reference_nearest_factorization(
    n: int, parts: int, target: Sequence[float]
) -> Tuple[int, ...]:
    """Early-exit scan over every factorization; keeps the first strict
    minimum of the left-to-right summed squared log2 deltas."""
    logs = [math.log2(max(float(t), 1e-9)) for t in target]
    best: Tuple[int, ...] = ()
    best_distance = math.inf
    for option in factorizations(n, parts):
        distance = 0.0
        for value, want in zip(option, logs):
            delta = math.log2(value) - want
            distance += delta * delta
            if distance >= best_distance:
                break
        if distance < best_distance:
            best_distance = distance
            best = option
    return best


def reference_nearest_composition(
    total: int, parts: int, target: Sequence[float], min_each: int = 1
) -> Tuple[int, ...]:
    """Greedy largest-remainder rounding of one target row."""
    spare_total = total - parts * min_each
    desired = np.maximum(np.asarray(target, dtype=float), 0.0)
    if desired.sum() <= 0:
        desired = np.ones(parts)
    desired = desired / desired.sum() * total
    spare = np.maximum(desired - min_each, 0.0)
    if spare.sum() <= 0:
        base: List[int] = [min_each] * parts
        remainder = spare_total
        floors = np.zeros(parts)
    else:
        spare = spare / spare.sum() * spare_total
        floors = np.floor(spare)
        base = [min_each + int(f) for f in floors]
        remainder = spare_total - int(floors.sum())
    order = np.argsort(-(spare - floors))
    result = list(base)
    for index in order[:remainder]:
        result[int(index)] += 1
    return tuple(result)
