"""Factorization and composition utilities for tilings and bank allocations.

Tile sizes must exactly factorize each problem dimension across the memory
levels, so uniform map-space sampling reduces to uniform choice among ordered
factorizations, and gradient projection reduces to nearest-factorization
search in log space (paper section 4.2, "Projected Gradient Descent").
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.utils import factorizations
from repro.utils.rng import SeedLike, ensure_rng


def sample_factorization(n: int, parts: int, rng: SeedLike = None) -> Tuple[int, ...]:
    """Uniformly sample one ordered factorization of ``n`` into ``parts``.

    Uniform over *factorizations* (not over factor values), matching the
    paper's uniform map-space sampling.
    """
    options = factorizations(n, parts)
    generator = ensure_rng(rng)
    return options[int(generator.integers(0, len(options)))]


@functools.lru_cache(maxsize=256)
def factorization_table(
    n: int, parts: int
) -> Tuple[Tuple[Tuple[int, ...], ...], np.ndarray]:
    """``(options, logs)``: the factorizations of ``n`` and their log2 table.

    ``logs`` is a read-only ``(len(options), parts)`` float64 array built
    with :func:`math.log2` (not ``np.log2``, whose SIMD kernels may differ
    by an ulp), so table distances match a scalar ``math.log2`` loop bit
    for bit.
    """
    options = factorizations(n, parts)
    logs = np.array(
        [[math.log2(value) for value in option] for option in options],
        dtype=np.float64,
    )
    logs.flags.writeable = False
    return options, logs


@functools.lru_cache(maxsize=16)
def stacked_factorization_tables(
    bounds: Tuple[int, ...], parts: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(factors, logs)`` for every bound, padded to one rectangle.

    ``factors`` is ``(D, max_options, parts)`` int64 and ``logs`` the
    matching float64 log2 table; padding rows hold factor 1 and log
    ``+inf``, so their distance is infinite and they never win an argmin.
    Both arrays are read-only.
    """
    tables = [factorization_table(bound, parts) for bound in bounds]
    width = max(len(options) for options, _ in tables)
    factors = np.ones((len(bounds), width, parts), dtype=np.int64)
    logs = np.full((len(bounds), width, parts), np.inf)
    for index, (options, table) in enumerate(tables):
        factors[index, : len(options)] = options
        logs[index, : len(options)] = table
    factors.flags.writeable = False
    logs.flags.writeable = False
    return factors, logs


def nearest_option(table: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Index of the row of ``table`` nearest ``logs`` (squared L2 in log2).

    ``table`` is ``(..., options, parts)`` and ``logs`` is ``(..., parts)``
    (broadcast against the table's leading axes); returns the ``(...)``
    option indices.  Per-part squared deltas are summed left to right and
    ``np.argmin`` keeps the *first* strict minimum, so ties resolve to the
    earliest option in enumeration order, as a scalar early-exit scan
    would.
    """
    distance = None
    for part in range(table.shape[-1]):
        delta = table[..., part] - logs[..., part, None]
        square = delta * delta
        distance = square if distance is None else distance + square
    return np.argmin(distance, axis=-1)


def nearest_factorization(
    n: int, parts: int, target: Sequence[float]
) -> Tuple[int, ...]:
    """The ordered factorization of ``n`` closest to ``target`` in log space.

    ``target`` holds desired (possibly fractional, possibly non-dividing)
    factors, e.g. produced by a gradient step.  Distance is the L2 norm of
    per-part ``log2`` ratios, so halving and doubling a factor are equally
    wrong — matching the log2 encoding the surrogate sees.  Ties go to the
    first factorization in :func:`~repro.utils.factorizations` order.
    Raises ``ValueError`` for a NaN or ``+inf`` target entry (there is no
    nearest factorization to it); entries below ``1e-9`` clamp to it.
    """
    if len(target) != parts:
        raise ValueError(f"target has {len(target)} parts, expected {parts}")
    logs = np.array([math.log2(max(float(t), 1e-9)) for t in target])
    if not np.isfinite(logs).all():
        raise ValueError(f"target {list(target)} has a non-finite entry")
    options, table = factorization_table(n, parts)
    return options[int(nearest_option(table, logs))]


def compositions(total: int, parts: int, min_each: int = 1) -> Tuple[Tuple[int, ...], ...]:
    """All ordered compositions of ``total`` into ``parts`` with lower bound.

    Used to enumerate bank allocations in tiny map spaces.  The count is
    ``C(total - parts * min_each + parts - 1, parts - 1)``; callers should
    only enumerate when that is small.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    spare = total - parts * min_each
    if spare < 0:
        raise ValueError(
            f"cannot split {total} into {parts} parts of at least {min_each}"
        )
    if parts == 1:
        return ((total,),)
    result: List[Tuple[int, ...]] = []
    for head in range(min_each, total - (parts - 1) * min_each + 1):
        for tail in compositions(total - head, parts - 1, min_each):
            result.append((head,) + tail)
    return tuple(result)


def sample_composition(
    total: int, parts: int, rng: SeedLike = None, min_each: int = 1
) -> Tuple[int, ...]:
    """Uniformly sample a composition of ``total`` into ``parts`` >= min_each.

    Stars-and-bars: place ``parts - 1`` cuts uniformly among the spare units,
    which yields the uniform distribution over compositions.
    """
    spare = total - parts * min_each
    if spare < 0:
        raise ValueError(
            f"cannot split {total} into {parts} parts of at least {min_each}"
        )
    generator = ensure_rng(rng)
    if parts == 1:
        return (total,)
    # Choose cut positions among spare + parts - 1 slots.
    slots = spare + parts - 1
    cuts = np.sort(generator.choice(slots, size=parts - 1, replace=False))
    previous = -1
    sizes: List[int] = []
    for cut in cuts:
        sizes.append(int(cut) - previous - 1)
        previous = int(cut)
    sizes.append(slots - 1 - previous)
    return tuple(size + min_each for size in sizes)


def smallest_prime_factor(n: int) -> int:
    """Smallest prime factor of ``n`` (``n`` itself when prime; 1 for 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1
    limit = int(math.isqrt(n))
    for candidate in range(2, limit + 1):
        if n % candidate == 0:
            return candidate
    return n


def nearest_composition(
    total: int, parts: int, target: Sequence[float], min_each: int = 1
) -> Tuple[int, ...]:
    """Round real-valued ``target`` to a composition of ``total``.

    One row of :func:`nearest_compositions`.  Used to project
    gradient-updated bank-allocation fractions back onto valid integer
    allocations.
    """
    if len(target) != parts:
        raise ValueError(f"target has {len(target)} parts, expected {parts}")
    return tuple(nearest_compositions(total, parts, [target], min_each)[0].tolist())


def nearest_compositions(
    totals: Union[int, Sequence[int]],
    parts: int,
    targets: np.ndarray,
    min_each: int = 1,
) -> np.ndarray:
    """Round each row of ``targets`` to a composition of its total.

    Greedy largest-remainder rounding, vectorized over the ``(M, parts)``
    rows: floor each entry at ``min_each``, then distribute the remaining
    units to the entries with the largest fractional shortfall.
    ``totals`` is one total for every row or one per row.  Returns an
    ``(M, parts)`` int64 array; row ``i`` depends on row ``i`` alone.
    Raises ``ValueError`` for NaN or ``+inf`` entries.
    """
    desired = np.maximum(np.asarray(targets, dtype=float), 0.0)
    if desired.ndim != 2 or desired.shape[1] != parts:
        raise ValueError(f"targets have shape {desired.shape}, expected (M, {parts})")
    total = np.asarray(totals).reshape(-1, 1)
    spare_total = total - parts * min_each
    if (spare_total < 0).any():
        raise ValueError(
            f"cannot split {totals} into {parts} parts of at least {min_each}"
        )
    row_sum = desired.sum(axis=1, keepdims=True)
    if not np.isfinite(row_sum).all():
        raise ValueError("targets must not contain NaN or +inf")
    # Entries are >= 0, so a non-positive sum means an all-zero row: it
    # splits evenly (ones, summing to `parts`); other rows are unchanged.
    empty = row_sum <= 0
    desired = (desired + empty) / (row_sum + parts * empty) * total
    spare = np.maximum(desired - min_each, 0.0)
    spare_sum = spare.sum(axis=1, keepdims=True)
    # Same trick: an all-zero spare row divides by 1 and stays all zero.
    spare = spare / (spare_sum + (spare_sum <= 0)) * spare_total
    floors = np.floor(spare)
    remainder = spare_total - floors.sum(axis=1, keepdims=True)
    # Each row's `remainder` largest fractional parts get one more unit.
    order = np.argsort(-(spare - floors), axis=1)
    rank = np.argsort(order, axis=1)
    return (floors + min_each + (rank < remainder)).astype(np.int64)


__all__ = [
    "compositions",
    "factorization_table",
    "nearest_composition",
    "nearest_compositions",
    "nearest_factorization",
    "nearest_option",
    "sample_composition",
    "sample_factorization",
    "smallest_prime_factor",
    "stacked_factorization_tables",
]
