"""Mapping <-> vector encoding for the surrogate (paper sections 4.1.2, 5.5).

Layout of the encoded vector for a problem with ``D`` dimensions and ``T``
tensors (sections in order)::

    [ pid (D) | tiles (4*D) | loop orders (3*D) | allocations (2*T) ]

* **pid** — log2 of each dimension bound: the problem identifier that lets
  one surrogate generalize across problems of an algorithm (section 4.1.1).
* **tiles** — log2 of the (DRAM, L2, spatial, L1) factor of each dimension.
  Log space makes multiplicative tiling decisions additive, which is the
  geometry gradient descent needs.
* **loop orders** — for each temporal level, the rank of each dimension in
  that level's permutation, normalized to [0, 1].  Decoding argsorts the
  ranks, so any real-valued vector decodes to a valid permutation.
* **allocations** — the fraction of banks given to each tensor at L2/L1.

For CNN-Layer (D=7, T=3) the vector is 62 values; for MTTKRP (D=4, T=4) it
is 40 — matching the paper's reported input widths exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.mapspace.factors import (
    nearest_compositions,
    nearest_option,
    stacked_factorization_tables,
)
from repro.mapspace.mapping import ALLOC_LEVELS, FACTOR_SLOTS, Mapping, ORDER_LEVELS
from repro.mapspace.space import MapSpace
from repro.utils import log2_safe
from repro.workloads.problem import Problem


@dataclass(frozen=True)
class EncodingLayout:
    """Index ranges of each section within the encoded vector."""

    n_dims: int
    n_tensors: int

    @property
    def pid_slice(self) -> slice:
        return slice(0, self.n_dims)

    @property
    def tile_slice(self) -> slice:
        start = self.n_dims
        return slice(start, start + 4 * self.n_dims)

    @property
    def order_slice(self) -> slice:
        start = self.n_dims * 5
        return slice(start, start + 3 * self.n_dims)

    @property
    def alloc_slice(self) -> slice:
        start = self.n_dims * 8
        return slice(start, start + 2 * self.n_tensors)

    @property
    def length(self) -> int:
        return self.n_dims * 8 + self.n_tensors * 2

    @property
    def mapping_slice(self) -> slice:
        """Everything after the pid: the part gradient search may update."""
        return slice(self.n_dims, self.length)

    def section_at(self, index: int) -> Tuple[str, slice]:
        """``(name, slice)`` of the section holding vector ``index``."""
        for name, section in (
            ("pid", self.pid_slice),
            ("tiles", self.tile_slice),
            ("orders", self.order_slice),
            ("allocations", self.alloc_slice),
        ):
            if section.start <= index < section.stop:
                return name, section
        raise IndexError(f"index {index} outside a length-{self.length} vector")


class MappingEncoder:
    """Bidirectional mapping/vector codec for one algorithm family.

    One encoder serves every problem of the algorithm (the dimension and
    tensor orders are fixed by the algorithm), which is what allows a single
    surrogate to train across problems and interpolate to unseen shapes.
    """

    def __init__(self, dims: Sequence[str], tensors: Sequence[str]) -> None:
        if not dims:
            raise ValueError("encoder needs at least one dimension")
        if not tensors:
            raise ValueError("encoder needs at least one tensor")
        self.dims = tuple(dims)
        self.tensors = tuple(tensors)
        self.layout = EncodingLayout(n_dims=len(self.dims), n_tensors=len(self.tensors))

    @classmethod
    def for_problem(cls, problem: Problem) -> "MappingEncoder":
        """Encoder keyed to ``problem``'s canonical dim/tensor order."""
        return cls(problem.dim_names, tuple(t.name for t in problem.tensors))

    # ------------------------------------------------------------------

    @property
    def length(self) -> int:
        """Total encoded vector length (62 for CNN-Layer, 40 for MTTKRP)."""
        return self.layout.length

    def encode(self, mapping: Mapping, problem: Problem) -> np.ndarray:
        """Encode ``mapping`` (for ``problem``) into a raw float vector."""
        vector = np.empty(self.length, dtype=np.float64)
        vector[self.layout.pid_slice] = self.pid_vector(problem)
        self._encode_mapping_into(vector, mapping)
        return vector

    def encode_batch(self, mappings: Sequence[Mapping], problem: Problem) -> np.ndarray:
        """Encode ``mappings`` into an ``(N, length)`` matrix for ``problem``.

        Row ``i`` equals ``encode(mappings[i], problem)`` exactly, but the
        sections are computed column-wise across the whole batch: the
        problem-id once, tile log2s and allocation fractions as single
        vectorized array ops.  This is the input layout — and a large part
        of the speedup — of every batched surrogate path (stacked forward
        passes, vectorized multi-restart gradient search); see
        ``benchmarks/bench_batch_eval.py``.
        """
        n = len(mappings)
        batch = np.empty((n, self.length), dtype=np.float64)
        batch[:, self.layout.pid_slice] = self.pid_vector(problem)
        if not n:
            return batch
        for mapping in mappings:
            if mapping.dims != self.dims:
                raise ValueError(
                    f"mapping dims {mapping.dims} != encoder dims {self.dims}"
                )
            if mapping.tensors != self.tensors:
                raise ValueError(
                    f"mapping tensors {mapping.tensors} != encoder tensors "
                    f"{self.tensors}"
                )
        # Tiles: (N, D, 4) integer factors -> floored log2, row-major per dim
        # (the same 1e-12 floor as log2_safe, applied array-wide).
        tiles = np.asarray([m.tile_factors for m in mappings], dtype=np.float64)
        batch[:, self.layout.tile_slice] = np.log2(
            np.maximum(tiles, 1e-12)
        ).reshape(n, -1)
        # Loop orders: each dim's rank within each level's permutation,
        # normalized to [0, 1].
        n_dims = len(self.dims)
        dim_index = {dim: i for i, dim in enumerate(self.dims)}
        positions = np.arange(n_dims, dtype=np.float64) / max(n_dims - 1, 1)
        ranks = np.empty((n, len(ORDER_LEVELS), n_dims), dtype=np.float64)
        for row, mapping in enumerate(mappings):
            for level_idx, order in enumerate(mapping.loop_orders):
                for position, dim in enumerate(order):
                    ranks[row, level_idx, dim_index[dim]] = positions[position]
        batch[:, self.layout.order_slice] = ranks.reshape(n, -1)
        # Allocations: (N, levels, T) bank counts -> per-level fractions.
        allocation = np.asarray([m.allocation for m in mappings], dtype=np.float64)
        allocation /= allocation.sum(axis=2, keepdims=True)
        batch[:, self.layout.alloc_slice] = allocation.reshape(n, -1)
        return batch

    def _encode_mapping_into(self, vector: np.ndarray, mapping: Mapping) -> None:
        """Fill the mapping sections (tiles/orders/allocations) of one row."""
        if mapping.dims != self.dims:
            raise ValueError(f"mapping dims {mapping.dims} != encoder dims {self.dims}")
        if mapping.tensors != self.tensors:
            raise ValueError(
                f"mapping tensors {mapping.tensors} != encoder tensors {self.tensors}"
            )
        tiles: List[float] = []
        for dim in self.dims:
            tiles.extend(log2_safe(f) for f in mapping.factors(dim))
        vector[self.layout.tile_slice] = tiles
        orders: List[float] = []
        denominator = max(len(self.dims) - 1, 1)
        for level in ORDER_LEVELS:
            order = mapping.loop_order(level)
            rank = {dim: position for position, dim in enumerate(order)}
            orders.extend(rank[dim] / denominator for dim in self.dims)
        vector[self.layout.order_slice] = orders
        allocations: List[float] = []
        for level in ALLOC_LEVELS:
            banks = mapping.alloc_banks(level)
            total = sum(banks.values())
            allocations.extend(banks[t] / total for t in self.tensors)
        vector[self.layout.alloc_slice] = allocations

    def decode(self, vector: np.ndarray, space: MapSpace) -> Mapping:
        """Decode a raw vector into the nearest valid mapping of ``space``.

        One row of :meth:`decode_batch` (see there for the rounding).
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.length,):
            raise ValueError(f"vector shape {vector.shape} != ({self.length},)")
        return self.decode_batch(vector[None, :], space)[0]

    def decode_batch(self, vectors: np.ndarray, space: MapSpace) -> List[Mapping]:
        """Decode ``(R, length)`` raw vectors into valid mappings of ``space``.

        This is the "round + project" step of projected gradient descent
        (paper section 4.2), one pass for every row: tile factors round to
        the nearest exact factorization in log space (one argmin over a
        padded per-dimension option table for all rows and dimensions; ties
        go to the first option in enumeration order), order ranks argsort
        into permutations, allocation fractions round to bank compositions,
        and each candidate is passed through :meth:`MapSpace.project` for
        capacity repair.  Row ``i`` of the result depends on row ``i``
        alone.

        Tile logs clip to ``[0, 40]``, so ``±inf`` there (and in the order
        ranks, which only sort) decodes like a large finite value.  A NaN
        anywhere, or ``+inf`` in the allocation section (no finite share to
        round), raises ``ValueError`` naming the section and index.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.length:
            raise ValueError(f"vectors shape {vectors.shape} != (R, {self.length})")
        self._check_decodable(vectors)
        n_rows, n_dims, n_tensors = len(vectors), len(self.dims), len(self.tensors)
        bounds = space.problem.bounds
        factor_table, log_table = stacked_factorization_tables(
            tuple(bounds[dim] for dim in self.dims), len(FACTOR_SLOTS)
        )
        targets = np.exp2(np.clip(vectors[:, self.layout.tile_slice], 0.0, 40.0))
        # math.log2, as in the option table: np.log2 may differ by an ulp.
        logs = np.array(
            [math.log2(max(target, 1e-9)) for target in targets.ravel().tolist()]
        ).reshape(n_rows, n_dims, len(FACTOR_SLOTS))
        choice = nearest_option(log_table, logs)
        tiles = factor_table[np.arange(n_dims), choice]
        ranks = vectors[:, self.layout.order_slice].reshape(
            n_rows, len(ORDER_LEVELS), n_dims
        )
        permutations = np.argsort(ranks, axis=2, kind="stable")
        totals = [space.accelerator.banks(level) for level in ALLOC_LEVELS] * n_rows
        banks = nearest_compositions(
            totals, n_tensors, vectors[:, self.layout.alloc_slice].reshape(-1, n_tensors)
        ).reshape(n_rows, len(ALLOC_LEVELS), n_tensors)
        return [
            space.project(
                Mapping(
                    dims=self.dims,
                    tile_factors=tuple(tuple(factors) for factors in tile_row),
                    loop_orders=tuple(
                        tuple(self.dims[i] for i in order) for order in order_row
                    ),
                    tensors=self.tensors,
                    allocation=tuple(tuple(level) for level in bank_row),
                )
            )
            for tile_row, order_row, bank_row in zip(
                tiles.tolist(), permutations.tolist(), banks.tolist()
            )
        ]

    def _check_decodable(self, vectors: np.ndarray) -> None:
        """Raise ``ValueError`` at the first entry decode cannot round."""
        bad = np.isnan(vectors)
        alloc = self.layout.alloc_slice
        bad[:, alloc] |= np.isposinf(vectors[:, alloc])
        if not bad.any():
            return
        row, column = (int(i) for i in np.argwhere(bad)[0])
        name, section = self.layout.section_at(column)
        raise ValueError(
            f"cannot decode {vectors[row, column]} at {name}[{column - section.start}] "
            f"(row {row}, vector index {column})"
        )

    def pid_vector(self, problem: Problem) -> np.ndarray:
        """Just the pid section for ``problem`` (log2 dimension bounds)."""
        bounds = problem.bounds
        return np.array([log2_safe(bounds[d]) for d in self.dims], dtype=np.float64)


def encode_batch(
    encoder: MappingEncoder, mappings: Sequence[Mapping], problem: Problem
) -> np.ndarray:
    """Stack ``mappings`` into one ``(N, encoder.length)`` encoding matrix.

    Module-level convenience over :meth:`MappingEncoder.encode_batch` so
    batched callers (oracles, the vectorized gradient searcher) read as
    ``encode_batch(encoder, population, problem)``.
    """
    return encoder.encode_batch(mappings, problem)


__all__ = ["EncodingLayout", "MappingEncoder", "encode_batch"]
