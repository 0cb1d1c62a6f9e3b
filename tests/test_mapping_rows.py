"""Mapping inner rows: plain-``str`` loop orders, canonical shared rows, and
the megabatch level-order memo that keys on them."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import MappingEncoder
from repro.costmodel import batch as batch_mod
from repro.costmodel.batch import (
    compile_megabatch,
    evaluate_batch,
    evaluate_mega_compiled,
)
from repro.mapspace import MapSpace
from repro.mapspace import mapping as mapping_mod
from repro.mapspace.factors import sample_factorization
from repro.mapspace.mapping import ORDER_LEVELS, Mapping, shared_row
from repro.search.genetic import GeneticSearcher
from repro.utils.rng import ensure_rng


def _assert_plain_orders(mappings):
    for mapping in mappings:
        for order in mapping.loop_orders:
            assert all(type(dim) is str for dim in order), order


class _NumpyOrderSpace(MapSpace):
    """The sampler as it was: orders permute the dim *names*, which yields
    numpy string scalars.  Kept here as the reference stream."""

    def _sample_candidate(self, rng, proportional_alloc=False):
        tile_factors = [
            list(sample_factorization(self._bounds[dim], 4, rng)) for dim in self.dims
        ]
        self._cap_spatial(tile_factors)
        orders = tuple(tuple(rng.permutation(list(self.dims))) for _ in ORDER_LEVELS)
        return Mapping(
            dims=self.dims,
            tile_factors=tuple(tuple(f) for f in tile_factors),
            loop_orders=orders,
            tensors=self.tensor_names,
            allocation=self._sample_allocation(rng, tile_factors, proportional_alloc),
        )


class TestPlainStrOrders:
    def test_sample_order_matches_name_permutation(self, cnn_space):
        dims = cnn_space.dims
        for seed in range(200):
            by_name, by_index = ensure_rng(seed), ensure_rng(seed)
            old = tuple(by_name.permutation(list(dims)))
            new = cnn_space.sample_order(by_index)
            assert old == new and all(type(dim) is str for dim in new)
            # Same draws consumed: the streams stay in lockstep afterwards.
            assert by_name.bit_generator.state == by_index.bit_generator.state

    @pytest.mark.parametrize("problem_name", ["cnn_problem", "mttkrp_problem"])
    def test_sample_stream_matches_reference(self, request, problem_name, accelerator):
        space = MapSpace(request.getfixturevalue(problem_name), accelerator)
        reference = _NumpyOrderSpace(space.problem, space.accelerator)
        for seed in range(40):
            assert space.sample_many(5, seed=seed) == reference.sample_many(5, seed=seed)

    def test_sample_and_project_orders_are_str(self, cnn_space):
        samples = cnn_space.sample_many(30, seed=3)
        _assert_plain_orders(samples)
        _assert_plain_orders(cnn_space.project(m) for m in samples)

    def test_ga_mutation_orders_are_str(self, cnn_space, cnn_problem, accelerator):
        from repro.costmodel import CostModel

        ga = GeneticSearcher(cnn_space, CostModel(accelerator), mutation_probability=1.0)
        rng = ensure_rng(5)
        mutated = [ga._mutate(m, rng) for m in cnn_space.sample_many(10, seed=4)]
        _assert_plain_orders(mutated)

    def test_decode_batch_orders_are_str(self, cnn_space, cnn_problem):
        encoder = MappingEncoder.for_problem(cnn_problem)
        vectors = np.random.default_rng(0).normal(size=(8, encoder.length))
        _assert_plain_orders(encoder.decode_batch(vectors, cnn_space))


class TestSharedRows:
    def test_equal_rows_are_one_object(self, cnn_space):
        a = cnn_space.sample(seed=1)
        b = Mapping.from_dict(a.to_dict())
        assert a == b and hash(a) == hash(b)
        for field in ("dims", "tensors"):
            assert getattr(a, field) is getattr(b, field)
        for field in ("tile_factors", "loop_orders", "allocation"):
            for row_a, row_b in zip(getattr(a, field), getattr(b, field)):
                assert row_a is row_b

    def test_numpy_rows_resolve_but_never_register(self):
        numpy_row = (np.str_("zz_unseen_a"), np.str_("zz_unseen_b"))
        assert shared_row(numpy_row, str) is numpy_row
        assert numpy_row not in mapping_mod._SHARED_ROWS
        plain = shared_row(("zz_unseen_a", "zz_unseen_b"), str)
        resolved = shared_row(numpy_row, str)
        assert resolved is plain
        assert all(type(dim) is str for dim in resolved)

    def test_non_tuples_pass_through(self):
        row = [1, 2, 3, 4]
        assert shared_row(row, int) is row

    def test_registry_is_bounded(self, monkeypatch):
        monkeypatch.setattr(mapping_mod, "_SHARED_ROWS", {})
        monkeypatch.setattr(mapping_mod, "SHARED_ROW_LIMIT", 2)
        first, second = shared_row((1, 2), int), shared_row((3, 4), int)
        assert shared_row((1, 2), int) is first and shared_row((3, 4), int) is second
        late = (5, 6)
        assert shared_row(late, int) is late
        assert len(mapping_mod._SHARED_ROWS) == 2

    def test_functional_updates_share_rows(self, cnn_space):
        mapping = cnn_space.sample(seed=2)
        dim = mapping.dims[0]
        swapped = mapping.with_tile_factors(dim, list(mapping.factors(dim)))
        assert swapped == mapping
        assert swapped.tile_factors[0] is mapping.tile_factors[0]


class TestOrderMemo:
    def _fresh_tables(self, problem, monkeypatch, limit=None):
        monkeypatch.setattr(batch_mod, "_PROBLEM_TABLES", {})
        if limit is not None:
            monkeypatch.setattr(batch_mod, "_ORDER_MEMO_LIMIT", limit)
        return batch_mod._problem_tables(problem)

    def test_memo_keys_level_orders_not_triples(self, cnn_space, monkeypatch):
        tables = self._fresh_tables(cnn_space.problem, monkeypatch)
        mappings = cnn_space.sample_many(64, seed=9)
        compile_megabatch(mappings, [cnn_space.problem] * len(mappings))
        (orders,) = tables.order_rows.values()
        distinct = {order for m in mappings for order in m.loop_orders}
        assert orders.count == len(orders.codes) == len(distinct)
        assert set(orders.codes) == distinct

    def test_new_orders_do_not_restack_rows(self, cnn_space, monkeypatch):
        tables = self._fresh_tables(cnn_space.problem, monkeypatch)
        problem = cnn_space.problem
        width = len(cnn_space.dims)
        buffers = []
        for seed in range(200):
            compile_megabatch([cnn_space.sample(seed=seed)], [problem])
            matrix = tables.order_matrix(width)
            # A view of the memo's own buffer, never a freshly stacked copy.
            assert matrix.base is tables.orders(width)._rows
            if not any(matrix.base is seen for seen in buffers):
                buffers.append(matrix.base)
        count = tables.orders(width).count
        assert count > 200  # hundreds of new level orders ...
        # ... yet the buffer was only replaced when its capacity doubled.
        assert len(buffers) <= int(np.ceil(np.log2(count / 64))) + 1

    def test_memo_stays_bounded_and_exact(self, cnn_space, accelerator, monkeypatch):
        tables = self._fresh_tables(cnn_space.problem, monkeypatch, limit=16)
        problem = cnn_space.problem
        mappings = cnn_space.sample_many(48, seed=11)
        stats = evaluate_mega_compiled(
            accelerator, compile_megabatch(mappings, [problem] * 48)
        )
        (orders,) = tables.order_rows.values()
        assert orders.count == len(orders.codes) == 16
        # Orders past the bound are lowered unstored, with the same result.
        reference = evaluate_batch(accelerator, mappings, problem)
        np.testing.assert_array_equal(stats.edp, reference.edp)

    def test_concurrent_compiles_lower_exactly(self, cnn_space, accelerator, monkeypatch):
        """Threads adding rows to the same memos at once: every compile
        prices its lanes exactly, and every code names its own row."""
        tables = self._fresh_tables(cnn_space.problem, monkeypatch)
        factor_rows = batch_mod._RowMemo(4, list, 1 << 15)
        monkeypatch.setattr(batch_mod, "_FACTOR_ROWS", factor_rows)
        problem = cnn_space.problem
        chunks = [cnn_space.sample_many(8, seed=100 + i) for i in range(48)]
        expected = [evaluate_batch(accelerator, chunk, problem).edp for chunk in chunks]
        failures = []

        def worker(first):
            for index in range(first, len(chunks), 6):
                mega = compile_megabatch(chunks[index], [problem] * len(chunks[index]))
                got = evaluate_mega_compiled(accelerator, mega).edp
                if not np.array_equal(got, expected[index]):
                    failures.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        for memo in (factor_rows, *tables.order_rows.values()):
            assert sorted(memo.codes.values()) == list(range(memo.count))
            matrix = memo.matrix()
            for row, code in memo.codes.items():
                assert matrix[code].tolist() == memo.lower(row)
