"""Unit and property tests for factorization/composition utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_rounding import (
    reference_nearest_composition,
    reference_nearest_factorization,
)
from repro.mapspace.factors import (
    compositions,
    factorization_table,
    nearest_composition,
    nearest_compositions,
    nearest_factorization,
    sample_composition,
    sample_factorization,
    smallest_prime_factor,
    stacked_factorization_tables,
)


class TestSampleFactorization:
    @given(st.integers(min_value=1, max_value=512), st.integers(min_value=0, max_value=9999))
    @settings(max_examples=60)
    def test_product_is_n(self, n, seed):
        factors = sample_factorization(n, 4, seed)
        assert math.prod(factors) == n

    def test_deterministic(self):
        assert sample_factorization(96, 4, 5) == sample_factorization(96, 4, 5)

    def test_covers_space(self):
        rng = np.random.default_rng(0)
        seen = {sample_factorization(8, 2, rng) for _ in range(100)}
        assert seen == {(1, 8), (2, 4), (4, 2), (8, 1)}


class TestNearestFactorization:
    def test_exact_target(self):
        assert nearest_factorization(24, 3, [2, 3, 4]) == (2, 3, 4)

    def test_rounds_to_closest(self):
        # target (2.2, 2.8, 4.1) should still land on (2, 3, 4)
        assert nearest_factorization(24, 3, [2.2, 2.8, 4.1]) == (2, 3, 4)

    def test_product_always_n(self):
        result = nearest_factorization(36, 4, [10, 10, 10, 10])
        assert math.prod(result) == 36

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            nearest_factorization(12, 3, [1, 2])

    @given(
        st.integers(min_value=1, max_value=256),
        st.lists(st.floats(min_value=0.01, max_value=300), min_size=4, max_size=4),
    )
    @settings(max_examples=60)
    def test_valid_for_any_target(self, n, target):
        result = nearest_factorization(n, 4, target)
        assert math.prod(result) == n
        assert all(f >= 1 for f in result)


class TestNearestFactorizationParity:
    """The table-driven argmin is bitwise the early-exit reference scan."""

    @pytest.mark.parametrize("n", [1, 7, 12, 56, 224, 512, 768, 1000, 3072, 4096])
    def test_random_targets_match_reference(self, n):
        rng = np.random.default_rng(n)
        for _ in range(128):
            target = np.exp2(rng.uniform(-3.0, 14.0, size=4))
            assert nearest_factorization(n, 4, target) == (
                reference_nearest_factorization(n, 4, target)
            )

    @given(
        st.integers(min_value=1, max_value=4096),
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=3, max_size=3),
    )
    @settings(max_examples=80)
    def test_any_target_matches_reference(self, n, target):
        assert nearest_factorization(n, 3, target) == (
            reference_nearest_factorization(n, 3, target)
        )

    @pytest.mark.parametrize("exponent", [1, 3, 5, 9])
    def test_log_midpoint_tie_goes_to_first_option(self, exponent):
        """A target at the log-midpoint of (2^a, 2^(a+1)) and its mirror:
        both distances are the same sum in another order, so they tie
        exactly, and the option enumerated first must win."""
        n = 2**exponent
        middle = 2 ** (exponent / 2)
        half = exponent // 2
        result = nearest_factorization(n, 2, [middle, middle])
        assert result == (2**half, 2 ** (exponent - half))
        assert result == reference_nearest_factorization(n, 2, [middle, middle])

    def test_many_way_tie_goes_to_first_option(self):
        """Four equal targets tie every permutation of a factor multiset."""
        for n in (2**5, 2**6, 2**7, 3 * 2**5):
            target = [n ** 0.25] * 4
            assert nearest_factorization(n, 4, target) == (
                reference_nearest_factorization(n, 4, target)
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_target_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            nearest_factorization(24, 3, [2.0, bad, 4.0])

    def test_tables_are_cached_and_read_only(self):
        options, logs = factorization_table(24, 3)
        assert factorization_table(24, 3)[1] is logs
        assert logs.shape == (len(options), 3)
        assert not logs.flags.writeable

    def test_stacked_tables_pad_with_inf(self):
        factors, logs = stacked_factorization_tables((2, 12), 2)
        assert factors.shape == logs.shape == (2, 6, 2)
        assert np.isinf(logs[0, 2:]).all() and np.isfinite(logs[1]).all()
        assert [tuple(row) for row in factors[1]] == list(factorization_table(12, 2)[0])


class TestCompositions:
    def test_basic(self):
        assert set(compositions(4, 2)) == {(1, 3), (2, 2), (3, 1)}

    def test_min_each(self):
        assert compositions(6, 2, min_each=2) == ((2, 4), (3, 3), (4, 2))

    def test_single_part(self):
        assert compositions(5, 1) == ((5,),)

    def test_count_formula(self):
        # C(total - parts + parts - 1, parts - 1) for min_each=1
        assert len(compositions(10, 3)) == math.comb(9, 2)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            compositions(2, 3)

    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=1, max_value=3))
    def test_all_sum_to_total(self, total, parts):
        for option in compositions(total, parts):
            assert sum(option) == total
            assert all(x >= 1 for x in option)


class TestSampleComposition:
    @given(
        st.integers(min_value=3, max_value=32),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60)
    def test_valid(self, total, parts, seed):
        result = sample_composition(total, parts, seed)
        assert sum(result) == total
        assert all(x >= 1 for x in result)

    def test_uniformity_rough(self):
        rng = np.random.default_rng(0)
        counts = {}
        for _ in range(600):
            counts[sample_composition(4, 2, rng)] = counts.get(sample_composition(4, 2, rng), 0) + 1
        # all three compositions of 4 into 2 parts should appear
        assert set(counts) == {(1, 3), (2, 2), (3, 1)}

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            sample_composition(1, 3, 0)


class TestNearestComposition:
    def test_respects_proportions(self):
        result = nearest_composition(10, 2, [0.8, 0.2])
        assert result == (8, 2)

    def test_sums_to_total(self):
        result = nearest_composition(7, 3, [0.5, 0.3, 0.2])
        assert sum(result) == 7

    def test_zero_target_falls_back_to_even(self):
        result = nearest_composition(6, 3, [0.0, 0.0, 0.0])
        assert sum(result) == 6
        assert all(x >= 1 for x in result)

    def test_min_each_enforced(self):
        result = nearest_composition(5, 3, [100.0, 0.0, 0.0])
        assert result[1] >= 1 and result[2] >= 1

    @given(
        st.integers(min_value=4, max_value=32),
        st.lists(st.floats(min_value=0, max_value=10), min_size=4, max_size=4),
    )
    @settings(max_examples=60)
    def test_always_valid(self, total, target):
        result = nearest_composition(total, 4, target)
        assert sum(result) == total
        assert all(x >= 1 for x in result)


class TestNearestCompositionsParity:
    """The row-vectorized rounding is bitwise the scalar reference loop."""

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_rows_match_reference(self, parts):
        rng = np.random.default_rng(parts)
        targets = np.concatenate(
            [
                rng.uniform(0.0, 1.0, (40, parts)),
                rng.normal(size=(40, parts)),
                np.exp2(rng.uniform(0.0, 30.0, (40, parts))),
                rng.integers(0, 3, (40, parts)) / 2.0,
                np.zeros((2, parts)),
            ]
        )
        totals = rng.integers(parts, 64, len(targets))
        rows = nearest_compositions(totals, parts, targets)
        for total, target, row in zip(totals, targets, rows):
            assert tuple(row) == reference_nearest_composition(int(total), parts, target)
        for total in (parts, 8 * parts):
            for target in targets[:20]:
                assert nearest_composition(total, parts, target) == (
                    reference_nearest_composition(total, parts, target)
                )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_target_raises(self, bad):
        with pytest.raises(ValueError, match="NaN or \\+inf"):
            nearest_composition(8, 3, [0.5, bad, 0.2])

    def test_negative_infinity_reads_as_zero(self):
        assert nearest_composition(8, 3, [0.5, -math.inf, 0.2]) == (
            nearest_composition(8, 3, [0.5, 0.0, 0.2])
        )


class TestSmallestPrimeFactor:
    def test_one(self):
        assert smallest_prime_factor(1) == 1

    def test_prime(self):
        assert smallest_prime_factor(13) == 13

    def test_even(self):
        assert smallest_prime_factor(24) == 2

    def test_odd_composite(self):
        assert smallest_prime_factor(49) == 7

    @given(st.integers(min_value=2, max_value=10_000))
    def test_divides_and_is_prime(self, n):
        p = smallest_prime_factor(n)
        assert n % p == 0
        assert all(p % q for q in range(2, int(math.isqrt(p)) + 1))
