"""Unit and property tests for the sorted index and the subspace-slice sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ParameterError, SubspaceError
from repro.index import AttributeIndex, SliceSampler, SortedDatabaseIndex
from repro.types import Subspace


class TestAttributeIndex:
    def test_order_sorts_values(self):
        index = AttributeIndex(np.array([3.0, 1.0, 2.0]))
        assert index.order.tolist() == [1, 2, 0]
        assert index.sorted_values.tolist() == [1.0, 2.0, 3.0]

    def test_block_returns_object_indices(self):
        index = AttributeIndex(np.array([5.0, 1.0, 4.0, 2.0, 3.0]))
        block = index.block(start_rank=1, block_size=2)
        # Ranks 1 and 2 hold values 2.0 and 3.0 which live at rows 3 and 4.
        assert sorted(block.tolist()) == [3, 4]

    def test_block_mask(self):
        index = AttributeIndex(np.array([5.0, 1.0, 4.0]))
        mask = index.block_mask(0, 2)
        assert mask.tolist() == [False, True, True]

    def test_block_out_of_range(self):
        index = AttributeIndex(np.array([1.0, 2.0]))
        with pytest.raises(ParameterError):
            index.block(1, 2)
        with pytest.raises(ParameterError):
            index.block(0, 0)

    def test_value_bounds(self):
        index = AttributeIndex(np.array([10.0, 30.0, 20.0]))
        assert index.value_bounds(0, 2) == (10.0, 20.0)

    def test_rank_of_value(self):
        index = AttributeIndex(np.array([1.0, 2.0, 3.0, 4.0]))
        assert index.rank_of_value(2.5) == 2
        assert index.rank_of_value(0.0) == 0
        assert index.rank_of_value(10.0) == 4

    def test_ties_are_stable(self):
        index = AttributeIndex(np.array([1.0, 1.0, 1.0]))
        assert index.order.tolist() == [0, 1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            AttributeIndex(np.array([]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_property_block_sizes(self, values):
        index = AttributeIndex(np.asarray(values))
        block_size = max(1, len(values) // 3)
        mask = index.block_mask(0, block_size)
        assert mask.sum() == block_size


class TestSortedDatabaseIndex:
    def test_shapes(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        assert index.n_objects == 500
        assert index.n_dims == 3

    def test_lazy_build_and_cache(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        first = index.attribute_index(0)
        assert index.attribute_index(0) is first

    def test_build_all(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d).build_all()
        assert all(a in index for a in range(3))

    def test_out_of_range_attribute(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        with pytest.raises(SubspaceError):
            index.attribute_index(3)
        with pytest.raises(SubspaceError):
            index.values(-1)

    def test_values_returns_column(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        assert np.array_equal(index.values(1), correlated_2d[:, 1])

    def test_from_rank_matrix_rebuilds_identically(self, correlated_2d):
        built = SortedDatabaseIndex(correlated_2d).build_all()
        rebuilt = SortedDatabaseIndex.from_rank_matrix(correlated_2d, built.rank_matrix)
        assert np.array_equal(rebuilt.rank_matrix, built.rank_matrix)
        for attribute in range(built.n_dims):
            assert np.array_equal(
                rebuilt.attribute_index(attribute).order,
                built.attribute_index(attribute).order,
            )
            assert np.array_equal(
                rebuilt.attribute_index(attribute).sorted_values,
                built.attribute_index(attribute).sorted_values,
            )

    def test_from_rank_matrix_rejects_invalid(self, correlated_2d):
        built = SortedDatabaseIndex(correlated_2d).build_all()
        wrong_shape = built.rank_matrix[:, :2]
        with pytest.raises(ParameterError):
            SortedDatabaseIndex.from_rank_matrix(correlated_2d, wrong_shape)
        out_of_range = built.rank_matrix.copy()
        out_of_range[0, 0] = -1
        with pytest.raises(ParameterError):
            SortedDatabaseIndex.from_rank_matrix(correlated_2d, out_of_range)
        duplicated = built.rank_matrix.copy()
        duplicated[0, 0] = duplicated[1, 0]  # column no longer a permutation
        with pytest.raises(ParameterError):
            SortedDatabaseIndex.from_rank_matrix(correlated_2d, duplicated)


class TestSliceSampler:
    @pytest.fixture
    def sampler(self, correlated_2d) -> SliceSampler:
        return SliceSampler(SortedDatabaseIndex(correlated_2d), alpha=0.2, random_state=0)

    def test_per_condition_fraction(self, sampler):
        assert sampler.per_condition_fraction(2) == pytest.approx(np.sqrt(0.2))
        assert sampler.per_condition_fraction(4) == pytest.approx(0.2 ** 0.25)

    def test_per_condition_fraction_requires_2d(self, sampler):
        with pytest.raises(SubspaceError):
            sampler.per_condition_fraction(1)

    def test_block_size_scales_with_dimensionality(self, sampler):
        assert sampler.block_size(2) == round(500 * np.sqrt(0.2))
        assert sampler.block_size(5) > sampler.block_size(2)

    def test_expected_conditional_size_2d(self, sampler):
        # For |S| = 2 there is a single condition of selectivity sqrt(alpha).
        assert sampler.expected_conditional_size(2) == pytest.approx(500 * np.sqrt(0.2))

    def test_sample_slice_masks_and_conditions(self, sampler):
        slice_ = sampler.sample_slice(Subspace((0, 1)), test_attribute=0)
        assert slice_.test_attribute == 0
        assert len(slice_.conditions) == 1
        assert slice_.conditions[0].attribute == 1
        assert slice_.n_selected == sampler.block_size(2)

    def test_sample_slice_random_test_attribute(self, sampler):
        seen = {sampler.sample_slice(Subspace((0, 1, 2))).test_attribute for _ in range(30)}
        assert seen.issubset({0, 1, 2})
        assert len(seen) > 1

    def test_invalid_test_attribute(self, sampler):
        with pytest.raises(SubspaceError):
            sampler.sample_slice(Subspace((0, 1)), test_attribute=2)

    def test_one_dimensional_subspace_rejected(self, sampler):
        with pytest.raises(SubspaceError):
            sampler.sample_slice(Subspace((0,)))

    def test_subspace_out_of_range(self, sampler):
        with pytest.raises(SubspaceError):
            sampler.sample_slice(Subspace((0, 9)))

    def test_conditional_sample_matches_mask(self, sampler, correlated_2d):
        slice_ = sampler.sample_slice(Subspace((0, 1)), test_attribute=0)
        conditional = sampler.conditional_sample(slice_)
        expected = correlated_2d[slice_.selected_mask, 0]
        assert np.array_equal(conditional, expected)

    def test_marginal_sample_is_full_column(self, sampler, correlated_2d):
        assert np.array_equal(sampler.marginal_sample(2), correlated_2d[:, 2])

    def test_sample_slices_count(self, sampler):
        slices = sampler.sample_slices(Subspace((0, 1)), 5)
        assert len(slices) == 5

    def test_sample_slices_invalid_count(self, sampler):
        with pytest.raises(ParameterError):
            sampler.sample_slices(Subspace((0, 1)), 0)

    def test_conditioning_attributes(self, sampler):
        assert sampler.conditioning_attributes(Subspace((0, 1, 2)), 1) == [0, 2]
        with pytest.raises(SubspaceError):
            sampler.conditioning_attributes(Subspace((0, 1)), 2)

    def test_invalid_constructor_arguments(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        with pytest.raises(ParameterError):
            SliceSampler(index, alpha=0.0)
        with pytest.raises(ParameterError):
            SliceSampler(index, alpha=1.0)
        with pytest.raises(ParameterError):
            SliceSampler(index, alpha=0.5, min_block_size=0)
        with pytest.raises(ParameterError):
            SliceSampler("not an index", alpha=0.5)

    def test_reproducible_with_seed(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        a = SliceSampler(index, alpha=0.3, random_state=42)
        b = SliceSampler(index, alpha=0.3, random_state=42)
        slice_a = a.sample_slice(Subspace((0, 1)))
        slice_b = b.sample_slice(Subspace((0, 1)))
        assert slice_a.test_attribute == slice_b.test_attribute
        assert np.array_equal(slice_a.selected_mask, slice_b.selected_mask)

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.9),
        dims=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_conditional_size_independent_of_dimensionality(self, alpha, dims):
        """The expected conditional sample size stays near N * alpha^((d-1)/d).

        This is the paper's central argument for why the slices avoid the curse
        of dimensionality: every condition selects an exact index block, so the
        selected fraction per condition is deterministic; only the overlap of
        conditions is random.
        """
        rng = np.random.default_rng(0)
        data = rng.uniform(size=(400, dims))
        sampler = SliceSampler(SortedDatabaseIndex(data), alpha=alpha, random_state=1)
        subspace = Subspace(range(dims))
        sizes = [sampler.sample_slice(subspace).n_selected for _ in range(15)]
        expected = sampler.expected_conditional_size(dims)
        # Generous tolerance: overlaps fluctuate, but the mean must track the
        # analytic expectation within a factor of ~2 in both directions.
        assert expected / 2.5 <= np.mean(sizes) <= expected * 2.5 + 5


class TestMaskKernel:
    """The unsigned-offset mask kernel against the two-compare definition."""

    @staticmethod
    def reference_masks(index, attrs, start_ranks, block):
        selected = np.ones((start_ranks.shape[0], index.n_objects), dtype=bool)
        for j, attribute in enumerate(attrs):
            ranks = index.rank_column(int(attribute))[None, :]
            starts = start_ranks[:, j, None]
            selected &= ((ranks >= starts) & (ranks < starts + block)) | (starts < 0)
        return selected

    # Around the int16 and int32 limits of the narrowed offset type.
    @pytest.mark.parametrize("n", [2, 3, 1000, 32767, 32768])
    def test_masks_match_interval_tests(self, n):
        rng = np.random.default_rng(n)
        values = rng.integers(0, max(2, n // 3), size=(n, 3)).astype(float)  # ties
        index = SortedDatabaseIndex(values)
        attrs = np.array([0, 1, 2], dtype=np.intp)
        block = max(1, n // 2)
        start_ranks = rng.integers(0, n - block + 1, size=(6, 3))
        start_ranks[np.arange(6), rng.integers(0, 3, size=6)] = -1
        start_ranks[0] = [-1, 0, n - block]  # interval edges
        sampler = SliceSampler(index)
        masks = sampler.evaluate_masks_range(attrs, start_ranks, block, (0, n))
        assert np.array_equal(masks, self.reference_masks(index, attrs, start_ranks, block))
        lo, hi = n // 3, n - n // 4
        shard = sampler.evaluate_masks_range(attrs, start_ranks, block, (lo, hi))
        assert np.array_equal(shard, masks[:, lo:hi])
