"""Tests for the Apriori-style candidate generation, cutoff and redundancy pruning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from oracles import prune_redundant_subspaces_quadratic

from repro.exceptions import ParameterError, SubspaceError
from repro.subspaces.apriori import (
    all_two_dimensional_subspaces,
    apply_cutoff,
    generate_candidates,
    merge_subspaces,
)
from repro.subspaces.pruning import prune_redundant_subspaces
from repro.types import ScoredSubspace, Subspace

_scored_lists = st.lists(
    st.tuples(
        st.sets(st.integers(min_value=0, max_value=7), min_size=2, max_size=6),
        # A few distinct values, so equal scores are common.
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    ),
    min_size=0,
    max_size=30,
)


class TestTwoDimensionalStart:
    def test_counts(self):
        assert len(all_two_dimensional_subspaces(5)) == 10
        assert len(all_two_dimensional_subspaces(2)) == 1

    def test_all_pairs_unique_and_sorted(self):
        subspaces = all_two_dimensional_subspaces(4)
        assert len({s.attributes for s in subspaces}) == 6
        assert all(s.dimensionality == 2 for s in subspaces)

    def test_too_few_dimensions(self):
        with pytest.raises(ParameterError):
            all_two_dimensional_subspaces(1)

    @given(st.integers(min_value=2, max_value=30))
    def test_property_binomial_count(self, n_dims):
        subspaces = all_two_dimensional_subspaces(n_dims)
        assert len(subspaces) == n_dims * (n_dims - 1) // 2


class TestMerge:
    def test_shared_prefix_merges(self):
        merged = merge_subspaces(Subspace((0, 1)), Subspace((0, 2)))
        assert merged.attributes == (0, 1, 2)

    def test_different_prefix_does_not_merge(self):
        assert merge_subspaces(Subspace((0, 1)), Subspace((2, 3))) is None

    def test_identical_last_attribute_does_not_merge(self):
        assert merge_subspaces(Subspace((0, 1)), Subspace((0, 1))) is None

    def test_dimensionality_mismatch_raises(self):
        with pytest.raises(SubspaceError):
            merge_subspaces(Subspace((0, 1)), Subspace((0, 1, 2)))

    def test_three_dimensional_merge(self):
        merged = merge_subspaces(Subspace((1, 2, 5)), Subspace((1, 2, 7)))
        assert merged.attributes == (1, 2, 5, 7)


class TestGenerateCandidates:
    def test_from_all_pairs_of_three_dims(self):
        pairs = all_two_dimensional_subspaces(3)
        candidates = generate_candidates(pairs)
        assert [c.attributes for c in candidates] == [(0, 1, 2)]

    def test_empty_input(self):
        assert generate_candidates([]) == []

    def test_mixed_dimensionality_rejected(self):
        with pytest.raises(SubspaceError):
            generate_candidates([Subspace((0, 1)), Subspace((0, 1, 2))])

    def test_candidates_unique_and_higher_dimensional(self):
        level = [Subspace(p) for p in [(0, 1), (0, 2), (0, 3), (1, 2)]]
        candidates = generate_candidates(level)
        assert all(c.dimensionality == 3 for c in candidates)
        assert len({c.attributes for c in candidates}) == len(candidates)
        assert Subspace((0, 1, 2)) in candidates
        assert Subspace((0, 1, 3)) in candidates
        assert Subspace((0, 2, 3)) in candidates

    def test_subset_support_pruning(self):
        # (0,1,2) needs all of (0,1), (0,2), (1,2) present when support is required.
        level = [Subspace((0, 1)), Subspace((0, 2))]
        without_support = generate_candidates(level, require_subset_support=False)
        with_support = generate_candidates(level, require_subset_support=True)
        assert Subspace((0, 1, 2)) in without_support
        assert Subspace((0, 1, 2)) not in with_support

    @given(
        st.sets(
            st.tuples(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8)),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=40)
    def test_property_candidates_are_supersets_of_two_parents(self, raw_pairs):
        level = [Subspace(p) for p in raw_pairs if p[0] != p[1]]
        level = list({s.attributes: s for s in level}.values())
        if not level:
            return
        candidates = generate_candidates(level)
        parents = {s.attributes for s in level}
        for candidate in candidates:
            assert candidate.dimensionality == 3
            contained_parents = [
                p for p in parents if set(p).issubset(candidate.attributes)
            ]
            assert len(contained_parents) >= 2


class TestCutoff:
    def test_keeps_top_k_by_score(self):
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.2),
            ScoredSubspace(Subspace((0, 2)), 0.9),
            ScoredSubspace(Subspace((1, 2)), 0.5),
        ]
        kept = apply_cutoff(scored, 2)
        assert [s.subspace.attributes for s in kept] == [(0, 2), (1, 2)]

    def test_cutoff_larger_than_list(self):
        scored = [ScoredSubspace(Subspace((0, 1)), 0.2)]
        assert len(apply_cutoff(scored, 10)) == 1

    def test_ties_broken_deterministically(self):
        scored = [
            ScoredSubspace(Subspace((1, 2)), 0.5),
            ScoredSubspace(Subspace((0, 1)), 0.5),
        ]
        kept = apply_cutoff(scored, 1)
        assert kept[0].subspace.attributes == (0, 1)

    def test_invalid_cutoff(self):
        with pytest.raises(ParameterError):
            apply_cutoff([], 0)


class TestPruning:
    def test_lower_dimensional_dominated_subspace_removed(self):
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.6),
            ScoredSubspace(Subspace((0, 1, 2)), 0.8),
        ]
        kept = prune_redundant_subspaces(scored)
        assert [s.subspace.attributes for s in kept] == [(0, 1, 2)]

    def test_higher_contrast_subset_is_kept(self):
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.9),
            ScoredSubspace(Subspace((0, 1, 2)), 0.4),
        ]
        kept = prune_redundant_subspaces(scored)
        assert {s.subspace.attributes for s in kept} == {(0, 1), (0, 1, 2)}

    def test_equal_contrast_keeps_both(self):
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.5),
            ScoredSubspace(Subspace((0, 1, 2)), 0.5),
        ]
        assert len(prune_redundant_subspaces(scored)) == 2

    def test_strict_dimension_gap_by_default(self):
        # A (d+2)-dimensional superset does not prune under the paper's rule.
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.5),
            ScoredSubspace(Subspace((0, 1, 2, 3)), 0.9),
        ]
        default = prune_redundant_subspaces(scored)
        assert {s.subspace.attributes for s in default} == {(0, 1), (0, 1, 2, 3)}

    def test_duplicates_and_nan_scores(self):
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.5),
            ScoredSubspace(Subspace((0, 1)), 0.7),
            ScoredSubspace(Subspace((0, 1, 2)), 0.6),
            ScoredSubspace(Subspace((0, 1, 2)), float("nan")),
            ScoredSubspace(Subspace((1, 2)), float("nan")),
        ]
        kept = prune_redundant_subspaces(scored)
        # (0, 1) at 0.5 is beaten by (0, 1, 2) at 0.6; the copy at 0.7 is not.
        # NaN neither dominates nor is dominated.
        assert {(s.subspace.attributes, s.score) for s in kept if s.score == s.score} == {
            ((0, 1), 0.7),
            ((0, 1, 2), 0.6),
        }
        assert len(kept) == 4
        assert all(a is b for a, b in zip(kept, prune_redundant_subspaces_quadratic(scored)))

    def test_output_sorted_by_score(self):
        scored = [
            ScoredSubspace(Subspace((2, 3)), 0.3),
            ScoredSubspace(Subspace((0, 1)), 0.7),
            ScoredSubspace(Subspace((4, 5)), 0.5),
        ]
        kept = prune_redundant_subspaces(scored)
        assert [s.score for s in kept] == [0.7, 0.5, 0.3]

    def test_empty_input(self):
        assert prune_redundant_subspaces([]) == []

    @given(
        st.lists(
            st.tuples(
                st.sets(st.integers(min_value=0, max_value=6), min_size=2, max_size=4),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=0,
            max_size=12,
        )
    )
    @settings(max_examples=40)
    def test_property_pruned_output_is_subset_and_every_drop_is_justified(self, raw):
        scored = [ScoredSubspace(Subspace(attrs), score) for attrs, score in raw]
        # Deduplicate subspaces, keeping the first occurrence.
        unique = list({s.subspace: s for s in scored}.values())
        kept = prune_redundant_subspaces(unique)
        kept_set = {s.subspace for s in kept}
        assert kept_set.issubset({s.subspace for s in unique})
        for item in unique:
            if item.subspace in kept_set:
                continue
            justification = [
                other
                for other in unique
                if other.subspace.is_superset_of(item.subspace)
                and other.subspace != item.subspace
                and other.dimensionality == item.dimensionality + 1
                and other.score > item.score
            ]
            assert justification, "a subspace was pruned without a dominating superset"

    @given(
        raw=_scored_lists,
        repeats=st.lists(st.integers(min_value=0, max_value=29), max_size=6),
        skipped_dims=st.sets(st.integers(min_value=2, max_value=6), max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_quadratic_oracle(self, raw, repeats, skipped_dims):
        # Duplicated entries (also with different scores), ties, dims 2-6 and
        # lists with whole levels missing.
        scored = [
            ScoredSubspace(Subspace(attrs), score)
            for attrs, score in raw
            if len(attrs) not in skipped_dims
        ]
        scored += [scored[i] for i in repeats if i < len(scored)]
        scored += [
            ScoredSubspace(scored[i].subspace, 0.5) for i in repeats if i < len(scored)
        ]
        expected = prune_redundant_subspaces_quadratic(scored)
        kept = prune_redundant_subspaces(scored)
        assert len(kept) == len(expected)
        assert all(a is b for a, b in zip(kept, expected))
