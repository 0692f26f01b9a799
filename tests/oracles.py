"""Reference implementations the production kernels are tested against.

They are kept short and obviously correct rather than fast; the differential
tests assert that the production code returns exactly what they return.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.types import ScoredSubspace


def prune_redundant_subspaces_quadratic(
    scored_subspaces: Sequence[ScoredSubspace],
) -> List[ScoredSubspace]:
    """Redundancy pruning by pairwise superset tests, ``O(S²)``.

    A subspace is dropped when another entry with exactly one more attribute
    contains it and has a strictly higher score; the survivors are sorted by
    decreasing score, ties by attribute tuple, equal entries in input order.
    """
    items = list(scored_subspaces)
    kept: List[ScoredSubspace] = []
    for candidate in items:
        dominated = False
        for other in items:
            if other.subspace == candidate.subspace:
                continue
            if not other.subspace.is_superset_of(candidate.subspace):
                continue
            if other.dimensionality - candidate.dimensionality != 1:
                continue
            if other.score > candidate.score:
                dominated = True
                break
        if not dominated:
            kept.append(candidate)
    return sorted(kept, key=lambda s: (-s.score, s.subspace.attributes))
