"""Redundancy pruning of the final subspace list (Section IV-B, last step).

A d-dimensional subspace ``T`` is removed from the output when the result list
contains a (d+1)-dimensional superset ``S ⊇ T`` with a strictly higher
contrast: the superset explains the same correlation structure at least as
well, so keeping ``T`` only dilutes the outlier ranking with redundant
projections (following the non-redundant subspace-mining idea of [22]).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..types import ScoredSubspace

__all__ = ["prune_redundant_subspaces"]


def prune_redundant_subspaces(
    scored_subspaces: Sequence[ScoredSubspace],
) -> List[ScoredSubspace]:
    """Drop subspaces dominated by a higher-contrast superset.

    The (d+1)-dimensional supersets of a d-dimensional ``T`` are exactly the
    subspaces that give ``T`` back when one of their attributes is removed.
    So one pass records, for every ``S \\ {a}``, the highest score among the
    recorded ``S``, and a second pass drops each ``T`` whose record beats its
    own score: ``O(S·d)`` dictionary lookups instead of ``O(S²)`` superset
    tests.

    Parameters
    ----------
    scored_subspaces:
        The scored subspaces collected over all levels of the search.

    Returns
    -------
    list of ScoredSubspace
        The non-redundant subspaces, sorted by decreasing contrast (ties broken
        by the attribute tuple for determinism; equal entries keep their input
        order).
    """
    items = list(scored_subspaces)
    best_superset: Dict[Tuple[int, ...], float] = {}
    for item in items:
        score = item.score
        if score != score:
            continue  # NaN compares false: it never dominates
        attributes = item.subspace.attributes
        for i in range(len(attributes)):
            subset = attributes[:i] + attributes[i + 1 :]
            recorded = best_superset.get(subset)
            if recorded is None or score > recorded:
                best_superset[subset] = score
    kept = []
    for item in items:
        recorded = best_superset.get(item.subspace.attributes)
        if recorded is None or not recorded > item.score:
            kept.append(item)
    return sorted(kept, key=lambda s: (-s.score, s.subspace.attributes))
