"""Descriptive statistics: sample moments used by the Welch t-test.

The paper's HiCS_WT variant extracts the first two statistical moments of each
sample (mean and variance) and compares the samples through those moments.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import DataError

__all__ = [
    "sample_mean",
    "sample_variance",
    "sample_std",
    "sample_moments",
    "sample_moments_batch",
]


def _as_sample(values: np.ndarray, name: str = "sample") -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise DataError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains NaN or infinite values")
    return arr


def sample_mean(values: np.ndarray) -> float:
    """Arithmetic mean of a one-dimensional sample."""
    return float(np.mean(_as_sample(values)))


def sample_variance(values: np.ndarray, ddof: int = 1) -> float:
    """Sample variance.

    Parameters
    ----------
    values:
        One-dimensional sample.
    ddof:
        Delta degrees of freedom; the default 1 gives the unbiased estimator
        used in the Welch test statistic.  Samples of size one have an
        undefined unbiased variance and return 0.0 by convention.
    """
    arr = _as_sample(values)
    if arr.size <= ddof:
        return 0.0
    return float(np.var(arr, ddof=ddof))


def sample_std(values: np.ndarray, ddof: int = 1) -> float:
    """Sample standard deviation (square root of :func:`sample_variance`)."""
    return float(np.sqrt(sample_variance(values, ddof=ddof)))


def sample_moments(values: np.ndarray) -> Tuple[float, float, int]:
    """Return ``(mean, variance, n)`` of a sample in a single pass.

    This is the moment extraction step of the HiCS_WT deviation function.
    """
    arr = _as_sample(values)
    n = arr.size
    mean = float(np.mean(arr))
    variance = float(np.var(arr, ddof=1)) if n > 1 else 0.0
    return mean, variance, n


#: Below this many samples :func:`sample_moments_batch` reduces each sample
#: on its own; at or above it, samples of equal length are stacked into 2-D
#: blocks and reduced one block at a time.  Grouping pays one argsort and a
#: handful of whole-array passes up front, which a few dozen per-sample
#: reductions (one subspace's Monte Carlo iterations) do not win back.
_GROUPED_MIN_SAMPLES = 256


def sample_moments_batch(
    samples: Union[np.ndarray, Sequence[np.ndarray]],
    counts: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(means, variances, sizes)`` arrays for many 1-D samples.

    The batched hot-path counterpart of :func:`sample_moments`.  ``samples``
    is either a sequence of 1-D arrays or, with ``counts``, one flat array
    holding the samples back to back (``counts[i]`` values each).
    Finiteness validation is skipped (callers pass slices of an
    already-validated data matrix).

    Every mean and variance is bit-for-bit what :func:`sample_moments`
    returns for the same sample (the property suite asserts this): sums go
    through ``np.add.reduce``, the pairwise summation ``np.mean`` and
    ``np.var`` use.  Many samples are grouped by length and each group is
    reduced as a C-contiguous ``(k, L)`` block along its rows, which runs the
    same pairwise kernel over each row.  ``np.add.reduceat`` is not used: its
    segment sums are sequential, not pairwise.
    """
    if counts is None:
        pieces = [np.asarray(sample, dtype=float).ravel() for sample in samples]
        counts = np.array([piece.size for piece in pieces], dtype=np.intp)
        values = np.concatenate(pieces) if pieces else np.empty(0, dtype=float)
    else:
        values = np.asarray(samples, dtype=float)
        counts = np.asarray(counts, dtype=np.intp)
    if counts.size and counts.min() <= 0:
        raise DataError("sample must not be empty")
    if counts.size < _GROUPED_MIN_SAMPLES:
        means, variances = _moments_per_sample(values, counts)
    else:
        means, variances = _moments_grouped(values, counts)
    return means, variances, counts.copy()


def _moments_per_sample(
    values: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    means = np.empty(counts.size, dtype=float)
    variances = np.zeros(counts.size, dtype=float)
    start = 0
    for i, n in enumerate(counts.tolist()):
        sample = values[start : start + n]
        start += n
        mean = np.add.reduce(sample) / n
        means[i] = mean
        if n > 1:
            centred = sample - mean
            variances[i] = np.add.reduce(centred * centred) / (n - 1)
    return means, variances


def _moments_grouped(
    values: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    order = None
    if np.any(counts[1:] < counts[:-1]):
        # Bring samples of equal length next to each other (stable, so equal
        # lengths keep their order); callers that pass length-sorted samples
        # skip this gather.
        order = np.argsort(counts, kind="stable")
        starts = np.cumsum(counts) - counts
        counts = counts[order]
        sorted_starts = np.cumsum(counts) - counts
        shift = np.repeat(starts[order] - sorted_starts, counts)
        values = values[shift + np.arange(values.size)]
    starts = np.cumsum(counts) - counts
    edges = np.flatnonzero(counts[1:] != counts[:-1]) + 1
    groups = list(zip([0] + edges.tolist(), edges.tolist() + [counts.size]))

    def row_sums(array: np.ndarray) -> np.ndarray:
        sums = np.empty(counts.size, dtype=float)
        for lo, hi in groups:
            length = int(counts[lo])
            begin = int(starts[lo])
            block = array[begin : begin + (hi - lo) * length].reshape(hi - lo, length)
            np.add.reduce(block, axis=1, out=sums[lo:hi])
        return sums

    means = row_sums(values) / counts
    centred = np.repeat(means, counts)
    np.subtract(values, centred, out=centred)
    centred *= centred
    squares = row_sums(centred)
    multi = counts > 1
    variances = np.zeros(counts.size, dtype=float)
    variances[multi] = squares[multi] / (counts[multi] - 1)
    if order is not None:
        means[order], variances[order] = means.copy(), variances.copy()
    return means, variances
