"""Helpers shared by the workloads: inputs, statistics and checks."""

from __future__ import annotations

import contextlib
import hashlib
import math
import resource
import signal
import statistics
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


def make_labelled_data(params: Dict[str, object], seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Generated data and 0/1 outlier labels, from ``structure_seed`` when set.

    The planted structure (which attributes are correlated, where the
    outliers sit) and the Monte Carlo draws (see :func:`contrast_seed`) set
    how deep the apriori search goes: drawing them per seed swings a
    paper-scale fit between 14 and 26 seconds, which no speed bound could
    absorb.  Workloads therefore pin the reference data and let the run
    seed pick the query side: probe objects, request order and arrival times.
    """
    from repro import generate_synthetic_dataset

    structure_seed = params.get("structure_seed")
    dataset = generate_synthetic_dataset(
        random_state=seed if structure_seed is None else int(structure_seed),  # type: ignore[arg-type]
        **params["generator"],  # type: ignore[arg-type]
    )
    return dataset.data, np.asarray(dataset.labels, dtype=int)


def contrast_seed(params: Dict[str, object], seed: int) -> int:
    """HiCS ``random_state``: the workload's ``structure_seed``, else ``seed``."""
    return int(params.get("structure_seed", seed))  # type: ignore[arg-type]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the value with ``ceil(q% * n)`` values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """Sample count and nearest-rank percentiles of latencies, for the
    detail record; the tails are not end-to-end metrics (see spec.json)."""
    summary = {"n": float(len(values))}
    summary.update({f"p{q}": percentile(values, q) for q in (50, 90, 95, 98, 99)})
    return summary


# host_cal() took about this long on the 2-vCPU host the baseline was
# recorded on; times are reported in seconds of a host where it takes
# exactly this long.
REFERENCE_CAL_S = 0.02
# How often HostClock samples the host's speed while ticking (each sample
# takes about 20 ms of it).
SAMPLE_PERIOD_S = 0.5
# Samples this close to an interval count towards its scale.
WINDOW_S = 1.0
_CAL_SORT = np.random.default_rng(0).random(200_000)
_CAL_SMALL = np.random.default_rng(1).random((300, 50))


def host_cal() -> float:
    """Seconds a fixed mix of interpreter, small-array and sort work takes
    (about 20 ms): the three kinds of work the workloads spend their time in."""
    tick = time.perf_counter()
    total = 0
    for j in range(60_000):
        total += j * j
    for _ in range(4):
        np.sort(_CAL_SORT)
        np.argpartition(_CAL_SORT, 100)
    for _ in range(200):
        (_CAL_SMALL[:, :5] ** 2).sum(axis=1).argsort()[:10]
    return time.perf_counter() - tick


class Timed:
    """One measured interval: wall seconds with calibration taken out, and
    when it ran (with its two bracketing samples), so its clock can tell the
    host's speed around it."""

    def __init__(self, clock: "HostClock") -> None:
        self.clock = clock
        self.start = self.end = self.wall = 0.0

    @property
    def scale(self) -> float:
        """Reference seconds per wall second around this interval."""
        return self.clock.scale(self.start, self.end)

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


class HostClock:
    """Wall time with the host's speed taken out.

    The benchmark host is a few vCPUs of a shared machine whose speed flips
    between a fast and an up to 2x slower state every few seconds to
    minutes, which moves every time of a run together: ten runs of one code
    spread by 0.25-0.5 of their median.  So the clock times ``host_cal()``
    when each :meth:`measure` starts and ends, and every ``period`` seconds
    while :meth:`ticking` (a SIGALRM timer in the main thread), and reports
    an interval in reference seconds: wall seconds times ``REFERENCE_CAL_S``
    over the median sample taken during it or within ``WINDOW_S`` of it (one
    20 ms sample is too noisy to scale by alone).  :meth:`now` is
    ``perf_counter`` minus the time spent calibrating, so no interval
    contains a sample.  Read scales once the run is over, when the samples
    after each interval are in.
    """

    def __init__(self, period: Optional[float]) -> None:
        self.period = period
        self.spent = 0.0
        self.samples: List[Tuple[float, float]] = []  # (perf_counter, seconds)
        self._sampling = False

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self) -> None:
        # A timer tick during a sample would nest one inside the other.
        if self._sampling:
            return
        self._sampling = True
        try:
            tick = time.perf_counter()
            self.samples.append((tick, host_cal()))
            self.spent += time.perf_counter() - tick
        finally:
            self._sampling = False

    @contextlib.contextmanager
    def measure(self) -> Iterator[Timed]:
        timed = Timed(self)
        timed.start = time.perf_counter()
        self.sample()
        begin = self.now()
        yield timed
        timed.wall = self.now() - begin
        self.sample()
        timed.end = time.perf_counter()

    def scale(self, start: float, end: float) -> float:
        near = [took for at, took in self.samples if start - WINDOW_S <= at <= end + WINDOW_S]
        return REFERENCE_CAL_S / statistics.median(near)

    @contextlib.contextmanager
    def ticking(self) -> Iterator[None]:
        """Sample every ``period`` seconds until the block ends (no-op without a period)."""
        if not self.period:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def summary(self) -> Dict[str, float]:
        """Sample count and quartiles of every sample, for the detail record."""
        q1, med, q3 = statistics.quantiles([took for _, took in self.samples], n=4)
        return {"n": float(len(self.samples)), "q1_s": q1, "median_s": med, "q3_s": q3}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def digest(*arrays: np.ndarray) -> str:
    """Short hash of the exact score bytes, to compare runs and commits."""
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return hasher.hexdigest()[:16]


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    from repro.evaluation import roc_auc_score

    return float(roc_auc_score(labels, scores))


def scores_ok(scores: np.ndarray, n: int) -> bool:
    scores = np.asarray(scores)
    return scores.shape == (n,) and bool(np.all(np.isfinite(scores)))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_queries(data: np.ndarray, count: int, seed: int) -> np.ndarray:
    """New objects to score: half jittered reference rows, half uniform."""
    rng = np.random.default_rng([int(seed), 0x9E1])
    near = data[rng.integers(0, data.shape[0], size=count - count // 2)]
    near = np.clip(near + rng.normal(0.0, 0.02, size=near.shape), 0.0, 1.0)
    far = rng.uniform(0.0, 1.0, size=(count // 2, data.shape[1]))
    queries = np.vstack([near, far])
    return queries[rng.permutation(count)]


def request_plan(n_requests: int, batch_every: int, batch_size: int, n_pool: int, seed: int):
    """Which pool rows each request scores: every ``batch_every``-th request is
    a batch of ``batch_size`` rows, the rest single rows.  Single requests
    walk a seeded permutation of the pool, so every row is scored singly once
    the plan has at least ``n_pool`` single requests."""
    rng = np.random.default_rng([int(seed), 0x91A])
    order: List[int] = []
    plan: List[List[int]] = []
    for i in range(n_requests):
        if batch_every and i % batch_every == batch_every - 1:
            plan.append([int(r) for r in rng.integers(0, n_pool, size=batch_size)])
            continue
        if not order:
            order = [int(r) for r in rng.permutation(n_pool)][::-1]
        plan.append([order.pop()])
    return plan
