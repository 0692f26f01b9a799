"""Batch workloads (``search-wide``, ``rank-tall``): ``cold_fits`` fits of
fresh pipelines and ``cold_ranks`` in-sample ranks, then a closed-loop probe that scores
new objects one request at a time on the fitted pipeline, as a library user
scoring a stream would.
The save/load round trip is checked by ``serve-open``, whose server loads
the model from its file.

Host speed on a small shared machine swings by about 15% over a few
seconds, so after the first fit and rank the short operations (extra fits
or ranks, chunks of probe requests) run round-robin until the run's time is
up, and each metric is the median over the whole run rather than over one
burst.  Its slower drift over minutes is taken out by ``common.HostClock``.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from typing import Dict, List, Optional

import numpy as np

import common
from spans import Tracer


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _pipeline(params: Dict[str, object], seed: int):
    from repro import SubspaceOutlierPipeline
    from repro.outliers.lof import LOFScorer
    from repro.subspaces import HiCS

    return SubspaceOutlierPipeline(
        HiCS(random_state=common.contrast_seed(params, seed), **params["hics"]),  # type: ignore[arg-type]
        LOFScorer(**params["lof"]),  # type: ignore[arg-type]
        **params.get("pipeline", {}),  # type: ignore[arg-type]
    )


class _Phases:
    """Fits and ranks of fresh pipelines, each timed, scores hashed."""

    def __init__(self, params, seed, data, tracer, clock):
        self.params, self.seed, self.data, self.tracer, self.clock = params, seed, data, tracer, clock
        self.fit_s: List[common.Timed] = []
        self.rank_s: List[common.Timed] = []
        self.digests = set()

    def fit(self):
        pipeline = _pipeline(self.params, self.seed)
        with self.clock.measure() as timed:
            pipeline.fit(self.data)
        self.fit_s.append(timed)
        return pipeline

    def rank(self, pipeline) -> np.ndarray:
        # Every rank builds its own neighbour engine, so a repeat is as
        # cold as the first.
        with self.clock.measure() as timed, _span(self.tracer, "bench.rank"):
            scores = pipeline.ranker.rank(pipeline.reference_data_, pipeline.subspaces_).scores
        self.rank_s.append(timed)
        self.digests.add(common.digest(scores))
        return scores


def run(
    name: str,
    params: Dict[str, object],
    seed: int,
    seconds: float,
    workdir: str,
    auc_floor: float,
    limit_ms: float,
    tracer: Optional[Tracer] = None,
) -> Dict[str, object]:
    started = time.perf_counter()
    # Traced runs sample only where a measured interval starts or ends, outside every layer span.
    clock = common.HostClock(period=None if tracer else common.SAMPLE_PERIOD_S)
    with clock.ticking():
        setup_times = []
        for _ in range(int(params["setup_repeats"])):
            with clock.measure() as timed:
                data, labels = common.make_labelled_data(params, seed)
            setup_times.append(timed)
        probe = params["probe"]
        queries = common.probe_queries(data, int(probe["pool"]), seed)  # type: ignore[index]
        plan = common.request_plan(
            int(probe["requests"]), int(probe["batch_every"]), int(probe["batch_size"]),  # type: ignore[index]
            queries.shape[0], seed,
        )

        phases = _Phases(params, seed, data, tracer, clock)
        answers: List[np.ndarray] = []
        wall_ms: List[float] = []
        chunks: List[common.Timed] = []  # the chunk each request ran in
        with contextlib.closing(phases.fit()) as pipeline:
            for _ in range(int(params.get("cold_fits", 1)) - 1):
                phases.fit().close()
            for _ in range(int(params.get("cold_ranks", 1))):
                scores = phases.rank(pipeline)
            # The serving contract: each probe answer must equal the pipeline's
            # independent scores of the whole pool, bit for bit.  This call also
            # warms the reference neighbour state the probe reuses.
            expected = pipeline.score_samples(queries, independent=True)
            with _span(tracer, "bench.probe"):
                requests = itertools.cycle(plan)
                chunk = int(probe["chunk"])  # type: ignore[index]
                while len(wall_ms) < len(plan) or time.perf_counter() - started < seconds:
                    with clock.measure() as timed:
                        for rows in itertools.islice(requests, chunk):
                            tick = clock.now()
                            answers.append(pipeline.score_samples(queries[rows], independent=True))
                            wall_ms.append((clock.now() - tick) * 1000.0)
                            chunks.append(timed)
                    if params.get("repeat") == "fit":
                        phases.fit().close()
                    elif params.get("repeat") == "rank":
                        phases.rank(pipeline)
    latency_ms = [ms * timed.scale for ms, timed in zip(wall_ms, chunks)]  # reference ms
    in_sample_ok = common.scores_ok(scores, data.shape[0])
    auc = common.auc(labels, scores) if in_sample_ok else 0.0

    sent = [plan[i % len(plan)] for i in range(len(latency_ms))]
    right = [
        common.scores_ok(got, len(rows)) and np.array_equal(got, expected[rows])
        for rows, got in zip(sent, answers)
    ]
    single_ms = [ms for rows, ms in zip(sent, latency_ms) if len(rows) == 1]
    batch_ms = [ms for rows, ms in zip(sent, latency_ms) if len(rows) > 1]
    # The limit is on the latency a caller saw.
    good_singles = sum(
        1 for rows, ms, ok in zip(sent, wall_ms, right) if len(rows) == 1 and ok and ms <= limit_ms
    )
    metrics = {
        "setup_s": common.median([t.seconds for t in setup_times]),
        "fit_s": common.median([t.seconds for t in phases.fit_s]),
        "rank_s": common.median([t.seconds for t in phases.rank_s]),
        "auc": auc,
        "peak_rss_mb": common.peak_rss_mb(),
        "score_p50_ms": common.median(single_ms),
        "batch_p50_ms": common.median(batch_ms),
        "goodput_rps": good_singles / (sum(latency_ms) / 1000.0),
    }
    return {
        "metrics": metrics,
        "attempted": 1 + len(latency_ms),
        "failed": int(not (in_sample_ok and auc >= auc_floor and len(phases.digests) == 1))
        + right.count(False),
        "detail": {
            "workload": name,
            "setup_wall_s": [t.wall for t in setup_times],
            "fit_wall_s": [t.wall for t in phases.fit_s],
            "fit_scale": [t.scale for t in phases.fit_s],
            "rank_wall_s": [t.wall for t in phases.rank_s],
            "rank_scale": [t.scale for t in phases.rank_s],
            "probe_requests": len(latency_ms),
            "host_cal": clock.summary(),
            "single_ms": common.latency_summary(single_ms),
            "auc_floor": auc_floor,
            # One hash per distinct score vector: repeats must add none.
            "score_digest": "+".join(sorted(phases.digests | {common.digest(expected)})),
        },
    }
