"""``serve-open``: fit and save a model, start ``repro-hics serve`` in a
subprocess, offer open-loop Poisson traffic at a nominal rate over a few
keep-alive connections, then send requests back to back in a closed loop,
and check every served score.

The latency and goodput metrics come from the closed loop on one
connection, so each request is served alone and its latency moves in
proportion to the server's speed, which ``common.HostClock`` can then take
the host's speed out of.  On a shared host whose speed drifts between runs,
the other designs tried amplified that drift: open-loop latency at
0.3-0.45 of capacity (its quartiles across ten runs of one code lay as far
apart as the median itself), and a closed loop on two connections (median
23-45 ms across runs whose fit_s moved 2.1-2.8 s).
The open-loop phase still checks the answers, micro-batched ones
included, and reports its latencies and the generator's lag in the run's
detail record.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import http.client
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
import loadgen
from offline import _pipeline
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
HOST = "127.0.0.1"


def split_queries(
    data: np.ndarray, labels: np.ndarray, pool: int, seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hold out ``pool`` rows (half of the planted outliers among them) as
    the labelled query pool; the rest is the reference the model is fitted on."""
    rng = np.random.default_rng([int(seed), 0x5A17])
    outliers = rng.permutation(np.flatnonzero(labels == 1))
    inliers = rng.permutation(np.flatnonzero(labels == 0))
    held_out = np.concatenate([outliers[: outliers.size // 2], inliers])[:pool]
    keep = np.setdiff1d(np.arange(data.shape[0]), held_out)
    held_out = rng.permutation(held_out)
    return data[keep], data[held_out], labels[held_out]


class Server:
    """One ``repro-hics serve`` subprocess started through ``launcher.py``."""

    def __init__(self, model_path: str, workdir: str, tag: str, spans_out: Optional[str]):
        self.log = os.path.join(workdir, f"server-{tag}.log")
        args = [sys.executable, os.path.join(HERE, "launcher.py")]
        if spans_out is not None:
            args += ["--spans-out", spans_out]
        args += ["serve", "--model", model_path, "--host", HOST, "--port", "0"]
        with open(self.log, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT)
        self.port = 0

    def wait_ready(self, timeout_s: float) -> None:
        """Wait for the bound port in the log, then for ``/healthz`` to say 200."""
        deadline = time.perf_counter() + timeout_s
        while not self.port:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start; see {self.log}")
            with open(self.log, encoding="utf-8") as log:
                for line in log:
                    if line.startswith("serving ") and f"http://{HOST}:" in line:
                        self.port = int(line.split(f"http://{HOST}:")[1].split()[0])
            time.sleep(0.01)
        while True:
            try:
                if get_json(self.port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server never became healthy; see {self.log}")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout_s: float = 30.0) -> bool:
        """SIGINT and wait; True on a clean exit, else kill and return False."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            return self.proc.wait(timeout=timeout_s) == 0
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return False


def get_json(port: int, path: str) -> Tuple[int, Dict[str, object]]:
    connection = http.client.HTTPConnection(HOST, port, timeout=5)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


def _body(queries: np.ndarray, rows: List[int]) -> bytes:
    # json.dumps writes floats with repr precision, so points arrive exactly.
    if len(rows) == 1:
        return json.dumps({"point": queries[rows[0]].tolist()}).encode()
    return json.dumps({"points": queries[rows].tolist()}).encode()


def _served(outcome: loadgen.Outcome, rows: List[int], expected: np.ndarray) -> Optional[List[float]]:
    """The scores a response carries if they are right, else None."""
    if outcome.status != 200 or outcome.error is not None:
        return None
    try:
        payload = json.loads(outcome.body)
        scores = [payload["score"]] if len(rows) == 1 else payload["scores"]
    except (ValueError, KeyError, TypeError):
        return None
    if not isinstance(scores, list) or len(scores) != len(rows):
        return None
    if not all(isinstance(s, float) and s == float(expected[r]) for s, r in zip(scores, rows)):
        return None
    return scores


def _requests(queries: np.ndarray, params: Dict[str, object], count: int, seed: int):
    plan = common.request_plan(
        count, int(params["batch_every"]), int(params["batch_size"]), queries.shape[0], seed
    )
    bodies = [
        ("/score" if len(rows) == 1 else "/score/batch", _body(queries, rows)) for rows in plan
    ]
    return plan, bodies


def _phase(
    port: int, queries: np.ndarray, expected: np.ndarray, params: Dict[str, object],
    rate: float, duration: float, seed: int, limit_ms: float,
) -> Dict[str, object]:
    """Open-loop Poisson traffic at ``rate`` for ``duration`` seconds."""
    offsets = loadgen.poisson_offsets(rate, duration, seed)
    plan, bodies = _requests(queries, params, len(offsets), seed)
    requests = [
        loadgen.Request(offset, "POST", path, body) for offset, (path, body) in zip(offsets, bodies)
    ]
    outcomes = asyncio.run(
        loadgen.run_open_loop(
            HOST, port, requests,
            connections=int(params["connections"]), timeout_s=float(params["timeout_s"]),
        )
    )
    single_ms: List[float] = []
    batch_ms: List[float] = []
    wrong = 0
    first_served: Dict[int, float] = {}
    for rows, outcome in zip(plan, outcomes):
        scores = _served(outcome, rows, expected)
        wrong += scores is None
        if len(rows) == 1:
            single_ms.append(outcome.latency_ms)
            if scores is not None:
                first_served.setdefault(rows[0], scores[0])
        else:
            batch_ms.append(outcome.latency_ms)
    return {
        "requests": len(requests),
        "wrong": wrong,
        "single_ms_summary": common.latency_summary(single_ms),
        "single_ms": single_ms,
        "batch_ms": batch_ms,
        "lag_ms": [o.lag_ms for o in outcomes],
        "served": first_served,
    }


def _closed_loop(
    port: int, queries: np.ndarray, expected: np.ndarray, params: Dict[str, object],
    duration: float, seed: int, limit_ms: float, clock: common.HostClock,
) -> Dict[str, object]:
    """Closed-loop traffic with the same mix on ``closed_connections``
    connections: the server's capacity, the latencies under that load, and
    goodput, the correct single-object answers within ``limit_ms`` of being
    sent per second.  The loop runs in slices of ``closed_slice_s``, each
    measured by ``clock`` (samples fall between slices, when nothing is in
    flight), so latencies and elapsed time are in reference units."""
    # More requests than a saturated server answers in ``duration``; cycled.
    plan, bodies = _requests(queries, params, max(16, int(duration * 200)), seed)
    requests = itertools.cycle(
        (i, loadgen.Request(0.0, "POST", path, body)) for i, (path, body) in enumerate(bodies)
    )
    outcomes: List[Tuple[int, loadgen.Outcome, common.Timed]] = []
    slices: List[Tuple[float, common.Timed]] = []
    end = time.perf_counter() + duration
    while time.perf_counter() < end:
        with clock.measure() as timed:
            sliced, wall = asyncio.run(
                loadgen.run_closed_loop(
                    HOST, port, requests, float(params["closed_slice_s"]),
                    connections=int(params["closed_connections"]), timeout_s=float(params["timeout_s"]),
                )
            )
        outcomes += [(index, outcome, timed) for index, outcome in sliced]
        slices.append((wall, timed))
    elapsed = sum(wall * timed.scale for wall, timed in slices)
    wrong = good_singles = 0
    single_ms: List[float] = []
    batch_ms: List[float] = []
    first_served: Dict[int, float] = {}
    for index, outcome, timed in outcomes:
        rows = plan[index]
        scores = _served(outcome, rows, expected)
        wrong += scores is None
        if len(rows) == 1:
            single_ms.append(outcome.latency_ms * timed.scale)
            if scores is not None:
                first_served.setdefault(rows[0], scores[0])
                # The limit is on the latency a client saw.
                good_singles += outcome.latency_ms <= limit_ms
        else:
            batch_ms.append(outcome.latency_ms * timed.scale)
    return {
        "requests": len(outcomes),
        "wrong": wrong,
        "elapsed_s": elapsed,
        "capacity_rps": len(outcomes) / elapsed,
        "goodput_rps": good_singles / elapsed,
        "single_ms_summary": common.latency_summary(single_ms),
        "single_ms": single_ms,
        "batch_ms": batch_ms,
        "served": first_served,
    }


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
    servers: List[Server] = []
    # Traced runs sample only where a measured interval starts or ends, outside every layer span.
    clock = common.HostClock(period=None if tracer else common.SAMPLE_PERIOD_S)
    try:
        setup_times: List[common.Timed] = []
        fit_times: List[common.Timed] = []
        rank_times: List[common.Timed] = []
        digests = set()
        clean_stops = 0
        repeats = int(params["setup_repeats"])
        with clock.ticking():
            for repeat in range(repeats):
                last = repeat == repeats - 1
                with contextlib.closing(_pipeline(params, seed)) as pipeline:
                    with clock.measure() as setup:
                        data, labels = common.make_labelled_data(params, seed)
                        reference, queries, query_labels = split_queries(
                            data, labels, int(params["pool"]), common.contrast_seed(params, seed)
                        )
                        with clock.measure() as fit:
                            pipeline.fit(reference)
                        model_path = os.path.join(workdir, f"model-{repeat}.npz")
                        pipeline.save(model_path)
                        spans_out = os.path.join(workdir, "server-spans.json") if tracer and last else None
                        server = Server(model_path, workdir, str(repeat), spans_out)
                        servers.append(server)
                        server.wait_ready(float(params["start_timeout_s"]))
                    # The offline reference every served score must equal.
                    with clock.measure() as rank:
                        expected = pipeline.score_samples(queries, independent=True)
                setup_times.append(setup)
                fit_times.append(fit)
                rank_times.append(rank)
                digests.add(common.digest(expected))
                if not last:
                    clean_stops += server.stop()
        setup_end = time.perf_counter()
        attempted = 1
        failed = int(not common.scores_ok(expected, queries.shape[0]) or len(digests) != 1)

        shares = params["phase_share"]
        # Keep the load generator's own collector pauses out of the latencies.
        gc.collect()
        gc.freeze()
        nominal = _phase(
            server.port, queries, expected, params, float(params["nominal_rps"]),
            seconds * float(shares["nominal"]), seed * 2, limit_ms,  # type: ignore[index]
        )
        closed = _closed_loop(
            server.port, queries, expected, params,
            seconds * float(shares["closed"]), seed * 2 + 1, limit_ms, clock,  # type: ignore[index]
        )
        gc.unfreeze()
        status, server_metrics = get_json(server.port, "/metrics")
        rss = server.peak_rss_mb()
        clean_stops += server.stop()
    finally:
        for running in servers:
            if running.proc.poll() is None:
                running.stop()
    for phase in (nominal, closed):
        attempted += phase["requests"]  # type: ignore[operator]
        failed += phase["wrong"]  # type: ignore[operator]
    failed += repeats - clean_stops + (status != 200)
    served = {**closed["served"], **nominal["served"]}
    rows = sorted(served)
    served_auc = common.auc(query_labels[rows], np.array([served[r] for r in rows]))
    attempted += 1
    failed += int(not served_auc >= auc_floor) + (len(rows) != queries.shape[0])

    metrics = {
        "setup_s": common.median([t.seconds for t in setup_times]),
        "fit_s": common.median([t.seconds for t in fit_times]),
        "rank_s": common.median([t.seconds for t in rank_times]),
        "auc": served_auc,
        "peak_rss_mb": rss,
        "score_p50_ms": common.median(closed["single_ms"]),
        "batch_p50_ms": common.median(closed["batch_ms"]),
        "goodput_rps": closed["goodput_rps"],
    }
    detail = {
        "workload": name,
        "setup_wall_s": [t.wall for t in setup_times],
        "fit_wall_s": [t.wall for t in fit_times],
        "rank_wall_s": [t.wall for t in rank_times],
        "auc_floor": auc_floor,
        "score_digest": common.digest(expected),
        "nominal": {
            k: v for k, v in nominal.items() if k not in ("single_ms", "batch_ms", "lag_ms", "served")
        },
        "closed": {k: v for k, v in closed.items() if k not in ("single_ms", "batch_ms", "served")},
        "batch_requests": len(closed["batch_ms"]),
        "host_cal": clock.summary(),
        "loadgen_lag_p99_ms": common.percentile(nominal["lag_ms"], 99),
        "server_batch_size_mean": server_metrics.get("batch_sizes", {}).get("mean"),
        "server_responses_by_status": server_metrics.get("responses_by_status"),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
        "setup_end": setup_end,
        "server_spans": os.path.join(workdir, "server-spans.json") if tracer else None,
    }
