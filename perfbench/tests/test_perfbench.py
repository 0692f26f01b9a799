"""Tests of the benchmark's own code: span arithmetic, wrapper lifetime,
traced/untraced equality, the open-loop generator's stall accounting, the
closed-loop driver and the host-speed clock.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import asyncio
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import common  # noqa: E402
import loadgen  # noqa: E402
import offline  # noqa: E402
import spans  # noqa: E402


def _span(id_, name, start, end, parent=None):
    return spans.Span(id=id_, name=name, start=start, end=end, parent=parent, root=1)


def test_self_time_subtracts_children_once():
    tree = [
        _span(1, "pipeline.fit", 0.0, 10.0),
        _span(2, "subspaces.contrast_many", 1.0, 6.0, parent=1),
        _span(3, "stats.student_t_two_tailed_pvalue_batch", 2.0, 4.0, parent=2),
        # Overlapping siblings (concurrent awaits) are covered once.
        _span(4, "index.sample_slice_batch", 4.5, 5.5, parent=2),
        _span(5, "index.sample_slice_batch", 5.0, 5.8, parent=2),
        _span(6, "subspaces.prune_redundant_subspaces", 7.0, 9.0, parent=1),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(5.0 - 2.0 - 1.3)
    assert selfs[3] == pytest.approx(2.0)
    table = spans.summarize(tree)
    assert table["index.sample_slice_batch"]["calls"] == 2
    assert table["index.sample_slice_batch"]["total_s"] == pytest.approx(1.8)
    layers = spans.layer_self_seconds(tree)
    # Layer self times add up to the wall time, plus the 0.5 s in which the
    # two concurrent index calls were both busy.
    assert sum(layers.values()) == pytest.approx(10.0 + 0.5)
    assert layers["index"] == pytest.approx(1.8)


def test_recursive_calls_count_once_in_total():
    tree = [_span(1, "outliers.score_batch", 0.0, 4.0), _span(2, "outliers.score_batch", 1.0, 3.0, 1)]
    row = spans.summarize(tree)["outliers.score_batch"]
    assert row["total_s"] == pytest.approx(4.0)
    assert row["self_s"] == pytest.approx(4.0)
    assert row["calls"] == 2


def _bindings():
    import repro.neighbors.engine as engine
    import repro.outliers.lof as lof
    import repro.pipeline.pipeline as pipeline
    import repro.stats.tdist as tdist
    import repro.subspaces.contrast as contrast

    return (
        tdist.student_t_two_tailed_pvalue_batch,
        contrast.student_t_two_tailed_pvalue_batch,
        lof.top_k_smallest,
        engine.top_k_smallest,
        engine.SharedNeighborEngine.__dict__["kneighbors"],
        pipeline.SubspaceOutlierPipeline.__dict__["load"],
        vars(__import__("repro.index.sorted_index", fromlist=["x"]).SortedDatabaseIndex)[
            "build_all"
        ],
    )


def test_wrappers_cover_every_binding_and_restore_after_error():
    spans.import_serving_modules()
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with spans.traced(tracer):
            during = _bindings()
            import repro.subspaces.contrast as contrast

            assert all(a is not b for a, b in zip(before, during))
            contrast.student_t_two_tailed_pvalue_batch([2.0], [5.0])
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, _bindings()))
    assert [s.name for s in tracer.spans] == ["stats.student_t_two_tailed_pvalue_batch"]
    assert tracer.spans[0].counts == {"elements": 1}


def test_concurrent_tasks_do_not_nest_into_each_other():
    tracer = spans.Tracer()

    async def handler(name):
        with tracer.span(name):
            await asyncio.sleep(0.01)
            with tracer.span(name + ".inner"):
                await asyncio.sleep(0.01)

    async def main():
        await asyncio.gather(handler("a"), handler("b"))

    asyncio.run(main())
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["a.inner"].parent == by_name["a"].id
    assert by_name["b.inner"].parent == by_name["b"].id
    assert by_name["a"].parent is None and by_name["b"].parent is None


TINY = {
    "kind": "offline",
    "generator": {"n_objects": 150, "n_dims": 6, "n_relevant_subspaces": 1, "subspace_dims": [2]},
    "structure_seed": 0,
    "hics": {"n_iterations": 10, "candidate_cutoff": 10, "max_output_subspaces": 4},
    "lof": {"min_pts": 5},
    "setup_repeats": 2,
    "cold_fits": 2,
    "repeat": "rank",
    "probe": {
        "pool": 12, "requests": 13, "chunk": 5, "batch_every": 4, "batch_size": 3,
    },
}


def test_traced_and_untraced_runs_give_identical_digests(tmp_path):
    args = ("tiny", TINY, 3, 0.0, str(tmp_path), 0.0, 1000.0)
    plain = offline.run(*args)
    tracer = spans.Tracer()
    spans.import_serving_modules()
    with spans.traced(tracer):
        traced = offline.run(*args, tracer=tracer)
    assert plain["failed"] == 0 and traced["failed"] == 0
    assert plain["detail"]["score_digest"] == traced["detail"]["score_digest"]
    names = {s.name for s in tracer.spans}
    assert {"pipeline.fit", "bench.rank", "outliers.score_batch", "neighbors.query_distances"} <= names


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    stall_s = 0.3

    async def handle(reader, writer):
        first = True
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                await reader.readexactly(length)
                if first:
                    first = False
                    await asyncio.sleep(stall_s)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        requests = [loadgen.Request(0.02 * i, "POST", "/x", b"{}") for i in range(6)]
        try:
            return await loadgen.run_open_loop("127.0.0.1", port, requests, connections=1)
        finally:
            server.close()
            await server.wait_closed()

    outcomes = asyncio.run(main())
    assert [o.status for o in outcomes] == [200] * 6
    stall_end = outcomes[0].done
    assert outcomes[0].latency_ms >= stall_s * 1000 * 0.9
    for outcome in outcomes[1:]:
        # Due during the stall, so each waited for it: timed from its due
        # time it carries the rest of the stall, not just its own service.
        assert outcome.done >= stall_end
        assert outcome.latency_ms >= (stall_end - outcome.due) * 1000.0
        assert outcome.sent - outcome.due >= stall_end - outcome.due - 0.005
        assert outcome.lag_ms < 100.0


def test_closed_loop_keeps_every_connection_busy_until_time_is_up():
    service_s = 0.02

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                await reader.readexactly(length)
                await asyncio.sleep(service_s)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        requests = ((i, loadgen.Request(0.0, "POST", "/x", b"{}")) for i in range(10_000))
        try:
            return await loadgen.run_closed_loop("127.0.0.1", port, requests, 0.3, connections=2)
        finally:
            server.close()
            await server.wait_closed()

    outcomes, elapsed = asyncio.run(main())
    assert [o.status for _, o in outcomes] == [200] * len(outcomes)
    # Two connections, each answered every ~20 ms: about 30 requests in 0.3 s.
    assert 4 <= len(outcomes) <= 32
    assert sorted(k for k, _ in outcomes) == list(range(len(outcomes)))
    assert 0.3 <= elapsed < 1.0
    assert all(o.latency_ms >= service_s * 1000 * 0.9 for _, o in outcomes)


def test_poisson_schedule_is_seeded_and_sized_by_rate():
    first = loadgen.poisson_offsets(40.0, 2.0, seed=7)
    assert first == loadgen.poisson_offsets(40.0, 2.0, seed=7)
    assert first != loadgen.poisson_offsets(40.0, 2.0, seed=8)
    assert len(first) == 80 and first == sorted(first) and 0.0 <= first[0] <= first[-1] < 2.0


def test_percentile_and_request_plan():
    values = list(range(1, 201))
    assert common.percentile(values, 95) == 190
    summary = common.latency_summary(values)
    assert summary["n"] == 200 and summary["p50"] == 100 and summary["p99"] == 198
    plan = common.request_plan(32, 16, 8, 10, seed=1)
    assert [len(rows) for rows in plan].count(8) == 2
    singles = [rows[0] for rows in plan if len(rows) == 1]
    assert sorted(singles[:10]) == list(range(10))
    assert common.request_plan(32, 16, 8, 10, seed=1) == plan


def test_host_clock_scales_each_interval_by_the_samples_near_it(monkeypatch):
    import signal
    import time

    took = iter([0.04, 0.01, 0.03, 0.02, 0.01])
    monkeypatch.setattr(common, "host_cal", lambda: (time.sleep(0.05), next(took))[1])
    monkeypatch.setattr(common, "WINDOW_S", 0.0)
    clock = common.HostClock(period=None)
    with clock.measure() as outer:
        with clock.measure() as inner:
            clock.sample()
        time.sleep(0.1)
    # Five 50 ms samples taken out; the sleep is left.
    assert 0.1 <= outer.wall < 0.15 and inner.wall < 0.05
    assert [took for _, took in clock.samples] == [0.04, 0.01, 0.03, 0.02, 0.01]
    # inner: the samples from its start to its end; outer: all five.
    assert inner.scale == pytest.approx(common.REFERENCE_CAL_S / 0.02)
    assert outer.scale == pytest.approx(common.REFERENCE_CAL_S / 0.02)
    assert outer.seconds == pytest.approx(outer.wall * outer.scale)
    monkeypatch.setattr(common, "WINDOW_S", 10.0)
    assert clock.scale(inner.end + 5.0, inner.end + 5.0) == pytest.approx(common.REFERENCE_CAL_S / 0.02)

    handler = signal.getsignal(signal.SIGALRM)
    ticking = common.HostClock(period=0.01)
    monkeypatch.setattr(common, "host_cal", lambda: 0.02)
    with ticking.ticking(), ticking.measure():
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(ticking.samples) > 4
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
