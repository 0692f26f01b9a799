"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-wide --seed 1 --seconds 30 --trace 0

Workloads, their parameters, rates and limits live in ``perfbench/spec.json``;
metric names and units in ``BENCHMARK.json``.  With ``--trace 0`` the last
stdout line carries every end-to-end metric, measured untraced; with
``--trace 1`` the layer wrappers are installed and it carries every
per-layer metric instead.  Earlier lines print each metric with its unit and
a ``detail:`` record (environment, score digest, checks).  The process exits
non-zero without a result line when the library sources are missing or a
workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _load_json(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()),
    }


def merged_spans(tracer, server_spans_path):
    """This process's spans plus the server's, with server ids shifted."""
    import spans as spans_mod

    merged = list(tracer.spans)
    if server_spans_path and os.path.exists(server_spans_path):
        shift = max((s.id for s in merged), default=0)
        for span in spans_mod.load_spans(server_spans_path):
            span.id += shift
            span.root += shift
            span.parent = None if span.parent is None else span.parent + shift
            merged.append(span)
    return merged


def per_layer_metrics(all_spans, result: Dict[str, object], names: List[str]) -> Dict[str, float]:
    import spans as spans_mod

    table = spans_mod.summarize(all_spans)
    by_id = {s.id: s for s in all_spans}

    def stat(span_name: str, key: str) -> float:
        return float(table.get(span_name, {}).get(key, 0.0))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    # Layer shares of the wall time of the first (cold) fit and in-sample
    # rank; the round-robin repeats would weigh the repeated phase twice.
    phase_roots = {
        min((s for s in all_spans if s.name == name), key=lambda s: s.start).id
        for name in ("pipeline.fit", "bench.rank")
        if any(s.name == name for s in all_spans)
    }
    phase_spans = [s for s in all_spans if s.root in phase_roots]
    layer_self = spans_mod.layer_self_seconds(phase_spans)
    phase_wall = sum(by_id[r].duration for r in phase_roots)
    submits = [s for s in all_spans if s.name == "serving.submit"]
    scoring = [s for s in all_spans if s.name == "serving.model_score"]
    setup_end = result.get("setup_end")
    detail = result["detail"]
    derived = {
        "index.degenerate_ratio": ratio(
            stat("index.sample_slice_batch", "degenerate"), stat("index.sample_slice_batch", "drawn")
        ),
        "subspaces.subspaces_evaluated": stat("subspaces.contrast_many", "subspaces"),
        "subspaces.contrast_cache.hit_ratio": ratio(
            stat("subspaces.contrast_cache_get", "hits"), stat("subspaces.contrast_cache_get", "calls")
        ),
        "neighbors.kneighbors.memo_hit_ratio": ratio(
            spans_mod.kneighbors_memo_hits(all_spans), stat("neighbors.kneighbors", "calls")
        ),
        "serving.queue_wait_s": sum(s.duration - spans_mod.covered_by(s, scoring) for s in submits),
        "serving.batch_size.mean": float(detail.get("server_batch_size_mean") or 0.0),
        "loadgen.lag_p99_ms": float(detail.get("loadgen_lag_p99_ms", 0.0)),
        "share.search_layers": ratio(
            sum(layer_self.get(k, 0.0) for k in ("index", "stats", "subspaces")), phase_wall
        ),
        "share.knn_layers": ratio(
            sum(layer_self.get(k, 0.0) for k in ("neighbors", "outliers")), phase_wall
        ),
        "serve.search_calls_after_setup": float(
            sum(
                1 for s in all_spans
                if s.name.split(".")[0] in ("index", "subspaces")
                and setup_end is not None and s.start > setup_end
            )
        ),
        "trace.spans": float(len(all_spans)),
    }
    metrics: Dict[str, float] = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
        elif name.startswith("traced."):
            metrics[name] = float(result["metrics"][name[len("traced."):]])
        else:
            span_name, _, key = name.rpartition(".")
            metrics[name] = stat(span_name, key)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = _load_json(os.path.join(HERE, "spec.json"))
    workloads = spec["workloads"]
    if args.workload not in workloads:  # type: ignore[operator]
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    params = workloads[args.workload]  # type: ignore[index]
    env = environment()
    # On SIGTERM unwind normally, so the serve workload stops its server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import offline
    import serve
    import spans

    runner = {"offline": offline.run, "serve": serve.run}[params["kind"]]
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    started = time.perf_counter()
    try:
        run_args = (
            args.workload, params, args.seed, args.seconds, workdir,
            float(spec["auc_floor"][args.workload]), float(spec["latency_limit_ms"]),  # type: ignore[index]
        )
        if tracer is None:
            result = runner(*run_args)
        else:
            spans.import_serving_modules()
            with spans.traced(tracer):
                result = runner(*run_args, tracer=tracer)
        list_name = "per_layer" if args.trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in bench[list_name]}  # type: ignore[index]
        if args.trace:
            all_spans = merged_spans(tracer, result.get("server_spans"))
            values = per_layer_metrics(all_spans, result, list(declared))
        else:
            values = result["metrics"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = int(result["attempted"]), int(result["failed"])
    detail = dict(result["detail"])
    detail.update(
        {
            "seed": args.seed,
            "trace": args.trace,
            "environment": env,
            "failed_ratio": failed / attempted,
            "run_wall_s": time.perf_counter() - started,
            "end_to_end": result["metrics"],
        }
    )
    for name, unit in declared.items():
        print(f"{name} {values[name]!r} {unit}")
    print(f"failed_ratio {failed / attempted!r} ({failed}/{attempted})")
    print("detail: " + json.dumps(detail, sort_keys=True))
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
