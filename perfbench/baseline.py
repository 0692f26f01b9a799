"""Record and summarise baseline runs of the benchmark.

Usage (from the repository root)::

    python3 perfbench/baseline.py collect --set A --seeds 1-10 [--trace-seeds 1-3]
    python3 perfbench/baseline.py collect --set B --seeds 11-20
    python3 perfbench/baseline.py summarize

``collect`` runs ``run.py`` once per workload and seed, each in a fresh
process, and appends one line per run to ``perfbench/baseline_runs.jsonl``.
``summarize`` writes ``perfbench/baseline.json``: per set, workload and
end-to-end metric the median, quartiles and spread (quartile distance over
median) of every run, and of each run's median calibration time (how far
host speed drifted, which the reference-time scaling takes out; see
``common.HostClock``); serve-open's measured capacity;
the drift between the last two sets' medians and, per metric, whether both
sets' spreads and the drift stay within its bound ("steady") or not
("unresolved"); the tracing overhead
(traced over untraced median of the same metric, within one set); each
seed's AUC and score digest; and the median per-layer numbers of the traced
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "baseline_runs.jsonl")
SUMMARY = os.path.join(HERE, "baseline.json")


def _seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _bench() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, trace: int, seconds: int) -> Dict[str, object]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(line for line in lines if line.startswith("detail: "))[len("detail: "):])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "score_digest": detail["score_digest"],
        "environment": detail["environment"],
        "run_wall_s": detail["run_wall_s"],
        "closed": detail.get("closed"),
        "host_cal": detail.get("host_cal"),
    }


def collect(args: argparse.Namespace) -> None:
    bench = _bench()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]  # type: ignore[index]
    plan = [(w, s, 0) for s in _seeds(args.seeds) for w in workloads]
    if args.trace_seeds:
        plan += [(w, s, 1) for s in _seeds(args.trace_seeds) for w in workloads]
    for workload, seed, trace in plan:
        row = run_once(workload, seed, trace, int(bench["run_seconds"]))  # type: ignore[arg-type]
        row["set"] = args.set
        with open(RUNS, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"{args.set} {workload} seed={seed} trace={trace} correct={row['correct']} "
              f"wall={row['run_wall_s']:.1f}s", flush=True)


def _stats(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(_args: argparse.Namespace) -> None:
    bench = _bench()
    with open(RUNS, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    e2e = [m["name"] for m in bench["end_to_end"]]  # type: ignore[index]
    bounds = {m["name"]: float(m["bound"]) for m in bench["end_to_end"]}  # type: ignore[index]
    sets = sorted({r["set"] for r in rows})
    summary: Dict[str, object] = {"sets": {}, "drift": {}, "tracing_overhead": {}, "auc_by_seed": {},
                                  "digests": {}, "failed_runs": [], "verdict": {}}
    for row in rows:
        if not row["correct"]:
            summary["failed_runs"].append({k: row[k] for k in ("set", "workload", "seed", "trace")})
        if row["trace"] == 0:
            summary["auc_by_seed"].setdefault(row["workload"], {})[str(row["seed"])] = row["metrics"]["auc"]
        summary["digests"].setdefault(row["workload"], {}).setdefault(str(row["seed"]), set()).add(
            row["score_digest"])
    for workload, seeds in summary["digests"].items():
        for seed, found in seeds.items():
            seeds[seed] = sorted(found)
    for set_name in sets:
        per_workload: Dict[str, object] = {}
        for workload in {r["workload"] for r in rows}:
            untraced = [r for r in rows if r["set"] == set_name and r["workload"] == workload and not r["trace"]]
            if not untraced:
                continue
            info = {
                "seeds": sorted(r["seed"] for r in untraced),
                "host_cal_median_s": _stats([r["host_cal"]["median_s"] for r in untraced]),
                "loadavg_before": [r["environment"]["loadavg_before"][0] for r in untraced],
                "metrics": {m: _stats([r["metrics"][m] for r in untraced]) for m in e2e},
            }
            closed = [r["closed"] for r in untraced if r.get("closed")]
            if closed:
                info["capacity_rps"] = _stats([c["capacity_rps"] for c in closed])
            per_workload[workload] = info
        summary["sets"][set_name] = per_workload
    if len(sets) >= 2:
        # The proof pair: the last two sets, run back to back on one code.
        first, second = summary["sets"][sets[-2]], summary["sets"][sets[-1]]
        summary["drift_sets"] = sets[-2:]
        for workload in first:
            if workload in second:
                drift = {
                    m: second[workload]["metrics"][m]["median"] / first[workload]["metrics"][m]["median"] - 1.0
                    for m in e2e if first[workload]["metrics"][m]["median"]
                }
                summary["drift"][workload] = drift
                # The benchmark's own acceptance rule: both sets' spreads
                # (setup_s exempt) and the drift within the metric's bound.
                summary["verdict"][workload] = {
                    m: "steady" if abs(d) <= bounds[m] and (m == "setup_s" or max(
                        first[workload]["metrics"][m]["spread"], second[workload]["metrics"][m]["spread"]
                    ) <= bounds[m]) else "unresolved"
                    for m, d in drift.items()
                }
    # Tracing overhead and layer numbers from the latest set with traced runs,
    # against that set's own untraced runs (host speed drifts between sets).
    traced_sets = sorted({r["set"] for r in rows if r["trace"]})
    for workload in {r["workload"] for r in rows}:
        if not traced_sets:
            break
        same_set = [r for r in rows if r["workload"] == workload and r["set"] == traced_sets[-1]]
        traced = [r for r in same_set if r["trace"]]
        untraced = [r for r in same_set if not r["trace"]]
        if not (traced and untraced):
            continue
        overhead = {}
        for key in [k for k in traced[0]["metrics"] if k.startswith("traced.")]:
            base = key[len("traced."):]
            t = statistics.median(r["metrics"][key] for r in traced)
            u = statistics.median(r["metrics"][base] for r in untraced)
            overhead[base] = {"traced_median": t, "untraced_median": u, "overhead": t / u - 1.0}
        summary["tracing_overhead"][workload] = overhead
        summary.setdefault("traced_layers", {})[workload] = {
            name: statistics.median(r["metrics"][name] for r in traced)
            for name in traced[0]["metrics"]
        }
    with open(SUMMARY, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for set_name, per_workload in summary["sets"].items():
        for workload, info in sorted(per_workload.items()):
            spreads = " ".join(f"{m}={s['spread']:.3f}" for m, s in info["metrics"].items())
            print(f"{set_name} {workload}: host_cal={info['host_cal_median_s']['spread']:.3f} {spreads}")
    for workload, drift in sorted(summary["drift"].items()):
        print(f"drift {workload}: " + " ".join(f"{m}={d:+.3f}" for m, d in drift.items()))
        unresolved = [m for m, v in summary["verdict"][workload].items() if v != "steady"]
        print(f"unresolved {workload}: {' '.join(unresolved) or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--set", required=True)
    c.add_argument("--seeds", required=True)
    c.add_argument("--trace-seeds")
    c.add_argument("--workloads", nargs="*")
    sub.add_parser("summarize")
    args = parser.parse_args(argv)
    {"collect": collect, "summarize": summarize}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
