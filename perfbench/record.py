#!/usr/bin/env python3
"""Record the benchmark's figures on this host into perfbench/RESULTS.json.

    python3 perfbench/record.py [--seeds 10] [--traced-seeds 3] [--workloads a,b]

Run from the repository root. For each workload it makes --seeds untraced
runs (seeds 1..N) and --traced-seeds traced runs, each of BENCHMARK.json's
run_seconds, one after another. It records per end-to-end metric the ten
values, their median and the quartile spread (Q3 - Q1) / median that the
acceptance check uses; per per-layer metric the median of the traced runs;
and the tracing overhead, the traced runs' median ops_per_s and
latency_p50_ms minus the untraced ones. Host facts (nproc, CPU model,
compiler, build type, commit) go beside the numbers, with each workload's
"why" and what the benchmark leaves out, so later changes compare like with
like. A run that fails or reports correct = false stops the recording.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXCLUDED = [
    "The prefork pool (mst serve --processes N): its drain stalls teardown "
    "for 10 s and exits 1 on most runs (ROADMAP item 1); a serve-pool "
    "workload follows its fix.",
    "The exact branch-and-bound certifier: off the users' path; "
    "BENCH_certify.json node counts stay its record.",
    "The served path (mst serve over TCP; the serve-warm and serve-cold "
    "workloads of the benchmark's first draft): on this shared host its figures "
    "moved with host load far more than the CLI's. Over ten seeds serve-warm's "
    "latency_p90_ms and latency_p99_ms spread 0.35 (one run at 3.5x its p50) "
    "and serve-cold's latency_p99_ms 0.37, while cold-optimize stayed within "
    "0.05-0.15; both exceed the largest bound (0.25). The service and shm "
    "layers stay measured in-process on sweep-grid's traced run; "
    "service.transport_us, service.requests_rejected and "
    "service.queue_high_water need a server and are not reported.",
    "A tail percentile on cold-optimize and sweep-grid: a run makes about 115 "
    "CLI runs or 23 sweeps, so latency_p99_ms is about its slowest operation; "
    "every end-to-end metric is reported on every workload.",
]


def run(workload, seed, seconds, trace):
    """One benchmark run: (host facts, result)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr[-3000:]}")
    host, result = json.loads(lines[-2])["host"], json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect: {result}")
    return host, result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced-seeds", type=int, default=3)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    whys = {w["name"]: w["why"] for w in bench["workloads"]}

    out = ROOT / "perfbench" / "RESULTS.json"
    record = json.loads(out.read_text()) if out.is_file() else {}
    record.update({"command": bench["command"], "run_seconds": seconds,
                   "excluded": EXCLUDED})
    record.setdefault("workloads", {})
    for workload in args.workloads.split(","):
        start = time.time()
        untraced = [run(workload, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        traced = [run(workload, seed, seconds, 1) for seed in range(1, args.traced_seeds + 1)]
        record["host"] = untraced[-1][0]
        e2e = {m["name"]: summary([r["metrics"][m["name"]]["value"] for _, r in untraced])
               for m in bench["end_to_end"]}
        layers = {m["name"]: statistics.median(r["metrics"][m["name"]]["value"]
                                               for _, r in traced)
                  for m in bench["per_layer"]}
        overhead = {name: layers[f"traced.{name}"] - e2e[name]["median"]
                    for name in ("ops_per_s", "latency_p50_ms")}
        record["workloads"][workload] = {
            "why": whys[workload],
            "seeds": args.seeds,
            "traced_seeds": args.traced_seeds,
            "attempted_median": statistics.median(r["attempted"] for _, r in untraced),
            "end_to_end": e2e,
            "per_layer_median": layers,
            "tracing_overhead": overhead,
        }
        out.write_text(json.dumps(record, indent=1) + "\n")
        worst = max(e2e.items(), key=lambda kv: kv[1]["spread"])
        print(f"{workload}: {time.time() - start:.0f} s, widest spread "
              f"{worst[0]} {worst[1]['spread']:.3f}", flush=True)


if __name__ == "__main__":
    main()
