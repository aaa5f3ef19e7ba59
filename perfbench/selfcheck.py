#!/usr/bin/env python3
"""Self-check of the benchmark: every workload briefly, untraced and traced.

    python3 perfbench/selfcheck.py [--seconds 2] [--workloads a,b]

Run from the repository root. For every workload of BENCHMARK.json it
asserts that a short run exits 0 and reports correct = true with at least
one attempted operation and none failed; that --trace 0 prints every
end-to-end metric of BENCHMARK.json with its unit and a finite, nonzero
value; and that --trace 1 prints every per-layer metric with its unit and a
finite value. Last, it asserts that a copy holding only BENCHMARK.json and
the benchmark's paths exits nonzero without printing a result.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(root, workload, seconds, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900)


def check(bench, workload, seconds, trace):
    done = run(ROOT, workload, seconds, trace)
    assert done.returncode == 0, f"{workload} trace {trace} exited {done.returncode}:\n{done.stderr}"
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, sorted(metrics)
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), (m["name"], got)
        assert trace or got["value"] != 0, (m["name"], got)
    print(f"ok  {workload} --trace {trace}: {result['attempted']} operations, "
          f"{len(metrics)} metrics", flush=True)


def check_standalone(bench):
    """Without the repository around it, the benchmark must refuse to run."""
    scratch = ROOT / ".bench_build" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(tmp, bench["workloads"][0]["name"], 1, 0)
        assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  stand-alone copy exits", done.returncode, "without a result")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            check(bench, workload, args.seconds, trace)
    check_standalone(bench)


if __name__ == "__main__":
    main()
