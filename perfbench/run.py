#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of mst.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the mst library, the
`mst` CLI and the `mstbench` helper from source into .bench_build/. A run
sets up its inputs from the seed (at least three times, reporting the median
set-up time), drives the built `mst` binary from outside for --seconds,
checks every output, tears everything down and prints a {"host": ...} line,
then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 runs the same load,
then times the public call of each src/ layer in-process on the same inputs
(mstbench trace) and reports the per-layer metrics, plus the traced run's own
end-to-end figures under "traced.*" so the tracing overhead can be taken.

Workloads (load comes from one process: one CLI at a time, or one sweep with
two workers, so a four-core host is not oversubscribed):

  cold-optimize  `mst optimize --soc <10,000-module gen1000x-wide .soc>
                 --threads 1 --json`, one after another, over a seeded
                 permutation of a feasible channels x depth grid. The paper's
                 one-shot design question at its largest scale: the wrapper
                 table build and the .soc parser do most of the work.
  sweep-grid     `mst sweep --workers 2 --shards 8 --threads 1`: five paper
                 SOCs + gen300x-deep + gen1000x-deep on a seeded 4x4 grid,
                 three variants (336 scenarios). The batch use: core packing
                 plus the scenario layer's fork, shard I/O and report merge.
                 Its traced run also replays a stream of what-if requests
                 naming the paper's SOCs (3 of 4 memo hits) through an
                 in-process RequestService with an shm tier: the service and
                 shm layers.

The served path (`mst serve` over TCP) is left out: on a shared host its
figures moved with host load far more than the CLI's (perfbench/RESULTS.json,
"excluded").

Checks: every `mst optimize` output is byte-equal to the in-process answer
for its cell, and the 512x7M fingerprint equals the BENCH_optimizer.json
entry; every sweep report.json is byte-equal to a `--workers 1` reference
sweep. A mismatch, nonzero exit or timeout counts as a failed operation.
Every run ends by checking that no process, /dev/shm/mst-* segment or
temporary directory it made is left.
"""

import argparse
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
MST = BUILD / "mst" / "src" / "mst"
MSTBENCH = BUILD / "mstbench"
SETUPS = 3  # at least; cheap set-ups repeat for up to SETUP_BUDGET_S
SETUP_BUDGET_S = 1.0

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "soc.parse_ms": "ms",
    "soc.input_kb": "KiB",
    "soc.resolve_us": "us",
    "wrapper.tables_build_ms": "ms",
    "wrapper.widths": "count",
    "core.step1_ms": "ms",
    "core.step2_ms": "ms",
    "core.pack_calls": "count",
    "core.pack_cache_hits": "count",
    "core.pack_hit_ratio": "ratio",
    "core.greedy_passes": "count",
    "core.depth_profiles": "count",
    "core.pruned_packs": "count",
    "core.site_points": "count",
    "report.solution_json_us": "us",
    "service.protocol_parse_us": "us",
    "service.fingerprint_us": "us",
    "service.run_request_us.hit": "us",
    "service.run_request_us.miss": "us",
    "service.memo_hits": "count",
    "service.memo_misses": "count",
    "service.memo_hit_ratio": "ratio",
    "service.tables_hits": "count",
    "service.tables_misses": "count",
    "shm.hits": "count",
    "shm.misses": "count",
    "shm.publishes": "count",
    "shm.fallbacks": "count",
    "shm.checksum_failures": "count",
    "shm.committed_mb": "MiB",
    "shm.load_tables_ms": "ms",
    "shm.publish_tables_ms": "ms",
    "shm.restore_over_build": "ratio",
    "scenario.expand_ms": "ms",
    "scenario.compute_s": "s",
    "scenario.overhead_s": "s",
    "scenario.worker_failures": "count",
    "scenario.restarts": "count",
    "scenario.report_kb": "KiB",
    "cli.overhead_ms": "ms",
    "bench.failed_share": "ratio",
    "traced.ops_per_s": "1/s",
    "traced.latency_p50_ms": "ms",
}

PAPER_SOCS = ["d695", "p22810", "p34392", "p93791", "pnx8550"]


class BenchError(Exception):
    """The benchmark itself could not run (build, set-up or teardown)."""


class Context:
    def __init__(self, args, tmp):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.tmp = tmp
        self.procs = []  # every child still to be reaped
        self.shm_names = []  # /dev/shm entries a run may have made

    def popen(self, argv, **kwargs):
        proc = subprocess.Popen([str(a) for a in argv], **kwargs)
        self.procs.append(proc)
        return proc

    def run(self, argv, timeout=170):
        """Run a helper to completion; its stdout, or BenchError."""
        proc = self.popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"{Path(str(argv[0])).name} {argv[1]} exited "
                             f"{proc.returncode}: {err.decode(errors='replace')[-2000:]}")
        return out.decode()

    def cli(self, argv, timeout=120):
        """Run one timed `mst` operation: (exit code, stdout bytes, seconds,
        peak RSS in MiB of the process and the children it reaped)."""
        out_path = self.tmp / "stdout"
        start = time.perf_counter()
        with open(out_path, "wb") as out:
            proc = self.popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], timeout)[0]:
                proc.kill()
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_bytes(), seconds, usage.ru_maxrss / 1024.0

    def cleanup(self):
        """Stop every child, remove /dev/shm entries, check nothing is left."""
        leftovers = []
        for proc in self.procs:
            if proc.poll() is None:
                leftovers.append(f"pid {proc.pid}")
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        for name in self.shm_names:
            path = Path("/dev/shm") / name
            if path.exists():
                leftovers.append(str(path))
                path.unlink()
        return leftovers


def percentile(samples, p):
    """Linear-interpolated percentile p in [0, 100] of a non-empty list."""
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50)


def latency_metrics(latencies_s, elapsed_s, ops):
    ms = [x * 1e3 for x in latencies_s]
    return {
        "ops_per_s": ops / elapsed_s,
        "latency_p50_ms": percentile(ms, 50),
        "latency_p90_ms": percentile(ms, 90),
        "latency_p99_ms": percentile(ms, 99),
    }


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no mst sources under {ROOT}; run from the repository root")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=subprocess.DEVNULL, stderr=sys.stderr)
    done = subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
        raise BenchError("build failed")


def host_facts():
    """Where the numbers come from: printed beside every result."""
    cache = dict(line.split("=", 1) for line in
                 (BUILD / "CMakeCache.txt").read_text().splitlines()
                 if "=" in line and not line.startswith(("#", "//")))
    compiler = cache.get("CMAKE_CXX_COMPILER:FILEPATH", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    model = next((line.split(":", 1)[1].strip() for line in
                  Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), "unknown")
    commit = "unknown"  # a checkout without git history
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "compiler": (version.stdout.splitlines() or [compiler])[0],
            "build_type": cache.get("CMAKE_BUILD_TYPE:STRING", "unknown"), "commit": commit}


def timed_setups(setup):
    """Run `setup` SETUPS times, and on while they took under
    SETUP_BUDGET_S in all; the median seconds."""
    times = []
    while len(times) < SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < 50):
        start = time.perf_counter()
        setup()
        times.append(time.perf_counter() - start)
    return median(times)


# ---------------------------------------------------------------------------
# cold-optimize

CO_CHANNELS = [256, 384, 512, 768, 1024]
CO_DEPTHS = ["3M", "5M", "7M", "12M"]
CO_CHECKED = (512, "7M")  # the cell BENCH_optimizer.json fingerprints


def cold_optimize(ctx):
    rng = random.Random(ctx.seed)
    grid = [(c, d) for c in CO_CHANNELS for d in CO_DEPTHS]
    soc = ctx.tmp / "gen1000x-wide.soc"
    cells = ctx.tmp / "cells.txt"
    refs = ctx.tmp / "refs"

    def setup():
        (ctx.tmp / "gen.txt").write_text(f"{soc} gen1000x-wide 10000 wide_shallow 2005\n")
        ctx.run([MSTBENCH, "gen", ctx.tmp / "gen.txt"])
        cells.write_text("".join(f"{c} {d}\n" for c, d in grid))
        shutil.rmtree(refs, ignore_errors=True)
        refs.mkdir()
        ctx.run([MSTBENCH, "cells", soc, cells, refs])

    setup_s = timed_setups(setup)
    expected = [(refs / f"ref-{i}.json").read_bytes() for i in range(len(grid))]

    # The checked cell first, then seeded permutations of the whole grid,
    # so every run covers the grid evenly and repeats cells.
    order = [grid.index(CO_CHECKED)]
    latencies, rss, failed, used = [], 0.0, 0, set()
    start = time.perf_counter()
    deadline = start + ctx.seconds
    while time.perf_counter() < deadline:
        if len(order) == 0:
            order = rng.sample(range(len(grid)), len(grid))
        cell = order.pop(0)
        channels, depth = grid[cell]
        code, out, seconds, op_rss = ctx.cli(
            [MST, "optimize", "--soc", soc, "--channels", channels, "--depth", depth,
             "--threads", "1", "--json"])
        latencies.append(seconds)
        rss = max(rss, op_rss)
        used.add(grid[cell])
        if code != 0 or out != expected[cell]:
            failed += 1
        elif grid[cell] == CO_CHECKED and not fingerprint_matches(out):
            failed += 1
    elapsed = time.perf_counter() - start

    metrics = {"setup_s": setup_s, "peak_rss_mb": rss,
               **latency_metrics(latencies, elapsed, len(latencies))}
    layers = {}
    if ctx.trace:
        (ctx.tmp / "used.txt").write_text("".join(f"{c} {d}\n" for c, d in sorted(used)))
        layers = trace(ctx, ["--soc", soc, "--cells", ctx.tmp / "used.txt"])
        # The CLI's wall minus the same work in-process, in adjacent pairs.
        overhead = []
        for _ in range(5):
            cli_s = ctx.cli([MST, "optimize", "--soc", soc, "--channels", CO_CHECKED[0],
                             "--depth", CO_CHECKED[1], "--threads", "1", "--json"])[2]
            inprocess_ms = float(ctx.run([MSTBENCH, "pipeline", soc, *CO_CHECKED]))
            overhead.append(cli_s * 1e3 - inprocess_ms)
        layers["cli.overhead_ms"] = median(overhead)
    return len(latencies), failed, metrics, layers


def fingerprint_matches(out):
    bench = json.loads((ROOT / "BENCH_optimizer.json").read_text())
    entry = next(s for s in bench["scenarios"] if s["name"] == "gen1000x-wide/512x7M/plain")
    solution = json.loads(out)
    return all(solution[k] == v for k, v in entry["fingerprint"].items())


# ---------------------------------------------------------------------------
# The request stream of the in-process service replay (sweep-grid, traced)

RQ_CHANNELS = [256, 384, 512, 768, 1024]
RQ_DEPTHS = [8, 12, 16, 24, 32, 48]  # Mi vectors
RQ_VARIANTS = {"plain": "", "broadcast": ',"broadcast":true',
               "abort": ',"abort_on_fail":true', "retest": ',"retest":true'}
RQ_HOT = 160  # reuse distance 160 hot + 160/3 fresh < 256 memo entries


def request_plan(ctx, path):
    """Requests naming the paper's SOCs: 3 of 4 cycle 160 hot bodies (the
    same number per SOC and variant for every seed, on seeded cells of the
    grid, in a seeded order); every 4th is a fresh cell."""
    rng = random.Random(ctx.seed)
    cells = [(c, d) for c in RQ_CHANNELS for d in RQ_DEPTHS]
    per_pair = RQ_HOT // (len(PAPER_SOCS) * len(RQ_VARIANTS))
    hot = [f'"soc":"{soc}","channels":{c},"depth":"{d}M"{members}'
           for soc in PAPER_SOCS for members in RQ_VARIANTS.values()
           for c, d in rng.sample(cells, per_pair)]
    rng.shuffle(hot)
    lines = ["every 4", f"seed {rng.randrange(1 << 63)}"]
    lines += [f'fresh-soc "soc":"{soc}"' for soc in PAPER_SOCS]
    lines += [f"fresh-variant {members}" for members in RQ_VARIANTS.values()]
    lines += [f"hot {body}" for body in hot]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# sweep-grid

# Each grid axis takes one value per stratum, so every seed's grid spans
# the same range and costs about the same.
SG_CHANNELS = [(256, 320), (384, 448), (512, 640), (768, 1024)]
SG_DEPTHS = [("4M", "5M"), ("6M", "8M"), ("10M", "12M"), ("16M", "24M")]
SG_SCENARIOS = 7 * 16 * 3


def sweep_spec(ctx):
    rng = random.Random(ctx.seed)
    channels = ", ".join(str(rng.choice(s)) for s in SG_CHANNELS)
    depths = ", ".join(rng.choice(s) for s in SG_DEPTHS)
    socs = "".join(f"[soc]\nname = {name}\n\n" for name in PAPER_SOCS)
    for name, modules in (("gen300x-deep", 3000), ("gen1000x-deep", 10000)):
        socs += f"[soc]\ngenerate = {name}\nmodules = {modules}\nshape = narrow_deep\n\n"
    return (f"[sweep]\nname = perfbench-{ctx.seed}\n\n{socs}"
            f"[cells]\nchannels = {channels}\ndepths = {depths}\n\n"
            "[variant plain]\n\n[variant broadcast]\nbroadcast = true\n\n"
            "[variant abort]\nabort_on_fail = true\n")


def sweep_grid(ctx):
    spec = ctx.tmp / "grid.spec"

    def setup():
        spec.write_text(sweep_spec(ctx))
        listed = ctx.run([MST, "sweep", "--spec", spec, "--list"])
        if not listed.rstrip().endswith(f"{SG_SCENARIOS} scenarios in sweep 'perfbench-{ctx.seed}'"):
            raise BenchError(f"unexpected sweep expansion: {listed.splitlines()[-1]}")

    setup_s = timed_setups(setup)

    latencies, reports, summaries, rss = [], [], [], 0.0
    start = time.perf_counter()
    deadline = start + ctx.seconds
    out = None
    while time.perf_counter() < deadline:
        if out is not None:
            shutil.rmtree(out)
        out = ctx.tmp / f"sweep-{len(latencies)}"
        code, stdout, seconds, op_rss = ctx.cli(
            [MST, "sweep", "--spec", spec, "--out", out, "--workers", "2", "--shards", "8",
             "--threads", "1", "--json"])
        latencies.append(seconds)
        rss = max(rss, op_rss)
        report = out / "report.json"
        reports.append(report.read_bytes() if code == 0 and report.is_file() else None)
        summaries.append(json.loads(stdout) if code == 0 else None)
    elapsed = time.perf_counter() - start

    ref = ctx.tmp / "reference"
    ctx.run([MST, "sweep", "--spec", spec, "--out", ref, "--workers", "1", "--shards", "8",
             "--threads", "1"])
    expected = (ref / "report.json").read_bytes()
    failed = 0
    for report, summary in zip(reports, summaries):
        if report != expected or summary is None:
            failed += SG_SCENARIOS
        else:
            failed += summary["failed"]
    ops = SG_SCENARIOS * len(latencies)

    metrics = {"setup_s": setup_s, "peak_rss_mb": rss,
               **latency_metrics(latencies, elapsed, ops)}
    layers = {}
    if ctx.trace:
        request_plan(ctx, ctx.tmp / "plan.txt")
        layers = trace(ctx, ["--spec", spec, "--shards", out, "--plan", ctx.tmp / "plan.txt"])
        ok = [s for s in summaries if s is not None]
        layers["scenario.overhead_s"] = latencies[-1] - layers["scenario.compute_s"] / 2
        layers["scenario.worker_failures"] = sum(s["worker_failures"] for s in ok)
        layers["scenario.restarts"] = sum(s["restarts"] for s in ok)
        layers["scenario.report_kb"] = len(expected) / 1024.0
    return ops, failed, metrics, layers


# ---------------------------------------------------------------------------

def trace(ctx, args):
    """Per-layer metrics of mstbench trace on the workload's inputs."""
    prefix = f"mst-bench-{os.getpid()}"
    ctx.shm_names += [prefix, f"{prefix}-svc"]
    return json.loads(ctx.run([MSTBENCH, "trace", "--shm-prefix", prefix, *args]))


WORKLOADS = {
    "cold-optimize": cold_optimize,
    "sweep-grid": sweep_grid,
}


def remove_stale(tmp_root):
    """Undo what a run killed by SIGKILL left: its temporary directory, its
    mst processes and the shm segments of processes that are gone."""
    for entry in tmp_root.iterdir():
        shutil.rmtree(entry, ignore_errors=True)
    def alive(pid):
        try:
            return Path(f"/proc/{pid}/stat").read_text().split(") ")[1][0] != "Z"
        except (OSError, IndexError):
            return False

    ours = {str(MST), str(MSTBENCH)}
    killed = []
    for proc in Path("/proc").iterdir():
        try:
            if proc.name.isdigit() and os.readlink(proc / "exe") in ours:
                os.kill(int(proc.name), signal.SIGKILL)
                killed.append(proc.name)
        except OSError:
            pass
    deadline = time.perf_counter() + 5
    while any(alive(pid) for pid in killed) and time.perf_counter() < deadline:
        time.sleep(0.01)
    for segment in Path("/dev/shm").glob("mst-*-*"):
        pid = segment.name.split("-")[2]
        if pid.isdigit() and not alive(pid):
            segment.unlink(missing_ok=True)


def interrupted(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, interrupted)

    try:
        build()
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    tmp_root = ROOT / ".bench_build" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    remove_stale(tmp_root)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    ctx = Context(args, tmp)
    error = None
    try:
        attempted, failed, metrics, layers = WORKLOADS[args.workload](ctx)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        error = e
    finally:
        leftovers = ctx.cleanup()
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.exists():
            leftovers.append(str(tmp))
    if error is not None:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    if leftovers:
        print(f"perfbench: left behind: {', '.join(leftovers)}", file=sys.stderr)
        failed += 1

    if args.trace:
        layers["bench.failed_share"] = failed / attempted
        layers["traced.ops_per_s"] = metrics["ops_per_s"]
        layers["traced.latency_p50_ms"] = metrics["latency_p50_ms"]
        values, units = {**{k: 0.0 for k in LAYER_UNITS}, **layers}, LAYER_UNITS
    else:
        values, units = metrics, E2E_UNITS
    print(json.dumps({"host": host_facts()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
