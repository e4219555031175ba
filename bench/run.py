"""fairflow benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload solve-cut --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json; README.md in
this directory says why each workload exists and which layer metric
should move which end-to-end metric.

Steps of one run:
1. Write the seeded corpus and a fixed warm-up instance under
   `.bench_work/<workload>-<seed>/` (benchmark work, not measured).
2. With `--trace 0`: start SETUP_SAMPLES fresh processes that only set up
   (import fairflow.cli, one warm-up call), after one that warms the
   bytecode cache, then one fresh process that sets up and runs the
   closed timed loop for `--seconds`.  `setup_s` is the median set-up time.
   With `--trace 1`: one fresh process runs a fixed prefix of the corpus
   untraced, with layer spans, and with helper call counts.
3. Check every output (worker.py, checks.py) and print one JSON object as
   the last stdout line: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import corpus  # noqa: E402

# Instances written per run; the timed loop starts over when it gets through
# all of them.
CORPUS_SIZE = 160
SETUP_SAMPLES = 5
DEADLINE_S = 170  # a run must end within 180 s


def worker(mode: str, workload: str, seconds: float, work_dir: str,
           deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), mode, workload,
         str(seconds), work_dir],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(timed: dict, setups: list) -> dict:
    """Times are scaled to the reference speed (see worker.py)."""
    latencies = timed["latencies"]
    correct = sum(1 for f in timed["failures"] if f is None)
    return {
        "latency_s.p50": statistics.median(latencies),
        "latency_s.p90": statistics.quantiles(latencies, n=10)[8],
        "throughput_per_s": correct / sum(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.STRATA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "fairflow", "cli.py")):
        print("error: src/fairflow is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    corpus.write_corpus(args.workload, args.seed, CORPUS_SIZE, work_dir)
    with open(os.path.join(work_dir, "warm-up.json"), "w") as fh:
        fh.write(corpus.dump(corpus.warmup_instance(args.workload)))

    if args.trace:
        result = worker("trace", args.workload, args.seconds, work_dir, deadline)
        metrics = result["per_layer"]
        if result["absent"]:
            print(f"absent from this version: {', '.join(result['absent'])}",
                  file=sys.stderr)
        failures = result["failures"]
    else:
        worker("setup", args.workload, 0, work_dir, deadline)  # fills __pycache__
        setups = [worker("setup", args.workload, 0, work_dir, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        result = worker("timed", args.workload, args.seconds, work_dir, deadline)
        setups.append(result)
        metrics = end_to_end(result, [s["setup_s"] for s in setups])
        failures = result["failures"]
        wall = result["wall_latencies"]
        print(f"unscaled: latency p50 {statistics.median(wall):.4f} s, "
              f"p90 {statistics.quantiles(wall, n=10)[8]:.4f} s, setup "
              f"{statistics.median(s['setup_wall_s'] for s in setups):.4f} s",
              file=sys.stderr)

    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} "
                           "are not as declared in BENCHMARK.json")
    failed = [f for f in failures if f is not None]
    for problem in failed[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{len(failures)} instances, {len(failed)} failed", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(failures),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
