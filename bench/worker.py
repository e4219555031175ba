"""One workload in one fresh process: set-up, then a timed or traced loop.

Usage: worker.py <setup|timed|trace> <workload> <seconds> <work dir>

The work dir holds the corpus written by run.py (`<workload>-<seed>-NNNN.json`)
and `warm-up.json`.  Set-up is everything before the loop: importing
fairflow.cli (which pulls in numpy) and one untimed warm-up call.  The loop
is closed: one caller, sequential `fairflow.cli.main` calls with stdout
captured, no threads.  Outputs are checked after the loop, outside the
timed region.  The result is one JSON object on the last stdout line.

Machine speed.  On the 2-vCPU virtual machine (Intel Xeon, Python 3.11)
where the baseline was recorded, speed changes by up to 50 % for tens of
seconds at a time, with CPU time tracking wall time, so raw times from
runs minutes apart are not comparable.  Each measured interval
is therefore bracketed by `reference()`, a fixed pure-Python subset scan
of the same kind as fairflow's own, and reported scaled to the speed at
which that scan takes REFERENCE_S:

    reported = wall * REFERENCE_S / mean(reference before, reference after)

The reference is benchmark code, so a change to fairflow cannot move it.
"""

import sys
import time

REFERENCE_S = 0.004
_REF_ARCS = tuple(((7 * e) % 11, (3 * e + 1) % 11) for e in range(22))


def reference() -> float:
    """Seconds taken by one cut-sum scan over all 2^11 subsets of 22 arcs."""
    start = time.perf_counter()
    for z in range(1 << 11):
        total = 0
        for e, (t, h) in enumerate(_REF_ARCS):
            if (z >> h) & 1 and not (z >> t) & 1:
                total += e
    return time.perf_counter() - start


# Set-up is measured from here: nothing that fairflow imports is loaded yet.
_REF_BEFORE_SETUP = reference()
_T0 = time.perf_counter()

# Argument lists for `fairflow.cli.main`, with the instance path appended.
COMMANDS = {
    "solve-cut": ["solve"],
    "mincost-wide": ["solve", "--min-cost"],
    "orient-mixed": ["orient"],
}

# The timed loop runs for the given seconds, and longer if it has not yet
# made this many calls, so that at least 10 samples lie beyond the 90th
# percentile.
MIN_CALLS = 100

# The traced run covers the smallest whole number of passes over the
# workload's strata that reaches this many instances.
TRACE_INSTANCES = 30


def call(cli, argv):
    """(exit code or None on an exception, captured stdout, wall seconds)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an engine crash is a failed instance
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t
    return code, out.getvalue() or err.getvalue(), elapsed


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    return wall * 2 * REFERENCE_S / (ref_before + ref_after)


def main(argv) -> int:
    mode, workload, seconds, work_dir = argv[1], argv[2], float(argv[3]), argv[4]
    import os
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(bench_dir), "src"))
    from fairflow import cli

    command = COMMANDS[workload]
    code, _, _ = call(cli, command + [os.path.join(work_dir, "warm-up.json")])
    setup_wall = time.perf_counter() - _T0
    ref = reference()
    result = {"setup_s": scaled(setup_wall, _REF_BEFORE_SETUP, ref),
              "setup_wall_s": setup_wall}
    if code != 0:
        print(f"warm-up call exited with {code}", file=sys.stderr)
        return 1

    import json
    import resource

    import corpus
    if mode == "setup":
        print(json.dumps(result))
        return 0

    paths = sorted(os.path.join(work_dir, f) for f in os.listdir(work_dir)
                   if f.startswith(workload + "-"))

    def run(path):
        """(path, exit code, output, scaled seconds, wall seconds)."""
        nonlocal ref
        code, out, wall = call(cli, command + [path])
        before, ref = ref, reference()
        return path, code, out, scaled(wall, before, ref), wall

    runs = []
    if mode == "timed":
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(runs) < MIN_CALLS:
            runs.append(run(paths[len(runs) % len(paths)]))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Untraced, traced and counted calls alternate per instance, so that
        # drift in machine speed affects the three passes alike.
        import spans
        recorder, counter = spans.SpanRecorder(), spans.CallCounter()
        traced = []
        changed = []
        period = len(corpus.STRATA[workload])
        for path in paths[:-(-TRACE_INSTANCES // period) * period]:
            runs.append(run(path))
            with recorder.recording() as absent:
                traced.append(run(path))
            with counter.counting() as absent_counted:
                counted = run(path)
            changed.append(not runs[-1][1:3] == traced[-1][1:3] == counted[1:3])
        recorder.dump(os.path.join(work_dir, "spans.json"))
        metrics = recorder.metrics()
        # span times are wall seconds: scale them like the calls they sit in
        speed = sum(t[3] for t in traced) / sum(t[4] for t in traced)
        for name in metrics:
            if name.endswith(".self_s"):
                metrics[name] *= speed
        metrics.update(counter.metrics())
        untraced_s = sum(r[3] for r in runs)
        metrics["trace.overhead_frac"] = sum(t[3] for t in traced) / untraced_s - 1
        result["per_layer"] = metrics
        result["absent"] = absent + absent_counted

    import checks
    with open(os.path.join(bench_dir, "digests.json")) as fh:
        recorded = json.load(fh).get(workload, {})
    docs = {}
    failures = []
    for i, (path, code, out, _, _) in enumerate(runs):
        if path not in docs:
            with open(path) as fh:
                docs[path] = json.load(fh)
        problem, digest = checks.check(workload, docs[path], code, out)
        name = os.path.basename(path)[:-len(".json")]
        if problem is None and name in recorded and digest != recorded[name]:
            problem = f"digest {digest} differs from the recorded {recorded[name]}"
        if problem is None and mode == "trace" and changed[i]:
            problem = "tracing changed the output"
        failures.append(None if problem is None else f"{path}: {problem}")
    result["latencies"] = [r[3] for r in runs]
    result["wall_latencies"] = [r[4] for r in runs]
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
