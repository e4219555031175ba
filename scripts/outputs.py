"""Record what `fairflow` prints on a fixed set of runs, and diff two records.

    python scripts/outputs.py record OUT [--seeds 1 2 11]
    python scripts/outputs.py diff A B
    python scripts/outputs.py hash RECORD OUT
    python scripts/outputs.py check HASHES RECORD
    python scripts/outputs.py codes RECORD

`record` runs, in-process through `fairflow.cli.main`:
- the bench corpora of every given seed (`bench/corpus.write_corpus`,
  written to a temporary directory), each under its workload's command
  line, and `solve-cut` also under `solve --trace`;
- every `tests/data` fixture, plus the EXTRAS below, under each of
  FIXTURE_COMMANDS.
It writes {run: [exit code, stdout, stderr]} to OUT as JSON.  A run that
raises records exit code null and the exception on stderr.

`fairflow` is imported from the Python path, so pointing PYTHONPATH at the
`src` of another checkout records that checkout.  To check that a change
keeps every output byte-identical to its parent:

    git worktree add ../parent HEAD~1
    PYTHONPATH=../parent/src python scripts/outputs.py record parent.json
    PYTHONPATH=src python scripts/outputs.py record change.json
    python scripts/outputs.py diff parent.json change.json

`diff` lists the runs whose exit code, stdout or stderr differ, or that
only one record has, and exits 1 if there are any.

`hash` reads a record and writes {run: SHA-256 of the JSON of [exit code,
stdout, stderr]} to OUT; `check` reads a record and exits 1, listing each
run whose hash differs from the one in HASHES, is missing from HASHES or
is new to it.  The committed `scripts/outputs.sha256.json` holds the
hashes of a record of the default seeds, so

    PYTHONPATH=src python scripts/outputs.py record change.json
    python scripts/outputs.py check scripts/outputs.sha256.json change.json

tells whether a change kept every output byte-identical.  A change that
alters outputs on purpose writes that file again with `hash` and names
the changed runs.

`codes` reads a record, prints the count of each exit code, names every
run that exited null (an exception escaped `cli.main`) or 5 (an internal
certificate failure), both engine bugs, and exits 1 if there is any.
"""

import argparse
import collections
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import corpus  # noqa: E402
from run import CORPUS_SIZE  # noqa: E402

CORPUS_COMMANDS = {
    "solve-cut": [["solve"], ["solve", "--trace"]],
    "mincost-wide": [["solve", "--min-cost"]],
    "orient-mixed": [["orient"]],
}

FIXTURE_COMMANDS = [
    ["check"], ["solve"], ["solve", "--trace"], ["solve", "--min-cost"],
    ["orient"], ["orient", "--k", "2"], ["verify"],
]


def _arc(name, tail, head, f, g, **extra):
    return {"id": name, "tail": tail, "head": head, "f": f, "g": g, **extra}


def _chain_table(shift, p_b):
    """tests/data/chain_table.json with every bound moved by `shift` and
    p({b}) set to `p_b`."""
    return {"nodes": ["a", "b", "c"],
            "arcs": [_arc("ab", "a", "b", shift - 2, shift + 2),
                     _arc("bc", "b", "c", shift - 2, shift + 2),
                     _arc("cb", "c", "b", shift, shift + 3)],
            "F": ["ab", "bc"],
            "base": {"type": "table", "p": {"": 0, "b": p_b, "b,c": -1, "a,b,c": 0}}}


def _two_nodes(**fields):
    """A valid solve document on nodes a, b with `fields` replaced."""
    return {"nodes": ["a", "b"], "arcs": [_arc("e1", "a", "b", 0, 1)], "F": ["e1"],
            "base": {"type": "zero"}, **fields}


def _triangle(k=1, **fields):
    """A valid orient document on a triangle with `fields` of its mixed
    graph replaced."""
    return {"mixed_graph": {"nodes": ["a", "b", "c"],
                            "edges": [["a", "b"], ["b", "c"], ["c", "a"]], **fields}, "k": k}


# Inputs that reach paths no fixture does: the blocking-circuit verdict on
# three nodes, a lower-unbounded focus arc that carries a cost, bounds past
# int64, a repeated focus id, a table whose full-set value is not 0, degree
# bounds on an orientation (met, and failing under --k 2), a degree interval
# emptied by the node's degree, a partial table with a "-inf" entry, a
# costed focus arc whose upper bound +inf is capped, four arcs at 2^62
# whose cut sum passes int64, tests/data/chain_table.json with every
# bound, or p({b}), moved past int64, and a table finite on {b} and {c}
# but not on {b,c}, the set reachable from the head of a lower-unbounded
# focus arc (finitize_bounds' "not closed under union" exit 2), degree
# bounds that pass the parser but admit no orientation of a triangle, and
# one input error of each kind the parser reports on its own, the "parse-"
# ones, among them each table key `_table_keys` does not hold.
# A document with a repeated key and one whose top level is a list are the
# raw-text fixtures tests/data/repeated_key.json and top_level_list.json.
EXTRAS = {
    "extra-blocking-circuit": {
        "nodes": ["a", "b", "c"],
        "arcs": [_arc("e1", "a", "b", "-inf", 0), _arc("e2", "b", "c", "-inf", "+inf"),
                 _arc("e3", "c", "a", "-inf", "+inf")],
        "F": ["e1"], "base": {"type": "zero"}},
    "extra-unbounded-costed-focus": {
        "nodes": ["a", "b"],
        "arcs": [_arc("e1", "a", "b", "-inf", 0, cost=1),
                 _arc("e2", "b", "a", 0, "+inf", cost=0)],
        "F": ["e1"], "base": {"type": "zero"}},
    "extra-huge-bounds": {
        "nodes": ["a", "b"],
        "arcs": [_arc("e1", "a", "b", -10 ** 30, 10 ** 30, cost=1),
                 _arc("e2", "b", "a", -10 ** 30, 10 ** 30, cost=-1)],
        "F": ["e1", "e2"], "base": {"type": "zero"}},
    "extra-repeated-focus-id": {
        "nodes": ["a", "b"],
        "arcs": [_arc("e1", "a", "b", 0, 2), _arc("e2", "b", "a", 0, 2)],
        "F": ["e1", "e1"], "base": {"type": "zero"}},
    "extra-bad-full-set": {
        "nodes": ["a", "b"],
        "arcs": [_arc("e1", "a", "b", 0, 1)],
        "F": ["e1"], "base": {"type": "table", "p": {"": 0, "a": 0, "b": 0, "a,b": 1}}},
    "extra-orient-degree-bounds": {
        "mixed_graph": {"nodes": ["a", "b", "c", "d"], "arcs": [["a", "b"]],
                        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"], ["a", "c"]],
                        "degree_bounds": {"a": [1, 2], "c": [0, 1]}}},
    "extra-orient-emptied-interval": {
        "mixed_graph": {"nodes": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
                        "degree_bounds": {"b": [3, 4]}}},
    "extra-partial-table-neg-inf": {
        "nodes": ["a", "b", "c"],
        "arcs": [_arc("e1", "a", "b", 0, 2), _arc("e2", "b", "c", 0, 2),
                 _arc("e3", "a", "c", 0, 3)],
        "F": ["e1", "e2", "e3"],
        "base": {"type": "table",
                 "p": {"": 0, "a": "-inf", "b": -1, "c": 2, "b,c": 1, "a,b,c": 0}}},
    "extra-costed-pos-inf-focus": {
        "nodes": ["a", "b"],
        "arcs": [_arc("e1", "a", "b", 0, "+inf", cost=1), _arc("e2", "b", "a", 1, 3, cost=2)],
        "F": ["e1"], "base": {"type": "zero"}},
    "extra-int64-wrap": {
        "nodes": ["a", "b"],
        "arcs": [_arc(f"e{i}", "a", "b", 1 << 62, 1 << 62) for i in range(1, 5)],
        "F": [], "base": {"type": "zero"}},
    "extra-chain-bounds-past-int64": _chain_table(1 << 64, 1),
    "extra-chain-value-past-int64": _chain_table(0, 1 << 64),
    "extra-reachable-set-not-finite": {
        "nodes": ["a", "b", "c"],
        "arcs": [_arc("e", "a", "b", "-inf", 0), _arc("h", "b", "c", "-inf", 0)],
        "F": ["e"],
        "base": {"type": "table", "p": {"": 0, "b": -5, "c": -5, "a,b,c": 0}}},
    "extra-parse-arc-not-object": _two_nodes(arcs=["e1"]),
    "extra-parse-arcs-not-list": _two_nodes(arcs={"e1": _arc("e1", "a", "b", 0, 1)}),
    "extra-parse-arc-id": _two_nodes(arcs=[_arc(1, "a", "b", 0, 1)]),
    "extra-parse-cost": _two_nodes(arcs=[_arc("e1", "a", "b", 0, 1, cost="1")]),
    "extra-parse-focus-not-list": _two_nodes(F="e1"),
    "extra-parse-lower-above-upper": _two_nodes(arcs=[_arc("e1", "a", "b", 2, 1)]),
    "extra-parse-table-not-object": _two_nodes(base={"type": "table", "p": [0, 0, 0, 0]}),
    "extra-parse-points": _two_nodes(base={"type": "points", "points": [[0]]}),
    "extra-parse-base-type": _two_nodes(base={"type": "ring"}),
    "extra-parse-orient-k": _triangle(k=0),
    "extra-parse-degree-bounds-not-object": _triangle(degree_bounds=[["a", 0, 2]]),
    "extra-parse-degree-bounds-node": _triangle(degree_bounds={"d": [0, 2]}),
    "extra-parse-degree-bounds-pair": _triangle(degree_bounds={"a": [0]}),
    "extra-parse-loop-edge": _triangle(edges=[["a", "a"], ["b", "c"], ["c", "a"]]),
    "extra-orient-degree-bounds-no-orientation": _triangle(degree_bounds={"a": [0, 0]}),
    "extra-parse-table-key-unknown-node": _two_nodes(
        base={"type": "table", "p": {"": 0, "a,c": 0, "a,b": 0}}),
    "extra-parse-table-key-repeated-node": _two_nodes(
        base={"type": "table", "p": {"": 0, "a,a": 0, "a,b": 0}}),
    "extra-parse-table-key-unsorted": _two_nodes(
        base={"type": "table", "p": {"": 0, "b,a": 0}}),
}


def call(cli, argv, directory):
    """[exit code, stdout, stderr] of one in-process run, with `directory`
    replaced by a fixed name so records from different places compare."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is recorded as a run's outcome
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
    return [code] + [s.getvalue().replace(directory, "<dir>") for s in (out, err)]


def collect(seeds):
    """{run: [exit code, stdout, stderr]} of every run."""
    from fairflow import cli

    print(f"recording fairflow from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for workload, commands in CORPUS_COMMANDS.items():
                for path in corpus.write_corpus(workload, seed, CORPUS_SIZE, tmp):
                    name = os.path.basename(path)
                    for argv in commands:
                        runs[" ".join(argv + [name])] = call(cli, argv + [path], tmp)
        data = os.path.join(ROOT, "tests", "data")
        fixtures = [os.path.join(data, name) for name in sorted(os.listdir(data))]
        for name, doc in EXTRAS.items():
            fixtures.append(os.path.join(tmp, name + ".json"))
            with open(fixtures[-1], "w") as fh:
                json.dump(doc, fh)
        for path in fixtures:
            name = os.path.basename(path)
            for argv in FIXTURE_COMMANDS:
                runs[" ".join(argv + [name])] = call(
                    cli, argv + [path], os.path.dirname(path))
    return runs


def load(path):
    with open(path) as fh:
        return json.load(fh)


def write(out_path, record):
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"{len(record)} runs written to {out_path}", file=sys.stderr)
    return 0


def hashes(runs):
    """{run: SHA-256 hex digest of its [exit code, stdout, stderr] as JSON}."""
    return {key: hashlib.sha256(json.dumps(run).encode()).hexdigest()
            for key, run in runs.items()}


def check(hashes_path, record_path):
    """Compare the hashes of the runs in `record_path` with those in
    `hashes_path`; print each run that differs, is missing or is new, and
    return 1 if any does."""
    expected, got = load(hashes_path), hashes(load(record_path))
    differ = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    for key in differ:
        state = "missing" if key not in got else "new" if key not in expected else "differs"
        print(f"{key}: {state}")
    print(f"{len(differ)} of {len(expected.keys() | got.keys())} runs differ")
    return 1 if differ else 0


def codes(record_path):
    """Print the count of each exit code in `record_path` and each run
    whose exit code is null or 5; return 1 if there is any."""
    runs = load(record_path)
    print(sorted(collections.Counter(str(run[0]) for run in runs.values()).items()))
    bad = sorted(key for key, run in runs.items() if run[0] in (None, 5))
    for key in bad:
        print(f"exit {runs[key][0]}: {key}")
    return 1 if bad else 0


def diff(a_path, b_path):
    a, b = load(a_path), load(b_path)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in differ:
        if key not in a or key not in b:
            print(f"{key}: only in {a_path if key in a else b_path}")
            continue
        parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), a[key], b[key])
                 if x != y]
        print(f"{key}: {', '.join(parts)} differ")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} runs differ")
    return 1 if differ else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_record = sub.add_parser("record", help="run everything and write the outputs")
    p_record.add_argument("out")
    p_record.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 11])
    for command, first, second, text in (
            ("diff", "a", "b", "list the runs two records disagree on"),
            ("hash", "record", "out", "write the hash of each run of a record"),
            ("check", "hashes", "record", "list the runs of a record whose hash differs")):
        p_cmd = sub.add_parser(command, help=text)
        p_cmd.add_argument(first)
        p_cmd.add_argument(second)
    p_codes = sub.add_parser("codes", help="count exit codes; fail on null or 5")
    p_codes.add_argument("record")
    args = parser.parse_args()
    if args.command == "record":
        return write(args.out, collect(args.seeds))
    if args.command == "hash":
        return write(args.out, hashes(load(args.record)))
    if args.command == "check":
        return check(args.hashes, args.record)
    if args.command == "codes":
        return codes(args.record)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
