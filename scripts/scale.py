"""Time one fair-flow solve per seed at n = 14..20 nodes, sweep the bound
width of a min-cost flow, or time `fairflow orient` on 7 nodes.

Each instance has a zero base, m = 2n random arcs (a Hamiltonian cycle plus
random pairs), bounds of width 1-3 that hold 0 and every arc in focus.
`library` times `solve_decmin` on the built instance; `cli` times an
in-process `fairflow solve` on the same instance written as JSON, parsing
included.  Prints one JSON line per (n, seed).

    PYTHONPATH=src python scripts/scale.py [library|cli] [n ...]

`mincost` times `min_cost_flow` on the 3-node cycles of `mincost_instance`
at bound widths W = 10, 10^2, ..., 10^6 and counts the `membership` checks
under it.  Prints one JSON line per (base, W), and exits 1 if a base's
count at the widest W differs from its count at the narrowest.

    PYTHONPATH=src python scripts/scale.py mincost

`orient` times an in-process `fairflow orient` on 7-node graphs with m
edges, k = 1: a 7-cycle of edges plus m - 7 node pairs drawn from
`random.Random(f"orient7/{m}")`.  It also solves each graph through the
2n-node reference encoding (`encode`, `solve_decmin`, `decode`), and
through the costed library path (`decmin_orientation` with edge costs
0..9 drawn from `random.Random(f"costs/{m}")`).  Prints one JSON line per
m with the seconds of all three, the number of distinct in-degree vectors
the CLI run checked and its exit code, and exits 1 if any run exits
non-zero or a sorted in-degree profile differs from the CLI run's.

    PYTHONPATH=src python scripts/scale.py orient [m ...]   # default 20 28 36

`levels` times `solve_decmin` on instances with many distinct upper
levels: a zero base, m = 3n arcs (a Hamiltonian cycle plus 2n random
pairs), every arc in focus, all upper bounds distinct (drawn from
1..4m - 1) and lower bounds in -3..0.  It counts the `find_violator` probes
of each `compute_beta` call and prints one JSON line per (n, seed) with the
seconds, the total probes and the most made by one call.  It exits 1 when
a call makes more than ceil(log2(2m)) + 1 probes: the bisection over the
at most 2m focus bounds plus the check of the final clamp.

    PYTHONPATH=src python scripts/scale.py levels [n ...]   # default 18 20

`table` writes a `fairflow solve` document on n nodes named v0, v1, ...
(so their sorted order is not the node order once n > 10): m = 2n arcs
(a Hamiltonian cycle plus random pairs) with bounds of width 1-2 in
-2..3, every arc in focus, and a full `table` base that a random flow x
in the bounds satisfies, p(Z) = psi_x(Z) + h(Z): psi_x the net in-flows
of x, h a sum of one to three supermodular pair terms
w (2 [u, v in Z] - [u in Z] - [v in Z]), which are at most 0.  It times
`parse_instance` and `solve_decmin` on the parsed instance.  It also
parses a copy of the document with its node list permuted, before the
document on seed 1 and after it on seed 2: each permuted parse then
follows a parse of the same names in another order, and seed 2's own
parse follows seed 1's, whose key index it reuses.  Prints one JSON line
per (n, seed), and exits 1 when a parsed table, in either node order,
differs from `BaseOracle.from_table` of the same values.

    PYTHONPATH=src python scripts/scale.py table [n ...]   # default 16
"""

import io
import itertools
import json
import random
import sys
import tempfile
import time
from contextlib import redirect_stdout
from unittest import mock

import numpy as np

from fairflow import Bounds, Digraph, Instance, baseflow, decmin, orient, solve_decmin
from fairflow.cli import main, parse_instance
from fairflow.core import node_net_inflow
from fairflow.setfn import BaseOracle, subset_sums

MINCOST_COST = (-1, -2, 1)


def instance(n, seed):
    rng = random.Random(f"scale/{n}/{seed}")
    order = rng.sample(range(n), n)
    arcs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    arcs += [tuple(rng.sample(range(n), 2)) for _ in range(n)]
    widths = [rng.randint(1, 3) for _ in arcs]
    lower = [-rng.randint(0, w) for w in widths]  # the zero flow is feasible
    return arcs, lower, [lo + w for lo, w in zip(lower, widths)]


def zero_base_instance(n, arcs, lower, upper):
    return Instance(Digraph(n, tuple(arcs)), Bounds(tuple(lower), tuple(upper)),
                    BaseOracle.zero(n), frozenset(range(len(arcs))))


def time_library(n, arcs, lower, upper):
    inst = zero_base_instance(n, arcs, lower, upper)
    t = time.perf_counter()
    solve_decmin(inst)
    return time.perf_counter() - t


def levels_instance(n, seed):
    """Zero-base instance on n nodes with m = 3n arcs, every arc in focus
    and every upper bound distinct; the zero flow is feasible."""
    rng = random.Random(f"levels/{n}/{seed}")
    order = rng.sample(range(n), n)
    arcs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    arcs += [tuple(rng.sample(range(n), 2)) for _ in range(2 * n)]
    m = len(arcs)
    upper = rng.sample(range(1, 4 * m), m)
    lower = [-rng.randint(0, 3) for _ in arcs]
    return zero_base_instance(n, arcs, lower, upper)


def probe_bound(m):
    """Most `find_violator` probes one `compute_beta` call may make on m
    focus arcs: ceil(log2(2m)) bisection steps plus the final check."""
    return (2 * m - 1).bit_length() + 1


def time_levels(sizes):
    ok = True
    for n in sizes:
        for seed in (1, 2):
            inst = levels_instance(n, seed)
            probes = []  # find_violator calls of each compute_beta call
            with mock.patch.object(decmin, "find_violator",
                                   wraps=decmin.find_violator) as spy:
                def counting(cur, real=decmin.compute_beta):
                    before = spy.call_count
                    out = real(cur)
                    probes.append(spy.call_count - before)
                    return out

                with mock.patch.object(decmin, "compute_beta", counting):
                    t = time.perf_counter()
                    solve_decmin(inst)
                    seconds = time.perf_counter() - t
            bound = probe_bound(inst.digraph.arc_count)
            print(json.dumps({"n": n, "seed": seed, "s": round(seconds, 3),
                              "probes": sum(probes), "max_probes": max(probes),
                              "bound": bound}), flush=True)
            ok = ok and max(probes) <= bound
    return 0 if ok else 1


def table_doc(n, seed):
    """(solve document, its table as a list) on n nodes; see `table`."""
    rng = random.Random(f"table/{n}/{seed}")
    order = rng.sample(range(n), n)
    arcs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    arcs += [tuple(rng.sample(range(n), 2)) for _ in range(n)]
    lower = [rng.randint(-2, 1) for _ in arcs]
    upper = [lo + rng.randint(1, 2) for lo in lower]
    x = [rng.randint(lo, hi) for lo, hi in zip(lower, upper)]
    masks = np.arange(1 << n)
    table = subset_sums(node_net_inflow(Digraph(n, tuple(arcs)), x))
    for _ in range(rng.randint(1, 3)):
        (u, v), w = rng.sample(range(n), 2), rng.randint(1, 2)
        holds_u, holds_v = (masks >> u) & 1, (masks >> v) & 1
        table += w * (2 * holds_u * holds_v - holds_u - holds_v)
    names = [f"v{v}" for v in range(n)]
    p = {",".join(sorted(names[v] for v in range(n) if (m >> v) & 1)): value
         for m, value in enumerate(table.tolist())}
    doc = {"nodes": names, "base": {"type": "table", "p": p},
           "arcs": [{"id": f"e{e}", "tail": names[t], "head": names[h], "f": lo, "g": hi}
                    for e, ((t, h), lo, hi) in enumerate(zip(arcs, lower, upper))],
           "F": [f"e{e}" for e in range(len(arcs))]}
    return doc, table.tolist()


def parse_table_doc(doc, table):
    """(parsed instance, seconds, whether its table equals
    `BaseOracle.from_table` of `table`)."""
    t = time.perf_counter()
    parsed = parse_instance(doc)
    seconds = time.perf_counter() - t
    got = parsed.instance.base.values
    want = BaseOracle.from_table(len(doc["nodes"]), table).values
    same = all(np.array_equal(a, b) for a, b in
               ((got.fin, want.fin), (got.pos, want.pos), (got.neg, want.neg)))
    return parsed, seconds, same


def parse_permuted(n, seed, doc, table):
    """Seconds and check of `parse_table_doc` on `doc` with its node list
    permuted: node i of the copy is node order[i], so mask Z of the copy
    is the mask of {order[i] : i in Z}, the subset sum of their bits."""
    order = random.Random(f"table-order/{n}/{seed}").sample(range(n), n)
    masks = subset_sums([1 << v for v in order])
    permuted = {**doc, "nodes": [doc["nodes"][v] for v in order]}
    _, seconds, same = parse_table_doc(permuted, np.asarray(table)[masks].tolist())
    return seconds, same


def table_record(n, seed):
    """The JSON record of one `table` run; its document is freed when the
    record is returned, before the next one is written."""
    doc, table = table_doc(n, seed)
    if seed == 1:
        permuted_seconds, same_permuted = parse_permuted(n, seed, doc, table)
    parsed, parse_seconds, same = parse_table_doc(doc, table)
    t = time.perf_counter()
    solve_decmin(parsed.instance)
    solve_seconds = time.perf_counter() - t
    if seed == 2:
        permuted_seconds, same_permuted = parse_permuted(n, seed, doc, table)
    return {"n": n, "seed": seed, "parse_s": round(parse_seconds, 3),
            "solve_s": round(solve_seconds, 3), "same_table": same,
            "permuted_parse_s": round(permuted_seconds, 3), "same_permuted": same_permuted}


def time_table(sizes):
    ok = True
    for n in sizes:
        for seed in (1, 2):
            record = table_record(n, seed)
            print(json.dumps(record), flush=True)
            ok = ok and record["same_table"] and record["same_permuted"]
    return 0 if ok else 1


def run_cli(command, doc):
    """(exit code, seconds, stdout) of an in-process `fairflow <command>`
    on doc."""
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(doc, fh)
        fh.flush()
        with redirect_stdout(io.StringIO()) as out:
            t = time.perf_counter()
            code = main([command, fh.name])
            return code, time.perf_counter() - t, out.getvalue()


def time_cli(n, arcs, lower, upper):
    doc = {"nodes": [f"v{v}" for v in range(n)], "base": {"type": "zero"},
           "arcs": [{"id": f"e{e}", "tail": f"v{t}", "head": f"v{h}", "f": lo, "g": hi}
                    for e, ((t, h), lo, hi) in enumerate(zip(arcs, lower, upper))],
           "F": [f"e{e}" for e in range(len(arcs))]}
    code, elapsed, _ = run_cli("solve", doc)
    assert code == 0, code
    return elapsed


def mincost_instance(width, base):
    """3-node cycle with bounds [-W/2, W - W/2]: under MINCOST_COST the
    cheapest flow moves about W/2 units around it.  `base` is "zero", or
    "points": every y with y(V) = 0 and |y_v| <= 1, so that exchange arcs
    take part."""
    half = width // 2
    if base == "zero":
        oracle = BaseOracle.zero(3)
    else:
        points = [y for y in itertools.product((-1, 0, 1), repeat=3) if sum(y) == 0]
        oracle = BaseOracle.from_points(points, 3)
    return Instance(Digraph(3, ((0, 1), (1, 2), (2, 0))),
                    Bounds((-half,) * 3, (width - half,) * 3), oracle)


def sweep_mincost():
    flat = True
    for base in ("zero", "points"):
        counts = []
        for width in (10 ** k for k in range(1, 7)):
            inst = mincost_instance(width, base)
            with mock.patch.object(baseflow, "membership", wraps=baseflow.membership) as spy:
                t = time.perf_counter()
                baseflow.min_cost_flow(inst, MINCOST_COST)
                seconds = time.perf_counter() - t
            counts.append(spy.call_count)
            print(json.dumps({"base": base, "W": width, "s": round(seconds, 4),
                              "membership": spy.call_count}), flush=True)
        flat = flat and counts[-1] == counts[0]
    return 0 if flat else 1


def time_orient(edge_counts):
    ok = True
    for m in edge_counts:
        rng = random.Random(f"orient7/{m}")
        edges = [(v, (v + 1) % 7) for v in range(7)]
        edges += [tuple(rng.sample(range(7), 2)) for _ in range(m - 7)]
        doc = {"mixed_graph": {"nodes": [f"v{v}" for v in range(7)], "arcs": [],
                               "edges": [[f"v{u}", f"v{v}"] for u, v in edges]}, "k": 1}
        rows = []  # the blocked check passes the vectors' keys in blocks

        def counting(keys, *args, real=orient._block_sums):
            rows.append(len(keys))
            return real(keys, *args)

        with mock.patch.object(orient, "_block_sums", counting):
            code, seconds, out = run_cli("orient", doc)
        mg = orient.MixedGraph(7, (), tuple(edges))
        t = time.perf_counter()
        enc = orient.encode(mg)
        _, dense = orient.decode(enc, solve_decmin(enc.instance).witness)
        dense_seconds = time.perf_counter() - t
        cost_rng = random.Random(f"costs/{m}")
        costs = [(cost_rng.randint(0, 9), cost_rng.randint(0, 9)) for _ in edges]
        t = time.perf_counter()
        _, costed = orient.decmin_orientation(mg, edge_costs=costs)
        costed_seconds = time.perf_counter() - t
        same = code == 0 and (sorted(json.loads(out)["in_degrees"].values())
                              == sorted(dense) == sorted(costed))
        print(json.dumps({"m": m, "s": round(seconds, 3), "dense_s": round(dense_seconds, 3),
                          "costed_s": round(costed_seconds, 3), "vectors": sum(rows),
                          "exit": code, "same_profile": same}), flush=True)
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["mincost"]:
        sys.exit(sweep_mincost())
    if sys.argv[1:2] == ["orient"]:
        sys.exit(time_orient(map(int, sys.argv[2:] or (20, 28, 36))))
    if sys.argv[1:2] == ["table"]:
        sys.exit(time_table(map(int, sys.argv[2:] or (16,))))
    if sys.argv[1:2] == ["levels"]:
        sys.exit(time_levels(map(int, sys.argv[2:] or (18, 20))))
    timer = time_cli if sys.argv[1:2] == ["cli"] else time_library
    for n in map(int, sys.argv[2:] or (14, 16, 18, 20)):
        for seed in (1, 2):
            seconds = timer(n, *instance(n, seed))
            print(json.dumps({"n": n, "seed": seed, "s": round(seconds, 3)}), flush=True)
