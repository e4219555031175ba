"""Time one fair-flow solve per seed at n = 14..20 nodes.

Each instance has a zero base, m = 2n random arcs (a Hamiltonian cycle plus
random pairs), bounds of width 1-3 that hold 0 and every arc in focus.
`library` times `solve_decmin` on the built instance; `cli` times an
in-process `fairflow solve` on the same instance written as JSON, parsing
included.  Prints one JSON line per (n, seed).

    PYTHONPATH=src python scripts/scale.py [library|cli] [n ...]
"""

import json
import os
import random
import sys
import tempfile
import time
from contextlib import redirect_stdout

from fairflow import Bounds, Digraph, Instance, solve_decmin
from fairflow.cli import main
from fairflow.setfn import BaseOracle


def instance(n, seed):
    rng = random.Random(f"scale/{n}/{seed}")
    order = rng.sample(range(n), n)
    arcs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    arcs += [tuple(rng.sample(range(n), 2)) for _ in range(n)]
    widths = [rng.randint(1, 3) for _ in arcs]
    lower = [-rng.randint(0, w) for w in widths]  # the zero flow is feasible
    return arcs, lower, [lo + w for lo, w in zip(lower, widths)]


def time_library(n, arcs, lower, upper):
    inst = Instance(Digraph(n, tuple(arcs)), Bounds(tuple(lower), tuple(upper)),
                    BaseOracle.zero(n), frozenset(range(len(arcs))))
    t = time.perf_counter()
    solve_decmin(inst)
    return time.perf_counter() - t


def time_cli(n, arcs, lower, upper):
    doc = {"nodes": [f"v{v}" for v in range(n)], "base": {"type": "zero"},
           "arcs": [{"id": f"e{e}", "tail": f"v{t}", "head": f"v{h}", "f": lo, "g": hi}
                    for e, ((t, h), lo, hi) in enumerate(zip(arcs, lower, upper))],
           "F": [f"e{e}" for e in range(len(arcs))]}
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(doc, fh)
        fh.flush()
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            t = time.perf_counter()
            code = main(["solve", fh.name])
            elapsed = time.perf_counter() - t
    assert code == 0, code
    return elapsed


if __name__ == "__main__":
    timer = time_cli if sys.argv[1:2] == ["cli"] else time_library
    for n in map(int, sys.argv[2:] or (14, 16, 18, 20)):
        for seed in (1, 2):
            seconds = timer(n, *instance(n, seed))
            print(json.dumps({"n": n, "seed": seed, "s": round(seconds, 3)}), flush=True)
