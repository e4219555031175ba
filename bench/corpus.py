"""Seeded instance corpus for the benchmark workloads.

Pure Python on purpose: nothing here imports fairflow (or numpy), so that
generating the corpus adds nothing to the program's measured set-up, and
so that the feasibility and connectivity filters are the benchmark's own
brute-force scans rather than the solver's.  Instances are written in the
CLI's JSON format; any of them can be rerun by hand with
`fairflow solve <file>` (add `--min-cost` for mincost-wide) or
`fairflow orient <file>`.

The same (workload, seed) always gives byte-identical files.
"""

from __future__ import annotations

import json
import os
import random

INF = float("inf")
NAMES = "abcdefghijklmnop"  # one letter per node: string order = index order



# --- the benchmark's own model of an instance --------------------------------

class Model:
    """Bounds, arcs and base table of a solve document, with +-inf as floats.

    Finite values are small integers, so float infinities keep every sum
    and comparison exact.
    """

    def __init__(self, doc: dict):
        self.names = doc["nodes"]
        self.n = len(self.names)
        index = {s: i for i, s in enumerate(self.names)}
        self.arc_ids = [a["id"] for a in doc["arcs"]]
        self.arcs = [(index[a["tail"]], index[a["head"]]) for a in doc["arcs"]]
        self.lower = [_ext(a["f"]) for a in doc["arcs"]]
        self.upper = [_ext(a["g"]) for a in doc["arcs"]]
        self.cost = [a.get("cost", 0) for a in doc["arcs"]]
        self.focus = list(doc["F"])
        base = doc["base"]
        size = 1 << self.n
        if base["type"] == "zero":
            self.p = [0] * size
        else:
            self.p = [-INF] * size
            for key, value in base["p"].items():
                mask = 0
                for name in (key.split(",") if key else ()):
                    mask |= 1 << index[name]
                self.p[mask] = _ext(value)

    def cut_feasible(self) -> bool:
        """Cut criterion: upper in-cut minus lower out-cut dominates p."""
        terms = [(1 << t, 1 << h, self.upper[e], self.lower[e])
                 for e, (t, h) in enumerate(self.arcs)]
        for z, pz in enumerate(self.p):
            if pz == -INF:
                continue
            slack = -pz
            for tb, hb, g, f in terms:
                if z & hb and not z & tb:
                    slack += g
                elif z & tb and not z & hb:
                    slack -= f
            if slack < 0:
                return False
        return True

    def flow_violation(self, x) -> str | None:
        """Why the arc vector x is not a feasible base-flow, or None."""
        for e, v in enumerate(x):
            if not self.lower[e] <= v <= self.upper[e]:
                return f"arc {self.arc_ids[e]}: {v} outside its bounds"
        terms = [(1 << t, 1 << h, x[e]) for e, (t, h) in enumerate(self.arcs)]
        for z, pz in enumerate(self.p):
            net = 0
            for tb, hb, v in terms:
                if z & hb and not z & tb:
                    net += v
                elif z & tb and not z & hb:
                    net -= v
            if net < pz:
                return f"node set {z:b}: net in-flow {net} below p = {pz}"
        return None


def _ext(v):
    if v == "+inf":
        return INF
    if v == "-inf":
        return -INF
    return v


def strongly_orientable(n: int, arcs, edges) -> bool:
    """Does the mixed graph have a strongly connected orientation?

    Boesch and Tindell: exactly when every proper nonempty node set Z has
    d_E(Z) >= [no fixed arc enters Z] + [no fixed arc leaves Z], where
    d_E counts the undirected edges crossing Z.
    """
    for z in range(1, (1 << n) - 1):
        enter = leave = cross = 0
        for u, v in arcs:
            if (z >> v) & 1 and not (z >> u) & 1:
                enter += 1
            elif (z >> u) & 1 and not (z >> v) & 1:
                leave += 1
        for u, v in edges:
            if ((z >> u) & 1) != ((z >> v) & 1):
                cross += 1
        if cross < (enter == 0) + (leave == 0):
            return False
    return True


# --- generators ----------------------------------------------------------------

def supermodular_table(rng: random.Random, n: int) -> list:
    """Fully supermodular table with value 0 on the full set.

    Sum of certified supermodular pieces: induced-pair counts of a random
    multigraph, a convex function of the cardinality, and a modular tilt;
    a modular integer shift then zeroes the full-set value.
    """
    size = 1 << n
    table = [0] * size
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(n), 2)
        pair = (1 << u) | (1 << v)
        w = rng.randint(1, 2)
        for m in range(size):
            if m & pair == pair:
                table[m] += w
    if rng.random() < 0.5:
        c = rng.randint(1, 2)
        for m in range(size):
            k = bin(m).count("1")
            table[m] += c * (k * (k - 1) // 2)
    tilt = [rng.randint(-2, 2) for _ in range(n)]
    base_w, rem = divmod(table[size - 1] + sum(tilt), n)
    shift = [tilt[v] - base_w - (1 if v < rem else 0) for v in range(n)]
    for m in range(size):
        table[m] += sum(shift[v] for v in range(n) if (m >> v) & 1)
    return table


def _table_doc(table: list, n: int) -> dict:
    p = {}
    for m, value in enumerate(table):
        p[",".join(NAMES[v] for v in range(n) if (m >> v) & 1)] = value
    return {"type": "table", "p": p}


def _random_arcs(rng: random.Random, n: int, m: int) -> list:
    """m arcs without loops; the first n form a Hamiltonian cycle so every
    node is touched."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    while len(arcs) < m:
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v))
    rng.shuffle(arcs)
    return arcs


def _solve_doc(n, arcs, lower, upper, focus, base, cost=None) -> dict:
    arc_docs = []
    for e, (t, h) in enumerate(arcs):
        entry = {"id": f"e{e}", "tail": NAMES[t], "head": NAMES[h],
                 "f": lower[e], "g": upper[e]}
        if cost is not None:
            entry["cost"] = cost[e]
        arc_docs.append(entry)
    return {"nodes": list(NAMES[:n]), "arcs": arc_docs,
            "F": [f"e{e}" for e in sorted(focus)], "base": base}


def solve_cut_instance(rng: random.Random, n: int, base_kind: str,
                       unbounded: bool) -> dict:
    """Feasible instance with m = 2n arcs, all in focus, narrow bounds, and a
    `zero` or finite supermodular `table` base.  With `unbounded`, one arc
    leaves the focus and gets an infinite bound, so the existence layer
    has real work."""
    while True:
        m = 2 * n
        arcs = _random_arcs(rng, n, m)
        lower = [rng.randint(-2, 1) for _ in range(m)]
        upper = [lo + rng.randint(1, 2) for lo in lower]
        focus = set(range(m))
        if unbounded:
            e = rng.randrange(m)
            focus.discard(e)
            if rng.random() < 0.5:
                upper[e] = "+inf"
            else:
                lower[e] = "-inf"
        if base_kind == "zero":
            base = {"type": "zero"}
        else:
            base = _table_doc(supermodular_table(rng, n), n)
        doc = _solve_doc(n, arcs, lower, upper, focus, base)
        if Model(doc).cut_feasible():
            return doc


def mincost_instance(rng: random.Random, n: int, width: int) -> dict:
    """Feasible min-cost instance with m = 2n arcs.

    The n arcs outside the focus form one Hamiltonian cycle with bounds
    [-width/2, width/2] and integer costs of nonzero total, so the cheapest
    flow moves about width/2 units around it: the unit-step augmentation
    count, and so the latency, grows with the width and varies little
    between instances of one width.  The n focus arcs are random, with
    narrow bounds and cost 0.  The base is zero (circulations): with a
    table base, exchange arcs open further negative cycles on some
    instances and double or triple their augmentation count, which would
    make the latency of one width bimodal.
    """
    half = width // 2
    while True:
        order = list(range(n))
        rng.shuffle(order)
        arcs = [(order[i], order[(i + 1) % n]) for i in range(n)]
        cost = [rng.randint(-5, 5) for _ in range(n)]
        if sum(cost) == 0:
            continue
        lower = [-half] * n
        upper = [half] * n
        for _ in range(n):
            arcs.append(tuple(rng.sample(range(n), 2)))
            lo = rng.randint(-1, 1)
            lower.append(lo)
            upper.append(lo + rng.randint(1, 2))
            cost.append(0)
        doc = _solve_doc(n, arcs, lower, upper, range(n, 2 * n),
                         {"type": "zero"}, cost)
        if Model(doc).cut_feasible():
            return doc


def orient_instance(rng: random.Random, n: int, edge_count: int,
                    fixed: int) -> dict:
    """Strongly orientable mixed graph (k = 1) with `fixed` fixed arcs."""
    while True:
        pairs = _random_arcs(rng, n, edge_count + fixed)
        arcs, edges = pairs[:fixed], pairs[fixed:]
        if strongly_orientable(n, arcs, edges):
            names = NAMES[:n]
            return {"mixed_graph": {
                "nodes": list(names),
                "arcs": [[names[u], names[v]] for u, v in arcs],
                "edges": [[names[u], names[v]] for u, v in edges]},
                "k": 1}


def _spread(counts: dict) -> list:
    """One period of strata, each spread evenly over the period."""
    slots = [((k + 0.5) / c, i, stratum)
             for i, (stratum, c) in enumerate(counts.items()) for k in range(c)]
    return [stratum for _, _, stratum in sorted(slots)]


# Each workload cycles through a fixed period of strata, so that every
# prefix of the corpus (the timed loop stops wherever its time runs out)
# has the same mix.  The mix puts the median and the 90th percentile of the
# latency in the middle of a block of like instances, not on the edge
# between two blocks of different cost, where they would jump with the seed:
#   solve-cut     n=9 table 20 %, n=9 zero and n=10 table 60 % (median),
#                 n=11 table 20 % (90th percentile).  The n=11 instances are
#                 the ones with an infinite bound: without it, their cost
#                 spreads three times as wide (0.28-0.93 s against 0.30-0.59 s)
#                 and the 90th percentile jumps with the seed.
#   mincost-wide  width 1e2 25 %, 1e3 50 % (median), 1e4 25 % (90th)
#   orient-mixed  4 nodes 30 %, 5 nodes |E|=10 40 % (median),
#                 5 nodes |E|=12 27.5 % (90th), 6 nodes 2.5 %
# The orient strata also fix the number of fixed arcs: with it random, the
# cost of one size is bimodal.
STRATA = {
    "solve-cut": _spread({
        (9, "table", False): 2, (9, "zero", False): 1,
        (10, "table", False): 5, (11, "table", True): 2}),
    "mincost-wide": _spread({
        (4, 100): 1, (5, 100): 1, (4, 1000): 1, (5, 1000): 3, (4, 10000): 2}),
    "orient-mixed": _spread({
        (4, 6, 1): 4, (4, 7, 2): 4, (4, 8, 2): 4, (5, 10, 2): 16, (5, 12, 1): 11,
        (6, 8, 2): 1}),
}

MAKERS = {
    "solve-cut": solve_cut_instance,
    "mincost-wide": mincost_instance,
    "orient-mixed": orient_instance,
}


def generate(workload: str, seed: int, count: int) -> list:
    """(name, document) pairs; instance i is drawn from its own stream."""
    strata = STRATA[workload]
    out = []
    for i in range(count):
        rng = random.Random(f"{workload}/{seed}/{i}")
        out.append((f"{workload}-{seed}-{i:04d}",
                    MAKERS[workload](rng, *strata[i % len(strata)])))
    return out


def warmup_instance(workload: str) -> dict:
    """Small fixed instance for the untimed warm-up call: the same on
    every seed, so set-up time does not vary with the corpus."""
    rng = random.Random(f"{workload}/warm-up")
    if workload == "orient-mixed":
        return orient_instance(rng, 4, 6, 1)
    if workload == "mincost-wide":
        return mincost_instance(rng, 4, 10)
    return solve_cut_instance(rng, 5, "table", False)


def dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_corpus(workload: str, seed: int, count: int, directory: str) -> list:
    """Write the corpus as one JSON file per instance; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, doc in generate(workload, seed, count):
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            fh.write(dump(doc))
        paths.append(path)
    return paths
