"""Output checks for the benchmark, independent of fairflow's own code.

Each check returns (problem, digest).  `problem` is None when the output is
right.  The digest is a value that every correct solver must produce for
the instance, whichever witness it picks: the decreasingly sorted focus
profile of a fair flow, the least cost over the fair set, and the sorted
in-degree vector of a fair orientation.  `digests.json` holds them for
the default seed, recorded by `record_digests.py`.
"""

from __future__ import annotations

import json
from collections import Counter

from corpus import Model

EXPECTED_EXIT = 0  # every generated instance is feasible / orientable


def _profile(x: dict, focus) -> list:
    return sorted((x[e] for e in focus), reverse=True)


def check_solve(doc: dict, res: dict, min_cost: bool):
    model = Model(doc)
    f_star, g_star, witness = res["f_star"], res["g_star"], res["witness"]
    for e in model.focus:
        if not (isinstance(f_star[e], int) and isinstance(g_star[e], int)
                and 0 <= g_star[e] - f_star[e] <= 1):
            return f"focus arc {e}: [f*, g*] = [{f_star[e]}, {g_star[e]}]", None
        if not f_star[e] <= witness[e] <= g_star[e]:
            return f"focus arc {e}: witness outside [f*, g*]", None
    x = [witness[e] for e in model.arc_ids]
    problem = model.flow_violation(x)
    if problem is not None:
        return f"witness infeasible: {problem}", None
    profile = _profile(witness, model.focus)
    if not min_cost:
        return None, profile
    y = res["min_cost_witness"]
    problem = model.flow_violation([y[e] for e in model.arc_ids])
    if problem is not None:
        return f"min-cost witness infeasible: {problem}", None
    if _profile(y, model.focus) != profile:
        return "min-cost witness is not fair", None
    cost = sum(c * y[e] for c, e in zip(model.cost, model.arc_ids))
    if cost != res["cost"]:
        return f"reported cost {res['cost']}, witness costs {cost}", None
    return None, [profile, cost]


def check_orient(doc: dict, res: dict):
    mg = doc["mixed_graph"]
    names = mg["nodes"]
    oriented = Counter(tuple(a) for a in res["orientation"])
    fixed = Counter(tuple(a) for a in mg["arcs"])
    if oriented & fixed != fixed:
        return "a fixed arc is missing or reversed", None
    edges = Counter(frozenset(a) for a in (oriented - fixed).elements())
    if edges != Counter(frozenset(e) for e in mg["edges"]):
        return "the undirected edges are not each oriented exactly once", None
    indeg = Counter(v for _, v in res["orientation"])
    if any(res["in_degrees"][v] != indeg[v] for v in names):
        return "reported in-degrees disagree with the orientation", None
    index = {v: i for i, v in enumerate(names)}
    arcs = [(index[u], index[v]) for u, v in res["orientation"]]
    for z in range(1, (1 << len(names)) - 1):
        entering = sum(1 for u, v in arcs if (z >> v) & 1 and not (z >> u) & 1)
        if entering < doc["k"]:
            return f"node set {z:b} has {entering} entering arcs, k = {doc['k']}", None
    return None, sorted((indeg[v] for v in names), reverse=True)


def check(workload: str, doc: dict, code, out: str):
    """(problem or None, digest) for one call's exit code and stdout."""
    if code != EXPECTED_EXIT:
        return f"exit code {code}, expected {EXPECTED_EXIT}", None
    try:
        res = json.loads(out)
        if workload == "orient-mixed":
            return check_orient(doc, res)
        return check_solve(doc, res, min_cost=workload == "mincost-wide")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed output: {exc!r}", None
