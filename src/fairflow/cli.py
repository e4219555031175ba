"""Batch front-end: JSON instances in, JSON verdicts and certificates out.

Subcommands: check (feasibility), solve (fair flow, optionally min-cost),
orient (fair k-edge-connected orientation), verify (oracle cross-checks).
Exit codes: 0 ok, 2 input or budget error, 3 infeasible, 4 no fair flow
exists, 5 an internal certificate or an oracle cross-check failed (an
engine bug, never bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import (
    Bounds,
    Chain,
    Digraph,
    NEG_INF,
    POS_INF,
    is_finite,
    mask_nodes,
)
from .baseflow import CertificateError, Infeasible, Instance, check_feasible, min_cost_flow
from .decmin import solve_decmin
from .existence import BlockingCircuit, finitize_bounds
from .lupmin import lupmin_solve
from .oracle import (
    BudgetExceeded,
    brute_chain_max,
    brute_decmin,
    brute_lupmin,
    convex_cost_min,
    enumerate_Q,
    window_from_bounds,
)
from .orient import MixedGraph, OrientationInfeasible, decmin_orientation
from .setfn import BaseOracle, ExtArray, subset_sums

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NO_DECMIN = 4
EXIT_MISMATCH = 5


class ParseError(Exception):
    pass


def _expect_keys(obj: dict, required, optional=(), where: str = "object") -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    for key in required:
        if key not in obj:
            raise ParseError(f"{where}: missing key {key!r}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ParseError(f"{where}: unknown key {key!r}")


def _parse_extint(v, where: str):
    if isinstance(v, bool):
        raise ParseError(f"{where}: expected integer or infinity string")
    if isinstance(v, int):
        return v
    if v == "-inf":
        return NEG_INF
    if v == "+inf":
        return POS_INF
    raise ParseError(f"{where}: expected integer, '-inf' or '+inf', got {v!r}")


def _parse_names(names, where: str) -> List[str]:
    if (not isinstance(names, list) or not names
            or any(not isinstance(s, str) or not s for s in names)
            or len(set(names)) != len(names)):
        raise ParseError(f"{where}: expected a nonempty list of distinct nonempty names")
    return names


def _dump_extint(v):
    if is_finite(v):
        return v
    return "+inf" if v is POS_INF else "-inf"


@dataclass(frozen=True)
class ParsedInstance:
    """Instance plus its per-arc costs and the names of its JSON document."""

    instance: Instance
    node_names: List[str]
    arc_names: List[str]
    base_doc: dict
    cost: Optional[tuple]

    def mask_names(self, mask: int) -> List[str]:
        return [self.node_names[v] for v in mask_nodes(mask)]

    def chain_doc(self, chain: Chain) -> List[List[str]]:
        return [self.mask_names(m) for m in chain]

    def flow_doc(self, x) -> Dict[str, int]:
        return {self.arc_names[e]: int(x[e]) for e in range(len(x))}

    def bound_doc(self, side) -> dict:
        return {self.arc_names[e]: _dump_extint(v) for e, v in enumerate(side)}

    def violator_doc(self, violator: int, deficit) -> dict:
        return {"violator": self.mask_names(violator), "deficit": _dump_extint(deficit)}


def parse_instance(doc: dict) -> ParsedInstance:
    _expect_keys(doc, ("nodes", "arcs", "F", "base"),
                 ("mixed_graph", "k"), "instance")
    names = _parse_names(doc["nodes"], "nodes")
    node_index = {s: i for i, s in enumerate(names)}
    if not isinstance(doc["arcs"], list):
        raise ParseError("arcs: expected a list")
    arcs = []
    arc_index = {}
    lower = []
    upper = []
    costs = []
    for pos, arc in enumerate(doc["arcs"]):
        _expect_keys(arc, ("id", "tail", "head", "f", "g"), ("cost",), f"arc #{pos}")
        if not isinstance(arc["id"], str):
            raise ParseError(f"arc #{pos}: id must be a string")
        if arc["id"] in arc_index:
            raise ParseError(f"arc #{pos}: duplicate id {arc['id']!r}")
        for end in ("tail", "head"):
            if not isinstance(arc[end], str) or arc[end] not in node_index:
                raise ParseError(f"arc {arc['id']!r} {end}: unknown node {arc[end]!r}")
        arc_index[arc["id"]] = pos
        arcs.append((node_index[arc["tail"]], node_index[arc["head"]]))
        lower.append(_parse_extint(arc["f"], f"arc {arc['id']!r} f"))
        upper.append(_parse_extint(arc["g"], f"arc {arc['id']!r} g"))
        arc_cost = arc.get("cost", 0)
        if not isinstance(arc_cost, int) or isinstance(arc_cost, bool):
            raise ParseError(f"arc {arc['id']!r}: cost must be an integer")
        costs.append(arc_cost)
    if not isinstance(doc["F"], list):
        raise ParseError("F: expected a list of arc ids")
    focus = set()
    for name in doc["F"]:
        if not isinstance(name, str) or name not in arc_index:
            raise ParseError(f"F: unknown arc id {name!r}")
        if arc_index[name] in focus:
            raise ParseError(f"F: duplicate arc id {name!r}")
        focus.add(arc_index[name])
    try:
        digraph = Digraph(len(names), tuple(arcs))
        bounds = Bounds(tuple(lower), tuple(upper))
        base = _parse_base(doc["base"], names, node_index)
        inst = Instance(digraph, bounds, base, frozenset(focus))
    except (ValueError, ArithmeticError) as exc:
        raise ParseError(str(exc)) from exc
    cost = tuple(costs) if any("cost" in arc for arc in doc["arcs"]) else None
    return ParsedInstance(inst, list(names), list(arc_index), doc["base"], cost)


def _parse_base(doc: dict, names: List[str], node_index: Dict[str, int]) -> BaseOracle:
    _expect_keys(doc, ("type",), ("p", "points"), "base")
    n = len(names)
    kind = doc["type"]
    if kind == "zero":
        _expect_keys(doc, ("type",), (), "base")
        return BaseOracle.zero(n)
    if kind == "table":
        _expect_keys(doc, ("type", "p"), (), "base")
        comma = next((s for s in names if "," in s), None)
        if comma is not None:
            raise ParseError(f"base.p: node name {comma!r} contains ',', "
                             "so no table key can name it")
        if not isinstance(doc["p"], dict):
            raise ParseError("base.p: expected an object")
        values = _parse_table(doc["p"], names, node_index)
        try:
            return BaseOracle(n, values)
        except ValueError as exc:
            raise ParseError(f"base.p: {exc}") from exc
    if kind == "points":
        _expect_keys(doc, ("type", "points"), (), "base")
        pts = doc["points"]
        if (not isinstance(pts, list) or not pts
                or any(not isinstance(p, list) or len(p) != n
                       or any(not isinstance(v, int) or isinstance(v, bool) for v in p)
                       for p in pts)):
            raise ParseError("base.points: expected a nonempty list of node vectors")
        for p in pts:
            if sum(p) != 0:
                raise ParseError("base.points: every point must sum to zero")
        return BaseOracle.from_points([tuple(p) for p in pts], n)
    raise ParseError(f"base.type: unknown kind {kind!r}")


# The key index of the last table parsed on each node count n, with the
# node names it was built for, in document order: {n: (names, index)}.
# A cache only: an index is a function of its names and their order.
_TABLE_INDEX: Dict[int, Tuple[Tuple[str, ...], Dict[str, int]]] = {}


def _table_keys(names: List[str], node_index: Dict[str, int]) -> Dict[str, int]:
    """Every valid table key, mapped to its mask: the names of a node set
    in sorted order, joined by ','.  Each name in sorted order doubles the
    list of keys, so bit j of a key's position stands for the j-th name in
    sorted order, and the masks are the subset sums of those names' bits.

    The index depends on the names and on their order, which fixes the
    bits.  The last one built for each node count is kept and reused for
    the next document with the same names in the same order, so a batch
    that shares its node lists builds each index once."""
    n = len(names)
    if _TABLE_INDEX.get(n, (None,))[0] != tuple(names):
        _TABLE_INDEX.pop(n, None)  # free the old index before building
        keys, bits = [""], []
        for name in sorted(names):
            suffix = "," + name
            keys += [name] + [k + suffix for k in keys[1:]]
            bits.append(1 << node_index[name])
        _TABLE_INDEX[n] = (tuple(names), dict(zip(keys, subset_sums(bits).tolist())))
    return _TABLE_INDEX[n][1]


def _reject_key(key: str, node_index: Dict[str, int]):
    """Raise the error of a table key that is not in `_table_keys`."""
    mask = 0
    for name in key.split(","):
        if (bit := node_index.get(name)) is None:
            raise ParseError(f"base.p: unknown node {name!r} in key {key!r}")
        if (mask >> bit) & 1:
            raise ParseError(f"base.p: repeated node in key {key!r}")
        mask |= 1 << bit
    raise ParseError(f"base.p: key {key!r} must list sorted names")


def _parse_table(p: dict, names: List[str], node_index: Dict[str, int]) -> ExtArray:
    """The table of a `table` base: the listed values at their keys' masks,
    -inf at every mask not listed.  Errors name the first bad key or value
    in document order, a key before its own value."""
    index = _table_keys(names, node_index)
    try:  # one lookup per key; a key not in the index gives None, a TypeError
        masks = np.fromiter(map(index.get, p), np.int64, len(p))
        stop = len(p)
    except TypeError:
        masks = list(map(index.get, p))
        stop = masks.index(None)
    raw = list(p.values())
    fin, minus = raw, []
    if set(map(type, raw)) - {int}:  # parse what is not a plain integer
        keys, fin = list(p), list(raw)
        for i in range(stop):
            if type(raw[i]) is not int:
                v = _parse_extint(raw[i], f"base.p[{keys[i]!r}]")
                if v is POS_INF:
                    raise ParseError("base.p: +inf values not allowed")
                if v is NEG_INF:
                    fin[i] = 0
                    minus.append(masks[i])
    if stop < len(p):
        _reject_key(list(p)[stop], node_index)
    return ExtArray.scatter(len(names), masks, fin, minus)


def instance_to_doc(parsed: ParsedInstance) -> dict:
    """Public API: the inverse of `parse_instance`, an instance document
    that parses back to the same instance, names and costs."""
    inst = parsed.instance
    arcs = []
    for e in range(inst.digraph.arc_count):
        t, h = inst.digraph.arcs[e]
        entry = {
            "id": parsed.arc_names[e],
            "tail": parsed.node_names[t],
            "head": parsed.node_names[h],
            "f": _dump_extint(inst.bounds.lower[e]),
            "g": _dump_extint(inst.bounds.upper[e]),
        }
        if parsed.cost is not None:
            entry["cost"] = parsed.cost[e]
        arcs.append(entry)
    return {
        "nodes": parsed.node_names,
        "arcs": arcs,
        "F": sorted(parsed.arc_names[e] for e in inst.focus),
        "base": parsed.base_doc,
    }


def _parse_mixed(doc: dict) -> Tuple[MixedGraph, List[str], Optional[dict]]:
    _expect_keys(doc, ("mixed_graph",), ("k", "nodes", "arcs", "F", "base"), "orient input")
    mg_doc = doc["mixed_graph"]
    _expect_keys(mg_doc, ("nodes", "edges"), ("arcs", "degree_bounds"), "mixed_graph")
    names = _parse_names(mg_doc["nodes"], "mixed_graph.nodes")
    index = {s: i for i, s in enumerate(names)}

    def pairs(key):
        raw = mg_doc.get(key, [])
        if not isinstance(raw, list) or any(
                not isinstance(pair, list) or len(pair) != 2
                or any(not isinstance(s, str) or s not in index for s in pair)
                for pair in raw):
            raise ParseError(f"mixed_graph.{key}: expected a list of [node, node] pairs")
        return tuple((index[u], index[v]) for u, v in raw)

    k = doc.get("k", 1)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParseError("k: expected a positive integer")
    degree_bounds = None
    if "degree_bounds" in mg_doc:
        degree_bounds = {}
        if not isinstance(mg_doc["degree_bounds"], dict):
            raise ParseError("degree_bounds: expected an object")
        for name, pair in mg_doc["degree_bounds"].items():
            if name not in index:
                raise ParseError(f"degree_bounds: unknown node {name!r}")
            if (not isinstance(pair, list) or len(pair) != 2
                    or any(not isinstance(v, int) or isinstance(v, bool) for v in pair)):
                raise ParseError(f"degree_bounds[{name!r}]: expected [lo, hi]")
            if pair[0] > pair[1]:
                raise ParseError(f"degree_bounds[{name!r}]: empty interval {pair}")
            degree_bounds[index[name]] = (pair[0], pair[1])
    try:
        mg = MixedGraph(len(names), pairs("arcs"), pairs("edges"), k)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return mg, list(names), degree_bounds


def _emit(doc: dict) -> None:
    # one write: `json.dump` writes piece by piece, and an unbuffered
    # stdout (python -u) turns each piece into its own system call
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _unique_keys(pairs: list) -> dict:
    """One JSON object, rejected when it repeats a key: the decoder would
    keep the last value and drop the others silently."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ParseError(f"repeated key {key!r}")
    return obj


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise ParseError(f"JSON in {path} is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    return doc


def cmd_check(args) -> int:
    parsed = parse_instance(_load(args.path))
    cert = check_feasible(parsed.instance)
    if cert.feasible:
        _emit({"witness": parsed.flow_doc(cert.witness)})
        return EXIT_OK
    _emit(parsed.violator_doc(cert.violator, cert.deficit))
    return EXIT_INFEASIBLE


def cmd_solve(args) -> int:
    parsed = parse_instance(_load(args.path))
    if args.min_cost and parsed.cost is None:
        raise ParseError("--min-cost requires per-arc costs in the input")
    cert = check_feasible(parsed.instance)
    if not cert.feasible:
        _emit(parsed.violator_doc(cert.violator, cert.deficit))
        return EXIT_INFEASIBLE
    try:
        finite = finitize_bounds(parsed.instance)
    except BlockingCircuit as exc:
        _emit({"blocking_circuit": [
            {"tail": parsed.node_names[a.tail],
             "head": parsed.node_names[a.head],
             "kind": a.kind,
             "arc": None if a.arc_id is None else parsed.arc_names[a.arc_id]}
            for a in exc.circuit]})
        return EXIT_NO_DECMIN
    result = solve_decmin(finite)
    out = {
        "f_star": parsed.bound_doc(result.lower),
        "g_star": parsed.bound_doc(result.upper),
        "face_chains": [parsed.chain_doc(c) for c in result.face_chains],
        "witness": parsed.flow_doc(result.witness),
    }
    if args.min_cost:
        x, _ = min_cost_flow(result.final, parsed.cost)
        out["min_cost_witness"] = parsed.flow_doc(x)
        out["cost"] = sum(parsed.cost[e] * x[e] for e in range(len(x)))
    if args.trace:
        out["phases"] = [
            {"beta": t.beta,
             "L_beta": sorted(parsed.arc_names[e] for e in t.l_beta),
             "chain": parsed.chain_doc(t.chain),
             "L_prime": sorted(parsed.arc_names[e] for e in t.l_prime),
             "f_after": parsed.bound_doc(t.bounds_after.lower),
             "g_after": parsed.bound_doc(t.bounds_after.upper)}
            for t in result.traces]
    _emit(out)
    return EXIT_OK


def cmd_orient(args) -> int:
    doc = _load(args.path)
    if args.k is not None:
        doc = dict(doc)
        doc["k"] = args.k
    mg, names, degree_bounds = _parse_mixed(doc)
    try:
        oriented, indeg = decmin_orientation(mg, degree_bounds)
    except OrientationInfeasible as exc:
        out = {"error": str(exc)}
        if exc.cut_mask is not None:
            out["certificate"] = [names[v] for v in mask_nodes(exc.cut_mask)]
        _emit(out)
        return EXIT_INFEASIBLE
    except Infeasible as exc:
        _emit({"error": "degree bounds admit no orientation"})
        return EXIT_INFEASIBLE
    _emit({
        "orientation": [[names[u], names[v]] for u, v in oriented],
        "in_degrees": {names[v]: indeg[v] for v in range(mg.node_count)},
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    parsed = parse_instance(_load(args.path))
    inst = parsed.instance
    checks: List[Tuple[str, bool]] = []

    def record(name: str, ok: bool):
        checks.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    points = enumerate_Q(inst, window_from_bounds(inst), budget=args.budget)
    cert = check_feasible(inst)
    record("feasibility-equivalence", cert.feasible == bool(points))
    if cert.feasible and points:  # the checks below run the engine on a feasible instance
        lower, upper = inst.bounds.lower, inst.bounds.upper
        finite_focus = all(is_finite(lower[e]) and is_finite(upper[e]) for e in inst.focus)
        open_arcs = [e for e in range(inst.digraph.arc_count)
                     if is_finite(lower[e]) and is_finite(upper[e]) and lower[e] < upper[e]]
        candidates = [inst.focus] if inst.focus and inst.focus.issubset(open_arcs) else []
        candidates += [frozenset([e]) for e in open_arcs]
        for L in dict.fromkeys(candidates):
            label = ",".join(sorted(parsed.arc_names[e] for e in L))
            res = lupmin_solve(inst, L)
            brute = brute_lupmin(points, inst.bounds, L)
            ok = res.min_saturated == brute
            if inst.digraph.node_count <= 5:
                value, _ = brute_chain_max(inst, L)
                ok = ok and value == res.min_saturated
            record(f"strong-duality[{label}]", ok)
        if finite_focus and inst.focus:
            result = solve_decmin(inst)
            # one shared window keeps the two enumerations comparable when
            # non-focus bounds are infinite
            window = window_from_bounds(inst, center=result.witness)
            local = enumerate_Q(inst, window, budget=args.budget)
            narrowed = enumerate_Q(result.final, window, budget=args.budget)
            fair = brute_decmin(local, inst.focus)
            record("decmin-set-equality", sorted(narrowed) == sorted(fair))
            surrogate = convex_cost_min(local, inst.focus)
            focus = sorted(inst.focus)
            prof = lambda pt: tuple(sorted((pt[e] for e in focus), reverse=True))
            record("convex-cost-profiles",
                   {prof(pt) for pt in surrogate} == {prof(pt) for pt in fair})
    ok_all = all(ok for _, ok in checks)
    return EXIT_OK if ok_all else EXIT_MISMATCH


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog="fairflow",
        description="Fair (decreasingly-minimal) integral base-flow solver")
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="feasibility check with certificate")
    p_check.add_argument("path")
    p_check.set_defaults(func=cmd_check)
    p_solve = sub.add_parser("solve", help="compute the fair flow description")
    p_solve.add_argument("path")
    p_solve.add_argument("--min-cost", action="store_true")
    p_solve.add_argument("--trace", action="store_true")
    p_solve.set_defaults(func=cmd_solve)
    p_orient = sub.add_parser("orient", help="fair k-edge-connected orientation")
    p_orient.add_argument("path")
    p_orient.add_argument("--k", type=int, default=None)
    p_orient.set_defaults(func=cmd_orient)
    p_verify = sub.add_parser("verify", help="cross-check the engine against oracles")
    p_verify.add_argument("path")
    p_verify.add_argument("--budget", type=int, default=10 ** 7)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, BudgetExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CertificateError, Infeasible) as exc:
        # every command settles feasibility before the engine runs, so an
        # Infeasible that gets here is an engine fault
        print(f"internal certificate failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
