"""Decreasingly-minimal in-degree orientations of mixed graphs.

When at most k fixed arcs enter any node set, the in-degree vectors of
the k-edge-connected orientations are the integral points of one base
polyhedron (Frank, 1980); with more they need not be.  Cut connectivity of
an orientation depends only on its in-degree vector (arcs inside a node set
are direction-blind), so that polyhedron is the envelope of the enumerated
vectors that pass a connectivity check.  `_top` enumerates them on arrays.
An in-degree vector h is an integer key whose mixed-radix digit v counts
the edges oriented into v (radix d_E(v) + 1, d_E(v) the undirected edges at
v); each edge (u, v) maps the key set to its shifts by place[u] and
place[v], sorted and deduplicated.  One stacked k-edge-connectivity check,
in blocks of `_BLOCK_ENTRIES` subset sums, keeps top(Z) = max h(Z) over the
vectors that pass; `_block_sums` sums a block of vectors at once, their
key digits cast to int64 (keys are Python ints once prod(radix) reaches
2^62, the digits never are).  The work grows with the number of vectors,
at most min(2^|E|, prod_v (d_E(v) + 1)), with no budget and no up-front
refusal, so the enumeration is capped at 7 nodes.

Two encodings are built from top:
- `hub_instance`, on which `decmin_orientation` solves every orientation:
  one in-degree arc hub -> v per node over a base on V + hub (n + 1
  nodes), whose integral points are the vectors (h, -|A| - |E|).  Edge
  directions are [0,1] flip arcs over the point dref - h, or with edge
  costs over `_fair_flip_base`, read off the narrowed hub instance.
- `encode`, the 2n-node reference whose integral flows are the
  orientations themselves: one [0,1] flip arc per undirected edge (value 1
  reverses the reference direction) and one in-degree arc per node from a
  private auxiliary node.  The point (dref, -h) sums to
  dref(Z & V) - h(Z >> n) over Z, so the envelope is the outer sum
  subset_sums(dref) - top.  No command solves on it; the tests and
  `scripts/scale.py orient` solve on it as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Bounds, Digraph, node_id, node_net_inflow
from .baseflow import (CertificateError, Infeasible, Instance, find_feasible, membership,
                       min_cost_flow)
from .decmin import solve_decmin
from .setfn import BaseOracle, ExtArray, cut_difference, int_dtype, subset_sums


class OrientationInfeasible(Exception):
    """No k-edge-connected orientation exists; may carry a cut certificate."""

    def __init__(self, message: str, cut_mask: Optional[int] = None):
        super().__init__(message)
        self.cut_mask = cut_mask


@dataclass(frozen=True)
class MixedGraph:
    node_count: int
    arcs: tuple  # fixed directed arcs (tail, head)
    edges: tuple  # undirected edges as (u, v) pairs; order fixes the reference
    k: int = 1

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple((node_id(u), node_id(v)) for u, v in self.arcs))
        object.__setattr__(self, "edges", tuple((node_id(u), node_id(v)) for u, v in self.edges))
        if type(self.k) is not int or self.k < 1:
            raise ValueError(f"connectivity target must be an integer of at least 1, got {self.k!r}")
        for u, v in self.arcs + self.edges:
            if u == v:
                raise ValueError("loops not allowed")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError("endpoint out of range")


@dataclass(frozen=True)
class OrientEncoding:
    mixed: MixedGraph
    instance: Instance
    flip_arcs: tuple  # arc id per undirected edge
    indeg_arcs: tuple  # arc id per original node


# The connectivity check runs on blocks of at most this many table entries.
_BLOCK_ENTRIES = 1 << 20


def _inside_counts(mg: MixedGraph) -> np.ndarray:
    """Arcs plus edges with both endpoints inside each node subset."""
    masks = np.arange(1 << mg.node_count)
    counts = np.zeros(1 << mg.node_count, dtype=np.int64)
    for u, v in mg.arcs + mg.edges:
        pair = (1 << u) | (1 << v)
        counts += (masks & pair) == pair
    return counts


def _block_sums(keys: np.ndarray, place: np.ndarray, radix: np.ndarray,
                fixed: tuple) -> np.ndarray:
    """h(Z) for each key's in-degree vector h (rows; h[v] is key digit v,
    cast to int64, plus fixed[v]) and every node mask Z (columns), laid out
    subsets first so each step adds one column over contiguous row runs."""
    h = (keys[:, None] // place % radix).astype(np.int64) + fixed
    sums = np.zeros((1 << len(fixed), len(keys)), dtype=np.int64)
    for v, column in enumerate(h.T):
        sums.reshape(-1, 2, 1 << v, len(keys))[:, 1] += column  # the subsets holding v
    return sums.T


def _indegrees(n: int, arcs) -> tuple:
    """In-degree of each of n nodes under (tail, head) pairs."""
    d = [0] * n
    for _, v in arcs:
        d[v] += 1
    return tuple(d)


def cut_certificate(mg: MixedGraph) -> Optional[int]:
    """A node set whose crossing capacity rules out any k-ec orientation.

    Both sides of a k-ec cut need k entering arcs, and an undirected edge
    can serve only one side, so a set violating
    undirected_crossing >= (k - in_fixed)+ + (k - out_fixed)+ certifies
    infeasibility.  Necessary condition only; None does not imply a
    feasible orientation exists.
    """
    n = mg.node_count

    def unit_cut(pairs, upper, lower):  # pairs entering * upper - leaving * lower
        bounds = Bounds((lower,) * len(pairs), (upper,) * len(pairs))
        return cut_difference(Digraph(n, pairs), bounds).values.fin

    rho, delta = unit_cut(mg.arcs, 1, 0), unit_cut(mg.arcs, 0, -1)
    cross = unit_cut(mg.edges, 1, -1)
    # a larger k fails every cut already, so capping it keeps int64 exact
    k = min(mg.k, len(mg.arcs) + len(mg.edges) + 1)
    bad = (cross < np.maximum(0, k - rho) + np.maximum(0, k - delta))[1:-1]
    return int(bad.argmax()) + 1 if bad.any() else None


def _top(mg: MixedGraph) -> np.ndarray:
    """top(Z) = max h(Z) over the in-degree vectors h of the k-ec
    orientations, indexed by node mask; OrientationInfeasible, with the cut
    certificate, when there is none."""
    n = mg.node_count
    if n > 7:
        raise ValueError("orientation encoding limited to 7 nodes")
    fixed = _indegrees(n, mg.arcs)
    incident = _indegrees(n, mg.edges + tuple((v, u) for u, v in mg.edges))
    # h as the key sum_v place[v] * (h[v] - fixed[v]): digit v counts the
    # edges oriented into v, so it stays below the radix incident[v] + 1
    radix = [d + 1 for d in incident]
    place = [prod(radix[:v]) for v in range(n)]
    dtype = int_dtype(prod(radix))
    keys = np.zeros(1, dtype=dtype)
    for u, v in mg.edges:  # an edge (u, v) adds one to the in-degree of u or of v
        keys = np.sort(np.concatenate((keys + place[u], keys + place[v])))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    place, radix = np.array(place, dtype=dtype), np.array(radix, dtype=dtype)
    inside = _inside_counts(mg)
    top = np.full(1 << n, -1, dtype=np.int64)  # max h(Z) over the k-ec h so far
    rows = max(1, _BLOCK_ENTRIES >> n)
    for start in range(0, len(keys), rows):
        sums = _block_sums(keys[start:start + rows], place, radix, fixed)
        ok = ((sums - inside)[:, 1:-1] >= mg.k).all(axis=1)
        top = np.maximum(top, sums[ok].max(axis=0, initial=-1))
    if top[0] < 0:  # no vector passed
        raise OrientationInfeasible(
            f"no {mg.k}-edge-connected orientation exists", cut_certificate(mg))
    return top


def _int_pair(pair) -> bool:
    return isinstance(pair, (tuple, list)) and len(pair) == 2 and all(type(c) is int for c in pair)


def _indegree_bounds(mg: MixedGraph,
                     degree_bounds: Optional[Dict[int, Tuple[int, int]]]) -> tuple:
    """(lower, upper) in-degree per node: [0, total degree], narrowed by
    the given degree bounds.  An empty interval raises
    OrientationInfeasible with its node as the certificate."""
    lower = [0] * mg.node_count
    upper = list(_indegrees(mg.node_count, mg.arcs + mg.edges
                            + tuple((v, u) for u, v in mg.edges)))
    for v, pair in (degree_bounds or {}).items():
        if not (type(v) is int and 0 <= v < mg.node_count and _int_pair(pair)):
            raise ValueError(f"degree bound {v!r}: {pair!r} is not a node and two integers")
        lower[v], upper[v] = max(0, pair[0]), min(upper[v], pair[1])
    for v, (lo, hi) in enumerate(zip(lower, upper)):
        if lo > hi:
            raise OrientationInfeasible("empty degree interval", 1 << v)
    return tuple(lower), tuple(upper)


def hub_instance(mg: MixedGraph,
                 degree_bounds: Optional[Dict[int, Tuple[int, int]]] = None) -> Instance:
    """The base-flow instance on V + hub (hub on bit n) whose integral flows
    are the in-degree vectors of the k-ec orientations: arc v runs hub -> v,
    every arc is in focus.  With T = |A| + |E| and Z inside V, the base is
    p(Z) = T - top(V - Z) and p(Z + hub) = -top(V - Z)."""
    n = mg.node_count
    bounds = Bounds(*_indegree_bounds(mg, degree_bounds))  # bad bounds fail before _top
    top = _top(mg)[::-1]  # top(V - Z), indexed by Z
    total = len(mg.arcs) + len(mg.edges)
    base = BaseOracle(n + 1, ExtArray.finite(np.concatenate((total - top, -top))))
    return Instance(Digraph(n + 1, tuple((n, v) for v in range(n))),
                    bounds, base, frozenset(range(n)))


def encode(mg: MixedGraph, degree_bounds: Optional[Dict[int, Tuple[int, int]]] = None
           ) -> OrientEncoding:
    """Build the base-flow instance whose integral flows are the k-ec
    orientations, with in-degrees exposed on the focus arcs."""
    n = mg.node_count
    lower, upper = _indegree_bounds(mg, degree_bounds)  # bad bounds fail before _top
    top = _top(mg)
    # point (dref, -h) sums to dref(Z & V) - h(Z >> n) over Z: the envelope
    # of all of them is an outer sum, indexed (Z >> n, Z & V)
    dref = _indegrees(n, mg.arcs + mg.edges)
    base = BaseOracle(2 * n, ExtArray.finite((subset_sums(dref)[None, :] - top[:, None]).ravel()))
    m = len(mg.edges)
    arcs = mg.edges + tuple((n + v, v) for v in range(n))
    inst = Instance(Digraph(2 * n, arcs), Bounds((0,) * m + lower, (1,) * m + upper),
                    base, frozenset(range(m, m + n)))
    return OrientEncoding(mg, inst, tuple(range(m)), tuple(range(m, m + n)))


def _orientation(mg: MixedGraph, flips: Sequence[int], indeg: Sequence[int]
                 ) -> Tuple[tuple, tuple]:
    """(oriented arc list, in-degree vector), after checking that the flips
    give the in-degrees."""
    oriented = list(mg.arcs)
    for flipped, (u, v) in zip(flips, mg.edges):
        oriented.append((v, u) if flipped else (u, v))
    indeg = tuple(indeg)
    if _indegrees(mg.node_count, oriented) != indeg:
        raise CertificateError("in-degree arcs disagree with the decoded orientation")
    return tuple(oriented), indeg


def decode(enc: OrientEncoding, x: Sequence[int]) -> Tuple[tuple, tuple]:
    """Recover (oriented arc list, in-degree vector) from a flow vector."""
    return _orientation(enc.mixed, [x[e] for e in enc.flip_arcs],
                        [x[e] for e in enc.indeg_arcs])


def _fair_flip_base(final: Instance, dref: Sequence[int]) -> BaseOracle:
    """The base on V of the points dref - h, h a fair in-degree vector (a
    flow of `final`, the narrowed, finite hub instance).  Its base p keeps
    p(Z + hub) = p(Z) - T, T = |A| + |E|, through every face contraction, so
    the hub coordinate is -T and h ranges over B(p) on V; the [f, g] box of
    the hub arcs enters one node at a time (Fujishige, 2005), giving r, and
    dref - h sums to dref(Z) - T + h(V - Z) >= dref(Z) - T + r(V - Z), in
    Python ints (2^n <= 2^7 of them) until `ExtArray.finite` picks a dtype."""
    n, total, b = len(dref), sum(dref), final.bounds
    r = final.base.values.fin[:1 << n].astype(object)
    for v in range(n):  # r(Z) <- max(r(Z), r(Z + v) - g_v), r(Z + v) <- max(., r(Z) + f_v)
        view = r.reshape(-1, 2, 1 << v)  # [:, 0] leaves v out, [:, 1] holds it
        np.maximum(view[:, 0], view[:, 1] - b.upper[v], out=view[:, 0])
        np.maximum(view[:, 1], view[:, 0] + b.lower[v], out=view[:, 1])
    return BaseOracle(n, ExtArray.finite(subset_sums(dref) - total + r[::-1]))


def brute_orientations(mg: MixedGraph) -> List[Tuple[int, tuple]]:
    """All k-ec orientations as (flip bitmask, in-degree vector) pairs.

    Independent of the encoding path: connectivity is checked by counting
    entering arcs of every proper node subset on the oriented digraph.
    """
    if len(mg.edges) > 20:
        raise ValueError("too many undirected edges to enumerate")
    n = mg.node_count
    full = (1 << n) - 1
    out = []
    for flips in range(1 << len(mg.edges)):
        oriented = list(mg.arcs)
        for j, (u, v) in enumerate(mg.edges):
            oriented.append((v, u) if (flips >> j) & 1 else (u, v))
        ok = True
        for m in range(1, full):
            entering = sum(1 for u, v in oriented
                           if (m >> v) & 1 and not (m >> u) & 1)
            if entering < mg.k:
                ok = False
                break
        if ok:
            indeg = [0] * n
            for _, v in oriented:
                indeg[v] += 1
            out.append((flips, tuple(indeg)))
    return out


def decmin_orientation(mg: MixedGraph,
                       degree_bounds: Optional[Dict[int, Tuple[int, int]]] = None,
                       edge_costs: Optional[Sequence[Tuple[int, int]]] = None
                       ) -> Tuple[tuple, tuple]:
    """Fairest k-ec orientation as (oriented arc list, in-degree vector).

    The fair in-degree vectors h are solved on the n + 1 node `hub_instance`
    and oriented by a flow of the [0,1] flip arcs with net in-flow dref - h:
    over the solve's witness h, or with per-edge (forward, reverse) direction
    costs the cheapest over `_fair_flip_base`, whose h must be fair.
    """
    if edge_costs is not None and (len(edge_costs) != len(mg.edges)
                                   or not all(map(_int_pair, edge_costs))):
        raise ValueError("one (forward, reverse) cost pair per edge required, two integers")
    result = solve_decmin(hub_instance(mg, degree_bounds))
    n, m = mg.node_count, len(mg.edges)
    dref, h = _indegrees(n, mg.arcs + mg.edges), result.witness
    if edge_costs is None and sum(h) != len(mg.arcs) + m:
        raise CertificateError("fair in-degrees do not add up to the arc and edge count")
    base = (BaseOracle.from_points([tuple(d - x for d, x in zip(dref, h))], n)
            if edge_costs is None else _fair_flip_base(result.final, dref))
    flips = Instance(Digraph(n, mg.edges), Bounds((0,) * m, (1,) * m), base)
    try:
        x = find_feasible(flips) if edge_costs is None else min_cost_flow(
            flips, tuple(rev - fwd for fwd, rev in edge_costs))[0]
    except Infeasible as exc:
        raise CertificateError(f"no orientation has the fair in-degrees ({exc})") from exc
    if edge_costs is not None:
        h = tuple(d - y for d, y in zip(dref, node_net_inflow(flips.digraph, x)))
        if not membership(result.final, h):
            raise CertificateError(f"cheapest flips give in-degrees {h}, which are not fair")
    return _orientation(mg, x, h)
