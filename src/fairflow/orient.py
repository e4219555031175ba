"""Decreasingly-minimal in-degree orientations of mixed graphs.

An orientation instance is encoded as a bounded base-flow problem: one
[0,1] flip arc per undirected edge (value 1 reverses the reference
direction) and one in-degree arc per original node from a private
auxiliary node, whose value the base polyhedron pins to the oriented
in-degree.  Cut connectivity of an orientation depends only on its
in-degree vector (arcs inside a node set are direction-blind), so the
polyhedron built from the enumerated in-degree vectors of k-edge-connected
orientations captures connectivity exactly; the focus set is the in-degree
arcs.

The encoder works on arrays.  An in-degree vector h is an integer key
whose mixed-radix digit v counts the edges oriented into v (radix
d_E(v) + 1, d_E(v) the undirected edges at v); each edge (u, v) maps the
key set to its shifts by place[u] and place[v], sorted and deduplicated.
One stacked k-edge-connectivity check, in blocks of `_BLOCK_ENTRIES`
subset sums, keeps top(Z) = max h(Z) over the vectors that pass.  The
point (dref, -h) sums to dref(Z & V) - h(Z >> n) over Z, so the envelope
is the outer sum subset_sums(dref) - top.  The work still grows with the
number of vectors, at most min(2^|E|, prod_v (d_E(v) + 1)), with no
budget and no up-front refusal.  The cap of 7 nodes bounds the dense
base, which has 2n nodes, not the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Bounds, Digraph
from .baseflow import Instance, min_cost_flow
from .decmin import solve_decmin
from .setfn import BaseOracle, ExtArray, int_dtype, subset_sums


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
        object.__setattr__(self, "arcs", tuple((int(u), int(v)) for u, v in self.arcs))
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        if self.k < 1:
            raise ValueError("connectivity target must be at least 1")
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
    zero = ExtArray.zeros(n)

    def unit_cut(pairs, upper, lower):  # pairs entering * upper - leaving * lower
        return zero.plus_cut(Digraph(n, pairs), (upper,) * len(pairs),
                             (lower,) * len(pairs)).fin

    rho, delta = unit_cut(mg.arcs, 1, 0), unit_cut(mg.arcs, 0, -1)
    cross = unit_cut(mg.edges, 1, -1)
    # a larger k fails every cut already, so capping it keeps int64 exact
    k = min(mg.k, len(mg.arcs) + len(mg.edges) + 1)
    bad = (cross < np.maximum(0, k - rho) + np.maximum(0, k - delta))[1:-1]
    return int(bad.argmax()) + 1 if bad.any() else None


def encode(mg: MixedGraph, degree_bounds: Optional[Dict[int, Tuple[int, int]]] = None
           ) -> OrientEncoding:
    """Build the base-flow instance whose integral flows are the k-ec
    orientations, with in-degrees exposed on the focus arcs."""
    n = mg.node_count
    if 2 * n > 14:
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
        counts = keys[start:start + rows, None] // place % radix
        sums = subset_sums(counts.astype(np.int64) + fixed)
        ok = ((sums - inside)[:, 1:-1] >= mg.k).all(axis=1)
        top = np.maximum(top, sums[ok].max(axis=0, initial=-1))
    if top[0] < 0:  # no vector passed
        raise OrientationInfeasible(
            f"no {mg.k}-edge-connected orientation exists", cut_certificate(mg))
    # point (dref, -h) sums to dref(Z & V) - h(Z >> n) over Z: the envelope
    # of all of them is an outer sum, indexed (Z >> n, Z & V)
    dref = _indegrees(n, mg.arcs + mg.edges)
    fin = (subset_sums(dref)[None, :] - top[:, None]).ravel()
    no_inf = np.zeros(len(fin), dtype=bool)
    base = BaseOracle(2 * n, ExtArray.tight(fin, no_inf, no_inf))
    arcs = []
    flip_ids = []
    for u, v in mg.edges:
        flip_ids.append(len(arcs))
        arcs.append((u, v))
    indeg_ids = []
    lower = [0] * len(mg.edges)
    upper = [1] * len(mg.edges)
    for v in range(n):
        indeg_ids.append(len(arcs))
        arcs.append((n + v, v))
        lo, hi = 0, fixed[v] + incident[v]
        if degree_bounds and v in degree_bounds:
            ulo, uhi = degree_bounds[v]
            lo, hi = max(lo, ulo), min(hi, uhi)
        if lo > hi:
            raise OrientationInfeasible(f"empty degree interval at node {v}")
        lower.append(lo)
        upper.append(hi)
    digraph = Digraph(2 * n, tuple(arcs))
    inst = Instance(digraph, Bounds(tuple(lower), tuple(upper)), base,
                    frozenset(indeg_ids))
    return OrientEncoding(mg, inst, tuple(flip_ids), tuple(indeg_ids))


def decode(enc: OrientEncoding, x: Sequence[int]) -> Tuple[tuple, tuple]:
    """Recover (oriented arc list, in-degree vector) from a flow vector."""
    mg = enc.mixed
    oriented = list(mg.arcs)
    for j, (u, v) in enumerate(mg.edges):
        flipped = x[enc.flip_arcs[j]]
        oriented.append((v, u) if flipped else (u, v))
    indeg = tuple(x[enc.indeg_arcs[v]] for v in range(mg.node_count))
    if _indegrees(mg.node_count, oriented) != indeg:
        raise ValueError("in-degree arcs disagree with the decoded orientation")
    return tuple(oriented), indeg


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
    """Fairest k-ec orientation: encode, narrow, optionally pick the
    cheapest flow under per-edge direction costs, decode."""
    enc = encode(mg, degree_bounds)
    result = solve_decmin(enc.instance)
    if edge_costs is not None:
        if len(edge_costs) != len(mg.edges):
            raise ValueError("one (forward, reverse) cost pair per edge required")
        cost = [0] * enc.instance.digraph.arc_count
        for j, (fwd, rev) in enumerate(edge_costs):
            cost[enc.flip_arcs[j]] = rev - fwd
        x, _ = min_cost_flow(result.final, tuple(cost))
    else:
        x = result.witness
    return decode(enc, x)
