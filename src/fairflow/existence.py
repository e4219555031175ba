"""Existence of decreasingly-minimal flows under infinite bounds.

With infinite bounds the minimal profile can run away to minus infinity.
The witness structure is an auxiliary digraph: jump arcs encode directions
the base polyhedron never blocks (pairs u -> v with v inside the smallest
finite-valued set containing u), plus the arcs with no lower bound and the
reversals of non-focus arcs with no upper bound.  A dicircuit through a
focus arc yields an endless improvement; absence of such circuits makes
every focus bound finitizable without changing the optimal set.  The
verdict is the instance's own (`Instance.violator`, one cut scan).  Only
a `+inf` focus upper bound costs a coordinate-fixing pass (its cap is the
maximum of a feasible flow); `-inf` focus lower bounds are read off the
cut slack of a reachable set.  One search from the head of such an arc
finds a blocking circuit through it or else that reachable set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import NEG_INF, POS_INF, is_finite
from .baseflow import Infeasible, Instance, membership


class BlockingCircuit(ValueError):
    """No finite reduction exists; `circuit` is the blocking dicircuit."""

    def __init__(self, circuit: tuple):
        super().__init__("blocking dicircuit present: no finite reduction exists")
        self.circuit = circuit


@dataclass(frozen=True)
class DStarArc:
    tail: int
    head: int
    kind: str  # "jump" | "lower-inf" | "upper-inf"
    arc_id: Optional[int]  # original arc for the two bound kinds


@dataclass(frozen=True)
class JumpStructure:
    principal: tuple  # per node: smallest finite-valued set containing it
    arcs: tuple  # DStarArc list: jumps, then lower-inf and upper-inf arcs by id


def build_jump_structure(inst: Instance) -> JumpStructure:
    n = inst.digraph.node_count
    principal = inst.base.meets()
    arcs = [DStarArc(u, v, "jump", None) for u in range(n) for v in range(n)
            if v != u and (principal[u] >> v) & 1]
    d, b = inst.digraph, inst.bounds
    arcs += [DStarArc(t, h, "lower-inf", e) for e, (t, h) in enumerate(d.arcs)
             if b.lower[e] is NEG_INF]
    arcs += [DStarArc(h, t, "upper-inf", e) for e, (t, h) in enumerate(d.arcs)
             if e not in inst.focus and b.upper[e] is POS_INF]
    return JumpStructure(tuple(principal), tuple(arcs))


def _search(js: JumpStructure, start: int) -> dict:
    """Breadth-first search from `start`: the parent arc of every node
    reached (None for `start`)."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for arc in js.arcs:
            if arc.tail == u and arc.head not in parent:
                parent[arc.head] = arc
                queue.append(arc.head)
    return parent


def _focus_reach(js: JumpStructure, focus) -> tuple:
    """One search from the head of each focus arc with no lower bound, in
    scan order: the first blocking dicircuit, or None, and the node mask
    reached from the head of each arc searched before it, by arc id."""
    reach = {}
    for seed in js.arcs:
        if seed.kind != "lower-inf" or seed.arc_id not in focus:
            continue
        parent = _search(js, seed.head)
        if seed.tail not in parent:
            reach[seed.arc_id] = sum(1 << v for v in parent)
            continue
        path, node = [], seed.tail
        while parent[node] is not None:
            path.append(parent[node])
            node = parent[node].tail
        return (seed, *reversed(path)), reach
    return None, reach


def has_blocking_dicircuit(js: JumpStructure, focus) -> Optional[tuple]:
    """A dicircuit through a focus arc with no lower bound, or None.

    Only lower-unbounded arcs can put a focus coordinate on a circuit (the
    reversed upper-unbounded arcs exclude the focus by construction).  The
    first circuit found in scan order is returned as a tuple of arcs.
    """
    return _focus_reach(js, frozenset(focus))[0]


def improve_along_circuit(inst: Instance, z: Sequence, circuit):
    """Shift a flow one unit along a blocking circuit.

    Lower-unbounded circuit arcs decrease, origins of reversed
    upper-unbounded arcs increase, jump arcs leave the flow untouched (the
    base absorbs their net change).  The result is feasible and
    decreasingly smaller on the focus set; feasibility is re-checked.
    """
    if not any(a.kind == "lower-inf" and a.arc_id in inst.focus for a in circuit):
        raise ValueError("circuit does not touch the focus set")
    z2 = list(z)
    for arc in circuit:
        if arc.kind == "lower-inf":
            z2[arc.arc_id] -= 1
        elif arc.kind == "upper-inf":
            z2[arc.arc_id] += 1
    z2 = tuple(z2)
    if not membership(inst, z2):
        raise ValueError("improved flow escaped the polyhedron")
    return z2


def finitize_bounds(inst: Instance) -> Instance:
    """Replace infinite focus bounds by finite ones with the same optimum.

    An infeasible instance raises `Infeasible` with the lowest violating
    set of its verdict (`Instance.violator`).  Only an instance with a
    `+inf` focus upper bound then pays for a feasible witness
    (`Instance.feasible_flow`): its focus upper bounds are truncated at
    the witness maximum.  Otherwise the bounds are read at the instance's
    own finite bounds.

    Finite focus upper bounds above every feasible value change no
    output: the clamp that `compute_beta` returns lowers them to the top
    value, which is at most the maximum of any feasible flow.

    A lower-unbounded focus arc is then bounded from below through the set
    S reachable from its head in the auxiliary digraph (the node set of
    the search that found no blocking circuit through it): no auxiliary
    arc leaves S, so its cut inequality pins the arc's value from below.  No
    infinite bound enters that inequality: a non-focus arc entering S with
    no upper bound would give a reversed auxiliary arc leaving S, an arc
    leaving S with no lower bound is itself an auxiliary arc leaving S, and
    every focus upper bound is finite by then.  So slack(S) is finite
    exactly when p(S) is, and x_e >= g_e - slack(S) is implied by S's own
    cut inequality at the entry bounds.  Raises BlockingCircuit, carrying
    the circuit, when a blocking dicircuit makes that impossible, and
    ValueError, naming S, when a base table is not finite on S.
    """
    # truncating focus upper bounds below leaves the auxiliary digraph as is
    circuit, reach = _focus_reach(build_jump_structure(inst), inst.focus)
    if circuit is not None:
        raise BlockingCircuit(circuit)
    if inst.violator is not None:
        raise Infeasible(*inst.violator)
    bounds = inst.bounds
    work = inst
    if any(bounds.upper[e] is POS_INF for e in inst.focus):
        cap = max(inst.feasible_flow)
        bounds = bounds.with_upper({e: cap for e in inst.focus
                                    if not is_finite(bounds.upper[e]) or bounds.upper[e] > cap})
        work = inst.with_bounds(bounds)
    lower_updates = {}
    for e, smask in reach.items():
        # no circuit closes through e, so smask avoids its tail and e
        # enters it.  smask is a union of principal sets, finite for a base
        # whose finite sets are closed under union and intersection; a
        # table that is not is bad input
        if (slack := work.slack.value(smask)) is POS_INF:
            raise ValueError(
                "base table is not closed under union and intersection: p is not "
                f"finite on the set reachable from the head of arc {e} (mask {smask:b})")
        # e's cut inequality on smask reads x_e >= upper[e] - slack
        lower_updates[e] = bounds.upper[e] - slack
    if not lower_updates:
        return work
    return work.with_bounds(bounds.with_lower(lower_updates))
