"""Saturation minimizers: the fewest upper-bound-tight arcs within a set L.

The pipeline mirrors the min-max theory: solve the minimum-cost base-flow
whose cost is zero except on the last unit of every L-arc, from g - 1 to
its upper bound g, which costs one (a two-slope convex cost on the
original arcs, `min_cost_flow(..., saturating=L)`); read the dual chain
off the upper level sets of the node potentials; and translate the chain
into a narrowed bounding pair plus a face of the base polyhedron.  Each
arc is read against the chain once, by the number of members it enters
or leaves (`Chain.crossings`), for the dual value, the box and the arcs
a phase pins.  The recomputed dual value must equal the primal optimum,
the number of saturated L-arcs, exactly; any mismatch raises instead of
being papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Bounds, Chain, is_finite
from .baseflow import (
    CertificateError,
    DualPotential,
    Instance,
    cut_slack,
    membership,
    min_cost_flow,
)
from .setfn import BaseOracle


@dataclass(frozen=True)
class LupminResult:
    min_saturated: int
    chain: Chain
    bounds: Bounds  # narrowed pair (f_L, g_L) on the original digraph
    face_base: BaseOracle
    witness: tuple


def _require_ldef(inst: Instance, L) -> None:
    b = inst.bounds
    for e in L:
        lo, hi = b.lower[e], b.upper[e]
        if not (is_finite(lo) and is_finite(hi)):
            raise ValueError(f"arc {e}: L requires finite bounds")
        if lo == hi:
            raise ValueError(f"arc {e}: L must contain no tight arcs")


def extract_chain(pi: DualPotential, node_count: int) -> Chain:
    """Distinct upper level sets of the potentials, largest level innermost.

    Collapsing repeated level sets keeps dual optimality (lowering a
    multiplicity never decreases the dual value on a feasible instance),
    so the chain is recorded with 0/1 weights.
    """
    if len(pi.values) != node_count:
        raise ValueError("potential length mismatch")
    return Chain(node_count, tuple(pi.level_sets()))


def derive_bounds(inst: Instance, L, chain: Chain) -> Bounds:
    """Narrowed bounding pair read off a feasible chain.

    Each arc is read by its signed crossing count (`Chain.crossings`): the
    number of members it enters, or minus the number it leaves.  L-arcs:
    tight at the upper bound when entering two or more members, pinched to
    width one when entering exactly one, tight at the lower bound when
    leaving, and capped one below the upper bound when neutral.  Other
    arcs: tight at upper when entering, at lower when leaving, untouched
    when neutral.
    """
    L = frozenset(L)
    b = inst.bounds
    lower = list(b.lower)
    upper = list(b.upper)
    for e, cross in enumerate(chain.crossings(inst.digraph)):
        lo, hi = b.lower[e], b.upper[e]
        if e in L:
            if cross >= 2:
                lower[e], upper[e] = hi, hi
            elif cross == 1:
                lower[e], upper[e] = hi - 1, hi
            elif cross < 0:
                lower[e], upper[e] = lo, lo
            else:
                lower[e], upper[e] = lo, hi - 1
        elif cross > 0:
            if not is_finite(hi):
                raise ValueError(f"arc {e}: entering a feasible chain needs finite upper")
            lower[e], upper[e] = hi, hi
        elif cross < 0:
            if not is_finite(lo):
                raise ValueError(f"arc {e}: leaving a feasible chain needs finite lower")
            lower[e], upper[e] = lo, lo
    return Bounds(tuple(lower), tuple(upper))


def chain_value(inst: Instance, L, chain: Chain) -> int:
    """Dual value of a feasible chain: entering L-arcs minus total slack."""
    cross = chain.crossings(inst.digraph)
    total = sum(1 for e in L if cross[e] > 0)
    for c in chain:
        slack = cut_slack(inst, c)
        if not is_finite(slack):
            raise ValueError("chain is not feasible: infinite slack term")
        total -= slack
    return total


def saturated_count(bounds: Bounds, L, x: Sequence[int]) -> int:
    return sum(1 for e in L if x[e] == bounds.upper[e])


def lupmin_solve(inst: Instance, L) -> LupminResult:
    """Minimum number of upper-tight L-arcs, with the describing face chain
    and narrowed bounds.  L must have finite, non-tight bounds; strip tight
    arcs before calling."""
    L = frozenset(L)
    _require_ldef(inst, L)
    x, pi = min_cost_flow(inst, (0,) * inst.digraph.arc_count, saturating=L)
    primal = saturated_count(inst.bounds, L, x)
    chain = extract_chain(pi, inst.digraph.node_count)
    value = chain_value(inst, L, chain)
    if value != primal:
        raise CertificateError(
            f"dual chain value {value} differs from primal optimum {primal}")
    bounds_l = derive_bounds(inst, L, chain)
    face = inst.base.face_contract(chain)
    if not membership(Instance(inst.digraph, bounds_l, face), x):
        raise CertificateError("witness escaped the narrowed polyhedron")
    return LupminResult(primal, chain, bounds_l, face, x)

