"""Feasibility and min-cost optimization over bounded base-flow polyhedra.

An Instance couples a digraph, integer bounds, a zero-base oracle and a
focus arc set.  Its base table lies in Z | {-inf} and its slack table in
Z | {+inf} (see `setfn`, which alone reads how a table marks its infinite
entries), so a verdict reads finite negative slacks only, and flows are
integer vectors.  Feasibility follows the cut criterion
(the in-cut of the upper bounds minus the out-cut of the lower bounds must
dominate the base function on every node subset); a feasible integral flow
is built by exact coordinate fixing; minimum-cost flows are computed by
canceling negative cycles in the exchange auxiliary digraph, each moved
by the largest step that stays feasible; an arc may cost one more
on its last unit, which is how lupmin counts the arcs at their upper
bound on the original digraph.  Each cycle search starts as Bellman-Ford
from an all-zero source; when it settles, there is no negative cycle and
its distances are the integer dual node potentials, and only when it
does not is a fewest-arc cycle searched for layer by layer.  An instance
is immutable, so it keeps its cut-criterion verdict (`Instance.violator`)
and the feasible flow of its one coordinate-fixing pass (`feasible_flow`).
The binding contract of the solver is the certificate it returns, not the
method: complementary slackness and tightness of every potential level set
are verified before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    Bounds,
    CertificateError,
    Digraph,
    ExtInt,
    POS_INF,
    cut_net,
    is_finite,
    node_net_inflow,
)
from .setfn import BaseOracle, ExtArray, subset_sums


class Infeasible(Exception):
    """Raised when the bounded base-flow polyhedron is empty."""

    def __init__(self, violator: int, deficit: ExtInt):
        self.violator = violator
        self.deficit = deficit
        super().__init__(f"infeasible: violating set mask {violator:b}, deficit {deficit}")


@dataclass(frozen=True)
class Instance:
    """Immutable: its slack, verdict and feasible flow are each computed once."""

    digraph: Digraph
    bounds: Bounds
    base: BaseOracle
    focus: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "focus", frozenset(self.focus))
        if len(self.bounds) != self.digraph.arc_count:
            raise ValueError("bounds length must match arc count")
        if self.base.n != self.digraph.node_count:
            raise ValueError("base oracle ground size must match node count")
        for e in self.focus:
            if not 0 <= e < self.digraph.arc_count:
                raise ValueError(f"focus arc id {e} out of range")

    @cached_property
    def slack(self) -> ExtArray:
        """Feasibility slack of every subset: upper in-cut - lower out-cut - p.

        Built on first read by one `plus_cut` over all arcs; a `with_bounds`
        / `with_focus` / `with_face` copy is given its slack when it is
        made."""
        b = self.bounds
        return (-self.base.values).plus_cut(self.digraph, b.upper, b.lower)

    @cached_property
    def violator(self) -> Optional[Tuple[int, ExtInt]]:
        """The verdict: the lowest-mask violating subset and its deficit, or None."""
        zmask = self.slack.first_negative()
        return None if zmask is None else (zmask, self.slack.value(zmask))

    @cached_property
    def feasible_flow(self) -> tuple:
        """An integral feasible flow, built by `find_feasible` on first
        read; raises `Infeasible` for an infeasible instance."""
        return find_feasible(self)

    def with_bounds(self, bounds: Bounds) -> "Instance":
        return self.with_face(bounds, self.base, self.focus)

    def with_focus(self, focus) -> "Instance":
        return self.with_face(self.bounds, self.base, focus)

    def with_face(self, bounds: Bounds, base: BaseOracle, focus) -> "Instance":
        """The one copy step, at other bounds, base or focus: on a face at
        narrowed bounds, or at this instance's base (`base` is `self.base`).
        The copy is given this instance's slack moved to its bounds,
        touching the changed bounds only (`ExtArray.shift_cut`), and then
        to its base (`ExtArray.swap_base`)."""
        out = Instance(self.digraph, bounds, base, focus)
        slack = self.slack.shift_cut(self.digraph, self.bounds, bounds)
        if base is not self.base:
            slack = slack.swap_base(self.base.values, base.values)
        out.__dict__["slack"] = slack
        return out


@dataclass(frozen=True)
class FeasCert:
    """`Instance.violator` as `check_feasible` returns it: a violating subset
    with its deficit, or, for a feasible instance, its `feasible_flow`, built
    when `witness` is first read, so the verdict alone costs one cut scan."""

    instance: Instance
    violator: Optional[int] = None
    deficit: Optional[ExtInt] = None

    @property
    def feasible(self) -> bool:
        return self.violator is None

    @property
    def witness(self) -> Optional[tuple]:
        """The feasible flow, None for an infeasible instance."""
        return self.instance.feasible_flow if self.feasible else None


@dataclass(frozen=True)
class DualPotential:
    """Nonnegative integer node potentials normalized to minimum zero."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if any(v < 0 for v in self.values):
            raise ValueError("potentials must be nonnegative")
        if self.values and min(self.values) != 0:
            raise ValueError("potentials must be normalized to minimum 0")

    def __getitem__(self, v: int) -> int:
        return self.values[v]

    def level_sets(self) -> list:
        """The distinct upper level sets {v : pi_v >= c} over c >= 1, as
        bitmasks, highest level (innermost set) first.  One per distinct
        positive potential, however large the potentials are."""
        return [sum(1 << v for v, val in enumerate(self.values) if val >= level)
                for level in sorted({v for v in self.values if v > 0}, reverse=True)]


def cut_slack(inst: Instance, zmask: int) -> ExtInt:
    """Feasibility slack of one subset: upper in-cut - lower out-cut - p."""
    return inst.slack.value(zmask)


def find_violator(inst: Instance) -> Optional[Tuple[int, ExtInt]]:
    """The lowest-mask violating subset and its deficit: `Instance.violator`."""
    return inst.violator


def check_feasible(inst: Instance) -> FeasCert:
    """The instance's verdict (`Instance.violator`) with a constructive witness."""
    return FeasCert(inst, *(inst.violator or ()))


def membership(inst: Instance, x: Sequence[int]) -> bool:
    """Is x, one integer per arc, a feasible base-flow?  A non-integer
    entry within finite bounds, a bool included, raises ValueError, and
    one compared with an infinite bound TypeError."""
    if len(x) != inst.digraph.arc_count:
        return False
    b = inst.bounds
    for e in range(inst.digraph.arc_count):
        if not (b.lower[e] <= x[e] <= b.upper[e]):
            return False
        if type(x[e]) is not int:
            raise ValueError(f"entry {x[e]!r} at {e} is not an integer")
    # the net in-flow of a set sums its nodes' net in-flows (inner arcs cancel)
    return inst.base.contains(node_net_inflow(inst.digraph, x))


def find_feasible(inst: Instance, saturating=frozenset()) -> tuple:
    """Build an integral feasible flow by exact coordinate fixing.

    Arcs are fixed the ones in `saturating` first, then the rest, each
    group in id order, so no arc fixed earlier pins a saturating arc at
    its upper bound.  For arc e the set of values t that keep the residual
    instance feasible is an integer interval obtained from the cut
    criterion with e's contribution separated out; we pick 0 (for an arc in
    `saturating`, min(0, g - 1), below its costlier last unit) clamped into
    that interval, then freeze the arc and continue.  Exactness of the
    interval makes the procedure never backtrack.

    A copy of the instance's slack gives each arc's interval and is moved
    as the arc is fixed (`ExtArray.arc_interval`, `ExtArray.fix_arc`):
    fixing e touches only the subsets e enters or leaves, so each arc
    costs O(2^n) and the whole pass O(m 2^n).
    """
    if inst.violator is not None:
        raise Infeasible(*inst.violator)
    lower = list(inst.bounds.lower)
    upper = list(inst.bounds.upper)
    slack = inst.slack.fixing()
    for e, views in sorted(enumerate(inst.digraph.arc_views),
                           key=lambda arc: arc[0] not in saturating):
        f, g = lower[e], upper[e]
        if f == g:
            continue
        lo, hi = slack.arc_interval(views, f, g)
        if not lo <= hi:
            raise CertificateError("coordinate-fixing interval collapsed on a feasible instance")
        val = min(max(min(0, g - 1) if e in saturating else 0, lo), hi)
        lower[e] = upper[e] = val
        slack.fix_arc(views, f, g, val)
    x = tuple(lower)
    if not membership(inst, x):
        raise CertificateError("constructed flow failed membership check")
    return x


def exchange_capacity(base: BaseOracle, y: Sequence[int], s: int, t: int) -> ExtInt:
    """Largest step a for which y - a*chi_s + a*chi_t stays in the base.

    Equals the minimum slack (subset sum minus bounding value) over subsets
    containing s and avoiding t; +inf when no finite constraint separates.
    """
    n = base.n
    for name, v in (("s", s), ("t", t)):
        if not 0 <= v < n:
            raise ValueError(f"exchange endpoint {name} = {v} is not a node of the {n}-node base")
    if len(y) != n:
        raise ValueError(f"y has {len(y)} entries, not one per node of the {n}-node base")
    if s == t:
        raise ValueError("exchange endpoints must differ")
    move = [0] * n
    move[s], move[t] = -1, 1
    return base.step_capacity(subset_sums(y), move)


# --- minimum-cost flow -----------------------------------------------------

def _unit_costs(inst: Instance, x: Sequence[int], cost: Sequence[int],
                saturating: frozenset):
    """Per arc at flow x: (e, tail, head, cost of one more unit, cost of
    the last unit), a cost None where the bound allows no such step.  An
    arc in `saturating` costs one more on its last unit, from g - 1 to g."""
    b = inst.bounds
    for e, (u, v) in enumerate(inst.digraph.arcs):
        g, extra = b.upper[e], e in saturating
        up = cost[e] + (extra and x[e] == g - 1) if x[e] < g else None
        down = cost[e] + (extra and x[e] == g) if x[e] > b.lower[e] else None
        yield e, u, v, up, down


def _aux_arcs(inst: Instance, x: Sequence[int], sums: np.ndarray,
              cost: Sequence[int], saturating: frozenset = frozenset()) -> list:
    """Arcs of the exchange auxiliary digraph at flow x, whose net in-flows
    psi have the subset sums `sums`.

    Entries are (tail, head, cost, tag); tags are ('up', e) for a unit
    increase on arc e, ('down', e) for a unit decrease, and ('exch', s, t)
    for moving a unit of net in-flow from t to s inside the base.  That
    move hurts exactly the subsets containing t and avoiding s, so it is
    allowed iff s lies in the meet of the tight sets containing t.
    """
    arcs = []
    for e, u, v, up, down in _unit_costs(inst, x, cost, saturating):
        if up is not None:
            arcs.append((u, v, up, ("up", e)))
        if down is not None:
            arcs.append((v, u, -down, ("down", e)))
    meets = inst.base.meets(sums)
    for s in range(inst.base.n):
        for t, meet in enumerate(meets):
            if s != t and (meet >> s) & 1:
                arcs.append((s, t, 0, ("exch", s, t)))
    return arcs


def _min_arc_negative_cycle(n: int, arcs: list) -> Union[list, DualPotential]:
    """Negative-cost dicycle with the fewest arcs, as a list of aux arcs,
    or the potentials that certify there is none.

    Bellman-Ford from an implicit all-zero source first: with no negative
    cycle every shortest walk has fewer than n arcs, so some pass among
    the first n changes nothing, and its distances, shifted to minimum
    zero, are the potentials.  Only when pass n still relaxes is there a
    negative cycle, and `_layered_cycle` finds one with the fewest arcs.
    """
    reach = [0] * n  # least walk cost into each node; the empty walks cost 0
    for _ in range(n):
        changed = False
        for (a, bb, c, _) in arcs:
            cand = reach[a] + c
            if cand < reach[bb]:
                reach[bb] = cand
                changed = True
        if not changed:
            low = min(reach, default=0)
            return DualPotential(tuple(d - low for d in reach))
    return _layered_cycle(n, arcs)


def _layered_cycle(n: int, arcs: list) -> list:
    """A fewest-arc negative-cost dicycle of aux arcs known to hold one.

    Layered relaxation: dist[k][u][v] is the cheapest walk with exactly k
    arcs.  The first layer producing a negative closed walk yields a simple
    cycle (a shorter negative sub-walk would contradict minimality); a
    simple negative cycle has at most n arcs.
    """
    dist = [[None] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = 0
    parent = {}
    for k in range(1, n + 1):
        ndist = [[None] * n for _ in range(n)]
        improved = False
        for (a, bb, c, tag) in arcs:
            for u in range(n):
                du = dist[u][a]
                if du is None:
                    continue
                cand = du + c
                if ndist[u][bb] is None or cand < ndist[u][bb]:
                    ndist[u][bb] = cand
                    parent[(k, u, bb)] = (a, (a, bb, c, tag))
                    improved = True
        dist = ndist
        if not improved:
            break
        for u in range(n):
            if dist[u][u] is not None and dist[u][u] < 0:
                cycle = []
                node = u
                for kk in range(k, 0, -1):
                    prev, arc = parent[(kk, u, node)]
                    cycle.append(arc)
                    node = prev
                cycle.reverse()
                return cycle
    raise CertificateError("Bellman-Ford still relaxed at pass n, but no negative cycle")


def _bottleneck(inst: Instance, x: Sequence[int], sums: np.ndarray, cycle: list,
                saturating: frozenset) -> int:
    """The largest step along an aux cycle that keeps the flow feasible.

    An up or down arc is as wide as its unit cost stays: an arc in
    `saturating` rises to its breakpoint g - 1, or at g steps down one
    unit.  The ('exch', s, t) arcs together move the net in-flows, whose
    subset sums are `sums`, by +1 at s and -1 at t each, and that move is
    capped as a whole by `BaseOracle.step_capacity`.
    """
    b = inst.bounds
    move = [0] * inst.base.n
    widths = []
    for (_, _, _, tag) in cycle:
        if tag[0] == "exch":
            move[tag[1]] += 1
            move[tag[2]] -= 1
            continue
        e = tag[1]
        g, extra = b.upper[e], e in saturating
        if tag[0] == "up":
            widths.append(g - x[e] - (extra and x[e] < g - 1))
        else:
            widths.append(1 if extra and x[e] == g else x[e] - b.lower[e])
    delta = min(widths + [inst.base.step_capacity(sums, move)])
    if delta is POS_INF:
        raise CertificateError("negative cycle of unbounded width")
    if delta < 1:
        raise CertificateError("negative cycle admits no unit step")
    return delta


def _apply_cycle(x: list, cycle: list, delta: int) -> None:
    for (_, _, _, tag) in cycle:
        if tag[0] == "up":
            x[tag[1]] += delta
        elif tag[0] == "down":
            x[tag[1]] -= delta


def verify_optimality(inst: Instance, cost: Sequence[int], x: Sequence[int],
                      pi: DualPotential, saturating: frozenset = frozenset()) -> None:
    """Check complementary slackness and level-set tightness; raise on failure.

    On every arc uv the potential rise may not exceed the cost of one more
    unit, nor fall below the cost of the last unit, where the bounds allow
    that step; on an arc in `saturating` the unit from g - 1 to g costs
    one more.  Every upper level set of the potentials must be tight for
    the base function.
    """
    for e, u, v, up, down in _unit_costs(inst, x, cost, saturating):
        delta = pi[v] - pi[u]
        if up is not None and not delta <= up:
            raise CertificateError(f"arc {e}: rise {delta} exceeds cost {up} with slack above")
        if down is not None and not delta >= down:
            raise CertificateError(f"arc {e}: rise {delta} below cost {down} with slack below")
    for zmask in reversed(pi.level_sets()):  # outermost first
        if cut_net(inst.digraph, x, zmask) != inst.base.p(zmask):
            raise CertificateError(f"potential level set {zmask:b} not tight")


def checked_costs(cost: Sequence[int], arc_count: int) -> tuple:
    """The cost vector as a tuple of one Python int (not bool) per arc."""
    cost = tuple(cost)
    if len(cost) != arc_count:
        raise ValueError("cost length must match arc count")
    for e, c in enumerate(cost):
        if type(c) is not int:
            raise ValueError(f"arc {e}: cost {c!r} is not an integer")
    return cost


def min_cost_flow(inst: Instance, cost: Sequence[int],
                  saturating=frozenset()) -> Tuple[tuple, DualPotential]:
    """Integral minimum-cost feasible base-flow with certifying potentials.

    The cost is linear, except that an arc in `saturating` costs one more
    on its last unit, from g - 1 to its upper bound g: a convex two-slope
    cost on the original arc, so zero costs with saturating = L count the
    arcs of L at their upper bound.  From a feasible flow (the instance's
    own, or one fixed below the breakpoints where it can), bottleneck
    augmentation runs along fewest-arc negative cycles of the exchange
    auxiliary digraph: each cycle moves by the largest step that keeps the
    flow feasible, which stops at a breakpoint.  Costs must be Python ints
    (not bools); arcs carrying nonzero cost, and arcs in `saturating`, must
    have finite bounds (otherwise the optimum may be unbounded).
    """
    cost = checked_costs(cost, inst.digraph.arc_count)
    b = inst.bounds
    for e, c in enumerate(cost):
        if (c or e in saturating) and not (is_finite(b.lower[e]) and is_finite(b.upper[e])):
            raise ValueError(f"arc {e}: nonzero cost requires finite bounds")
    x = list(find_feasible(inst, saturating) if saturating else inst.feasible_flow)
    n = inst.digraph.node_count
    while True:
        sums = subset_sums(node_net_inflow(inst.digraph, x))  # one table per augmentation
        found = _min_arc_negative_cycle(n, _aux_arcs(inst, x, sums, cost, saturating))
        if isinstance(found, DualPotential):
            break
        # a fewest-arc cycle admits a unit step
        delta = _bottleneck(inst, x, sums, found, saturating)
        _apply_cycle(x, found, delta)
        if not membership(inst, x):
            raise CertificateError("augmentation left the feasible region")
    xt = tuple(x)
    verify_optimality(inst, cost, xt, found, saturating)
    return xt, found
