"""Driver for decreasingly-minimal integral base-flows on a focus arc set.

Each phase computes the least attainable top value on the focus set (a
bisection of feasibility probes over the focus bounds plus one discrete
Newton ratio search in the bracketing segment), minimizes the number of
arcs pinned at that value, narrows the bounds and the base polyhedron
along the certifying chain, and drops the pinned arcs from the focus set.
That certified minimum is 0 exactly when the top value could still fall,
so the phase needs no probe of its own.
The loop ends with a bounding pair of width at most one on every focus arc
whose integral flows are exactly the decreasingly-minimal ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .core import Bounds, CertificateError, Chain, is_finite
from .baseflow import (
    Infeasible,
    Instance,
    check_feasible,
    checked_costs,
    find_violator,
    min_cost_flow,
)
from .lupmin import lupmin_solve
from .setfn import SetFn, cut_difference, newton_dinkelbach


@dataclass(frozen=True)
class PhaseTrace:
    beta: int
    l_beta: frozenset
    chain: Chain
    l_prime: frozenset
    bounds_after: Bounds


@dataclass(frozen=True)
class SolveResult:
    f_star: Bounds  # carries both narrowed sides
    face_chains: tuple
    witness: tuple
    traces: tuple
    final: Instance

    @property
    def lower(self) -> tuple:
        return self.f_star.lower

    @property
    def upper(self) -> tuple:
        return self.f_star.upper


def strip_tight(focus, bounds: Bounds) -> frozenset:
    """Drop arcs with equal bounds; their value is forced, so the
    decreasingly-minimal set is unchanged."""
    return frozenset(e for e in focus if not bounds.is_tight(e))


def compute_beta(inst: Instance) -> Tuple[int, Instance]:
    """Least attainable maximum flow value on the focus set.

    The clamp at a level caps every focus arc at max(f_e, min(g_e, level))
    and keeps the other bounds; at the top level it is the entry instance.
    Its feasibility is monotone in the level, so one bisection over the
    sorted focus bounds finds the least feasible level b and the
    infeasible level a just below it.  Between them only the arcs with
    f_e <= a < g_e move, so the overshoot over a is the smallest good ratio
    of the slack at a against their entering count (Newton ratio search).

    Returns the value and the clamp at it, with the arcs it pins dropped
    from the focus (all of them when the least f_e is a feasible level).
    Every clamp is a verified-feasible lowering, so the fair set of the
    entry focus is untouched.
    """
    bounds, focus = inst.bounds, inst.focus
    if not focus:
        raise ValueError("focus set must be nonempty")
    for e in focus:
        if not (is_finite(bounds.lower[e]) and is_finite(bounds.upper[e])):
            raise ValueError(f"arc {e}: focus bounds must be finite")
        if bounds.is_tight(e):
            raise ValueError(f"arc {e}: focus must contain no tight arcs")

    def clamp(level: int, near: Instance) -> Instance:
        """The clamp at a level: `near` when its bounds are the clamp's,
        else one copy of it, whose slack it moves."""
        b = bounds.with_upper({e: max(bounds.lower[e], min(bounds.upper[e], level)) for e in focus})
        return near if b == near.bounds else near.with_face(b, near.base, strip_tight(focus, b))

    levels = sorted({v for e in focus for v in (bounds.lower[e], bounds.upper[e])})
    lo, hi = 0, len(levels) - 1  # levels[hi] is feasible, those below lo are not
    probe = feasible = inst  # feasible: the clamp at levels[hi]
    while lo < hi:
        # the lowest probe within ceil(log2(#levels)); most calls pin every arc
        mid = max(lo, hi - (1 << ((hi - lo).bit_length() - 1)))
        probe = clamp(levels[mid], probe)
        if find_violator(probe) is None:
            hi, feasible = mid, probe
        else:
            lo, below = mid + 1, probe
    if hi == 0:  # the last probe, the only one at levels[0], was feasible
        return levels[0], feasible
    a = levels[hi - 1]
    moving = {e for e in focus if bounds.lower[e] <= a < bounds.upper[e]}
    mu, _ = newton_dinkelbach(_nd_slack_fn(below), _nd_entering_fn(inst, moving))
    beta = a + mu
    out = clamp(beta, feasible)  # `feasible` itself when beta is its level
    if find_violator(out) is not None:
        raise CertificateError("clamp at the smallest good ratio is infeasible")
    if max(out.bounds.upper[e] for e in out.focus) != beta:
        raise CertificateError("focus upper bounds exceed the computed top value")
    return beta, out


def _nd_slack_fn(probe: Instance) -> SetFn:
    """Base function minus the probe's cut difference (the negated slack
    vector); positive values mark the sets a uniform raise on the moving
    arcs must cover."""
    return SetFn(probe.digraph.node_count, -probe.slack)


def _nd_entering_fn(inst: Instance, moving) -> SetFn:
    """Number of moving arcs entering each set: the cut difference of unit
    upper bounds on the moving arcs and zero elsewhere."""
    d = inst.digraph
    zero = (0,) * d.arc_count
    unit = tuple(int(e in moving) for e in d.arc_ids())
    return cut_difference(d, Bounds(zero, unit))


def predecmin_phase(inst: Instance) -> Tuple[PhaseTrace, Instance]:
    """One narrowing phase at the current top value.

    Preconditions: the focus set is nonempty without tight arcs, the top
    value is least attainable.  Minimizes the saturated count on the top
    level, narrows bounds and base along the chain, and removes the
    chain-entering top arcs from the focus set; those arcs end pinched to
    width at most one.  Lowering the top level by one is feasible iff the
    minimum count is 0, which raises ValueError.
    """
    bounds = inst.bounds
    focus = inst.focus
    if not focus:
        raise ValueError("focus set must be nonempty")
    beta = max(bounds.upper[e] for e in focus)
    if not is_finite(beta):
        raise ValueError("focus upper bounds must be finite")
    l_beta = frozenset(e for e in focus if bounds.upper[e] == beta)
    res = lupmin_solve(inst, l_beta)
    if res.min_saturated == 0:
        raise ValueError("top value not minimal: lowering the top level stays feasible")
    cross = res.chain.crossings(inst.digraph)
    l_prime = frozenset(e for e in l_beta if cross[e] > 0)
    if not l_prime:
        raise CertificateError("no chain-entering arc in the top level")
    for e in l_prime:
        if not (beta - 1 <= res.bounds.lower[e] and res.bounds.upper[e] == beta):
            raise CertificateError("narrow box violated on a pinned arc")
    narrowed = inst.with_face(res.bounds, res.face_base, strip_tight(focus - l_prime, res.bounds))
    trace = PhaseTrace(beta, l_beta, res.chain, l_prime, res.bounds)
    return trace, narrowed


def solve_decmin(inst: Instance) -> SolveResult:
    """Narrow an instance until its integral flows are exactly the
    decreasingly-minimal ones on the focus set.

    Returns the final bounding pair (width at most one on every original
    focus arc), the stack of face chains applied to the base, a witness
    flow, and the per-phase traces.
    """
    cert = check_feasible(inst)
    if not cert.feasible:
        raise Infeasible(cert.violator, cert.deficit)
    for e in inst.focus:
        if not (is_finite(inst.bounds.lower[e]) and is_finite(inst.bounds.upper[e])):
            raise ValueError(
                f"arc {e}: focus bounds must be finite; finitize the instance first")
    original_focus = inst.focus
    focus = strip_tight(inst.focus, inst.bounds)
    cur = inst if focus == inst.focus else inst.with_focus(focus)
    traces = []
    rounds = 0
    limit = len(cur.focus) + 1
    while cur.focus:
        rounds += 1
        if rounds > limit:
            raise CertificateError("phase loop failed to shrink the focus set")
        _, cur = compute_beta(cur)
        if not cur.focus:
            break
        trace, cur = predecmin_phase(cur)
        traces.append(trace)
    witness = cur.feasible_flow
    for e in original_focus:
        width = cur.bounds.upper[e] - cur.bounds.lower[e]
        if not 0 <= width <= 1:
            raise CertificateError(f"focus arc {e} ended with box width {width}")
    return SolveResult(cur.bounds, cur.base.face_chains, witness,
                       tuple(traces), cur)


def solve_min_cost_decmin(inst: Instance, cost: Sequence[int]) -> tuple:
    """Cheapest decreasingly-minimal flow under a linear cost, checked
    first: a plain minimum-cost solve over the narrowed instance."""
    checked_costs(cost, inst.digraph.arc_count)
    result = solve_decmin(inst)
    x, _ = min_cost_flow(result.final, cost)
    return x
