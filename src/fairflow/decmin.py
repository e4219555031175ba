"""Driver for decreasingly-minimal integral base-flows on a focus arc set.

Each phase computes the least attainable top value on the focus set (a
staircase of feasibility probes plus a discrete Newton ratio search when a
probe fails), minimizes the number of arcs pinned at that value, narrows
the bounds and the base polyhedron along the certifying chain, and drops
the pinned arcs from the focus set.  The loop ends with a bounding pair of
width at most one on every focus arc whose integral flows are exactly the
decreasingly-minimal ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import Bounds, Chain, chain_classify, is_finite
from .baseflow import (
    CertificateError,
    Infeasible,
    Instance,
    check_feasible,
    find_feasible,
    find_violator,
    min_cost_flow,
)
from .lupmin import lupmin_solve
from .setfn import ExtArray, SetFn, brute_extremize, cut_difference, int_dtype


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


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def newton_dinkelbach(h: SetFn, b: SetFn) -> Tuple[int, List[tuple]]:
    """Smallest nonnegative integer mu with mu*b(X) >= h(X) for all X.

    Requires h(X) <= 0 wherever b(X) = 0 (some good mu exists) and some
    h(Y) > 0 (zero is bad).  Each round maximizes the gap h - mu*b, one
    array expression over the tables, exhaustively; candidate values are
    the ceiled ratios at the maximizers and strictly increase while bad.
    The iterate log records (mu, argmax) pairs.
    """
    if h.n != b.n:
        raise ValueError("ground set mismatch")
    hv, bv = h.values, b.values
    h_positive = (hv.pos != 0) | ((hv.neg == 0) & (hv.fin > 0))
    bad = (bv.pos != 0) | (bv.neg != 0) | (bv.fin < 0) | ((bv.fin == 0) & h_positive)
    if bad.any():
        m = int(bad.argmax())  # the first mask that fails a scalar check
        bm = b(m)
        if not (is_finite(bm) and bm >= 0):
            raise ValueError("b must be finite and nonnegative")
        if h(m) > 0:
            raise ValueError("no good mu exists: positive h on a zero of b")
    val, xmask = brute_extremize(h)
    if not val > 0:
        raise ValueError("mu = 0 is already good")
    log = [(0, xmask)]
    mu = 0
    while True:
        mu_next = _ceil_div(h(xmask), b(xmask))
        if not mu_next > mu:
            raise CertificateError("ratio candidates failed to increase")
        mu = mu_next
        bound = hv.bound + mu * bv.bound
        dtype = int_dtype(bound)
        fin = hv.fin.astype(dtype, copy=False) - mu * bv.fin.astype(dtype, copy=False)
        gap = SetFn(h.n, ExtArray(fin, hv.pos, hv.neg, bound))
        val, xmask = brute_extremize(gap)
        log.append((mu, xmask))
        if val <= 0:
            return mu, log


def _feasible_with(inst: Instance, bounds: Bounds) -> bool:
    return find_violator(inst.with_bounds(bounds)) is None


def compute_beta(inst: Instance) -> Tuple[Optional[int], Instance]:
    """Least attainable maximum flow value on the focus set.

    Staircase loop: uniformly lower the top upper-bound level of the focus
    arcs to the next candidate (largest lower bound or second-highest upper
    level) while the instance stays feasible, stripping arcs that become
    tight.  When a probe fails, the exact overshoot is the smallest good
    ratio of the slack function against the entering count of the top
    level, found by the Newton ratio search.

    Returns the clamped instance with the surviving focus set.  Every clamp
    is a verified-feasible lowering, so the fair set of the entry focus is
    untouched; the returned value is the least attainable maximum of the
    surviving focus over the clamped instance (when arcs were stripped it
    refers to the last probe level, and the caller only needs the bounds).
    """
    if not inst.focus:
        raise ValueError("focus set must be nonempty")
    bounds = inst.bounds
    focus = set(inst.focus)
    for e in focus:
        if not (is_finite(bounds.lower[e]) and is_finite(bounds.upper[e])):
            raise ValueError(f"arc {e}: focus bounds must be finite")
        if bounds.is_tight(e):
            raise ValueError(f"arc {e}: focus must contain no tight arcs")
    beta = None
    while focus:
        gvals = sorted({bounds.upper[e] for e in focus}, reverse=True)
        g1 = gvals[0]
        f1 = max(bounds.lower[e] for e in focus)
        top = {e for e in focus if bounds.upper[e] == g1}
        beta1 = max(f1, gvals[1]) if len(gvals) >= 2 else f1
        probe = inst.with_bounds(bounds.with_upper({e: beta1 for e in top}))
        if find_violator(probe) is None:
            bounds = probe.bounds
            beta = beta1
            tight = {e for e in focus if bounds.is_tight(e)}
            focus -= tight
            continue
        mu, _ = newton_dinkelbach(_nd_slack_fn(probe), _nd_entering_fn(inst, top))
        beta = beta1 + mu
        bounds = bounds.with_upper({e: beta for e in top})
        if not _feasible_with(inst, bounds):
            raise CertificateError("clamp at the smallest good ratio is infeasible")
        if max(bounds.upper[e] for e in focus) != beta:
            raise CertificateError("focus upper bounds exceed the computed top value")
        return beta, inst.with_bounds(bounds).with_focus(focus)
    return beta, inst.with_bounds(bounds).with_focus(focus)


def _nd_slack_fn(probe: Instance) -> SetFn:
    """Base function minus the probe's cut difference (the negated slack
    vector); positive values mark the sets a uniform raise on the top level
    must cover."""
    return SetFn(probe.digraph.node_count, -probe.slack)


def _nd_entering_fn(inst: Instance, top) -> SetFn:
    """Number of top-level arcs entering each set: the cut difference of
    unit upper bounds on the top level and zero elsewhere."""
    d = inst.digraph
    zero = (0,) * d.arc_count
    unit = tuple(int(e in top) for e in d.arc_ids())
    return cut_difference(d, Bounds(zero, unit))


def predecmin_phase(inst: Instance) -> Tuple[PhaseTrace, Instance]:
    """One narrowing phase at the current top value.

    Preconditions: the focus set is nonempty without tight arcs, the top
    value is least attainable (so lowering the top level by one is
    infeasible).  Minimizes the saturated count on the top level, narrows
    bounds and base along the chain, and removes the chain-entering top
    arcs from the focus set; those arcs end pinched to width at most one.
    """
    bounds = inst.bounds
    focus = inst.focus
    if not focus:
        raise ValueError("focus set must be nonempty")
    beta = max(bounds.upper[e] for e in focus)
    if not is_finite(beta):
        raise ValueError("focus upper bounds must be finite")
    l_beta = frozenset(e for e in focus if bounds.upper[e] == beta)
    probe = bounds.with_upper({e: beta - 1 for e in l_beta})
    if _feasible_with(inst, probe):
        raise ValueError("top value not minimal: lowering the top level stays feasible")
    res = lupmin_solve(inst, l_beta)
    l_prime = frozenset(
        e for e in l_beta
        if chain_classify(inst.digraph, res.chain, e).kind == "entering")
    if not l_prime:
        raise CertificateError("no chain-entering arc in the top level")
    for e in l_prime:
        if not (beta - 1 <= res.bounds.lower[e] and res.bounds.upper[e] == beta):
            raise CertificateError("narrow box violated on a pinned arc")
    narrowed = Instance(inst.digraph, res.bounds, res.face_base, focus - l_prime)
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
    cur = inst.with_focus(strip_tight(inst.focus, inst.bounds))
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
        cur = cur.with_focus(strip_tight(cur.focus, cur.bounds))
    witness = find_feasible(cur)
    for e in original_focus:
        width = cur.bounds.upper[e] - cur.bounds.lower[e]
        if not 0 <= width <= 1:
            raise CertificateError(f"focus arc {e} ended with box width {width}")
    return SolveResult(cur.bounds, cur.base.face_chains, witness,
                       tuple(traces), cur)


def solve_min_cost_decmin(inst: Instance, cost: Sequence[int]) -> tuple:
    """Cheapest decreasingly-minimal flow under a linear cost: a plain
    minimum-cost solve over the narrowed instance."""
    result = solve_decmin(inst)
    x, _ = min_cost_flow(result.final, cost)
    return x
