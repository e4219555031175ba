"""Brute-force reference implementations for cross-checking the engine.

Everything here enumerates: lattice points of the bounded polyhedron,
decreasingly-minimal subsets by direct profile comparison, saturation
minima, dual chains by scanning every nested family, the exponential
convex surrogate cost, and `check_pairs`, the O(4^n) scan of every pair of
sets that is the reference for a faster supermodularity check.  None of it
shares code with the engine paths it certifies: from the engine it imports
only data types.  Enumeration is budgeted and fails loudly instead of
truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    Chain,
    NEG_INF,
    cut_in_sum,
    cut_out_sum,
    decmin_compare,
    is_finite,
)
from .baseflow import Instance
from .setfn import BaseOracle, SetFn


class BudgetExceeded(Exception):
    pass


def check_pairs(fn: SetFn, supermodular: bool, family: str = "all"):
    """Exhaustive check of the super- or submodular inequality over the
    non-nested pairs of a family: "all" of them, the "intersecting" ones
    (meet nonempty), or the "crossing" ones (also union not the full set).
    Returns (ok, first violating pair in scan order or None)."""
    size = 1 << fn.n
    t = [fn(m) for m in range(size)]
    full = size - 1
    for x in range(size):
        for y in range(x + 1, size):
            meet = x & y
            if meet == x or meet == y:
                continue  # nested pairs hold trivially
            if family != "all" and meet == 0:
                continue
            if family == "crossing" and (x | y) == full:
                continue
            lhs = t[x] + t[y]
            rhs = t[meet] + t[x | y]
            if not (lhs <= rhs if supermodular else lhs >= rhs):
                return False, (x, y)
    return True, None


@dataclass(frozen=True)
class EnumWindow:
    lows: tuple
    highs: tuple

    def __post_init__(self):
        if len(self.lows) != len(self.highs):
            raise ValueError("window sides must have equal length")
        for lo, hi in zip(self.lows, self.highs):
            if not (isinstance(lo, int) and isinstance(hi, int)):
                raise ValueError("window must be finite")

    def size(self) -> int:
        total = 1
        for lo, hi in zip(self.lows, self.highs):
            total *= max(0, hi - lo + 1)
        return total


def window_from_bounds(inst: Instance, radius: int = 3,
                       center: Optional[Sequence[int]] = None) -> EnumWindow:
    """Finite per-arc window: the bounds where finite, otherwise a band of
    the given radius around the center vector (default all zeros)."""
    m = inst.digraph.arc_count
    if center is None:
        center = (0,) * m
    lows, highs = [], []
    for e in range(m):
        lo, hi = inst.bounds.lower[e], inst.bounds.upper[e]
        lows.append(lo if is_finite(lo) else center[e] - radius)
        highs.append(hi if is_finite(hi) else center[e] + radius)
    return EnumWindow(tuple(lows), tuple(highs))


def enumerate_Q(inst: Instance, window: Optional[EnumWindow] = None,
                budget: int = 10 ** 7) -> List[tuple]:
    """All integral vectors inside the window satisfying the bounds and
    every cut inequality of the base function."""
    if window is None:
        window = window_from_bounds(inst)
    d = inst.digraph
    m = d.arc_count
    n = d.node_count
    if window.size() > budget:
        raise BudgetExceeded(f"lattice size {window.size()} exceeds budget {budget}")
    lows, highs = [], []
    for e in range(m):
        lo, hi = window.lows[e], window.highs[e]
        blo, bhi = inst.bounds.lower[e], inst.bounds.upper[e]
        if is_finite(blo):
            lo = max(lo, blo)
        if is_finite(bhi):
            hi = min(hi, bhi)
        if lo > hi:
            return []
        lows.append(lo)
        highs.append(hi)
    if m == 0:
        ok = all(inst.base.p(z) <= 0 for z in range(1 << n))
        return [()] if ok else []
    sizes = [hi - lo + 1 for lo, hi in zip(lows, highs)]
    total = 1
    for s in sizes:
        total *= s
    rows = []
    pvals = []
    p = inst.base.p
    for z in range(1 << n):
        pz = p(z)
        if pz is NEG_INF:
            continue
        row = [0] * m
        for e, (t, h) in enumerate(d.arcs):
            if (z >> h) & 1 and not (z >> t) & 1:
                row[e] = 1
            elif (z >> t) & 1 and not (z >> h) & 1:
                row[e] = -1
        rows.append(row)
        pvals.append(pz)
    # int64 while every cut sum of m window entries, a p value and a
    # window width stay below 2^62; exact Python ints otherwise
    big = max(map(abs, lows + highs + pvals))
    dtype = np.int64 if (m + 2) * big < 1 << 62 else object
    mat = np.array(rows, dtype=dtype).T if rows else np.zeros((m, 0), dtype=dtype)
    pv = np.array(pvals, dtype=dtype)
    lows_a = np.array(lows, dtype=dtype)
    points: List[tuple] = []
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        coords = np.empty((len(idx), m), dtype=dtype)
        rem = idx
        for e in range(m - 1, -1, -1):
            coords[:, e] = rem % sizes[e]
            rem = rem // sizes[e]
        vals = coords + lows_a
        feas = np.all(vals @ mat >= pv, axis=1) if rows else np.ones(len(idx), bool)
        for row in vals[feas]:
            points.append(tuple(int(v) for v in row))
    return points


def enumerate_base_points(base: BaseOracle, lo: int, hi: int) -> List[tuple]:
    """Integral points of the base polyhedron inside a uniform box."""
    n = base.n
    span = hi - lo + 1
    points = []
    stack = [((), 0)]
    while stack:
        prefix, total = stack.pop()
        k = len(prefix)
        if k == n:
            if total == 0 and base.contains(prefix):
                points.append(prefix)
            continue
        for v in range(lo, hi + 1):
            stack.append((prefix + (v,), total + v))
    return sorted(points)


def brute_decmin(points: Sequence[tuple], focus) -> List[tuple]:
    """Points whose focus profile is minimal under the decreasing order."""
    if not points:
        raise ValueError("no points to compare")
    focus = sorted(focus)
    if not focus:
        return list(points)
    best: List[tuple] = []
    for pt in points:
        profile = [pt[e] for e in focus]
        if not best:
            best = [pt]
            continue
        ref = [best[0][e] for e in focus]
        cmp = decmin_compare(profile, ref)
        if cmp < 0:
            best = [pt]
        elif cmp == 0:
            best.append(pt)
    return best


def brute_lupmin(points: Sequence[tuple], bounds, L) -> int:
    """Minimum over points of the number of upper-tight arcs inside L."""
    if not points:
        raise ValueError("no points to compare")
    L = sorted(L)
    return min(sum(1 for e in L if pt[e] == bounds.upper[e]) for pt in points)


def all_chains(n: int) -> Iterator[Chain]:
    """Every chain of nonempty proper subsets, by recursive extension."""
    full = (1 << n) - 1

    def extend(prefix: tuple, last: int) -> Iterator[tuple]:
        yield prefix
        for m in range(last + 1, full):
            if m != last and (m & last) == last:
                yield from extend(prefix + (m,), m)

    yield Chain(n, ())
    for first in range(1, full):
        for members in extend((first,), first):
            yield Chain(n, members)


def brute_chain_max(inst: Instance, L) -> Tuple[int, Chain]:
    """Best feasible chain and its dual value, by scanning every chain."""
    n = inst.digraph.node_count
    if n > 5:
        raise BudgetExceeded("chain enumeration limited to 5 nodes")
    d = inst.digraph
    b = inst.bounds
    p = inst.base.p
    L = sorted(L)
    best = 0
    best_chain = Chain(n, ())
    for chain in all_chains(n):
        total = 0
        feasible = True
        for c in chain:
            slack = cut_in_sum(d, b.upper, c) - cut_out_sum(d, b.lower, c) - p(c)
            if not is_finite(slack):
                feasible = False
                break
            total -= slack
        if not feasible:
            continue
        entering = 0
        for e in L:
            t, h = d.arcs[e]
            if any((c >> h) & 1 and not (c >> t) & 1 for c in chain):
                entering += 1
        value = entering + total
        if value > best:
            best = value
            best_chain = chain
    return best, best_chain


def convex_cost_min(points: Sequence[tuple], focus) -> List[tuple]:
    """Minimizers of the exponential surrogate cost over the focus arcs.

    Base |F| (at least 2) raised to the shifted flow value; exact big-int
    arithmetic, so the comparison against the profile order has no
    tolerance to hide behind.
    """
    if not points:
        raise ValueError("no points to compare")
    focus = sorted(focus)
    if not focus:
        return list(points)
    base = max(len(focus), 2)
    shift = min(pt[e] for pt in points for e in focus)
    best_cost = None
    best: List[tuple] = []
    for pt in points:
        c = sum(base ** (pt[e] - shift) for e in focus)
        if best_cost is None or c < best_cost:
            best_cost, best = c, [pt]
        elif c == best_cost:
            best.append(pt)
    return best
