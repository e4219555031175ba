from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairflow.core import NEG_INF, Bounds, Chain, Digraph
from fairflow.baseflow import Instance
from fairflow.oracle import (
    BudgetExceeded,
    EnumWindow,
    all_chains,
    brute_chain_max,
    brute_decmin,
    brute_lupmin,
    convex_cost_min,
    enumerate_Q,
    window_from_bounds,
)
from fairflow.setfn import BaseOracle


class TestEnumerate:
    def test_circulation_diagonal(self, i1):
        assert enumerate_Q(i1) == [(0, 0), (1, 1), (2, 2)]

    def test_tight_instance(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((1, 1), (1, 1)), BaseOracle.zero(2))
        assert enumerate_Q(inst) == [(1, 1)]
        bad = Instance(d, Bounds((1, 0), (1, 0)), BaseOracle.zero(2))
        assert enumerate_Q(bad) == []

    def test_forced_parallel(self, i6):
        assert enumerate_Q(i6) == [(1, 1)]

    def test_budget_guard(self, i1):
        with pytest.raises(BudgetExceeded):
            enumerate_Q(i1, EnumWindow((-100, -100), (100, 100)), budget=100)

    def test_no_arcs(self):
        d = Digraph(2, ())
        assert enumerate_Q(Instance(d, Bounds((), ()), BaseOracle.zero(2))) == [()]


# offsets near both ends of int64 and past them, where int64 sums wrap
NEAR_INT64 = [0, 1 << 62, 1 << 63, 1 << 64, -(1 << 62), -(1 << 63), -(1 << 64)]


def ref_enumerate_Q(inst):
    """`enumerate_Q` over finite bounds, on Python ints only: each point of
    the box whose net in-flow into every set is at least its p value."""
    d, b, p = inst.digraph, inst.bounds, inst.base.p
    points = []
    for x in product(*(range(lo, hi + 1) for lo, hi in zip(b.lower, b.upper))):
        inflow = [sum(x[e] for e, (t, h) in enumerate(d.arcs) if (z >> h) & 1 and not (z >> t) & 1)
                  - sum(x[e] for e, (t, h) in enumerate(d.arcs) if (z >> t) & 1 and not (z >> h) & 1)
                  for z in range(1 << d.node_count)]
        if all(p(z) is NEG_INF or inflow[z] >= p(z) for z in range(1 << d.node_count)):
            points.append(x)
    return points


@st.composite
def instances_near_int64(draw):
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, 3))
    arcs = tuple(draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda a: a[0] != a[1])) for _ in range(m))
    lower = [draw(st.sampled_from(NEAR_INT64)) + draw(st.integers(-2, 2)) for _ in range(m)]
    upper = [lo + draw(st.integers(0, 2)) for lo in lower]
    table = [0] * (1 << n)
    for z in range(1, (1 << n) - 1):
        table[z] = draw(st.one_of(st.just(NEG_INF), st.integers(-8, 8),
                                  st.sampled_from(NEAR_INT64[1:]).map(lambda c: c - 4),
                                  st.builds(int.__add__, st.sampled_from(NEAR_INT64),
                                            st.integers(-3, 3))))
    return Instance(Digraph(n, arcs), Bounds(tuple(lower), tuple(upper)),
                    BaseOracle.from_table(n, table))


class TestEnumerateNearInt64:
    @settings(max_examples=150, deadline=None)
    @given(instances_near_int64())
    def test_matches_pure_python_reference(self, inst):
        assert enumerate_Q(inst) == ref_enumerate_Q(inst)

    def test_four_arcs_at_2_62_stay_infeasible(self):
        # their cut sum 2^64 wrapped to 0 in int64, above the zero base
        g = 1 << 62
        inst = Instance(Digraph(2, ((0, 1),) * 4), Bounds((g,) * 4, (g,) * 4), BaseOracle.zero(2))
        assert enumerate_Q(inst) == ref_enumerate_Q(inst) == []


class TestBruteDecmin:
    def test_single_focus(self, i1):
        pts = enumerate_Q(i1)
        assert brute_decmin(pts, {0}) == [(0, 0)]

    def test_empty_focus_returns_all(self, i1):
        pts = enumerate_Q(i1)
        assert brute_decmin(pts, frozenset()) == pts

    def test_singleton_set(self, i6):
        assert brute_decmin([(1, 1)], {0, 1}) == [(1, 1)]

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            brute_decmin([], {0})


class TestBruteLupmin:
    def test_forced(self, i6):
        assert brute_lupmin(enumerate_Q(i6), i6.bounds, {0, 1}) == 2

    def test_avoidable(self, i1):
        assert brute_lupmin(enumerate_Q(i1), i1.bounds, {0}) == 0

    def test_empty_l(self, i1):
        assert brute_lupmin(enumerate_Q(i1), i1.bounds, frozenset()) == 0


class TestChains:
    def test_count_on_three_nodes(self):
        # ordered set compositions of a 3-set, all lengths
        assert sum(1 for _ in all_chains(3)) == 13

    def test_all_valid(self):
        for chain in all_chains(4):
            Chain(4, chain.members)  # re-validate


class TestBruteChainMax:
    def test_nonnegative(self, i1):
        value, chain = brute_chain_max(i1, frozenset())
        assert value == 0 and len(chain) == 0

    def test_forced_parallel(self, i6):
        value, chain = brute_chain_max(i6, {0, 1})
        assert value == 2
        assert chain.members == (0b10,)

    def test_slack_instance(self, i1):
        assert brute_chain_max(i1, {0})[0] == 0

    def test_node_limit(self):
        d = Digraph(6, ((0, 1),))
        inst = Instance(d, Bounds((0,), (1,)), BaseOracle.zero(6))
        with pytest.raises(BudgetExceeded):
            brute_chain_max(inst, {0})


class TestConvexCost:
    def test_prefers_flat_profile(self):
        pts = [(1, 1), (2, 0)]
        assert convex_cost_min(pts, {0, 1}) == [(1, 1)]

    def test_circulation(self, i1):
        assert convex_cost_min(enumerate_Q(i1), {0}) == [(0, 0)]

    def test_singleton_focus_minimizes_value(self):
        pts = [(3, 9), (1, 9), (2, 9)]
        assert convex_cost_min(pts, {0}) == [(1, 9)]

    def test_negative_values_shifted(self):
        pts = [(-5, 0), (-1, -4)]
        assert convex_cost_min(pts, {0, 1}) == [(-1, -4)]


class TestWindow:
    def test_finite_bounds_pass_through(self, i1):
        w = window_from_bounds(i1)
        assert w.lows == (0, 0) and w.highs == (2, 2)

    def test_infinite_bounds_use_radius(self, i4):
        w = window_from_bounds(i4, radius=2)
        assert w.lows == (-2, 0) and w.highs == (0, 2)

    def test_centered(self, i4):
        w = window_from_bounds(i4, radius=1, center=(5, 5))
        assert w.lows == (4, 0) and w.highs == (0, 6)
