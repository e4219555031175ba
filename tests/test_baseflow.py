import random

import pytest

from fairflow.core import Bounds, Digraph, NEG_INF, POS_INF
from fairflow.baseflow import (
    DualPotential,
    Infeasible,
    Instance,
    check_feasible,
    cut_slack,
    exchange_capacity,
    find_feasible,
    membership,
    min_cost_flow,
    verify_optimality,
)
from fairflow.setfn import BaseOracle
from fairflow.oracle import enumerate_Q

from conftest import all_small_digraphs, feasible_corpus, random_instance


class TestCheckFeasible:
    def test_circulation_witness(self, i1):
        cert = check_feasible(i1)
        assert cert.feasible and membership(i1, cert.witness)

    def test_raised_demand_violator(self, i1):
        # cap 2 on entering arcs cannot cover demand 3 at b
        base = BaseOracle.from_table(2, [0, -3, 3, 0])
        bad = i1.with_base(base)
        cert = check_feasible(bad)
        assert not cert.feasible
        assert cert.violator == 0b10 and cert.deficit == -1

    def test_tight_zero_circulation(self):
        d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        inst = Instance(d, Bounds((0, 0, 0), (0, 0, 0)), BaseOracle.zero(3))
        cert = check_feasible(inst)
        assert cert.feasible and cert.witness == (0, 0, 0)

    def test_agrees_with_enumeration(self):
        rng = random.Random(21)
        graphs = all_small_digraphs(4, 4)
        for _ in range(400):
            inst = random_instance(rng, rng.choice(graphs))
            cert = check_feasible(inst)
            points = enumerate_Q(inst)
            assert cert.feasible == bool(points)
            if not cert.feasible:
                assert cut_slack(inst, cert.violator) < 0


class TestFindFeasible:
    def test_forced_when_tight(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((1, 1), (1, 1)), BaseOracle.zero(2))
        assert find_feasible(inst) == (1, 1)

    def test_unique_point(self, i6):
        assert find_feasible(i6) == (1, 1)

    def test_infeasible_raises(self, i1):
        bad = i1.with_base(BaseOracle.from_table(2, [0, -3, 3, 0]))
        with pytest.raises(Infeasible):
            find_feasible(bad)

    def test_membership_on_corpus(self):
        for inst in feasible_corpus(99, 120):
            x = find_feasible(inst)
            assert membership(inst, x)

    def test_deterministic(self):
        for inst in feasible_corpus(7, 40):
            assert find_feasible(inst) == find_feasible(inst)


class TestExchangeCapacity:
    def test_singleton_base(self):
        base = BaseOracle.zero(2)
        assert exchange_capacity(base, (0, 0), 0, 1) == 0

    def test_unconstrained(self):
        table = [NEG_INF] * 4
        table[0] = table[3] = 0
        base = BaseOracle.from_table(2, table)
        assert exchange_capacity(base, (0, 0), 0, 1) is POS_INF

    def test_three_point_base(self, b3_points):
        base = BaseOracle.from_points(b3_points, 2)
        assert exchange_capacity(base, (1, -1), 0, 1) == 2

    def test_same_endpoints_rejected(self, b3_points):
        base = BaseOracle.from_points(b3_points, 2)
        with pytest.raises(ValueError):
            exchange_capacity(base, (1, -1), 0, 0)

    def test_cap_is_exact(self, b3_points):
        base = BaseOracle.from_points(b3_points, 2)
        for y in b3_points:
            for s, t in ((0, 1), (1, 0)):
                cap = exchange_capacity(base, y, s, t)
                assert isinstance(cap, int)
                for a in range(cap + 1):
                    moved = list(y)
                    moved[s] -= a
                    moved[t] += a
                    assert base.contains(moved)
                moved = list(y)
                moved[s] -= cap + 1
                moved[t] += cap + 1
                assert not base.contains(moved)


class TestMinCostFlow:
    def test_zero_cost_any_feasible(self, i1):
        x, pi = min_cost_flow(i1, (0, 0))
        assert membership(i1, x)
        assert pi.values == (0, 0)

    @pytest.mark.parametrize("cost", [(1,), (1, 0, 0)])
    def test_cost_length_checked(self, i1, cost):
        with pytest.raises(ValueError, match="cost length must match arc count"):
            min_cost_flow(i1, cost)

    def test_prefers_cheap_arc(self, i1):
        x, pi = min_cost_flow(i1, (1, 0))
        assert x == (0, 0)
        assert pi.values == (0, 0)

    def test_augmented_parallel_instance(self, i6):
        # unit-cost copies of both arcs with originals capped one lower
        d = Digraph(2, ((0, 1),) * 4)
        inst = Instance(d, Bounds((0, 0, 0, 0), (0, 0, 1, 1)), i6.base)
        x, pi = min_cost_flow(inst, (0, 0, 1, 1))
        assert sum(x[2:]) == 2
        assert pi.values == (0, 1)

    def test_negative_costs(self, i1):
        x, _ = min_cost_flow(i1, (-1, 0))
        assert x == (2, 2)

    def test_all_tight_short_circuit(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((2, 2), (2, 2)), BaseOracle.zero(2))
        x, pi = min_cost_flow(inst, (7, -7))
        assert x == (2, 2) and pi.values == (0, 0)

    def test_infinite_bound_with_cost_rejected(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((0, 0), (POS_INF, POS_INF)), BaseOracle.zero(2))
        with pytest.raises(ValueError):
            min_cost_flow(inst, (1, 0))

    def test_optimal_on_corpus(self):
        rng = random.Random(31)
        for inst in feasible_corpus(13, 80, require_arcs=True):
            cost = tuple(rng.randint(-3, 3) for _ in inst.digraph.arc_ids())
            if any(c != 0 and not (isinstance(inst.bounds.lower[e], int)
                                   and isinstance(inst.bounds.upper[e], int))
                   for e, c in enumerate(cost)):
                continue
            x, pi = min_cost_flow(inst, cost)
            got = sum(cost[e] * x[e] for e in inst.digraph.arc_ids())
            best = min(sum(cost[e] * p[e] for e in inst.digraph.arc_ids())
                       for p in enumerate_Q(inst))
            assert got == best
            verify_optimality(inst, cost, x, pi)


class TestDualPotential:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            DualPotential((1, 2))
        with pytest.raises(ValueError):
            DualPotential((-1, 0))
        assert DualPotential((0, 3))[1] == 3
