import math
import operator
import random

import numpy as np
import pytest

from fairflow.core import (
    ArcChainRole,
    Bounds,
    Chain,
    Digraph,
    NEG_INF,
    POS_INF,
    chain_classify,
    chain_entering_count,
    crossing_views,
    cut_in_sum,
    cut_net,
    decmin_compare,
    node_net_inflow,
)
from fairflow.orient import MixedGraph


class TestExtInt:
    def test_order(self):
        assert NEG_INF < -10 ** 9 < 10 ** 9 < POS_INF
        assert not POS_INF < POS_INF
        assert POS_INF <= POS_INF and NEG_INF >= NEG_INF
        assert max(3, POS_INF) is POS_INF
        assert min(3, NEG_INF) is NEG_INF

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge],
                             ids=["<", "<=", ">", ">="])
    def test_order_table(self, op):
        # every ordered pair, so both operand orders, against float stand-ins
        values = (NEG_INF, -1, 0, 7, POS_INF)
        floats = (-math.inf, -1.0, 0.0, 7.0, math.inf)
        for a, fa in zip(values, floats):
            for b, fb in zip(values, floats):
                assert op(a, b) is op(fa, fb), (a, b)

    def test_absorbing_addition(self):
        assert POS_INF + 5 is POS_INF
        assert 5 + NEG_INF is NEG_INF
        assert POS_INF + POS_INF is POS_INF

    def test_opposite_infinities_rejected(self):
        with pytest.raises(ArithmeticError):
            POS_INF + NEG_INF
        with pytest.raises(ArithmeticError):
            POS_INF - POS_INF

    def test_subtraction_and_negation(self):
        assert -POS_INF is NEG_INF
        assert 3 - NEG_INF is POS_INF
        assert NEG_INF - 7 is NEG_INF


class TestDigraph:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Digraph(2, ((0, 0),))

    def test_parallel_arcs_kept(self):
        d = Digraph(2, ((0, 1), (0, 1)))
        assert d.arc_count == 2
        assert d.arcs[0] == d.arcs[1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Digraph(2, ((0, 2),))

    @staticmethod
    def crossing_masks(n, inside, outside):
        masks = np.arange(1 << n)
        shape, enter, leave = crossing_views(n, inside, outside)
        views = masks.reshape(shape)[enter], masks.reshape(shape)[leave]
        assert all(v.ndim == 3 and np.shares_memory(v, masks) for v in views)
        return [sorted(v.ravel().tolist()) for v in views]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_crossing_views_select_the_crossing_sets(self, n):
        for inside in range(n):
            for outside in set(range(n)) - {inside}:
                enter = [z for z in range(1 << n) if (z >> inside) & 1 and not (z >> outside) & 1]
                leave = [z for z in range(1 << n) if (z >> outside) & 1 and not (z >> inside) & 1]
                assert self.crossing_masks(n, inside, outside) == [enter, leave]

    def test_crossing_views_at_max_nodes(self):
        n, inside, outside = 20, 3, 17
        z = np.arange(1 << n)
        enter = z[((z >> inside) & 1 == 1) & ((z >> outside) & 1 == 0)].tolist()
        leave = z[((z >> outside) & 1 == 1) & ((z >> inside) & 1 == 0)].tolist()
        assert self.crossing_masks(n, inside, outside) == [enter, leave]

    def test_arc_views_cross_each_arc(self):
        d = Digraph(3, ((0, 2), (2, 1), (0, 2)))
        assert d.arc_views == tuple(crossing_views(3, h, t) for t, h in d.arcs)


class TestBounds:
    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Bounds((1,), (0,))

    def test_wrong_infinities_rejected(self):
        with pytest.raises(ValueError):
            Bounds((POS_INF,), (POS_INF,))
        with pytest.raises(ValueError):
            Bounds((NEG_INF,), (NEG_INF,))

    def test_infinite_sides_allowed(self):
        b = Bounds((NEG_INF, 0), (0, POS_INF))
        assert not b.is_tight(0) and not b.is_tight(1)


class TestIntegerInputs:
    """Bounds, endpoints and the connectivity target are integers: no
    numpy scalar, float or bool is read as one."""

    @pytest.mark.parametrize("make, match", [
        (lambda: Bounds((np.int64(0), 0), (2, 2)), "arc 0: lower bound .* is not an integer"),
        (lambda: Bounds((0, 0), (2.0, 2)), "arc 0: upper bound 2.0 is not an integer"),
        (lambda: Bounds((0, 0.5), (2, 2)), "arc 1: lower bound 0.5 is not an integer"),
        (lambda: Bounds((True, 0), (2, 2)), "arc 0: lower bound True is not an integer"),
        (lambda: Digraph(3, ((0.7, 1.9),)), "node 0.7 is not an integer"),
        (lambda: MixedGraph(3, ((0, 1.0),), ()), "node 1.0 is not an integer"),
        (lambda: MixedGraph(3, (), ((0, 1), (1, 2), (2, 0)), k=1.5),
         "connectivity target must be an integer of at least 1, got 1.5"),
        (lambda: MixedGraph(3, (), ((0, 1), (1, 2), (2, 0)), k=True), "got True"),
    ], ids=["numpy-int", "float-upper", "float-lower", "bool", "float-endpoint",
            "float-mixed-endpoint", "float-k", "bool-k"])
    def test_non_integers_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_infinity_checks_come_first(self):
        with pytest.raises(ValueError, match=r"^arc 0: lower bound is \+inf$"):
            Bounds((POS_INF,), (0.5,))
        with pytest.raises(ValueError, match=r"^arc 0: upper bound is -inf$"):
            Bounds((0.5,), (NEG_INF,))


class TestValidation:
    def test_node_cap(self):
        with pytest.raises(ValueError):
            Digraph(21, ())

    def test_instance_shape_checks(self):
        from fairflow.baseflow import Instance
        from fairflow.setfn import BaseOracle

        d = Digraph(2, ((0, 1),))
        with pytest.raises(ValueError):
            Instance(d, Bounds((0, 0), (1, 1)), BaseOracle.zero(2))
        with pytest.raises(ValueError):
            Instance(d, Bounds((0,), (1,)), BaseOracle.zero(3))
        with pytest.raises(ValueError):
            Instance(d, Bounds((0,), (1,)), BaseOracle.zero(2), frozenset([5]))

    def test_base_oracle_requires_zero_total(self):
        from fairflow.setfn import BaseOracle

        with pytest.raises(ValueError):
            BaseOracle.from_table(2, [0, 0, 0, 1])


class TestChain:
    def test_strict_nesting_enforced(self):
        Chain(3, (0b001, 0b011))
        with pytest.raises(ValueError):
            Chain(3, (0b011, 0b001))
        with pytest.raises(ValueError):
            Chain(3, (0b001, 0b001))

    def test_proper_nonempty(self):
        with pytest.raises(ValueError):
            Chain(2, (0b11,))
        with pytest.raises(ValueError):
            Chain(2, (0,))


class TestCutFlow:
    def test_zero_flow(self):
        d = Digraph(3, ((0, 1), (1, 2)))
        for z in range(8):
            assert cut_net(d, (0, 0), z) == 0

    def test_two_cycle_balance(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        assert cut_net(d, (2, 2), 0b10) == 0

    def test_infinite_absorption(self):
        d = Digraph(2, ((0, 1),))
        assert cut_in_sum(d, (POS_INF,), 0b10) is POS_INF

    def test_same_sign_difference_rejected(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        with pytest.raises(ArithmeticError):
            cut_net(d, (POS_INF, POS_INF), 0b10)

    def test_complement_antisymmetry(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 4)
            arcs = tuple((u, v) for u in range(n) for v in range(n) if u != v)
            d = Digraph(n, arcs)
            x = tuple(rng.randint(-3, 3) for _ in arcs)
            full = (1 << n) - 1
            assert cut_net(d, x, full) == 0
            for z in range(1 << n):
                assert cut_net(d, x, z) + cut_net(d, x, full ^ z) == 0

    def test_node_net_inflow(self):
        d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        assert node_net_inflow(d, (1, 2, 3)) == (2, -1, -1)


class TestChainClassify:
    def test_entering_single(self):
        d = Digraph(2, ((0, 1),))
        role = chain_classify(d, Chain(2, (0b10,)), 0)
        assert role == ArcChainRole("entering", 1, 0)

    def test_entering_two(self):
        d = Digraph(3, ((0, 1),))
        role = chain_classify(d, Chain(3, (0b010, 0b110)), 0)
        assert role.kind == "entering" and role.enters == 2

    def test_leaving(self):
        d = Digraph(2, ((1, 0),))
        assert chain_classify(d, Chain(2, (0b10,)), 0).kind == "leaving"

    def test_mixed_only_for_non_nested(self):
        d = Digraph(3, ((0, 1),))
        role = chain_classify(d, [0b010, 0b001], 0)  # enters {b}, leaves {a}
        assert role.kind == "mixed"

    def test_chains_never_mixed(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 5)
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            d = Digraph(n, tuple(arcs))
            members = []
            mask = 0
            for v in rng.sample(range(n), n - 1):
                mask |= 1 << v
                if rng.random() < 0.6:
                    members.append(mask)
            if not members:
                continue
            chain = Chain(n, tuple(members))
            for e in d.arc_ids():
                assert chain_classify(d, chain, e).kind != "mixed"


class TestChainEnteringCount:
    def test_empty(self):
        d = Digraph(2, ((0, 1),))
        assert chain_entering_count(d, Chain(2, (0b10,)), []) == 0

    def test_parallel_pair(self):
        d = Digraph(2, ((0, 1), (0, 1)))
        assert chain_entering_count(d, Chain(2, (0b10,)), [0, 1]) == 2

    def test_counted_once(self):
        d = Digraph(3, ((0, 1),))
        assert chain_entering_count(d, Chain(3, (0b010, 0b110)), [0]) == 1


class TestDecminCompare:
    @pytest.mark.parametrize("u,v,expect", [
        ((3, 1, 1), (2, 2, 2), 1),
        ((2, 2), (2, 2), 0),
        ((5, 0), (4, 4), 1),
        ((1, 0), (1, 1), -1),
        ((0, 2, 1), (2, 1, 0), 0),
    ])
    def test_examples(self, u, v, expect):
        assert decmin_compare(u, v) == expect

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            decmin_compare((1,), (1, 2))

    def test_total_and_transitive(self):
        rng = random.Random(5)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(30)]
        for a in vecs:
            for b in vecs:
                cab = decmin_compare(a, b)
                assert cab == -decmin_compare(b, a)
                for c in vecs:
                    if cab <= 0 and decmin_compare(b, c) <= 0:
                        assert decmin_compare(a, c) <= 0
                assert (cab == 0) == (sorted(a, reverse=True) == sorted(b, reverse=True))
