import random
from typing import Optional, Sequence, Tuple
from unittest import mock

import pytest

from fairflow import baseflow, core, decmin, lupmin
from fairflow.core import Bounds, Chain, Digraph, POS_INF, chain_classify, cut_net, node_net_inflow
from fairflow.baseflow import (
    CertificateError,
    DualPotential,
    Instance,
    membership,
    min_cost_flow,
    verify_optimality,
)
from fairflow.lupmin import (
    chain_value,
    derive_bounds,
    extract_chain,
    lupmin_solve,
    saturated_count,
)
from fairflow.orient import MixedGraph, hub_instance
from fairflow.setfn import BaseOracle, ExtArray, subset_sums
from fairflow.oracle import (
    all_chains,
    brute_chain_max,
    brute_lupmin,
    enumerate_Q,
)

from conftest import feasible_corpus


def _ldef_subsets(inst):
    """Nonempty arc sets with finite non-tight bounds, smallest first."""
    b = inst.bounds
    eligible = [e for e in inst.digraph.arc_ids()
                if isinstance(b.lower[e], int) and isinstance(b.upper[e], int)
                and b.lower[e] < b.upper[e]]
    out = []
    for mask in range(1, 1 << len(eligible)):
        out.append(frozenset(eligible[i] for i in range(len(eligible))
                             if (mask >> i) & 1))
    return out


_CRITERIA = ("O1", "O2", "O3", "O4", "O5", "O6")


def check_optimality_criteria(inst: Instance, L, chain: Chain,
                              x: Sequence[int]) -> Tuple[bool, Optional[str]]:
    """Evaluate the six tightness criteria of a chain against a flow.

    The conjunction must coincide with membership of x in the narrowed
    polyhedron; both predicates are computed and compared, and a mismatch
    raises (it would mean the case table and the criteria drifted apart).
    """
    L = frozenset(L)
    d = inst.digraph
    b = inst.bounds
    failed = None
    for e in range(d.arc_count):
        role = chain_classify(d, chain, e)
        lo, hi = b.lower[e], b.upper[e]
        if role.kind == "leaving" and x[e] != lo:
            failed = "O1"
            break
        if e not in L and role.kind == "entering" and x[e] != hi:
            failed = "O2"
            break
        if e in L and role.kind == "entering":
            if role.enters == 1 and not hi - 1 <= x[e] <= hi:
                failed = "O3"
                break
            if role.enters >= 2 and x[e] != hi:
                failed = "O4"
                break
        if e in L and role.kind == "neutral" and not lo <= x[e] <= hi - 1:
            failed = "O5"
            break
    if failed is None:
        p = inst.base.p
        for c in chain:
            if cut_net(d, x, c) != p(c):
                failed = "O6"
                break
    ok = failed is None
    bounds_l = derive_bounds(inst, L, chain)
    face = inst.base.face_contract(chain)
    member = membership(Instance(d, bounds_l, face), x)
    if member != ok:
        raise CertificateError(
            f"criteria verdict {ok} disagrees with membership {member}")
    return ok, failed


def unit_arcs(inst, x, L):
    """The up and down aux arcs at x under zero costs with L saturating,
    as (tag, cost, width) triples."""
    sums = subset_sums(node_net_inflow(inst.digraph, x))
    cost = (0,) * inst.digraph.arc_count
    return [(arc[3], arc[2], baseflow._bottleneck(inst, x, sums, [arc], L))
            for arc in baseflow._aux_arcs(inst, x, sums, cost, L) if arc[3][0] != "exch"]


class TestAugment:
    """The two-slope unit costs and widths that lupmin's augmentations
    run on: the last unit of an L-arc, from g - 1 to g, costs one more."""

    def test_empty_l_unchanged(self, i1):
        for cost in ((0, 0), (1, 0), (-1, 2)):
            assert min_cost_flow(i1, cost, saturating=frozenset()) == min_cost_flow(i1, cost)
        for x in ((0, 0), (1, 1), (2, 2)):
            assert sorted(unit_arcs(i1, x, frozenset())) == sorted(
                [(("up", e), 0, 2 - x[e]) for e in (0, 1) if x[e] < 2]
                + [(("down", e), 0, x[e]) for e in (0, 1) if x[e] > 0])

    def test_parallel_copies(self, i6):
        # width-one arcs: g - 1 is the lower bound, so every unit is the last
        assert unit_arcs(i6, (0, 0), {0, 1}) == [(("up", 0), 1, 1), (("up", 1), 1, 1)]
        assert unit_arcs(i6, (1, 1), {0, 1}) == [(("down", 0), -1, 1), (("down", 1), -1, 1)]
        assert unit_arcs(i6, (1, 1), {0}) == [(("down", 0), -1, 1), (("down", 1), 0, 1)]
        res = lupmin_solve(i6, {0, 1})
        assert (res.min_saturated, res.witness) == (2, (1, 1))

    def test_single_arc_formula(self):
        d = Digraph(2, ((0, 1),))
        inst = Instance(d, Bounds((0,), (5,)), BaseOracle.zero(2))
        # (up cost, up width, down cost, down width) at x = 0..5
        want = [(0, 4, None, None), (0, 3, 0, 1), (0, 2, 0, 2), (0, 1, 0, 3),
                (1, 1, 0, 4), (None, None, -1, 1)]
        for x, (up, up_w, down, down_w) in enumerate(want):
            got = {tag[0]: (c, w) for tag, c, w in unit_arcs(inst, (x,), {0})}
            assert got.get("up", (None, None)) == (up, up_w)
            assert got.get("down", (None, None)) == (down, down_w)

    def test_tight_arc_rejected(self):
        d = Digraph(2, ((0, 1),))
        inst = Instance(d, Bounds((2,), (2,)), BaseOracle.zero(2))
        with mock.patch.object(lupmin, "min_cost_flow", side_effect=AssertionError):
            with pytest.raises(ValueError, match="no tight arcs"):
                lupmin_solve(inst, {0})

    def test_infinite_bound_rejected(self):
        d = Digraph(2, ((0, 1),))
        inst = Instance(d, Bounds((0,), (POS_INF,)), BaseOracle.zero(2))
        with pytest.raises(ValueError, match="finite bounds"):
            lupmin_solve(inst, {0})
        with pytest.raises(ValueError, match="finite bounds"):
            min_cost_flow(inst, (0,), saturating={0})


class TestTwoSlopeCertificate:
    """verify_optimality with saturating arcs on arc 0 = a -> b of a
    two-node circulation; arc 1 = b -> a sits at its lower bound, and the
    zero base makes {b} tight at every such x."""

    @staticmethod
    def circulation(x):
        d = Digraph(2, ((0, 1), (1, 0)))
        return Instance(d, Bounds((0, x), (3, 3)), BaseOracle.zero(2)), (x, x)

    @pytest.mark.parametrize("x, rise, ok", [
        (1, 0, True), (1, 1, False),  # below the breakpoint the slope is 0
        (2, 1, True), (2, 2, False),  # at g - 1 the next unit costs 1
        (3, 1, True), (3, 0, False),  # at g the last unit costs 1
    ])
    def test_rise_against_the_two_slopes(self, x, rise, ok):
        inst, flow = self.circulation(x)
        pi = DualPotential((0, rise))
        if ok:
            verify_optimality(inst, (0, 0), flow, pi, saturating={0})
        else:
            with pytest.raises(CertificateError, match=r"arc 0: rise"):
                verify_optimality(inst, (0, 0), flow, pi, saturating={0})

    def test_breakpoint_is_what_admits_the_rise(self):
        # rise 1 at g - 1 and at g is optimal only with arc 0 saturating
        for x in (2, 3):
            inst, flow = self.circulation(x)
            verify_optimality(inst, (0, 0), flow, DualPotential((0, 1)), saturating={0})
            if x == 2:
                with pytest.raises(CertificateError, match="arc 0: rise 1 exceeds cost 0"):
                    verify_optimality(inst, (0, 0), flow, DualPotential((0, 1)))

    def test_flow_left_at_g_on_corpus(self):
        # raising an L-arc of a lupmin witness from g - 1 to g where the
        # potentials rise by less than 1 is caught at that arc
        rng = random.Random(22)
        caught = 0
        for inst in feasible_corpus(22, 80, max_nodes=4, require_arcs=True):
            L = random_l(rng, inst)
            if L is None:
                continue
            x, pi = min_cost_flow(inst, (0,) * inst.digraph.arc_count, saturating=L)
            verify_optimality(inst, (0,) * len(x), x, pi, saturating=L)
            for e in sorted(L):
                u, v = inst.digraph.arcs[e]
                if x[e] == inst.bounds.upper[e] - 1 and pi[v] - pi[u] < 1:
                    y = list(x)
                    y[e] += 1
                    with pytest.raises(CertificateError, match=rf"arc {e}: rise .* below cost 1"):
                        verify_optimality(inst, (0,) * len(x), y, pi, saturating=L)
                    caught += 1
        assert caught > 30


def random_l(rng, inst):
    """A random nonempty set of finite non-tight arcs, or None."""
    b = inst.bounds
    eligible = [e for e in inst.digraph.arc_ids() if isinstance(b.lower[e], int)
                and isinstance(b.upper[e], int) and b.lower[e] != b.upper[e]]
    if not eligible:
        return None
    return frozenset(rng.sample(eligible, rng.randint(1, len(eligible))))


def ref_clone_instance(inst, L):
    """The textbook reduction lupmin_solve ran before two-slope costs:
    each L-arc gets a parallel [0, 1] copy of cost one, and the original's
    upper bound drops by one.  Returns the instance and its costs."""
    d, b = inst.digraph, inst.bounds
    L = sorted(L)
    clone = Instance(Digraph(d.node_count, d.arcs + tuple(d.arcs[e] for e in L)),
                     Bounds(b.lower + (0,) * len(L),
                            tuple(g - (e in L) for e, g in enumerate(b.upper)) + (1,) * len(L)),
                     inst.base)
    return clone, (0,) * d.arc_count + (1,) * len(L)


def ref_clone_lupmin(inst, L):
    """min_saturated and the chain value of lupmin on the clone reduction:
    a plain minimum-cost solve whose optimum counts the copies at 1, with
    the chain read off its potentials and valued on `inst`."""
    clone, cost = ref_clone_instance(inst, L)
    x1, pi = min_cost_flow(clone, cost)
    primal = sum(c * v for c, v in zip(cost, x1))
    m = inst.digraph.arc_count
    x = list(x1[:m])
    for i, e in enumerate(sorted(L)):
        x[e] += x1[m + i]
    assert saturated_count(inst.bounds, L, x) == primal
    return primal, chain_value(inst, L, extract_chain(pi, inst.digraph.node_count))


class TestCloneReference:
    def test_same_optimum_and_chain_value(self):
        rng = random.Random(24)
        saturated = set()
        for inst in feasible_corpus(24, 150, max_nodes=4, require_arcs=True):
            L = random_l(rng, inst)
            if L is None:
                continue
            res = lupmin_solve(inst, L)
            want, value = ref_clone_lupmin(inst, L)
            assert res.min_saturated == want == value
            assert chain_value(inst, L, res.chain) == value
            saturated.add(want)
        assert saturated >= {0, 1, 2}


class TestAugmentedSlack:
    """lupmin builds no slack table: it reads the instance's own, which the
    clone reduction's table equals."""

    def test_equals_a_fresh_plus_cut(self):
        rng = random.Random(20)
        nonpositive = 0
        for inst in feasible_corpus(20, 150, max_nodes=4, require_arcs=True):
            L = random_l(rng, inst)
            if L is None:
                continue
            nonpositive += any(inst.bounds.upper[e] <= 0 for e in L)
            clone, _ = ref_clone_instance(inst, L)
            b = clone.bounds
            fresh = (-clone.base.values).plus_cut(clone.digraph, b.upper, b.lower)
            got = inst.slack
            assert got.fin.tolist() == fresh.fin.tolist()
            assert got.pos.tolist() == fresh.pos.tolist()
            assert got.neg.tolist() == fresh.neg.tolist()
        assert nonpositive > 20

    def test_lupmin_builds_no_slack_table(self):
        # plus_cut and shift_cut both run _move_cut
        rng = random.Random(21)
        solved = 0
        for inst in feasible_corpus(21, 60, max_nodes=4, require_arcs=True):
            L = random_l(rng, inst)
            if L is None:
                continue
            inst.slack
            with mock.patch.object(ExtArray, "_move_cut", side_effect=AssertionError):
                lupmin_solve(inst, L)
            solved += 1
        assert solved > 30


class TestExtractChain:
    def test_flat_potentials(self):
        assert len(extract_chain(DualPotential((0, 0)), 2)) == 0

    def test_single_level(self):
        chain = extract_chain(DualPotential((0, 1)), 2)
        assert chain.members == (0b10,)

    def test_gap_levels_collapse(self):
        chain = extract_chain(DualPotential((0, 2)), 2)
        assert chain.members == (0b10,)

    def test_nested_levels(self):
        chain = extract_chain(DualPotential((0, 1, 2)), 3)
        assert chain.members == (0b100, 0b110)


class TestDeriveBounds:
    def test_empty_chain(self, i1):
        b = derive_bounds(i1, {0}, Chain(2, ()))
        assert (b.lower[0], b.upper[0]) == (0, 1)  # neutral L-arc caps one below
        assert (b.lower[1], b.upper[1]) == (0, 2)  # other arcs untouched

    def test_entering_once(self, i6):
        b = derive_bounds(i6, {0, 1}, Chain(2, (0b10,)))
        assert (b.lower[0], b.upper[0]) == (0, 1)
        assert (b.lower[1], b.upper[1]) == (0, 1)

    def test_non_l_leaving_pinned(self, i1):
        b = derive_bounds(i1, {0}, Chain(2, (0b10,)))
        assert (b.lower[1], b.upper[1]) == (0, 0)  # return arc leaves {b}

    def test_infinite_entering_rejected(self):
        d = Digraph(2, ((0, 1),))
        inst = Instance(d, Bounds((0,), (POS_INF,)), BaseOracle.zero(2))
        with pytest.raises(ValueError):
            derive_bounds(inst, frozenset(), Chain(2, (0b10,)))


class TestLupminSolve:
    def test_slack_everywhere(self, i1):
        res = lupmin_solve(i1, {0})
        assert res.min_saturated == 0
        assert len(res.chain) == 0

    def test_forced_saturation(self, i6):
        res = lupmin_solve(i6, {0, 1})
        assert res.min_saturated == 2
        assert res.chain.members == (0b10,)
        assert chain_value(i6, {0, 1}, res.chain) == 2
        assert res.witness == (1, 1)

    def test_tight_arc_rejected(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((0, 1), (0, 2)), BaseOracle.zero(2))
        with pytest.raises(ValueError):
            lupmin_solve(inst, {0})

    def test_strong_duality_on_corpus(self):
        for inst in feasible_corpus(17, 60, require_arcs=True):
            points = enumerate_Q(inst)
            for L in _ldef_subsets(inst):
                res = lupmin_solve(inst, L)
                assert res.min_saturated == brute_lupmin(points, inst.bounds, L)
                value, _ = brute_chain_max(inst, L)
                assert value == res.min_saturated

    def test_weak_duality_every_chain(self):
        for inst in feasible_corpus(23, 25, require_arcs=True):
            points = enumerate_Q(inst)
            for L in _ldef_subsets(inst)[:4]:
                for chain in all_chains(inst.digraph.node_count):
                    try:
                        value = chain_value(inst, L, chain)
                    except ValueError:
                        continue  # infeasible chain gives no bound
                    for x in points:
                        assert saturated_count(inst.bounds, L, x) >= value

    def test_witness_meets_own_criteria(self):
        for inst in feasible_corpus(37, 40, require_arcs=True):
            for L in _ldef_subsets(inst)[:5]:
                res = lupmin_solve(inst, L)
                ok, failed = check_optimality_criteria(inst, L, res.chain, res.witness)
                assert ok, failed

    def test_fixed_point_description(self):
        # upper-minimizers enumerated directly = points of the narrowed instance
        for inst in feasible_corpus(29, 40, require_arcs=True):
            points = enumerate_Q(inst)
            for L in _ldef_subsets(inst)[:6]:
                res = lupmin_solve(inst, L)
                minimizers = sorted(
                    x for x in points
                    if saturated_count(inst.bounds, L, x) == res.min_saturated)
                narrowed = Instance(inst.digraph, res.bounds, res.face_base)
                assert sorted(enumerate_Q(narrowed)) == minimizers


class TestOptimalityCriteria:
    def test_empty_chain_counts_saturation(self, i1):
        ok, failed = check_optimality_criteria(i1, {0}, Chain(2, ()), (0, 0))
        assert ok and failed is None
        ok, failed = check_optimality_criteria(i1, {0}, Chain(2, ()), (2, 2))
        assert not ok and failed == "O5"

    def test_witness_passes(self, i6):
        ok, failed = check_optimality_criteria(
            i6, {0, 1}, Chain(2, (0b10,)), (1, 1))
        assert ok and failed is None

    def test_wrong_chain_fails(self, i6):
        # both arcs leave {a} and its net flow misses the bound; the first
        # criterion in order wins the report
        ok, failed = check_optimality_criteria(
            i6, {0, 1}, Chain(2, (0b01,)), (1, 1))
        assert not ok and failed == "O1"

    def test_tightness_only_failure(self):
        d = Digraph(3, ((1, 2),))
        base = BaseOracle.from_points([(-1, 1, 0), (0, 0, 0)], 3)
        inst = Instance(d, Bounds((0,), (1,)), base)
        ok, failed = check_optimality_criteria(
            inst, frozenset(), Chain(3, (0b001,)), (0,))
        assert not ok and failed == "O6"

    def test_matches_membership_on_corpus(self):
        rng = random.Random(41)
        for inst in feasible_corpus(43, 30, require_arcs=True):
            points = enumerate_Q(inst)
            for L in _ldef_subsets(inst)[:3]:
                res = lupmin_solve(inst, L)
                for x in points:
                    # raises internally if the two predicates ever disagree
                    ok, failed = check_optimality_criteria(inst, L, res.chain, x)
                    assert ok or failed in _CRITERIA


class TestNoLupminDigraph:
    def test_lupmin_builds_no_digraph(self, monkeypatch, i6):
        # modelled on test_orient's instance-size count: every Digraph
        # built during a solve, and those built inside each lupmin_solve
        built, per_lupmin = [], []
        real_post_init, real_lupmin = core.Digraph.__post_init__, lupmin.lupmin_solve

        def counting(d):
            built.append(d.node_count)
            real_post_init(d)

        def spy(inst, L):
            before = len(built)
            res = real_lupmin(inst, L)
            per_lupmin.append(len(built) - before)
            return res

        hub = hub_instance(MixedGraph(4, ((0, 1),), ((0, 2), (1, 2), (2, 3), (3, 0), (1, 3))))
        monkeypatch.setattr(core.Digraph, "__post_init__", counting)
        monkeypatch.setattr(decmin, "lupmin_solve", spy)
        for inst in (i6, hub):
            built.clear()
            per_lupmin.clear()
            decmin.solve_decmin(inst)
            assert per_lupmin and per_lupmin == [0] * len(per_lupmin)
            assert built == []
