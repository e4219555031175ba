import random
from typing import Optional, Sequence, Tuple
from unittest import mock

import pytest

from fairflow.core import Bounds, Chain, Digraph, POS_INF, chain_classify, cut_net
from fairflow.baseflow import CertificateError, DualPotential, Instance, membership
from fairflow.lupmin import (
    augment_instance,
    chain_value,
    derive_bounds,
    extract_chain,
    lupmin_solve,
    saturated_count,
)
from fairflow.setfn import BaseOracle, ExtArray
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


class TestAugment:
    def test_empty_l_unchanged(self, i1):
        aug = augment_instance(i1, frozenset())
        assert aug.instance.digraph.arc_count == 2
        assert aug.cost == (0, 0)
        assert aug.instance.bounds == i1.bounds

    def test_parallel_copies(self, i6):
        aug = augment_instance(i6, {0, 1})
        d = aug.instance.digraph
        assert d.arc_count == 4 and all(a == (0, 1) for a in d.arcs)
        assert aug.instance.bounds.upper[:2] == (0, 0)
        assert aug.instance.bounds.lower[2:] == (0, 0)
        assert aug.instance.bounds.upper[2:] == (1, 1)
        assert aug.cost == (0, 0, 1, 1)

    def test_single_arc_formula(self):
        d = Digraph(2, ((0, 1),))
        inst = Instance(d, Bounds((0,), (5,)), BaseOracle.zero(2))
        aug = augment_instance(inst, {0})
        assert aug.instance.bounds.upper == (4, 1)
        assert aug.cost == (0, 1)
        assert aug.copy_of == ((0, 1),)

    def test_tight_arc_rejected(self):
        d = Digraph(2, ((0, 1),))
        inst = Instance(d, Bounds((2,), (2,)), BaseOracle.zero(2))
        with pytest.raises(ValueError):
            augment_instance(inst, {0})

    def test_infinite_bound_rejected(self):
        d = Digraph(2, ((0, 1),))
        inst = Instance(d, Bounds((0,), (POS_INF,)), BaseOracle.zero(2))
        with pytest.raises(ValueError):
            augment_instance(inst, {0})


def random_l(rng, inst):
    """A random nonempty set of finite non-tight arcs, or None."""
    b = inst.bounds
    eligible = [e for e in inst.digraph.arc_ids() if isinstance(b.lower[e], int)
                and isinstance(b.upper[e], int) and b.lower[e] != b.upper[e]]
    if not eligible:
        return None
    return frozenset(rng.sample(eligible, rng.randint(1, len(eligible))))


class TestAugmentedSlack:
    """The augmented instance shares the slack table of the instance."""

    def test_equals_a_fresh_plus_cut(self):
        rng = random.Random(20)
        nonpositive = 0
        for inst in feasible_corpus(20, 150, max_nodes=4, require_arcs=True):
            L = random_l(rng, inst)
            if L is None:
                continue
            nonpositive += any(inst.bounds.upper[e] <= 0 for e in L)
            aug = augment_instance(inst, L).instance
            b = aug.bounds
            fresh = (-aug.base.values).plus_cut(aug.digraph, b.upper, b.lower)
            got = aug.slack
            assert got is inst.slack
            assert got.fin.tolist() == fresh.fin.tolist()
            assert got.pos.tolist() == fresh.pos.tolist()
            assert got.neg.tolist() == fresh.neg.tolist()
            assert got.bound >= max(map(abs, got.fin.tolist()))
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
