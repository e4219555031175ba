from unittest import mock

import pytest

from fairflow.core import Bounds, Digraph, NEG_INF, POS_INF, decmin_compare
from fairflow import baseflow
from fairflow.baseflow import Infeasible, Instance, find_violator, membership
from fairflow.decmin import solve_decmin
from fairflow.existence import (
    BlockingCircuit,
    build_jump_structure,
    finitize_bounds,
    has_blocking_dicircuit,
    improve_along_circuit,
)
from fairflow.oracle import brute_decmin, enumerate_Q, window_from_bounds
from fairflow.setfn import BaseOracle

from conftest import one_infinite_corpus


def jumps(js):
    return {(a.tail, a.head) for a in js.arcs if a.kind == "jump"}


def arc_ids(js, kind):
    return {a.arc_id for a in js.arcs if a.kind == kind}


class TestJumpStructure:
    def test_finite_base_no_jumps(self, i1):
        js = build_jump_structure(i1)
        assert jumps(js) == set()
        assert all(js.principal[u] == 1 << u for u in range(2))

    def test_circulation_no_jumps(self):
        d = Digraph(3, ((0, 1), (1, 2)))
        js = build_jump_structure(Instance(d, Bounds((0, 0), (1, 1)),
                                           BaseOracle.zero(3)))
        assert jumps(js) == set()

    def test_infinite_bounds_classified(self, i4):
        js = build_jump_structure(i4)
        assert arc_ids(js, "lower-inf") == {0}
        assert arc_ids(js, "upper-inf") == {1}
        kinds = {(a.tail, a.head, a.kind) for a in js.arcs}
        assert (0, 1, "lower-inf") in kinds
        assert (0, 1, "upper-inf") in kinds  # reversal of b->a

    def test_focus_excluded_from_a2(self):
        d = Digraph(2, ((0, 1),))
        inst = Instance(d, Bounds((0,), (POS_INF,)), BaseOracle.zero(2),
                        frozenset([0]))
        js = build_jump_structure(inst)
        assert arc_ids(js, "upper-inf") == set()

    def test_chain_base_jumps(self):
        # finite only on {a} and V: the principal set of b and c is V-ish
        table = [NEG_INF] * 8
        table[0] = table[0b001] = table[0b111] = 0
        d = Digraph(3, ((0, 1),))
        inst = Instance(d, Bounds((0,), (1,)), BaseOracle.from_table(3, table))
        js = build_jump_structure(inst)
        assert js.principal[0] == 0b001
        assert js.principal[1] == 0b111
        assert (1, 0) in jumps(js) and (1, 2) in jumps(js)


class TestBlockingCircuit:
    def test_empty_focus_never_blocks(self, i4p):
        js = build_jump_structure(i4p.with_focus(frozenset()))
        assert has_blocking_dicircuit(js, frozenset()) is None

    def test_unbounded_two_cycle(self, i4p):
        js = build_jump_structure(i4p)
        circuit = has_blocking_dicircuit(js, i4p.focus)
        assert circuit is not None
        assert any(a.kind == "lower-inf" and a.arc_id == 0 for a in circuit)

    def test_one_sided_is_fine(self, i4):
        js = build_jump_structure(i4)
        assert has_blocking_dicircuit(js, i4.focus) is None


class TestImprove:
    def test_single_step(self, i4p):
        js = build_jump_structure(i4p)
        circuit = has_blocking_dicircuit(js, i4p.focus)
        z1 = improve_along_circuit(i4p, (0, 0), circuit)
        assert z1 == (-1, -1)
        assert membership(i4p, z1)
        assert improve_along_circuit(i4p, z1, circuit) == (-2, -2)

    def test_non_blocking_rejected(self, i4):
        js = build_jump_structure(i4)
        fake = tuple(a for a in js.arcs if a.kind == "upper-inf")
        with pytest.raises(ValueError):
            improve_along_circuit(i4, (0, 0), fake)


class TestFinitize:
    def test_identity_when_finite(self, i1):
        # finite focus bounds are kept as they are, even above every
        # feasible value of the arc
        assert finitize_bounds(i1).bounds == i1.bounds

    def test_no_witness_when_focus_uppers_finite(self, i1, i4):
        # i1 and i4 have finite focus upper bounds: the verdict is the cut
        # scan's, and no coordinate-fixing pass runs
        with mock.patch.object(baseflow, "find_feasible", wraps=baseflow.find_feasible) as ff:
            finitize_bounds(i1)
            finitize_bounds(i4)
        assert ff.call_count == 0

    def test_one_witness_when_a_focus_upper_is_infinite(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((0, 1), (POS_INF, 3)), BaseOracle.zero(2), frozenset([0]))
        with mock.patch.object(baseflow, "find_feasible", wraps=baseflow.find_feasible) as ff:
            out = finitize_bounds(inst)
        assert ff.call_count == 1
        # capped at the witness maximum, which the return arc's lower bound sets
        assert out.bounds.upper == (1, 3)

    @pytest.mark.parametrize("upper", [2, POS_INF])
    def test_infeasible_raises_the_violator(self, upper):
        # the focus arc takes at least 1 out of a and the return arc brings
        # nothing back: the lowest violating set is {a}, with or without a
        # witness pass
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((1, 0), (upper, 0)), BaseOracle.zero(2), frozenset([0]))
        with pytest.raises(Infeasible) as info:
            finitize_bounds(inst)
        assert (info.value.violator, info.value.deficit) == find_violator(inst)
        assert info.value.violator == 0b01

    def test_reachable_set_lower_bound(self, i4):
        out = finitize_bounds(i4)
        assert out.bounds.lower[0] == 0
        assert out.bounds.upper[0] == 0

    def test_blocked_instance_rejected(self, i4p):
        # the verdict carries the circuit the search finds, and stays a
        # ValueError with the message callers already match
        with pytest.raises(BlockingCircuit) as info:
            finitize_bounds(i4p)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == "blocking dicircuit present: no finite reduction exists"
        assert info.value.circuit == has_blocking_dicircuit(build_jump_structure(i4p), i4p.focus)

    def test_finite_focus_arcs_untouched(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((-1, NEG_INF), (1, POS_INF)),
                        BaseOracle.zero(2), frozenset([0]))
        out = finitize_bounds(inst)
        assert out.bounds.lower[0] == -1


class TestSoundness:
    def test_circuit_iff_endless_improvement(self):
        for inst in one_infinite_corpus(111, 60):
            js = build_jump_structure(inst)
            circuit = has_blocking_dicircuit(js, inst.focus)
            window = window_from_bounds(inst, radius=2)
            points = enumerate_Q(inst, window)
            if circuit is not None:
                order = sorted(inst.focus)
                for z in points[:40]:
                    z2 = improve_along_circuit(inst, z, circuit)
                    assert membership(inst, z2)
                    assert decmin_compare([z2[e] for e in order],
                                          [z[e] for e in order]) < 0
            else:
                finite = finitize_bounds(inst)
                result = solve_decmin(finite)
                witness = result.witness
                # fair within a window around the witness
                wide = window_from_bounds(inst, radius=3, center=witness)
                local = enumerate_Q(inst, wide)
                assert list(witness) in [list(p) for p in local]
                fair = brute_decmin(local, inst.focus)
                order = sorted(inst.focus)
                wprof = sorted((witness[e] for e in order), reverse=True)
                assert any(sorted((p[e] for e in order), reverse=True) == wprof
                           for p in fair)
                assert decmin_compare(
                    wprof, sorted((fair[0][e] for e in order), reverse=True)) == 0

    def test_finitize_preserves_fair_set(self):
        for inst in one_infinite_corpus(131, 40):
            js = build_jump_structure(inst)
            if has_blocking_dicircuit(js, inst.focus) is not None:
                continue
            finite = finitize_bounds(inst)
            result = solve_decmin(finite)
            window = window_from_bounds(inst, radius=3, center=result.witness)
            points = enumerate_Q(inst, window)
            fair = {tuple(p) for p in brute_decmin(points, inst.focus)}
            narrowed = {tuple(p) for p in enumerate_Q(result.final, window)}
            assert narrowed <= {tuple(p) for p in points}
            assert narrowed <= fair
            order = sorted(inst.focus)
            ref = sorted((next(iter(fair))[e] for e in order), reverse=True)
            for p in narrowed:
                assert sorted((p[e] for e in order), reverse=True) == ref
