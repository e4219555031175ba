import random
from fractions import Fraction

import numpy as np
import pytest

from fairflow.core import Bounds, Chain, Digraph, NEG_INF, POS_INF, is_finite
from fairflow.setfn import (
    BaseOracle,
    ExtArray,
    SetFn,
    brute_extremize,
    cut_difference,
    envelope_setfn,
    principal_sets,
    subset_sums,
)
from fairflow.baseflow import Instance, exchange_capacity, membership
from fairflow.oracle import check_pairs, enumerate_base_points

from conftest import base_point_box, random_base, random_bounds, random_finite_supermodular


class TestSetFn:
    def test_empty_set_must_vanish(self):
        with pytest.raises(ValueError):
            SetFn(1, table=[1, 0])

    def test_modular_prefix(self):
        fn = SetFn(3, subset_sums((2, -1, 3)).tolist())
        assert fn(0b101) == 5
        assert fn(0b111) == 4

    @pytest.mark.parametrize("value", [1.5, Fraction(1, 2), None, "x", True, False])
    def test_non_integer_value_rejected(self, value):
        table = [0, value, 0, 0]
        with pytest.raises(ValueError, match="at mask 1"):
            SetFn(2, table=table)
        with pytest.raises(ValueError, match="at mask 1"):
            BaseOracle.from_table(2, table)


class TestVectorEntries:
    """Each vector that is summed over subsets reaches `subset_sums`, which
    reads integers only and raises ValueError on anything else."""

    @pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, 1.0, True, False],
                             ids=["Fraction", "0.5", "1.0", "True", "False"])
    @pytest.mark.parametrize("call", [
        lambda x: membership(Instance(Digraph(2, ((0, 1),)), Bounds((0,), (2,)),
                                      BaseOracle.zero(2)), (x,)),
        lambda x: BaseOracle.zero(2).contains((x, -x)),
        lambda x: exchange_capacity(BaseOracle.zero(2), (x, -x), 0, 1),
        lambda x: BaseOracle.from_points([(x, -x)], 2),
        lambda x: subset_sums(np.array([0, x], dtype=object)),
    ], ids=["membership", "contains", "exchange_capacity", "from_points", "subset_sums"])
    def test_non_integer_entries_rejected(self, call, entry):
        with pytest.raises(ValueError, match=r"^entry .* at [01] is not an integer$"):
            call(entry)

    def test_bool_flow_rejected(self):
        inst = Instance(Digraph(2, ((0, 1), (1, 0))), Bounds((0, 0), (1, 1)), BaseOracle.zero(2))
        assert membership(inst, (1, 1))
        with pytest.raises(ValueError, match="^entry True at 0 is not an integer$"):
            membership(inst, (True, True))


class TestTableStorage:
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_bound_of_the_int64_minimum(self, dtype):
        # np.abs wraps an int64 -2^63 to itself, a negative bound
        table = ExtArray.finite(np.array([0, -(1 << 63)], dtype=dtype))
        assert table.bound == 1 << 63
        assert table.fin.dtype == object and table.fin.tolist() == [0, -(1 << 63)]


class TestSupermodularChecks:
    def test_zero_and_modular_pass(self):
        modular = SetFn(3, subset_sums((1, -2, 5)).tolist())
        assert check_pairs(SetFn(3, table=[0] * 8), True)[0]
        assert check_pairs(modular, True)[0]
        assert check_pairs(modular, False)[0]

    def test_violation_witness(self):
        # p({a})=p({b})=1, p({a,b})=1: 1+1 > 0+1
        fn = SetFn(2, table=[0, 1, 1, 1])
        ok, witness = check_pairs(fn, True)
        assert not ok and witness == (1, 2)


class TestRestrictedChecks:
    def _cycle_cut_table(self, k):
        # 4-cycle 0-1-2-3: induced edge count plus k on proper nonempty sets
        edges = ((0, 1), (1, 2), (2, 3), (3, 0))
        table = []
        for m in range(16):
            i = sum(1 for u, v in edges if (m >> u) & 1 and (m >> v) & 1)
            table.append(i if m in (0, 15) else i + k)
        return SetFn(4, table=table)

    def test_connectivity_function_is_crossing_only(self):
        fn = self._cycle_cut_table(1)
        assert check_pairs(fn, True, "crossing")[0]
        ok_full, witness = check_pairs(fn, True)
        assert not ok_full
        x, y = witness
        assert x & y == 0 or x | y == 0b1111  # breaks only outside crossing pairs

    def test_intersecting_stricter_than_crossing(self):
        fn = self._cycle_cut_table(1)
        ok, witness = check_pairs(fn, True, "intersecting")
        assert not ok and (witness[0] | witness[1]) == 0b1111

    def test_crossing_violation_detected(self):
        table = [0] * 16
        table[0b0011] = 9
        assert not check_pairs(SetFn(4, table=table), True, "crossing")[0]

    def test_fully_supermodular_passes_all_variants(self):
        rng = random.Random(14)
        for _ in range(20):
            base = random_base(rng, 4)
            assert check_pairs(base.p, True, "intersecting")[0]
            assert check_pairs(base.p, True, "crossing")[0]


class TestCutDifference:
    def test_no_arcs(self):
        d = Digraph(2, ())
        fn = cut_difference(d, Bounds((), ()))
        assert all(fn(m) == 0 for m in range(4))

    def test_two_cycle(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        fn = cut_difference(d, Bounds((0, 0), (2, 2)))
        assert fn(0b10) == 2

    def test_infinite_upper_absorbs(self):
        d = Digraph(2, ((0, 1),))
        fn = cut_difference(d, Bounds((0,), (POS_INF,)))
        assert fn(0b10) is POS_INF

    def test_submodular_on_random_bounds(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(2, 4)
            arcs = tuple((u, v) for u in range(n) for v in range(n) if u != v)
            d = Digraph(n, arcs)
            fn = cut_difference(d, random_bounds(rng, len(arcs)))
            assert check_pairs(fn, False)[0]


class TestBruteExtremize:
    def test_tie_breaks_to_smallest_mask(self):
        val, mask = brute_extremize(SetFn(3, table=[0] * 8))
        assert (val, mask) == (0, 0)

    def test_singleton_scan(self):
        # h({s}) = 5 - 3*2 = -1, h(empty) = 0
        fn = SetFn(1, table=[0, -1])
        assert brute_extremize(fn) == (0, 0)

    def test_max_over_all_subsets(self):
        # cut values 0, 2, 2, 0: the maximum ties between the singletons,
        # and the lowest mask wins
        d = Digraph(2, ((0, 1), (1, 0)))
        diff = cut_difference(d, Bounds((0, 0), (2, 2)))
        assert brute_extremize(diff) == (2, 0b01)


class TestEnvelope:
    def test_singleton(self):
        fn = envelope_setfn([(0, 0)], 2)
        assert all(fn(m) == 0 for m in range(4))

    def test_three_points(self, b3_points):
        fn = envelope_setfn(b3_points, 2)
        assert fn(0b01) == -1 and fn(0b10) == -1 and fn(0b11) == 0

    def test_single_point_is_modular(self):
        fn = envelope_setfn([(2, -1, -1)], 3)
        mod = SetFn(3, subset_sums((2, -1, -1)).tolist())
        assert all(fn(m) == mod(m) for m in range(8))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BaseOracle.from_points([], 2)

    def test_supermodular_and_roundtrip_on_base_points(self):
        # over the exact integral point set of a bounded base polyhedron the
        # envelope is fully supermodular and recovers its bounding function
        rng = random.Random(8)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 4)
            base = BaseOracle.from_table(n, random_finite_supermodular(rng, n))
            lo, hi = base_point_box(base)
            pts = enumerate_base_points(base, lo, hi)
            assert pts, "finite base polyhedra are never empty"
            env = envelope_setfn(pts, n)
            assert check_pairs(env, True)[0]
            assert all(env(m) == base.p(m) for m in range(1 << n))
            checked += 1


class TestBaseOracle:
    @pytest.mark.parametrize("table, message", [
        ([0, 0, 0], "2\\^n entries"),
        ([0] * 5, "2\\^n entries"),
        ([1, 0, 0, 0], "empty set"),
        ([NEG_INF, 0, 0, 0], "empty set"),
        ([0, 0, 0, -1], "full set"),
        ([0, 0, 0, POS_INF], "full set"),
    ])
    def test_bad_table_rejected(self, table, message):
        with pytest.raises(ValueError, match=message):
            BaseOracle(2, ExtArray.from_values(table))
        with pytest.raises(ValueError, match=message):
            BaseOracle.from_table(2, table)

    def test_step_capacity_matches_brute_force(self):
        # the largest a with y + a*move in B(p), checked one step past it;
        # +inf exactly when no finite set loses under a unit of move
        rng = random.Random(39)
        finite_steps = infinite_steps = 0
        for _ in range(150):
            n = rng.randint(2, 5)
            base = random_base(rng, n)
            box = 3 if n < 5 else 2
            pts = enumerate_base_points(base, -box, box)
            for y in rng.sample(pts, min(3, len(pts))):
                sums = subset_sums(y)
                for _ in range(4):
                    move = [rng.randint(-2, 2) for _ in range(n - 1)]
                    move.append(-sum(move))
                    if not -2 <= move[-1] <= 2:
                        continue
                    a = base.step_capacity(sums, move)
                    loses = any(is_finite(base.p(m)) and sum(
                        move[v] for v in range(n) if (m >> v) & 1) < 0 for m in range(1 << n))
                    assert (a is POS_INF) == (not loses)
                    if a is POS_INF:
                        infinite_steps += 1
                        assert base.contains([yv + 10 * mv for yv, mv in zip(y, move)])
                        continue
                    finite_steps += 1
                    assert type(a) is int and a >= 0
                    assert base.contains([yv + a * mv for yv, mv in zip(y, move)])
                    assert not base.contains([yv + (a + 1) * mv for yv, mv in zip(y, move)])
        assert finite_steps >= 300 and infinite_steps >= 30


class TestFaceContract:
    def test_empty_chain_identity(self, b3_points):
        base = BaseOracle.from_points(b3_points, 2)
        assert base.face_contract(Chain(2, ())) is base

    def test_three_point_face(self, b3_points):
        base = BaseOracle.from_points(b3_points, 2)
        face = base.face_contract(Chain(2, (0b01,)))
        assert enumerate_base_points(face, -2, 2) == [(-1, 1)]

    def test_modular_base_has_full_faces(self):
        base = BaseOracle.from_table(3, subset_sums((1, -2, 1)).tolist())
        face = base.face_contract(Chain(3, (0b001, 0b011)))
        assert all(face.p(m) == base.p(m) for m in range(8))

    def test_infinite_member_rejected(self):
        table = [NEG_INF] * 4
        table[0] = table[3] = 0
        base = BaseOracle.from_table(2, table)
        with pytest.raises(ValueError):
            base.face_contract(Chain(2, (0b01,)))

    def test_matches_tight_point_enumeration(self):
        rng = random.Random(12)
        checked = 0
        while checked < 30:
            n = rng.randint(2, 4)
            base = random_base(rng, n)
            pts = enumerate_base_points(base, -5, 5)
            if not pts:
                continue
            members = []
            mask = 0
            for v in rng.sample(range(n), n - 1):
                mask |= 1 << v
                if rng.random() < 0.5 and isinstance(base.p(mask), int):
                    members.append(mask)
            if not members:
                continue
            chain = Chain(n, tuple(members))
            try:
                face = base.face_contract(chain)
            except ValueError:
                continue
            expected = [pt for pt in pts
                        if all(sum(pt[v] for v in range(n) if (m >> v) & 1) == base.p(m)
                               for m in chain)]
            assert enumerate_base_points(face, -5, 5) == expected
            checked += 1

    def test_face_stays_supermodular(self, b3_points):
        base = BaseOracle.from_points(b3_points, 2)
        face = base.face_contract(Chain(2, (0b10,)))
        assert check_pairs(face.p, True)[0]
        assert face.face_chains == (Chain(2, (0b10,)),)


def ref_principal_sets(n, family):
    """The meet of the flagged masks holding each node, by a scan of them all."""
    masks = np.flatnonzero(family)
    return [int(np.bitwise_and.reduce(masks[(masks >> v) & 1 == 1], initial=(1 << n) - 1))
            for v in range(n)]


class TestPrincipalSets:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_all_masks(self, n):
        family = np.ones(1 << n, dtype=bool)
        assert principal_sets(n, family) == ref_principal_sets(n, family)

    def test_random_families(self):
        rng = random.Random(20)
        for _ in range(200):
            n = rng.randint(1, 6)
            family = np.array([rng.random() < 0.7 for _ in range(1 << n)])
            assert principal_sets(n, family) == ref_principal_sets(n, family)
