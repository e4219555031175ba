import os
import random
import sys
from dataclasses import replace
from unittest import mock

import pytest

from fairflow import decmin
from fairflow.core import Bounds, Digraph, decmin_compare, is_finite
from fairflow.baseflow import (
    CertificateError,
    Infeasible,
    Instance,
    check_feasible,
    find_violator,
    membership,
)
from fairflow.decmin import (
    _nd_entering_fn,
    _nd_slack_fn,
    compute_beta,
    newton_dinkelbach,
    predecmin_phase,
    solve_decmin,
    solve_min_cost_decmin,
    strip_tight,
)
from fairflow.setfn import BaseOracle, ExtArray, SetFn
from fairflow.oracle import brute_decmin, enumerate_Q

from conftest import feasible_corpus

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))
from scale import levels_instance, probe_bound  # noqa: E402


class TestStripTight:
    def test_untouched_without_tight(self):
        b = Bounds((0, 0), (1, 2))
        assert strip_tight({0, 1}, b) == {0, 1}

    def test_all_tight(self):
        b = Bounds((1, 2), (1, 2))
        assert strip_tight({0, 1}, b) == frozenset()

    def test_mixed(self):
        b = Bounds((0, 2), (1, 2))
        assert strip_tight({0, 1}, b) == {0}

    def test_removal_preserves_decmin_set(self):
        for inst in feasible_corpus(51, 30, require_arcs=True):
            points = enumerate_Q(inst)
            focus = set(inst.digraph.arc_ids())
            stripped = strip_tight(focus, inst.bounds)
            a = {tuple(p) for p in brute_decmin(points, focus)}
            b = {tuple(p) for p in brute_decmin(points, stripped)}
            assert a == b


class TestNewtonDinkelbach:
    def test_single_constraint(self):
        h = SetFn(1, table=[0, 5])
        b = SetFn(1, table=[0, 2])
        mu, log = newton_dinkelbach(h, b)
        assert mu == 3
        assert len(log) == 2  # the bad start plus one good candidate

    def test_ratio_one(self):
        h = SetFn(2, table=[0, 1, 1, 1])
        mu, _ = newton_dinkelbach(h, h)
        assert mu == 1

    def test_max_of_ceilings(self):
        h = SetFn(2, table=[0, 7, 0, 9])
        b = SetFn(2, table=[0, 3, 0, 2])
        mu, log = newton_dinkelbach(h, b)
        assert mu == 5
        mus = [m for m, _ in log]
        assert mus == sorted(mus)
        assert all(b2 > a2 for a2, b2 in zip(mus, mus[1:]))

    def test_iterations_capped_by_largest_b(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(1, 4)
            size = 1 << n
            h = SetFn(n, table=[0] + [rng.randint(-4, 6) for _ in range(size - 1)])
            b = SetFn(n, table=[0] + [rng.randint(0, 3) for _ in range(size - 1)])
            hv = [h(m) for m in range(size)]
            bv = [b(m) for m in range(size)]
            if any(bv[m] == 0 and hv[m] > 0 for m in range(size)):
                continue
            if not any(v > 0 for v in hv):
                continue
            mu, log = newton_dinkelbach(h, b)
            direct = max(-((-hv[m]) // bv[m]) for m in range(size) if bv[m] > 0)
            assert mu == max(0, direct) == direct
            assert len(log) <= max(bv) + 1

    def test_preconditions_enforced(self):
        with pytest.raises(ValueError):  # no good mu
            newton_dinkelbach(SetFn(1, table=[0, 1]), SetFn(1, table=[0, 0]))
        with pytest.raises(ValueError):  # zero already good
            newton_dinkelbach(SetFn(1, table=[0, -1]), SetFn(1, table=[0, 1]))


class TestComputeBeta:
    def test_staircase_strips_to_empty(self, i1):
        beta, out = compute_beta(i1)
        assert beta == 0 and not out.focus

    def test_lower_bound_forces_one(self, i2):
        beta, out = compute_beta(i2)
        assert beta == 1 and out.focus == {0}
        assert out.bounds.upper[0] == 1

    def test_parallel_demand(self, i6):
        beta, out = compute_beta(i6)
        assert beta == 1 and out.focus == {0, 1}

    def test_equals_enumeration_on_corpus(self):
        for inst in feasible_corpus(71, 80, require_arcs=True):
            focus = strip_tight(frozenset(inst.digraph.arc_ids()), inst.bounds)
            if not focus:
                continue
            work = inst.with_focus(focus)
            points = enumerate_Q(inst)
            beta, out = compute_beta(work)
            clamped = enumerate_Q(out)
            # the clamps never cut into the fair set of the focus they were
            # handed
            entry_fair = sorted(tuple(p) for p in brute_decmin(points, focus))
            out_fair = sorted(tuple(p) for p in brute_decmin(clamped, focus))
            assert entry_fair == out_fair
            if out.focus:
                # returned value is the least attainable maximum of the
                # surviving focus over the clamped instance, hit by its bounds
                assert beta == min(max(p[e] for e in out.focus) for p in clamped)
                assert max(out.bounds.upper[e] for e in out.focus) == beta
            else:
                # the least lower bound is a feasible level, where every
                # focus arc is pinned; the driver only needs the fair-set
                # equality asserted above
                assert beta == min(inst.bounds.lower[e] for e in focus)
                assert all(out.bounds.is_tight(e) for e in focus)

    def test_requires_finite_focus(self):
        from fairflow.core import POS_INF
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((0, 0), (POS_INF, 2)), BaseOracle.zero(2),
                        frozenset([0]))
        with pytest.raises(ValueError):
            compute_beta(inst)

    @staticmethod
    def phase_entries():
        """Entry instances of compute_beta: the corpus with every non-tight
        arc in focus, and each phase of the distinct-level solves (n = 2..6,
        zero base, m = 3n, all upper bounds distinct)."""
        for inst in feasible_corpus(73, 80, require_arcs=True):
            focus = strip_tight(frozenset(inst.digraph.arc_ids()), inst.bounds)
            if focus:
                yield inst.with_focus(focus)
        for n in range(2, 7):
            for seed in range(1, 9):
                cur = levels_instance(n, seed)
                while cur.focus:
                    yield cur
                    _, cur = ref_compute_beta(cur)
                    if cur.focus:
                        _, cur = predecmin_phase(cur)

    def test_matches_the_staircase(self):
        for work in self.phase_entries():
            beta, out = compute_beta(work)
            ref_beta, ref_out = ref_compute_beta(work)
            assert (beta, out.bounds, out.focus) == (ref_beta, ref_out.bounds, ref_out.focus)

    def test_probes_logarithmic_in_arc_count(self):
        for work in self.phase_entries():
            with mock.patch.object(decmin, "find_violator", wraps=find_violator) as probes, \
                    mock.patch.object(decmin, "newton_dinkelbach",
                                      wraps=newton_dinkelbach) as searches:
                compute_beta(work)
            assert probes.call_count <= probe_bound(work.digraph.arc_count)
            assert searches.call_count <= 1

    def test_one_copy_per_probe(self):
        # each clamp, the bisection's and the Newton one, is made in one
        # copy and probed, unless its bounds are those of the instance it
        # derives from, which it then is; the Newton clamp derives from the
        # last feasible probe, so at that probe's level it is that probe,
        # not an equal copy.  Every copy made is probed, every probe but
        # the entry instance is made here, and the returned clamp is the
        # last probe
        made_total = probe_total = newton_total = 0
        for work in self.phase_entries():
            probed = []
            with mock.patch.object(Instance, "__post_init__", autospec=True,
                                   side_effect=Instance.__post_init__) as made_spy, \
                    mock.patch.object(decmin, "find_violator",
                                      side_effect=lambda i: probed.append(i) or find_violator(i)), \
                    mock.patch.object(decmin, "newton_dinkelbach",
                                      wraps=newton_dinkelbach) as newton:
                _, out = compute_beta(work)
            made = [call.args[0] for call in made_spy.call_args_list]
            assert {id(i) for i in made} == {id(i) for i in probed} - {id(work)}
            assert out is probed[-1]
            made_total += len(made)
            probe_total += len(probed)
            newton_total += newton.call_count
        assert (made_total, probe_total, newton_total) == (399, 501, 120)


def ref_compute_beta(inst):
    """The staircase that computed the top value before the bisection: it
    lowers the top upper level of the focus one distinct value at a time,
    with a feasibility probe per step, and runs the Newton ratio search in
    the segment where a probe first fails."""
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
        if find_violator(inst.with_bounds(bounds)) is not None:
            raise CertificateError("clamp at the smallest good ratio is infeasible")
        if max(bounds.upper[e] for e in focus) != beta:
            raise CertificateError("focus upper bounds exceed the computed top value")
        return beta, inst.with_bounds(bounds).with_focus(focus)
    return beta, inst.with_bounds(bounds).with_focus(focus)


class TestPredecminPhase:
    def test_parallel_instance(self, i6):
        _, work = compute_beta(i6)
        trace, narrowed = predecmin_phase(work)
        assert trace.beta == 1
        assert trace.l_beta == {0, 1}
        assert trace.chain.members == (0b10,)
        assert trace.l_prime == {0, 1}
        assert narrowed.focus == frozenset()
        assert narrowed.bounds.lower == (0, 0)
        assert narrowed.bounds.upper == (1, 1)

    def test_rejects_non_minimal_top(self, i1):
        with pytest.raises(ValueError):
            predecmin_phase(i1)  # top level still lowerable

    def test_rejects_exactly_when_the_lowered_top_is_feasible(self):
        # the certified count is 0 iff the explicit clamp of the top level
        # to beta - 1 is feasible: checked on every phase of the levels
        # instances and on copies of them with the top level raised by one
        def top(work):
            beta = max(work.bounds.upper[e] for e in work.focus)
            return beta, [e for e in work.focus if work.bounds.upper[e] == beta]

        def lowerable(work):
            beta, level = top(work)
            clamp = work.with_bounds(work.bounds.with_upper({e: beta - 1 for e in level}))
            return check_feasible(clamp).feasible

        def phase(work):
            try:
                return predecmin_phase(work)[1]
            except ValueError as exc:
                assert str(exc).startswith("top value not minimal")
                return None

        verdicts = []
        for n in range(2, 8):
            for seed in (1, 2):
                cur = levels_instance(n, seed)
                while cur.focus:
                    _, cur = compute_beta(cur)
                    if not cur.focus:
                        break
                    beta, level = top(cur)
                    raised = cur.with_bounds(cur.bounds.with_upper({e: beta + 1 for e in level}))
                    for work in (raised, cur):
                        out = phase(work)
                        assert (out is None) == lowerable(work)
                        verdicts.append(out is None)
                    cur = out
        assert verdicts == [True, False] * 22


class TestSolveDecmin:
    def test_empty_focus_identity(self, i1):
        res = solve_decmin(i1.with_focus(frozenset()))
        assert res.f_star == i1.bounds
        assert res.face_chains == ()
        assert membership(i1, res.witness)

    def test_single_focus_arc(self, i1):
        res = solve_decmin(i1)
        points = enumerate_Q(res.final)
        assert points == [(0, 0)]

    def test_unique_point(self, i6):
        res = solve_decmin(i6)
        assert enumerate_Q(res.final) == [(1, 1)]
        assert all(res.upper[e] - res.lower[e] <= 1 for e in i6.focus)

    def test_infeasible_raises(self, i1):
        bad = replace(i1, base=BaseOracle.from_table(2, [0, -3, 3, 0]))
        with pytest.raises(Infeasible):
            solve_decmin(bad)

    def test_infinite_focus_bound_rejected(self):
        from fairflow.core import NEG_INF
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((NEG_INF, 0), (2, 2)), BaseOracle.zero(2),
                        frozenset([0]))
        with pytest.raises(ValueError):
            solve_decmin(inst)

    def test_matches_oracle_on_corpus(self):
        for inst in feasible_corpus(81, 50, require_arcs=True):
            points = enumerate_Q(inst)
            for focus in (frozenset(inst.digraph.arc_ids()),
                          frozenset(list(inst.digraph.arc_ids())[:1])):
                work = inst.with_focus(focus)
                res = solve_decmin(work)
                fair = sorted(tuple(p) for p in brute_decmin(points, focus))
                assert sorted(enumerate_Q(res.final)) == fair
                for e in focus:
                    assert 0 <= res.upper[e] - res.lower[e] <= 1

    def test_shared_profile(self):
        for inst in feasible_corpus(91, 30, require_arcs=True):
            focus = frozenset(inst.digraph.arc_ids())
            res = solve_decmin(inst.with_focus(focus))
            points = enumerate_Q(res.final)
            ref = points[0]
            order = sorted(focus)
            for p in points[1:]:
                assert decmin_compare([p[e] for e in order],
                                      [ref[e] for e in order]) == 0


    def test_copies_move_bounds_or_base(self):
        # but for the entry strip, made only when a focus arc is tight,
        # every copy a solve makes is at other bounds or on another base
        # than the instance it is made from
        instances = [levels_instance(n, seed) for n in range(2, 8) for seed in (1, 2)]
        instances += [inst.with_focus(inst.digraph.arc_ids())
                      for inst in feasible_corpus(83, 40, require_arcs=True)]
        copies = 0
        for inst in instances:
            pairs = []

            def copy(self, bounds, base, focus, real=Instance.with_face):
                pairs.append((self, real(self, bounds, base, focus)))
                return pairs[-1][1]

            with mock.patch.object(Instance, "with_face", copy):
                solve_decmin(inst)
            rest = pairs
            if strip_tight(inst.focus, inst.bounds) != inst.focus:
                (entry, strip), *rest = pairs
                assert entry is inst and strip.focus == strip_tight(inst.focus, inst.bounds)
            assert all(out.bounds != parent.bounds or out.base is not parent.base
                       for parent, out in rest)
            copies += len(pairs)
        assert copies == 227

    def test_entry_strip_copies_only_when_a_focus_arc_is_tight(self):
        # a solve whose focus has no tight arc starts from the instance
        # itself; one with a tight focus arc makes one copy without it
        tight = loose = 0
        for inst in feasible_corpus(83, 40, require_arcs=True):
            inst = inst.with_focus(inst.digraph.arc_ids())
            strip = strip_tight(inst.focus, inst.bounds)
            with mock.patch.object(Instance, "with_focus", autospec=True,
                                   side_effect=Instance.with_focus) as spy:
                res = solve_decmin(inst)
            if strip == inst.focus:
                loose += 1
                assert spy.call_count == 0
            else:
                tight += 1
                assert [c.args[1] for c in spy.call_args_list] == [strip]
            assert sorted(enumerate_Q(res.final)) == sorted(
                tuple(p) for p in brute_decmin(enumerate_Q(inst), inst.focus))
        assert tight and loose

    @pytest.mark.parametrize("seed", [1, 2])
    def test_slack_rebuilds_grow_with_phases_not_probes(self, seed):
        # one full build for the entry slack and one per Newton entering
        # function; every probe, narrowed face and the final witness derive
        # their slack from the instance they were made from
        inst = levels_instance(10, seed)
        with mock.patch.object(ExtArray, "plus_cut", autospec=True,
                               side_effect=ExtArray.plus_cut) as rebuilds, \
                mock.patch.object(decmin, "find_violator", wraps=find_violator) as probes, \
                mock.patch.object(decmin, "newton_dinkelbach",
                                  wraps=decmin.newton_dinkelbach) as newton:
            phases = len(solve_decmin(inst).traces)
        assert rebuilds.call_count == 1 + newton.call_count
        assert (rebuilds.call_count, probes.call_count, phases) == {
            1: (4, 12, 3), 2: (3, 10, 2)}[seed]


class TestMinCostDecmin:
    def test_zero_cost_is_witness_quality(self, i6):
        x = solve_min_cost_decmin(i6, (0, 0))
        assert x == (1, 1)

    def test_unique_point_ignores_cost(self, i6):
        assert solve_min_cost_decmin(i6, (5, -5)) == (1, 1)

    def test_free_arc_dropped_to_zero(self):
        # third free arc b->a charged; fairness pins the focus arc, cost
        # drives the free arc to its floor
        d = Digraph(2, ((0, 1), (1, 0), (1, 0)))
        inst = Instance(d, Bounds((0, 0, 0), (2, 2, 1)), BaseOracle.zero(2),
                        frozenset([0]))
        x = solve_min_cost_decmin(inst, (0, 0, 3))
        points = enumerate_Q(inst)
        fair = brute_decmin(points, inst.focus)
        best = min(sum((0, 0, 3)[e] * p[e] for e in range(3)) for p in fair)
        assert sum((0, 0, 3)[e] * x[e] for e in range(3)) == best
        assert x[2] == 0

    def test_cheapest_over_fair_set_on_corpus(self):
        rng = random.Random(101)
        for inst in feasible_corpus(103, 40, require_arcs=True):
            focus = frozenset(inst.digraph.arc_ids())
            cost = tuple(rng.randint(-3, 3) for _ in inst.digraph.arc_ids())
            x = solve_min_cost_decmin(inst.with_focus(focus), cost)
            fair = brute_decmin(enumerate_Q(inst), focus)
            best = min(sum(cost[e] * p[e] for e in inst.digraph.arc_ids())
                       for p in fair)
            assert sum(cost[e] * x[e] for e in inst.digraph.arc_ids()) == best
