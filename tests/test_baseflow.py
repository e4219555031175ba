import itertools
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairflow import baseflow, cli
from fairflow.core import Bounds, Chain, Digraph, NEG_INF, POS_INF, is_finite, node_net_inflow
from fairflow.baseflow import (
    CertificateError,
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
from fairflow import decmin
from fairflow.decmin import solve_decmin, solve_min_cost_decmin
from fairflow.existence import finitize_bounds
from fairflow.lupmin import lupmin_solve
from fairflow.setfn import BaseOracle, subset_sums
from fairflow.oracle import enumerate_Q

from conftest import (
    all_small_digraphs,
    ext_array_parts,
    feasible_corpus,
    random_base,
    random_bounds,
    random_chain,
    random_finite_supermodular,
    random_instance,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "scripts"), os.path.join(ROOT, "bench")]
import corpus  # noqa: E402
from run import CORPUS_SIZE  # noqa: E402
from scale import MINCOST_COST, levels_instance, mincost_instance  # noqa: E402


class TestCheckFeasible:
    def test_circulation_witness(self, i1):
        cert = check_feasible(i1)
        assert cert.feasible and membership(i1, cert.witness)

    def test_raised_demand_violator(self, i1):
        # cap 2 on entering arcs cannot cover demand 3 at b
        base = BaseOracle.from_table(2, [0, -3, 3, 0])
        bad = replace(i1, base=base)
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

    def test_witness_built_only_when_read(self, i1, monkeypatch):
        calls = []
        monkeypatch.setattr(baseflow, "find_feasible",
                            lambda inst: calls.append(inst) or find_feasible(inst))
        cert = check_feasible(i1)
        assert cert.feasible and calls == []
        assert cert.witness == find_feasible(i1) and calls == [i1]
        assert cert.witness is cert.witness and len(calls) == 1  # built once

    def test_membership_needs_one_value_per_arc(self, i1):
        assert membership(i1, (1, 1))
        assert not membership(i1, (1, 1, 7))
        assert not membership(i1, (1,))
        assert not membership(i1, ())

    def test_infeasible_witness_is_none(self, i1, monkeypatch):
        monkeypatch.setattr(baseflow, "find_feasible", mock.Mock(side_effect=AssertionError))
        cert = check_feasible(replace(i1, base=BaseOracle.from_table(2, [0, -3, 3, 0])))
        assert not cert.feasible and cert.witness is None


@contextmanager
def scanned_instances():
    """Spy on the computation of `Instance.violator`: yields the list of
    every instance whose slack was scanned, in order."""
    verdict = Instance.__dict__["violator"]
    real, scans = verdict.func, []
    with mock.patch.object(verdict, "func", lambda inst: scans.append(inst) or real(inst)):
        yield scans


def repeat_scans(scans):
    """The number of scans of an instance equal to one scanned before (same
    digraph and base objects, equal bounds), after asserting that no object
    is scanned twice."""
    assert len({id(inst) for inst in scans}) == len(scans)
    seen, repeats = set(), 0
    for inst in scans:
        key = (id(inst.digraph), id(inst.base), inst.bounds)
        repeats += key in seen
        seen.add(key)
    return repeats


class TestOneVerdictPerInstance:
    """An instance never changes, so its slack is scanned for a violator
    once however many callers ask for its verdict: `check_feasible` in
    `cmd_solve` and `solve_decmin`, `finitize_bounds`, `find_feasible`
    and the probes of `compute_beta`.  The pinned scan counts catch a new
    scan of an instance the solver did not scan before."""

    DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

    @pytest.mark.parametrize("argv, count, repeats", [
        (["solve", "i6.json"], 3, 0),
        (["solve", "--min-cost", "i1.json"], 2, 0),
        (["orient", "triangle.json"], 5, 0)], ids=["solve", "min-cost", "orient"])
    def test_cli_runs(self, capsys, argv, count, repeats):
        with scanned_instances() as scans:
            assert cli.main(argv[:-1] + [os.path.join(self.DATA, argv[-1])]) == 0
        capsys.readouterr()
        assert (len(scans), repeat_scans(scans)) == (count, repeats)

    def test_phase_corpus(self):
        with scanned_instances() as scans:
            phases = sum(len(solve_decmin(levels_instance(n, seed)).traces)
                         for n in range(2, 8) for seed in (1, 2))
        assert phases == 22
        assert (len(scans), repeat_scans(scans)) == (98, 0)

    @pytest.mark.parametrize("workload, argv, count, repeats", [
        ("solve-cut", ["solve"], 715, 0),
        ("mincost-wide", ["solve", "--min-cost"], 411, 0),
        ("orient-mixed", ["orient"], 940, 0)],
        ids=["solve-cut", "mincost-wide", "orient-mixed"])
    def test_bench_corpus(self, tmp_path, capsys, workload, argv, count, repeats):
        """One pass over the seed-1 bench corpus: 1,431 / 891 / 1,391 scans
        when every caller scanned for itself, 579 / 480 / 212 of them of
        an object scanned before."""
        paths = corpus.write_corpus(workload, 1, CORPUS_SIZE, str(tmp_path))
        with scanned_instances() as scans:
            for path in paths:
                cli.main(argv + [path])
        capsys.readouterr()
        assert (len(scans), repeat_scans(scans)) == (count, repeats)


def fresh_slack(inst):
    b = inst.bounds
    return (-inst.base.values).plus_cut(inst.digraph, b.upper, b.lower)


HUGE = 1 << 62


def random_side(rng, lower):
    """A bound drawn from small values, an infinity (a +inf count that
    moves) and values from 2^62 to past int64 (the int64 <-> object
    switches)."""
    kind = rng.random()
    if kind < 0.15:
        return NEG_INF if lower else POS_INF
    if kind < 0.3:
        return rng.choice((-1, 1)) * (rng.choice((HUGE, 2 * HUGE + 1, HUGE << 8))
                                      - rng.randint(0, 3))
    return rng.randint(-3, 3)


def random_bounds_with_infinities(rng, m):
    lower, upper = [], []
    for _ in range(m):
        lo, hi = random_side(rng, True), random_side(rng, False)
        if not lo <= hi:
            lo, hi = (hi, lo) if is_finite(lo) and is_finite(hi) else (NEG_INF, POS_INF)
        lower.append(lo)
        upper.append(hi)
    return Bounds(tuple(lower), tuple(upper))


def random_rebound(rng, b):
    """The bounds `b` with fresh bounds on some arcs."""
    arcs = rng.sample(range(len(b)), rng.randint(1, len(b)))
    fresh = random_bounds_with_infinities(rng, len(b))
    lower, upper = list(b.lower), list(b.upper)
    for e in arcs:
        lower[e], upper[e] = fresh.lower[e], fresh.upper[e]
    return Bounds(tuple(lower), tuple(upper))


def random_copy(rng, inst):
    """A `with_bounds` copy with fresh bounds on some arcs, or a
    `with_focus` copy that drops some focus arcs."""
    if rng.random() < 0.6:
        return inst.with_bounds(random_rebound(rng, inst.bounds))
    return inst.with_focus(e for e in inst.focus if rng.random() < 0.7)


def random_wide_base(rng, n):
    """A `random_base`, or a finite one with values near 2^58."""
    if rng.random() < 0.6 or n == 1:
        return random_base(rng, n)
    table = random_finite_supermodular(rng, n)
    return BaseOracle.from_table(n, [(v << 56) + rng.choice((0, 1)) * v for v in table])


def random_face(rng, base):
    """The face of `base` along a random chain of its finite sets."""
    p = base.values
    members = [c for c in random_chain(rng, base.n) if not (p.pos[c] or p.neg[c])]
    return base.face_contract(Chain(base.n, tuple(members)))


class TestDerivedSlack:
    """`with_bounds` / `with_focus` / `with_face` copies are made with the
    slack of the instance they were made from moved to their bounds and
    base; it must equal a fresh `plus_cut`."""

    def test_chains_match_a_rebuild(self):
        rng = random.Random(18)
        graphs = [d for d in all_small_digraphs(4, 4) if d.arc_count]
        copies = wide = 0
        for _ in range(300):
            inst = random_instance(rng, rng.choice(graphs))
            inst = inst.with_bounds(random_bounds_with_infinities(rng, inst.digraph.arc_count))
            for _ in range(rng.randint(1, 6)):
                with mock.patch.object(baseflow.ExtArray, "plus_cut", autospec=True,
                                       side_effect=baseflow.ExtArray.plus_cut) as spy:
                    inst = random_copy(rng, inst)
                assert spy.call_count == 0  # a copy moves its parent's slack
                copies += 1
                wide += inst.slack.fin.dtype == object
                assert ext_array_parts(inst.slack) == ext_array_parts(fresh_slack(inst))
        # values past 2^62 widened some to Python ints
        assert copies > 500 and wide > 100

    def test_face_copies_match_a_rebuild(self):
        # `with_face` copies, on faces of bases with -inf entries and of
        # bases with values near 2^58, mixed with bound and focus copies
        rng = random.Random(24)
        graphs = [d for d in all_small_digraphs(4, 4) if d.arc_count]
        faces = unbounded = near = wide = counted = 0
        for _ in range(300):
            d = rng.choice(graphs)
            inst = Instance(d, random_bounds_with_infinities(rng, d.arc_count),
                            random_wide_base(rng, d.node_count))
            inst.slack  # the one build, at the root
            for _ in range(rng.randint(1, 6)):
                with mock.patch.object(baseflow.ExtArray, "plus_cut", autospec=True,
                                       side_effect=baseflow.ExtArray.plus_cut) as spy:
                    if rng.random() < 0.5:
                        inst = inst.with_face(random_rebound(rng, inst.bounds),
                                              random_face(rng, inst.base), inst.focus)
                        faces += 1
                    else:
                        inst = random_copy(rng, inst)
                assert spy.call_count == 0
                unbounded += bool(inst.base.values.neg.any())
                wide += inst.slack.fin.dtype == object
                near += inst.base.values.bound >> 56 > 0 and inst.slack.fin.dtype == np.int64
                counted += inst.slack.pos.dtype == np.int64
                fresh = fresh_slack(inst)
                assert ext_array_parts(inst.slack) == ext_array_parts(fresh)
                assert inst.slack.neg is inst.base.values.pos
        assert faces > 400 and unbounded > 100 and near > 50 and wide > 100 and counted > 100

    def test_one_plus_cut_per_chain_at_its_root(self):
        # chains that move bounds between finite values and infinities
        rng = random.Random(19)
        graphs = [d for d in all_small_digraphs(4, 4) if d.arc_count]
        real = baseflow.ExtArray.plus_cut
        shared = moved = kept = 0
        for _ in range(200):
            root = random_instance(rng, rng.choice(graphs))
            root = replace(root, bounds=random_bounds_with_infinities(rng, root.digraph.arc_count))
            built = []
            with mock.patch.object(baseflow.ExtArray, "plus_cut",
                                   lambda *args: built.append(real(*args)) or built[-1]):
                chain = [root]
                for _ in range(rng.randint(1, 6)):
                    chain.append(random_copy(rng, chain[-1]))
            assert len(built) == 1 and built[0] is root.slack
            for parent, child in zip(chain, chain[1:]):
                assert ext_array_parts(child.slack) == ext_array_parts(fresh_slack(child))
                old, new = parent.bounds, child.bounds
                changed = [v for pair in zip(old.upper + old.lower, new.upper + new.lower)
                           if pair[0] != pair[1] for v in pair]
                if all(map(is_finite, changed)):
                    assert child.slack.pos is parent.slack.pos
                    shared += 1
                else:
                    assert child.slack.pos.dtype == np.int64
                    moved += 1
            if all(map(is_finite, root.bounds.upper + root.bounds.lower)):
                assert root.slack.pos is root.base.values.neg  # the bools of -p
                kept += 1
            else:
                assert root.slack.pos.dtype == np.int64
        assert shared > 100 and moved > 100 and kept > 5

    def test_deep_chain_of_copies(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((0, 0), (1, 1)), BaseOracle.zero(2))
        for k in range(3000):
            inst = inst.with_bounds(Bounds((0, 0), (POS_INF if k % 7 == 0 else k % 3, 1)))
        assert ext_array_parts(inst.slack) == ext_array_parts(fresh_slack(inst))

    def test_widens_to_object_and_back(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((0, 0), (1, 1)), BaseOracle.zero(2))
        assert inst.slack.fin.dtype == np.int64
        wide = inst.with_bounds(Bounds((0, 0), (2 * HUGE + 1, 1)))  # past int64
        assert wide.slack.fin.dtype == object
        assert ext_array_parts(wide.slack) == ext_array_parts(fresh_slack(wide))
        narrow = wide.with_bounds(inst.bounds)
        assert ext_array_parts(narrow.slack) == ext_array_parts(inst.slack)

    def test_focus_copy_shares_the_slack(self, i1):
        slack = i1.slack
        assert i1.with_focus(frozenset()).slack is slack

    def test_unbuilt_parent_is_built_first(self, i1):
        assert "slack" not in i1.__dict__
        child = i1.with_bounds(Bounds((0, 0), (1, 2)))
        assert "slack" in i1.__dict__ and "slack" in child.__dict__
        assert ext_array_parts(child.slack) == ext_array_parts(fresh_slack(child))
        assert ext_array_parts(i1.slack) == ext_array_parts(fresh_slack(i1))

    def test_finitize_without_changes_keeps_the_slack(self):
        # finite focus bounds, none above the witness: no bound moves
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((-1, NEG_INF), (0, POS_INF)), BaseOracle.zero(2),
                        frozenset([0]))
        out = finitize_bounds(inst)
        assert out.bounds == inst.bounds and out.slack is inst.slack

    def test_finitize_moves_the_slack_once(self):
        # the focus arc's upper bound +inf is capped at the witness maximum
        # 0; the result is derived from the capped copy, not from inst again
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((0, 0), (POS_INF, 2)), BaseOracle.zero(2), frozenset([0]))
        real = baseflow.ExtArray._move_cut
        moved = []

        def counting(self, arcs):
            out = real(self, arcs)
            if out is not self:
                moved.append(out)
            return out

        inst.slack
        with mock.patch.object(baseflow.ExtArray, "_move_cut", counting):
            out = finitize_bounds(inst)
        assert out.bounds.upper == (0, 2)
        assert len(moved) == 1 and moved[0] is out.slack


class TestFindFeasible:
    def test_forced_when_tight(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        inst = Instance(d, Bounds((1, 1), (1, 1)), BaseOracle.zero(2))
        assert find_feasible(inst) == (1, 1)

    def test_unique_point(self, i6):
        assert find_feasible(i6) == (1, 1)

    def test_saturating_arcs_fixed_below_their_upper_bound(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        at_most_zero = Instance(d, Bounds((-3, -3), (0, 0)), BaseOracle.zero(2))
        assert find_feasible(at_most_zero) == (0, 0)
        assert find_feasible(at_most_zero, {0}) == (-1, -1)
        # saturating arcs are fixed first: arc 1 takes -1 before arc 0 could
        # take 0 and pin it at its upper bound
        assert find_feasible(at_most_zero, {1}) == (-1, -1)
        positive = Instance(d, Bounds((0, 0), (3, 3)), BaseOracle.zero(2))
        assert find_feasible(positive, {0, 1}) == (0, 0)

    def test_below_breakpoint_start_saves_lupmin_augmentations(self):
        # lupmin's augmentations from the plain coordinate-fixing start, in
        # which saturating arcs take 0 like any other
        def augmentations(start):
            with mock.patch.object(baseflow, "find_feasible", start), \
                    mock.patch.object(baseflow, "_bottleneck",
                                      wraps=baseflow._bottleneck) as widths:
                for inst, L in cases:
                    lupmin_solve(Instance(inst.digraph, inst.bounds, inst.base), L)
            return widths.call_count

        rng = random.Random(23)
        cases = []
        for inst in feasible_corpus(23, 300, max_nodes=4, require_arcs=True):
            b = inst.bounds
            L = [e for e in inst.digraph.arc_ids() if is_finite(b.lower[e])
                 and is_finite(b.upper[e]) and b.lower[e] != b.upper[e]]
            if L:
                cases.append((inst, frozenset(rng.sample(L, rng.randint(1, len(L))))))
        plain = augmentations(lambda inst, saturating=(): find_feasible(inst))
        assert augmentations(find_feasible) < plain // 2

    def test_infeasible_raises(self, i1):
        bad = replace(i1, base=BaseOracle.from_table(2, [0, -3, 3, 0]))
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
    @pytest.mark.parametrize("y, s, t, match", [
        ((1, -1), 2, 0, "endpoint s = 2 is not a node"),
        ((1, -1), -1, 0, "endpoint s = -1 is not a node"),
        ((1, -1), 0, 5, "endpoint t = 5 is not a node"),
        ((1, -1, 0), 0, 1, "y has 3 entries"),
        ((1,), 0, 1, "y has 1 entries"),
    ], ids=["s-high", "s-negative", "t-high", "y-long", "y-short"])
    def test_bad_arguments_named(self, b3_points, y, s, t, match):
        base = BaseOracle.from_points(b3_points, 2)
        with pytest.raises(ValueError, match=match):
            exchange_capacity(base, y, s, t)

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

    def test_all_tight_short_circuit(self, b3_points):
        # with every arc fixed the cycle search sees only zero-cost
        # exchange arcs: none under the zero base, both ways under b3
        d = Digraph(2, ((0, 1), (1, 0)))
        for base in (BaseOracle.zero(2), BaseOracle.from_points(b3_points, 2)):
            inst = Instance(d, Bounds((2, 2), (2, 2)), base)
            x, pi = min_cost_flow(inst, (7, -7))
            assert x == (2, 2) and pi.values == (0, 0)

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, np.int64(1), "1", None])
    def test_non_int_cost_rejected_before_any_work(self, i1, bad):
        with mock.patch.object(baseflow, "find_feasible", side_effect=AssertionError):
            with pytest.raises(ValueError, match="arc 1: cost .* is not an integer"):
                min_cost_flow(i1, (0, bad))
        assert "slack" not in i1.__dict__

    def test_fractional_costs_rejected(self):
        # fractional costs used to reach the cycle search and end in a
        # CertificateError, the verdict of an engine bug
        rng = random.Random(3)
        graphs = [d for d in all_small_digraphs(4, 4) if d.arc_count]
        for _ in range(400):
            d = rng.choice(graphs)
            inst = Instance(d, random_bounds(rng, d.arc_count), BaseOracle.zero(d.node_count))
            cost = [rng.randint(-3, 3) for _ in d.arc_ids()]
            cost[rng.randrange(d.arc_count)] = rng.choice((-1, 1)) * rng.randint(1, 9) / 4
            with pytest.raises(ValueError, match="is not an integer"):
                min_cost_flow(inst, cost)

    def test_min_cost_decmin_inherits_the_cost_check(self, i1):
        with pytest.raises(ValueError, match="is not an integer"):
            solve_min_cost_decmin(replace(i1, focus=frozenset({0})), (0.5, 0))

    @pytest.mark.parametrize("cost, match", [
        ((0.5, 0), "is not an integer"), ((0, True), "is not an integer"),
        ((1,), "cost length"), ((1, 0, 0), "cost length")])
    def test_min_cost_decmin_checks_costs_before_solving(self, i1, cost, match):
        with mock.patch.object(decmin, "solve_decmin", wraps=decmin.solve_decmin) as spy:
            with pytest.raises(ValueError, match=match):
                solve_min_cost_decmin(replace(i1, focus=frozenset({0})), cost)
        assert spy.call_count == 0

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

    def test_potentials_are_distances_on_two_slope_corpus(self):
        # lupmin's phase solves: zero costs, every finite, non-tight arc
        # saturating (one more on its last unit)
        levels = set()
        for inst in feasible_corpus(13, 80, require_arcs=True):
            b = inst.bounds
            L = {e for e in inst.digraph.arc_ids() if is_finite(b.lower[e])
                 and is_finite(b.upper[e]) and b.lower[e] != b.upper[e]}
            if L:
                cost = (0,) * inst.digraph.arc_count
                x, pi = min_cost_flow(inst, cost, saturating=L)
                assert_potentials_are_distances(inst, cost, x, pi, L)
                levels.add(len(set(pi.values)))
        assert levels == {1, 2, 3}


def ref_min_cost_flow(inst, cost):
    """The unit-step loop that min_cost_flow ran before bottleneck steps:
    one unit around each fewest-arc negative cycle, each step checked."""
    x = list(find_feasible(inst))
    n = inst.digraph.node_count
    while True:
        sums = subset_sums(node_net_inflow(inst.digraph, x))
        found = baseflow._min_arc_negative_cycle(n, baseflow._aux_arcs(inst, x, sums, cost))
        if isinstance(found, DualPotential):
            return tuple(x)
        for (_, _, _, step) in found:
            if step is not None:
                e, sign, _ = step
                x[e] += sign
        if not baseflow.membership(inst, x):
            raise CertificateError("augmentation left the feasible region")


def ref_potentials(n, arcs):
    """Shortest-walk distances from an implicit all-zero source, by a
    separate Bellman-Ford pass, shifted to minimum zero."""
    d = [0] * n
    for _ in range(n + 1):
        changed = False
        for (a, b, c, _) in arcs:
            if d[a] + c < d[b]:
                d[b] = d[a] + c
                changed = True
        if not changed:
            break
    else:
        raise CertificateError("negative cycle survived cancellation")
    base = min(d) if d else 0
    return [v - base for v in d]


def ref_min_arc_negative_cycle(n: int, arcs: list):
    """The cycle search before it ran Bellman-Ford first: layered
    relaxation to n arcs, the potentials read off the layers."""
    dist = [[None] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = 0
    reach = [0] * n  # least walk cost into each node; layer 0 holds the empty walks
    parent = {}
    for k in range(1, n + 1):
        ndist = [[None] * n for _ in range(n)]
        improved = False
        for (a, bb, c, tag) in arcs:
            for u in range(n):
                du = dist[u][a]
                if du is None:
                    continue
                cand = du + c
                if ndist[u][bb] is None or cand < ndist[u][bb]:
                    ndist[u][bb] = cand
                    parent[(k, u, bb)] = (a, (a, bb, c, tag))
                    improved = True
                    if cand < reach[bb]:
                        reach[bb] = cand
        dist = ndist
        if not improved:
            break
        for u in range(n):
            if dist[u][u] is not None and dist[u][u] < 0:
                cycle = []
                node = u
                for kk in range(k, 0, -1):
                    prev, arc = parent[(kk, u, node)]
                    cycle.append(arc)
                    node = prev
                cycle.reverse()
                return cycle
    low = min(reach, default=0)
    return DualPotential(tuple(d - low for d in reach))


def random_aux_arcs(rng, n):
    """Aux arcs on n nodes with parallel arcs, costs that node potentials
    make nonnegative (zero on some arcs, so zero-cost cycles), a few
    arbitrary costs, and half the time one planted cycle of 1..n arcs with
    negative cost."""
    phi = [rng.randint(-4, 4) for _ in range(n)]
    arcs = []
    for _ in range(rng.randint(0, 3 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b and n > 1:
            continue
        reduced = rng.choice((0, 0, 1, 3)) if rng.random() < 0.9 else rng.randint(-3, 3)
        for _ in range(1 if rng.random() < 0.8 else 2):  # parallel copies
            arcs.append((a, b, phi[b] - phi[a] + reduced))
            reduced += rng.randint(0, 1)
    planted = 0
    if rng.random() < 0.5:
        planted = rng.randint(1, n)
        nodes = rng.sample(range(n), planted)
        reduced = [rng.randint(-2, 2) for _ in nodes]
        reduced[-1] -= sum(reduced) + rng.randint(1, 3)  # a negative total
        for i, (a, r) in enumerate(zip(nodes, reduced)):
            b = nodes[(i + 1) % planted]
            arcs.append((a, b, phi[b] - phi[a] + r))
    rng.shuffle(arcs)
    return [(a, b, c, (i, (1, -1)[i % 2], i + 1) if i % 3 else None)
            for i, (a, b, c) in enumerate(arcs)], planted


class TestCycleSearch:
    def test_matches_the_layered_search(self):
        rng = random.Random(20)
        lengths, potentials = set(), 0
        for _ in range(3000):
            n = rng.randint(1, 8)
            arcs, planted = random_aux_arcs(rng, n)
            got = baseflow._min_arc_negative_cycle(n, arcs)
            assert got == ref_min_arc_negative_cycle(n, arcs)
            if isinstance(got, DualPotential):
                assert not planted
                potentials += 1
            else:
                lengths.add(len(got))
        assert potentials > 500 and lengths == set(range(1, 9))

    def test_potentials_of_a_long_descending_path(self):
        # each pass settles one more node: n - 1 passes, then one quiet one
        n = 8
        arcs = [(v, v + 1, -1, (v, 1, 1)) for v in range(n - 1)]
        arcs.reverse()
        got = baseflow._min_arc_negative_cycle(n, arcs)
        assert got == ref_min_arc_negative_cycle(n, arcs)
        assert got.values == tuple(range(n - 1, -1, -1))


def assert_potentials_are_distances(inst, cost, x, pi, saturating=frozenset()):
    """The potentials min_cost_flow returned with x are the Bellman-Ford
    distances over the auxiliary arcs at x."""
    arcs = baseflow._aux_arcs(inst, x, subset_sums(node_net_inflow(inst.digraph, x)), cost,
                              saturating)
    assert list(pi.values) == ref_potentials(inst.digraph.node_count, arcs)


def counting_membership():
    """Patch baseflow.membership with a spy; its call_count is the number
    of membership checks, find_feasible's included."""
    return mock.patch.object(baseflow, "membership", wraps=baseflow.membership)


def flow_cost(cost, x):
    return sum(c * v for c, v in zip(cost, x))


@st.composite
def wide_instances(draw):
    """n <= 4 nodes, up to 6 arcs of width up to 50 around a feasible flow
    x0, and costs in -5..5.  The base is zero (x0 = 0) or the M-convex box
    of every y with y(V) = 0 within 1 of the net in-flow of x0."""
    n = draw(st.integers(2, 4))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = tuple(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6)))
    zero = draw(st.booleans())
    x0 = [0 if zero else draw(st.integers(-10, 10)) for _ in arcs]
    below = [draw(st.integers(0, 50)) for _ in arcs]
    above = [draw(st.integers(0, 50 - b)) for b in below]
    digraph = Digraph(n, arcs)
    if zero:
        base = BaseOracle.zero(n)
    else:
        psi = node_net_inflow(digraph, x0)
        points = [tuple(p + d for p, d in zip(psi, step))
                  for step in itertools.product((-1, 0, 1), repeat=n) if sum(step) == 0]
        base = BaseOracle.from_points(points, n)
    bounds = Bounds(tuple(v - b for v, b in zip(x0, below)),
                    tuple(v + a for v, a in zip(x0, above)))
    cost = tuple(draw(st.integers(-5, 5)) for _ in arcs)
    return Instance(digraph, bounds, base), cost


class TestBottleneckAugmentation:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(wide_instances())
    def test_matches_unit_steps(self, drawn):
        inst, cost = drawn
        with counting_membership() as spy:
            x, pi = min_cost_flow(inst, cost)
        calls = spy.call_count
        with counting_membership() as spy:
            # its own instance, so neither solve reads a flow the other stored
            ref = ref_min_cost_flow(Instance(inst.digraph, inst.bounds, inst.base), cost)
        assert flow_cost(cost, x) == flow_cost(cost, ref)
        verify_optimality(inst, cost, x, pi)
        assert_potentials_are_distances(inst, cost, x, pi)
        assert calls <= spy.call_count

    @pytest.mark.parametrize("base", ["zero", "points"])
    def test_membership_checks_independent_of_width(self, base):
        counts = []
        for width in (10, 10 ** 6):
            with counting_membership() as spy:
                min_cost_flow(mincost_instance(width, base), MINCOST_COST)
            counts.append(spy.call_count)
        assert counts[0] == counts[1]

    def test_one_subset_sum_table_per_cycle_search(self):
        # the exchange arcs and the bottleneck's exchange capacities are
        # read off the same table: 4 searches (3 augmentations, then the
        # potentials) make 4 tables
        with mock.patch.object(baseflow, "subset_sums", wraps=subset_sums) as tables, \
                mock.patch.object(baseflow, "_min_arc_negative_cycle",
                                  wraps=baseflow._min_arc_negative_cycle) as searches, \
                mock.patch.object(baseflow, "_bottleneck", wraps=baseflow._bottleneck) as widths:
            min_cost_flow(mincost_instance(10 ** 6, "points"), MINCOST_COST)
        assert any(step is None for call in widths.call_args_list
                   for (_, _, _, step) in call.args[2])
        assert searches.call_count == tables.call_count == 4

    def test_fewest_arc_cycles_below_six_nodes_take_their_bottleneck(self):
        # no two exchange arcs of a fewest-arc cycle are consecutive, so
        # below 6 nodes a cycle holds at most two, and each step that
        # `_bottleneck` caps passes the membership recheck
        rng = random.Random(37)
        search, apply_cycle, member = (baseflow._min_arc_negative_cycle,
                                       baseflow._apply_cycle, baseflow.membership)
        exchanges, verdicts = [], []  # per cycle; per step, its first check

        def spy_search(n, arcs):
            found = search(n, arcs)
            if not isinstance(found, DualPotential):
                flags = [step is None for (_, _, _, step) in found]
                assert not any(a and b for a, b in zip(flags, flags[1:] + flags[:1]))
                exchanges.append(sum(flags))
            return found

        def spy_apply(x, cycle, delta):
            apply_cycle(x, cycle, delta)
            verdicts.append(None)

        def spy_membership(inst, x):
            ok = member(inst, x)
            if verdicts and verdicts[-1] is None:
                verdicts[-1] = ok
            return ok

        with mock.patch.object(baseflow, "_min_arc_negative_cycle", spy_search), \
                mock.patch.object(baseflow, "_apply_cycle", spy_apply), \
                mock.patch.object(baseflow, "membership", spy_membership):
            for _ in range(1500):
                n = rng.choice((2, 3, 4, 4, 5, 5, 5))  # two exchange arcs need 4 nodes
                pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
                d = Digraph(n, tuple(rng.sample(pairs, rng.randint(1, min(8, len(pairs))))))
                inst = Instance(d, random_bounds(rng, d.arc_count, -4, 4), random_base(rng, n))
                if inst.violator is not None:
                    continue
                cost = tuple(rng.randint(-3, 3) for _ in d.arc_ids())
                saturating = frozenset(e for e in d.arc_ids() if rng.random() < 0.2)
                min_cost_flow(inst, cost, saturating)
        assert exchanges.count(2) >= 10 and max(exchanges) == 2
        assert verdicts == [True] * len(exchanges)

    def test_rejected_step_raises(self, monkeypatch):
        # the membership recheck is a certificate: a step it rejects raises
        # at once, with no retry at a smaller step
        steps = []
        apply_cycle, member = baseflow._apply_cycle, baseflow.membership

        def recording_apply(x, cycle, delta):
            steps.append(delta)
            apply_cycle(x, cycle, delta)

        monkeypatch.setattr(baseflow, "_apply_cycle", recording_apply)
        monkeypatch.setattr(baseflow, "membership", lambda inst, x: not steps and member(inst, x))
        with pytest.raises(CertificateError, match="augmentation left the feasible region"):
            min_cost_flow(mincost_instance(10, "zero"), MINCOST_COST)
        assert steps == [5]


class TestDualPotential:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            DualPotential((1, 2))
        with pytest.raises(ValueError):
            DualPotential((-1, 0))
        assert DualPotential((0, 3))[1] == 3

    @pytest.mark.parametrize("values", [(0, 1.7), (0.0, 1), (0, "1")])
    def test_non_integers_rejected(self, values):
        with pytest.raises(ValueError, match="potential .* is not an integer"):
            DualPotential(values)

    def test_integer_like_values_read_by_index(self):
        assert DualPotential((np.int64(0), 2)).values == (0, 2)
