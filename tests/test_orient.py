import dataclasses
import random
from itertools import combinations, product

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairflow.baseflow
import fairflow.orient
from fairflow.baseflow import CertificateError, Infeasible, min_cost_flow
from fairflow.decmin import solve_decmin
from fairflow.oracle import check_pairs, enumerate_Q
from fairflow.orient import (
    MixedGraph,
    OrientationInfeasible,
    brute_orientations,
    cut_certificate,
    decmin_orientation,
    decode,
    encode,
    hub_instance,
)
from fairflow.setfn import BaseOracle, subset_sums

from conftest import table_of


def triangle(k=1):
    return MixedGraph(3, (), ((0, 1), (1, 2), (2, 0)), k)


class TestBruteOrientations:
    def test_triangle_two_cyclic(self):
        out = brute_orientations(triangle())
        assert len(out) == 8 - 6
        assert all(h == (1, 1, 1) for _, h in out)

    def test_single_edge_never_strong(self):
        assert brute_orientations(MixedGraph(2, (), ((0, 1),), 1)) == []

    def test_fixed_arcs_preserved(self):
        mg = MixedGraph(2, ((0, 1), (1, 0)), (), 1)
        out = brute_orientations(mg)
        assert out == [(0, (1, 1))]


class TestEncode:
    def test_triangle_bijection(self):
        enc = encode(triangle())
        points = enumerate_Q(enc.instance)
        oriented = brute_orientations(triangle())
        assert len(points) == len(oriented)
        decoded = set()
        for x in points:
            orientation, indeg = decode(enc, x)
            decoded.add(orientation)
            assert indeg in {h for _, h in oriented}
        assert len(decoded) == len(points)

    def test_base_is_supermodular(self):
        enc = encode(triangle())
        assert check_pairs(enc.instance.base.p, True)[0]

    def test_infeasible_raises_with_certificate(self):
        path = MixedGraph(3, (), ((0, 1), (1, 2)), 1)
        with pytest.raises(OrientationInfeasible) as err:
            encode(path)
        assert err.value.cut_mask is not None

    def test_degree_bound_narrows(self):
        enc = encode(triangle(), degree_bounds={0: (0, 0)})
        assert enumerate_Q(enc.instance) == []

    def test_decode_rejects_inconsistent_flow(self):
        # in-degree arcs that no flip vector matches are an engine fault,
        # not bad input
        enc = encode(triangle())
        x = list(enumerate_Q(enc.instance)[0])
        x[enc.indeg_arcs[0]] += 1
        x[enc.indeg_arcs[1]] -= 1
        with pytest.raises(CertificateError):
            decode(enc, x)


class TestCutCertificate:
    def test_bridge_detected(self):
        assert cut_certificate(MixedGraph(3, (), ((0, 1), (1, 2)), 1)) is not None

    def test_triangle_clean(self):
        assert cut_certificate(triangle()) is None

    def test_k2_on_triangle(self):
        assert cut_certificate(triangle(2)) is not None


class TestDecminOrientation:
    def test_triangle(self):
        orientation, indeg = decmin_orientation(triangle())
        assert indeg == (1, 1, 1)

    def test_four_cycle(self):
        c4 = MixedGraph(4, (), ((0, 1), (1, 2), (2, 3), (3, 0)), 1)
        assert decmin_orientation(c4)[1] == (1, 1, 1, 1)

    def test_k4_profile(self):
        k4 = MixedGraph(4, (), tuple(combinations(range(4), 2)), 1)
        _, indeg = decmin_orientation(k4)
        assert sorted(indeg, reverse=True) == [2, 2, 1, 1]

    def test_path_infeasible(self):
        with pytest.raises(OrientationInfeasible):
            decmin_orientation(MixedGraph(3, (), ((0, 1), (1, 2)), 1))

    def test_triangle_k2_infeasible(self):
        with pytest.raises(OrientationInfeasible):
            decmin_orientation(triangle(2))

    def test_degree_bound_infeasible(self):
        with pytest.raises(Infeasible):
            decmin_orientation(triangle(), degree_bounds={0: (0, 0)})

    def test_degree_bound_steers(self):
        # cyclic triangle orientations pin every in-degree at 1, so a floor
        # of 2 anywhere is unreachable
        with pytest.raises(Infeasible):
            decmin_orientation(triangle(), degree_bounds={0: (2, 3)})
        k4 = MixedGraph(4, (), tuple(combinations(range(4), 2)), 1)
        _, indeg = decmin_orientation(k4, degree_bounds={0: (2, 3)})
        assert indeg[0] == 2

    def test_mixed_graph_with_fixed_arcs(self):
        mg = MixedGraph(3, ((0, 1),), ((1, 2), (2, 0)), 1)
        orientation, indeg = decmin_orientation(mg)
        best = min((tuple(sorted(h, reverse=True)) for _, h in brute_orientations(mg)))
        assert tuple(sorted(indeg, reverse=True)) == best

    def test_edge_costs_pick_direction(self):
        # two strongly connected triangle orientations; costs break the tie
        fwd, _ = decmin_orientation(triangle(), edge_costs=[(0, 5), (0, 5), (0, 5)])
        rev, _ = decmin_orientation(triangle(), edge_costs=[(5, 0), (5, 0), (5, 0)])
        assert fwd == ((0, 1), (1, 2), (2, 0))
        assert rev == ((1, 0), (2, 1), (0, 2))

    @pytest.mark.parametrize("mg, costs", [
        (MixedGraph(2, (), ((0, 1),)), []),
        (triangle(), [(0.5, 0), (0, 1), (0, 1)]),
        (triangle(), [(True, False)] * 3),
        (triangle(), [("0", "1")] * 3),
        (triangle(), [(0, 1, 2)] * 3),
        (triangle(), [0] * 3),
    ], ids=["length", "float", "bool", "str", "triple", "scalar"])
    def test_edge_costs_length_checked_before_solving(self, monkeypatch, mg, costs):
        # a single edge has no strong orientation, so encoding it would
        # raise OrientationInfeasible and hide the bad cost list; a cost that
        # is not a pair of integers is bad input, never an engine fault
        def no_solve(inst):
            raise AssertionError("solve_decmin ran before the input check")

        monkeypatch.setattr(fairflow.orient, "solve_decmin", no_solve)
        with pytest.raises(ValueError, match="one \\(forward, reverse\\) cost pair per edge"):
            decmin_orientation(mg, edge_costs=costs)

    @pytest.mark.parametrize("bounds", [
        {3: (0, 1)}, {-1: (0, 1)}, {True: (0, 1)}, {"0": (0, 1)},
        {0: (0.5, 1)}, {0: (False, 1)}, {0: (0, 1, 2)}, {0: 1},
    ], ids=["above", "negative", "bool-node", "str-node", "float", "bool", "triple",
            "scalar"])
    def test_degree_bounds_checked(self, bounds):
        # the node keys used to be ignored, a bool bound read as an integer
        # and the others failed inside the solve with a numpy or unpacking error
        with pytest.raises(ValueError, match="is not a node and two integers"):
            decmin_orientation(triangle(), degree_bounds=bounds)


    @pytest.mark.parametrize("build", [decmin_orientation, hub_instance, encode],
                             ids=["decmin_orientation", "hub_instance", "encode"])
    def test_degree_bounds_checked_before_enumerating(self, build):
        # the path has no strong orientation; enumerating first reported
        # that as OrientationInfeasible and hid the bad bound
        path = MixedGraph(3, (), ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="is not a node and two integers"):
            build(path, degree_bounds={5: (0, 1)})


class TestRandomFamily:
    def test_matches_oracle(self):
        rng = random.Random(17)
        done = 0
        while done < 25:
            n = rng.randint(3, 5)
            pool = list(combinations(range(n), 2))
            rng.shuffle(pool)
            edges = tuple(pool[:rng.randint(n - 1, min(6, len(pool)))])
            arcs = tuple((u, v) if rng.random() < 0.5 else (v, u)
                         for u, v in pool[len(edges):len(edges) + rng.randint(0, 3)])
            mg = MixedGraph(n, arcs, edges, rng.choice([1, 2]))
            oriented = brute_orientations(mg)
            if not oriented:
                with pytest.raises(OrientationInfeasible):
                    decmin_orientation(mg)
            else:
                _, indeg = decmin_orientation(mg)
                best = min(tuple(sorted(h, reverse=True)) for _, h in oriented)
                assert tuple(sorted(indeg, reverse=True)) == best
            done += 1


def flip_indegrees(mg):
    """In-degree vector of every one of the 2^|E| orientations."""
    out = []
    for flips in range(1 << len(mg.edges)):
        h = [0] * mg.node_count
        for _, v in mg.arcs:
            h[v] += 1
        for j, (u, v) in enumerate(mg.edges):
            h[u if (flips >> j) & 1 else v] += 1
        out.append(tuple(h))
    return out


def ref_encode_base(mg):
    """The 2n-node base of `encode`, built one in-degree vector at a time:
    every distinct vector as a tuple, one connectivity check each, and the
    envelope of the surviving points (dref, -h) from `from_points`."""
    n = mg.node_count
    indegs = {tuple(sum(1 for _, v in mg.arcs if v == w) for w in range(n))}
    for u, v in mg.edges:
        indegs = {h[:w] + (h[w] + 1,) + h[w + 1:] for h in indegs for w in (u, v)}
    inside = [sum(1 for u, v in mg.arcs + mg.edges if (z >> u) & 1 and (z >> v) & 1)
              for z in range(1 << n)]
    feasible = [h for h in sorted(indegs)
                if np.all((subset_sums(h) - inside)[1:-1] >= mg.k)]
    if not feasible:
        raise OrientationInfeasible(
            f"no {mg.k}-edge-connected orientation exists", cut_certificate(mg))
    dref = tuple(sum(1 for _, v in mg.arcs + mg.edges if v == w) for w in range(n))
    return BaseOracle.from_points([dref + tuple(-d for d in h) for h in feasible], 2 * n)


def assert_base_matches_reference(mg):
    try:
        want = ref_encode_base(mg).values
    except OrientationInfeasible as err:
        with pytest.raises(OrientationInfeasible) as got:
            encode(mg)
        assert str(got.value) == str(err)
        assert got.value.cut_mask == err.cut_mask
        return
    got = encode(mg).instance.base.values
    assert got.fin.dtype == want.fin.dtype
    assert got.bound == want.bound
    for part in ("fin", "pos", "neg"):
        assert getattr(got, part).tolist() == getattr(want, part).tolist()


@st.composite
def mixed_graphs(draw, max_nodes=5, max_edges=8, max_repeat=1):
    n = draw(st.integers(2, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=max_edges))
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=3))
    arcs *= draw(st.integers(1, max_repeat))
    return MixedGraph(n, tuple(arcs), tuple(edges), draw(st.sampled_from([1, 2])))


# a 7-cycle of fixed arcs 1,100 times over: a mixed radix that counted the
# fixed arcs would pass 1100^7 > 2^63, while the edges alone give 3 * 2^6
MANY_FIXED_ARCS = MixedGraph(7, tuple((v, (v + 1) % 7) for v in range(7)) * 1100,
                             ((0, 1), (2, 3), (4, 5), (6, 0)), 1)
FIXED_CASES = [
    MANY_FIXED_ARCS,
    MixedGraph(4, (), tuple(combinations(range(4), 2)) * 2, 1),
    MixedGraph(4, (), tuple(combinations(range(4), 2)) * 2, 3),
    MixedGraph(5, ((0, 1), (1, 0)), ((1, 2), (2, 3), (3, 4), (4, 1), (0, 2)), 1),
    triangle(),
    triangle(2),
    MixedGraph(3, (), ((0, 1), (1, 2)), 1),
]


class TestEncodeByIndegrees:
    @settings(deadline=None, max_examples=60)
    @given(mixed_graphs())
    def test_matches_exhaustive_orientations(self, mg):
        n = mg.node_count
        feasible = sorted({h for _, h in brute_orientations(mg)})
        if not feasible:
            with pytest.raises(OrientationInfeasible) as err:
                encode(mg)
            assert err.value.cut_mask == cut_certificate(mg)
            return
        enc = encode(mg)
        ref = tuple(sum(1 for _, v in mg.arcs + mg.edges if v == w) for w in range(n))
        points = [ref + tuple(-d for d in h) for h in feasible]
        assert (table_of(enc.instance.base.p)
                == table_of(BaseOracle.from_points(points, 2 * n).p))
        fixed = [sum(1 for _, v in mg.arcs if v == w) for w in range(n)]
        incident = [sum(1 for e in mg.edges if w in e) for w in range(n)]
        assert enc.instance.bounds.lower == (0,) * (len(mg.edges) + n)
        assert enc.instance.bounds.upper == (
            (1,) * len(mg.edges) + tuple(f + d for f, d in zip(fixed, incident)))

    @settings(deadline=None, max_examples=80)
    @given(mixed_graphs(max_repeat=50))
    def test_base_matches_per_vector_reference(self, mg):
        assert_base_matches_reference(mg)

    @pytest.mark.parametrize("mg", FIXED_CASES)
    def test_base_matches_reference_on_fixed_cases(self, mg):
        assert_base_matches_reference(mg)

    def test_many_fixed_arcs_solve(self):
        _, indeg = decmin_orientation(MANY_FIXED_ARCS)
        assert sum(indeg) == 7 * 1100 + 4

    @pytest.mark.parametrize("entries", [1, 3 << 7])  # one row; 3 to 48 rows
    @pytest.mark.parametrize("mg", FIXED_CASES)
    def test_small_blocks(self, monkeypatch, mg, entries):
        monkeypatch.setattr(fairflow.orient, "_BLOCK_ENTRIES", entries)
        assert_base_matches_reference(mg)

    @pytest.mark.parametrize("mg", FIXED_CASES)
    def test_python_int_keys(self, monkeypatch, mg):
        monkeypatch.setattr(fairflow.orient, "int_dtype", lambda bound: object)
        assert_base_matches_reference(mg)

    def test_checks_independent_of_indegree_vector_count(self, monkeypatch):
        # K4 with every edge doubled: 4096 orientations, 201 in-degree
        # vectors, and as many subset-sum passes as plain K4
        k4 = MixedGraph(4, (), tuple(combinations(range(4), 2)), 1)
        doubled = MixedGraph(4, (), k4.edges * 2, 1)
        assert len(set(flip_indegrees(doubled))) == 201
        blocks = []
        real = fairflow.orient._block_sums

        def counting(keys, *args):
            blocks.append(len(keys))
            return real(keys, *args)

        monkeypatch.setattr(fairflow.orient, "_block_sums", counting)
        counts = []
        for mg in (k4, doubled):
            blocks.clear()
            encode(mg)
            counts.append(list(blocks))
        # one block each, holding every in-degree vector
        assert counts == [[len(set(flip_indegrees(k4)))], [201]]

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_block_sums_match_subset_sums(self, dtype):
        # each row of a block is the subset sums of its key's in-degree
        # vector; object keys pass 2^62, as they do once prod(radix) does
        rng = random.Random(7)
        largest = 0
        for _ in range(30):
            n = 7 if dtype is object else rng.randint(1, 7)
            radix = [rng.randint(500, 600) if dtype is object else rng.randint(1, 9)
                     for _ in range(n)]
            place = [1] * n
            for v in range(1, n):
                place[v] = place[v - 1] * radix[v - 1]
            keys = [rng.randrange(place[-1] * radix[-1]) for _ in range(rng.randint(1, 5))]
            largest = max(largest, *keys)
            fixed = tuple(rng.randint(0, 3) for _ in range(n))
            sums = fairflow.orient._block_sums(
                np.array(keys, dtype=dtype), np.array(place, dtype=dtype),
                np.array(radix, dtype=dtype), fixed)
            assert sums.dtype == np.int64
            assert sums.tolist() == [
                subset_sums([key // p % r + f for p, r, f in zip(place, radix, fixed)]).tolist()
                for key in keys]
        assert (largest >= 1 << 62) == (dtype is object)


class TestOrientationPremise:
    """The in-degree vectors of the k-ec orientations are the integral
    points of one base polyhedron (Frank, 1980) when at most k fixed arcs
    enter any node set; `NOT_M_CONVEX` below has more.  Points of a zero
    base sum to 0, so the base is built on h - dref, dref the in-degree with
    every edge in its reference direction, and a vector h is tested as
    h - dref."""

    @settings(deadline=None, max_examples=60)
    @given(mixed_graphs(max_nodes=4, max_edges=6))
    def test_integral_points_are_the_indegree_vectors(self, mg):
        n = mg.node_count
        indegs = {h for _, h in brute_orientations(mg)}
        if not indegs:
            return
        dref = tuple(sum(1 for _, v in mg.arcs + mg.edges if v == w) for w in range(n))
        base = BaseOracle.from_points(
            [tuple(a - b for a, b in zip(h, dref)) for h in indegs], n)
        enc_base = encode(mg).instance.base
        # y(v) >= p(v) and y(v) = -y(V - v) <= -p(V - v) keep every
        # integral point of the base inside the box of the given points
        box = [range(min(h[v] for h in indegs), max(h[v] for h in indegs) + 1)
               for v in range(n)]
        for h in product(*box):
            assert base.contains([a - b for a, b in zip(h, dref)]) == (h in indegs)
            assert enc_base.contains(dref + tuple(-d for d in h)) == (h in indegs)


def outcome(call):
    """(sorted in-degree profile, orientation, in-degrees) of a solve, or
    (exception type, cut mask, None)."""
    try:
        oriented, indeg = call()
    except (OrientationInfeasible, Infeasible) as err:
        return type(err), getattr(err, "cut_mask", None), None
    return tuple(sorted(indeg, reverse=True)), oriented, indeg


class TestHubEncoding:
    """The uncosted solve runs on V + hub: its integral flows are the
    in-degree vectors, and the orientation is recovered from them."""

    @settings(deadline=None, max_examples=60)
    @given(mixed_graphs(max_nodes=4, max_edges=6))
    def test_integral_points_are_the_indegree_vectors(self, mg):
        indegs = {h for _, h in brute_orientations(mg)}
        if not indegs:
            with pytest.raises(OrientationInfeasible) as err:
                hub_instance(mg)
            assert err.value.cut_mask == cut_certificate(mg)
            return
        inst = hub_instance(mg)
        assert inst.digraph.node_count == mg.node_count + 1
        assert sorted(enumerate_Q(inst)) == sorted(indegs)

    def test_matches_dense_encoding(self):
        # the 2n-node reference with all-zero costs has the same fair set
        rng = random.Random(23)
        solved = 0
        for _ in range(120):
            n = rng.randint(2, 5)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            edges = tuple(rng.choice(pairs) for _ in range(rng.randint(n - 1, 8)))
            arcs = tuple(rng.choice(pairs) for _ in range(rng.randint(0, 3)))
            mg = MixedGraph(n, arcs, edges, rng.choice([1, 2]))
            bounds = None
            if rng.random() < 0.5:
                bounds = {v: tuple(sorted(rng.randint(0, 4) for _ in "lh"))
                          for v in rng.sample(range(n), rng.randint(1, n))}
            hub = outcome(lambda: decmin_orientation(mg, bounds))
            dense = outcome(lambda: ref_costed_orientation(mg, bounds, [(0, 0)] * len(edges)))
            assert hub[0] == dense[0]
            if hub[2] is None:
                assert hub[1] == dense[1]
                continue
            solved += 1
            oriented, indeg = hub[1], hub[2]
            assert oriented[:len(arcs)] == arcs
            assert all(o in (e, e[::-1]) for o, e in zip(oriented[len(arcs):], edges))
            assert tuple(sum(1 for _, v in oriented if v == w) for w in range(n)) == indeg
            assert all(sum(1 for u, v in oriented if (z >> v) & 1 and not (z >> u) & 1) >= mg.k
                       for z in range(1, (1 << n) - 1))
            if bounds:
                assert all(lo <= indeg[v] <= hi for v, (lo, hi) in bounds.items())
        assert solved >= 30

    @pytest.mark.parametrize("h", [(0, 0, 3), (2, 2, 2)], ids=["no-flips", "wrong-total"])
    def test_unorientable_indegrees_are_an_engine_fault(self, monkeypatch, h):
        # a hub solve whose witness no flips reach, or whose total is not
        # |A| + |E|, is an engine fault
        real = fairflow.orient.solve_decmin
        monkeypatch.setattr(fairflow.orient, "solve_decmin",
                            lambda inst: dataclasses.replace(real(inst), witness=h))
        with pytest.raises(CertificateError):
            decmin_orientation(triangle())

    def test_flips_checked_against_indegrees(self, monkeypatch):
        # two parallel edges 0 -> 1 reach in-degrees (1, 1) only with a flip
        monkeypatch.setattr(fairflow.orient, "find_feasible",
                            lambda inst: (0,) * inst.digraph.arc_count)
        with pytest.raises(CertificateError):
            decmin_orientation(MixedGraph(2, (), ((0, 1), (0, 1))))


def ref_costed_orientation(mg, degree_bounds, edge_costs):
    """The costed path of `decmin_orientation` before it solved on the hub
    instance: the cheapest fair flow of the 2n-node `encode`, decoded."""
    enc = encode(mg, degree_bounds)
    result = solve_decmin(enc.instance)
    cost = [0] * enc.instance.digraph.arc_count
    for j, (fwd, rev) in enumerate(edge_costs):
        cost[enc.flip_arcs[j]] = rev - fwd
    x, _ = min_cost_flow(result.final, tuple(cost))
    return decode(enc, x)


def costed_outcome(call, mg, costs):
    """(sorted in-degree profile, cost) of a costed solve, or (exception
    type, cut mask)."""
    try:
        oriented, indeg = call()
    except (OrientationInfeasible, Infeasible) as err:
        return type(err), getattr(err, "cut_mask", None)
    assert oriented[:len(mg.arcs)] == mg.arcs
    assert all(o in (e, e[::-1]) for o, e in zip(oriented[len(mg.arcs):], mg.edges))
    flipped = [o != e for o, e in zip(oriented[len(mg.arcs):], mg.edges)]
    return tuple(sorted(indeg, reverse=True)), sum(c[f] for c, f in zip(costs, flipped))


def random_mixed_graph(rng):
    """A mixed graph on 2-6 nodes with up to 9 edges and 3 fixed arcs, and
    degree bounds on some of its nodes 40 % of the time."""
    n = rng.randint(2, 6)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = tuple(rng.choice(pairs) for _ in range(rng.randint(n - 1, 9)))
    arcs = tuple(rng.choice(pairs) for _ in range(rng.randint(0, 3)))
    bounds = None
    if rng.random() < 0.4:
        bounds = {v: tuple(sorted(rng.randint(0, 5) for _ in "lh"))
                  for v in rng.sample(range(n), rng.randint(1, n))}
    return MixedGraph(n, arcs, edges, rng.choice([1, 2])), bounds


class TestCostedOnHub:
    """With edge costs, the solve runs on the hub instance too, and the
    cheapest flips run over `_fair_flip_base`."""

    def test_matches_2n_node_reference(self):
        rng = random.Random(31)
        solved = 0
        for _ in range(600):
            mg, bounds = random_mixed_graph(rng)
            costs = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in mg.edges]
            got = costed_outcome(lambda: decmin_orientation(mg, bounds, costs), mg, costs)
            want = costed_outcome(lambda: ref_costed_orientation(mg, bounds, costs), mg, costs)
            assert got == want
            solved += isinstance(got[0], tuple)
        assert solved >= 150

    def test_hub_coordinate_stays_fixed(self):
        # `_fair_flip_base` reads the fair set off the V half of the narrowed
        # hub base, which needs p(Z + hub) = p(Z) - T through every face
        rng = random.Random(37)
        faces = 0
        for _ in range(300):
            mg, bounds = random_mixed_graph(rng)
            try:
                result = solve_decmin(hub_instance(mg, bounds))
            except (OrientationInfeasible, Infeasible):
                continue
            fin, half = result.final.base.values.fin, 1 << mg.node_count
            total = len(mg.arcs) + len(mg.edges)
            assert (fin[half:] + total).tolist() == fin[:half].tolist()
            faces += len(result.face_chains) > 0
        assert faces >= 50

    @pytest.mark.parametrize("costed", [False, True])
    def test_no_instance_above_n_plus_one_nodes(self, monkeypatch, costed):
        def unreachable(*args):
            raise AssertionError("the 2n-node reference encoding was reached")

        monkeypatch.setattr(fairflow.orient, "encode", unreachable)
        monkeypatch.setattr(fairflow.orient, "decode", unreachable)
        sizes = []
        real = fairflow.baseflow.Instance.__post_init__

        def counting(inst):
            sizes.append(inst.digraph.node_count)
            real(inst)

        monkeypatch.setattr(fairflow.baseflow.Instance, "__post_init__", counting)
        k4 = MixedGraph(4, ((0, 1),), tuple(combinations(range(4), 2)), 1)
        for mg, bounds in ((triangle(), None), (k4, {0: (2, 3)}), (MANY_FIXED_ARCS, None)):
            costs = [(j % 3, (j * 5) % 7) for j in range(len(mg.edges))] if costed else None
            sizes.clear()
            decmin_orientation(mg, bounds, costs)
            assert sizes and max(sizes) == mg.node_count + 1

    @pytest.mark.parametrize("flips", [(0, 0, 1), (1, 0, 0)])
    def test_unfair_cheapest_flips_are_an_engine_fault(self, monkeypatch, flips):
        # each gives a node in-degree 2 on the triangle, whose only fair
        # vector is (1, 1, 1)
        monkeypatch.setattr(fairflow.orient, "min_cost_flow", lambda inst, cost: (flips, None))
        with pytest.raises(CertificateError, match="not fair"):
            decmin_orientation(triangle(), edge_costs=[(0, 1)] * 3)


# two fixed arcs, more than k = 1, enter {0, 2}: here the in-degree vectors
# of the strong orientations are not the integral points of a base polyhedron
NOT_M_CONVEX = MixedGraph(4, ((1, 0), (3, 2)),
                          ((2, 3), (0, 2), (0, 2), (0, 1), (1, 0), (3, 1)), 1)


def test_indegree_vectors_can_fail_the_exchange_axiom():
    vectors = {h for _, h in brute_orientations(NOT_M_CONVEX)}
    x, y = (4, 1, 1, 2), (1, 3, 3, 1)
    assert x in vectors and y in vectors
    # x_3 > y_3, and no j with x_j < y_j has x - e_3 + e_j and y + e_3 - e_j
    # both in the set
    for j in (1, 2):
        step = [0] * 4
        step[3], step[j] = 1, -1
        assert (tuple(a - b for a, b in zip(x, step)) not in vectors
                or tuple(a + b for a, b in zip(y, step)) not in vectors)
    # and the hub base, the envelope of the vectors, is not supermodular
    assert not check_pairs(hub_instance(NOT_M_CONVEX).base.p, True)[0]


@pytest.mark.xfail(raises=CertificateError, strict=True,
                   reason="the hub base of a non-M-convex in-degree set is not supermodular")
@pytest.mark.parametrize("costs", [None, [(0, 0)] * 6], ids=["uncosted", "costed"])
def test_indegrees_outside_a_base_polyhedron(costs):
    bounds = {3: (0, 4), 1: (3, 4), 0: (1, 1)}
    _, indeg = decmin_orientation(NOT_M_CONVEX, bounds, costs)
    assert indeg == (1, 3, 3, 1)  # the only orientable vector in the bounds
