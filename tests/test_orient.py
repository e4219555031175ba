import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairflow.orient
from fairflow.baseflow import Infeasible
from fairflow.oracle import enumerate_Q
from fairflow.orient import (
    MixedGraph,
    OrientationInfeasible,
    brute_orientations,
    cut_certificate,
    decmin_orientation,
    decode,
    encode,
)
from fairflow.setfn import BaseOracle, check_fully_supermodular


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
        assert check_fully_supermodular(enc.instance.base.p)[0]

    def test_infeasible_raises_with_certificate(self):
        path = MixedGraph(3, (), ((0, 1), (1, 2)), 1)
        with pytest.raises(OrientationInfeasible) as err:
            encode(path)
        assert err.value.cut_mask is not None

    def test_degree_bound_narrows(self):
        enc = encode(triangle(), degree_bounds={0: (0, 0)})
        assert enumerate_Q(enc.instance) == []


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


@st.composite
def mixed_graphs(draw):
    n = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8))
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=3))
    return MixedGraph(n, tuple(arcs), tuple(edges), draw(st.sampled_from([1, 2])))


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
        assert (enc.instance.base.values.tolist()
                == BaseOracle.from_points(points, 2 * n).values.tolist())
        fixed = [sum(1 for _, v in mg.arcs if v == w) for w in range(n)]
        incident = [sum(1 for e in mg.edges if w in e) for w in range(n)]
        assert enc.instance.bounds.lower == (0,) * (len(mg.edges) + n)
        assert enc.instance.bounds.upper == (
            (1,) * len(mg.edges) + tuple(f + d for f, d in zip(fixed, incident)))

    def test_one_check_per_distinct_indegree_vector(self, monkeypatch):
        # K4 with every edge doubled: 4096 orientations, far fewer vectors
        mg = MixedGraph(4, (), tuple(combinations(range(4), 2)) * 2, 1)
        calls = []
        real = fairflow.orient.subset_sums

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(fairflow.orient, "subset_sums", counting)
        encode(mg)
        distinct = set(flip_indegrees(mg))
        assert len(distinct) == 201
        assert len(calls) == len(distinct)
