"""Shared fixtures: named miniature instances and seeded random corpora.

The named instances are the hand-checkable ones used throughout the unit
tests; the corpus generators drive the oracle-vs-engine acceptance suite.
All randomness is seeded so failures reproduce.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

import pytest

from fairflow.core import Bounds, Chain, Digraph, NEG_INF, POS_INF
from fairflow.baseflow import Instance
from fairflow.setfn import BaseOracle


@pytest.fixture
def i1():
    """Two-node circulation: e1=a->b, e2=b->a, bounds [0,2], base {0}."""
    d = Digraph(2, ((0, 1), (1, 0)))
    return Instance(d, Bounds((0, 0), (2, 2)), BaseOracle.zero(2), frozenset([0]))


@pytest.fixture
def i2():
    """I1 with lower bound 1 on the return arc."""
    d = Digraph(2, ((0, 1), (1, 0)))
    return Instance(d, Bounds((0, 1), (2, 2)), BaseOracle.zero(2), frozenset([0]))


@pytest.fixture
def i4():
    """e1=a->b in F with no lower bound; e2=b->a with no upper bound."""
    d = Digraph(2, ((0, 1), (1, 0)))
    return Instance(d, Bounds((NEG_INF, 0), (0, POS_INF)),
                    BaseOracle.zero(2), frozenset([0]))


@pytest.fixture
def i4p():
    """I4 with the return arc lower-unbounded too; profile runs away."""
    d = Digraph(2, ((0, 1), (1, 0)))
    return Instance(d, Bounds((NEG_INF, NEG_INF), (0, POS_INF)),
                    BaseOracle.zero(2), frozenset([0]))


@pytest.fixture
def i6():
    """Two parallel arcs a->b, bounds [0,1], base forcing in-flow 2 at b."""
    d = Digraph(2, ((0, 1), (0, 1)))
    base = BaseOracle.from_table(2, [0, -3, 2, 0])
    return Instance(d, Bounds((0, 0), (1, 1)), base, frozenset([0, 1]))


@pytest.fixture
def b3_points():
    """Three-point base on two nodes used by envelope and face examples."""
    return [(1, -1), (0, 0), (-1, 1)]


# --- corpus generators ------------------------------------------------------

def all_small_digraphs(max_nodes=3, max_arcs=4):
    """Every digraph with at most `max_nodes` nodes and `max_arcs` arcs,
    parallel arcs included."""
    out = []
    for n in range(1, max_nodes + 1):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for m in range(0, max_arcs + 1):
            for arcs in combinations_with_replacement(pairs, m):
                out.append(Digraph(n, arcs))
    return out


def random_finite_supermodular(rng, n):
    """Random fully supermodular table with value 0 on the full set.

    Built from certified supermodular pieces: induced-pair counts of a
    random multigraph, a convex function of the cardinality, and a modular
    tilt; an integer modular shift then zeroes the full-set value.
    """
    size = 1 << n
    table = [0] * size
    if n >= 2:
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(n), 2)
            pair = (1 << u) | (1 << v)
            w = rng.randint(1, 2)
            for m in range(size):
                if m & pair == pair:
                    table[m] += w
    if rng.random() < 0.5:
        c = rng.randint(1, 2)
        for m in range(size):
            k = bin(m).count("1")
            table[m] += c * (k * (k - 1) // 2)
    tilt = [rng.randint(-2, 2) for _ in range(n)]
    for m in range(size):
        table[m] += sum(tilt[v] for v in range(n) if (m >> v) & 1)
    total = table[size - 1]
    base_w, rem = divmod(total, n)
    shift = [base_w + (1 if v < rem else 0) for v in range(n)]
    for m in range(size):
        table[m] -= sum(shift[v] for v in range(n) if (m >> v) & 1)
    return table


def random_chain(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1))) if n > 1 else []
    members = []
    mask = 0
    prev = 0
    for c in cuts:
        for v in order[prev:c]:
            mask |= 1 << v
        members.append(mask)
        prev = c
    return Chain(n, tuple(members))


def random_base(rng, n):
    """Random fully supermodular zero-base oracle from one of three shapes:
    zero (circulations), a finite supermodular table, or values on a random
    chain with minus infinity elsewhere (an unbounded base)."""
    kind = rng.choice(["zero", "finite", "chain"])
    if kind == "zero" or n == 1:
        return BaseOracle.zero(n)
    if kind == "finite":
        return BaseOracle.from_table(n, random_finite_supermodular(rng, n))
    chain = random_chain(rng, n)
    table = [NEG_INF] * (1 << n)
    table[0] = 0
    table[(1 << n) - 1] = 0
    for m in chain:
        table[m] = rng.randint(-3, 3)
    return BaseOracle.from_table(n, table)


def table_of(fn):
    """Every value of a set function, by mask."""
    return tuple(fn(m) for m in range(1 << fn.n))


def ext_array_parts(a):
    """Everything that tells two ExtArrays apart, dtype included."""
    return a.fin.dtype, a.bound, a.fin.tolist(), a.pos.tolist(), a.neg.tolist()


def base_point_box(base):
    """Exact bounding box of a finite-table base polyhedron."""
    full = (1 << base.n) - 1
    lo = min(base.p(1 << v) for v in range(base.n))
    hi = max(-base.p(full ^ (1 << v)) for v in range(base.n))
    return lo, hi


def random_bounds(rng, m, lo=-2, hi=3):
    lower, upper = [], []
    for _ in range(m):
        a = rng.randint(lo, hi)
        b = rng.randint(lo, hi)
        lower.append(min(a, b))
        upper.append(max(a, b))
    return Bounds(tuple(lower), tuple(upper))


def random_instance(rng, digraph, focus=None):
    bounds = random_bounds(rng, digraph.arc_count)
    base = random_base(rng, digraph.node_count)
    if focus is None:
        focus = frozenset(e for e in digraph.arc_ids() if rng.random() < 0.5)
    return Instance(digraph, bounds, base, focus)


def feasible_corpus(seed, count, max_nodes=3, max_arcs=4, require_arcs=False):
    """Deterministic list of feasible instances for solver-level checks."""
    from fairflow.baseflow import find_violator

    rng = random.Random(seed)
    graphs = [d for d in all_small_digraphs(max_nodes, max_arcs)
              if not require_arcs or d.arc_count > 0]
    out = []
    while len(out) < count:
        d = rng.choice(graphs)
        inst = random_instance(rng, d)
        if find_violator(inst) is None:
            out.append(inst)
    return out


def one_infinite_corpus(seed, count, max_nodes=3, max_arcs=3):
    """Feasible instances with a nonempty focus and exactly one infinite
    bound, for the existence checks."""
    from fairflow.baseflow import find_violator

    rng = random.Random(seed)
    graphs = [d for d in all_small_digraphs(max_nodes, max_arcs)
              if d.arc_count > 0]
    out = []
    while len(out) < count:
        d = rng.choice(graphs)
        bounds = random_bounds(rng, d.arc_count)
        e = rng.randrange(d.arc_count)
        if rng.random() < 0.5:
            bounds = bounds.with_lower({e: NEG_INF})
        else:
            bounds = bounds.with_upper({e: POS_INF})
        base = random_base(rng, d.node_count)
        focus = set(a for a in d.arc_ids() if rng.random() < 0.6)
        if rng.random() < 0.5:
            focus.add(e)  # bias toward focusing the unbounded arc
        inst = Instance(d, bounds, base, frozenset(focus))
        if focus and find_violator(inst) is None:
            out.append(inst)
    return out
