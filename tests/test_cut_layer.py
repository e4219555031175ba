"""The all-subsets cut layer against the per-subset loops it replaced.

The reference functions below are the scalar scans the engine used before
the layer existed: one cut sum per subset for the violator scan, the
O(m^2 2^n) coordinate-fixing loop, membership by one net cut per subset,
face contraction one subset and one chain block at a time, the envelope
of a point list one subset at a time, the principal sets, the finitized
lower bounds, the blocked exchange pairs, the orientation cut
certificate, and the scalar extremization, Newton ratio search and
exchange capacity that called the set-function oracle once per subset.  Results must be identical, including the exception raised, on
random digraphs with infinite bounds, -inf base values and magnitudes of
2^63 and more (which force the Python-int path).
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairflow.core import (
    Bounds,
    Chain,
    Digraph,
    NEG_INF,
    POS_INF,
    cut_in_sum,
    cut_net,
    cut_out_sum,
    is_finite,
    mask_nodes,
)
from fairflow.baseflow import (
    CertificateError,
    Infeasible,
    Instance,
    _aux_arcs,
    exchange_capacity,
    find_feasible,
    find_violator,
    membership,
)
from fairflow.decmin import (
    _nd_entering_fn,
    _nd_slack_fn,
    newton_dinkelbach,
    solve_decmin,
)
from fairflow.existence import (
    BlockingCircuit,
    _search,
    build_jump_structure,
    finitize_bounds,
    has_blocking_dicircuit,
)
from fairflow.orient import MixedGraph, cut_certificate
from fairflow.setfn import (
    BaseOracle,
    ExtArray,
    SetFn,
    _ceil_div,
    brute_extremize,
    cut_difference,
    envelope_setfn,
    subset_sums,
)

from conftest import random_finite_supermodular, table_of

HUGE = 1 << 63


# --- reference loops -------------------------------------------------------

def ref_cut_slack(inst, z):
    d, b = inst.digraph, inst.bounds
    return cut_in_sum(d, b.upper, z) - cut_out_sum(d, b.lower, z) - inst.base.p(z)


def ref_find_violator(inst):
    for z in range(1 << inst.digraph.node_count):
        s = ref_cut_slack(inst, z)
        if s < 0:
            return z, s
    return None


def ref_membership(inst, x):
    b = inst.bounds
    for e in range(inst.digraph.arc_count):
        if not (b.lower[e] <= x[e] <= b.upper[e]):
            return False
    p = inst.base.p
    d = inst.digraph
    return all(cut_net(d, x, z) >= p(z) for z in range(1 << d.node_count))


def ref_find_feasible(inst, saturating=frozenset()):
    hit = ref_find_violator(inst)
    if hit is not None:
        raise Infeasible(*hit)
    d = inst.digraph
    lower = list(inst.bounds.lower)
    upper = list(inst.bounds.upper)
    p = inst.base.p
    # the saturating arcs first, then the rest, each group in id order
    for e in sorted(range(d.arc_count), key=lambda e: e not in saturating):
        if lower[e] == upper[e]:
            continue
        t_arc, h_arc = d.arcs[e]
        lo, hi = lower[e], upper[e]
        for z in range(1 << d.node_count):
            zin_h = (z >> h_arc) & 1
            zin_t = (z >> t_arc) & 1
            if zin_h == zin_t:
                continue
            pz = p(z)
            if pz is NEG_INF:
                continue
            rest = 0
            for e2, (t2, h2) in enumerate(d.arcs):
                if e2 == e:
                    continue
                if (z >> h2) & 1 and not (z >> t2) & 1:
                    rest = rest + upper[e2]
                elif (z >> t2) & 1 and not (z >> h2) & 1:
                    rest = rest - lower[e2]
            if zin_h:
                cand = pz - rest
                if cand > lo:
                    lo = cand
            else:
                cand = rest - pz
                if cand < hi:
                    hi = cand
        if not lo <= hi:
            raise CertificateError("coordinate-fixing interval collapsed on a feasible instance")
        # a saturating arc starts below its costlier last unit, g - 1 to g
        val = min(0, upper[e] - 1) if e in saturating else 0
        if lo is not NEG_INF and lo > val:
            val = lo
        if hi is not POS_INF and hi < val:
            val = hi
        lower[e] = upper[e] = val
    x = tuple(lower)
    if not ref_membership(inst, x):
        raise CertificateError("constructed flow failed membership check")
    return x


def ref_face_table(base, chain):
    full = (1 << base.n) - 1
    p = base.p
    cuts = list(chain.members) + [full]
    for c in chain.members:
        if not is_finite(p(c)):
            raise ValueError("face chain member has infinite value")
    table = []
    for z in range(1 << base.n):
        total = 0
        prev = 0
        for c in cuts:
            block = c & ~prev
            total = total + (p(prev | (z & block)) - p(prev))
            if not is_finite(total):
                break
            prev = c
        table.append(total)
    return table


def ref_envelope_value(points, mask):
    """Minimum of the coordinate sum over a subset, over the given points."""
    if not points:
        raise ValueError("empty point list")
    best = None
    for pt in points:
        s = 0
        for v in mask_nodes(mask):
            s += pt[v]
        if best is None or s < best:
            best = s
    return best


def ref_principal(inst):
    n = inst.digraph.node_count
    p = inst.base.p
    finite_masks = [m for m in range(1 << n) if is_finite(p(m))]
    principal = []
    for u in range(n):
        acc = (1 << n) - 1
        for m in finite_masks:
            if (m >> u) & 1:
                acc &= m
        principal.append(acc)
    return tuple(principal)


def ref_finitize_bounds(inst):
    circuit = has_blocking_dicircuit(build_jump_structure(inst), inst.focus)
    if circuit is not None:
        raise BlockingCircuit(circuit)
    bounds = inst.bounds
    if any(bounds.upper[e] is POS_INF for e in inst.focus):
        cap = max(find_feasible(inst))
        updates = {}
        for e in inst.focus:
            hi = bounds.upper[e]
            if not is_finite(hi) or hi > cap:
                updates[e] = cap
        bounds = bounds.with_upper(updates)
    else:
        hit = ref_find_violator(inst)
        if hit is not None:
            raise Infeasible(*hit)
    js = build_jump_structure(inst.with_bounds(bounds))
    d = inst.digraph
    p = inst.base.p
    lower_updates = {}
    for e in sorted(inst.focus):
        if bounds.lower[e] is not NEG_INF:
            continue
        tail, head = d.arcs[e]
        smask = sum(1 << v for v in _search(js, head))
        if (smask >> tail) & 1:
            raise ValueError("blocking dicircuit present: no finite reduction exists")
        pz = p(smask)
        rho = cut_in_sum(d, bounds.upper, smask)
        delta = cut_out_sum(d, bounds.lower, smask)
        if not (is_finite(pz) and is_finite(rho) and is_finite(delta)):
            raise ValueError(
                "base table is not closed under union and intersection: p is not "
                f"finite on the set reachable from the head of arc {e} (mask {smask:b})")
        lower_updates[e] = pz - (rho - bounds.upper[e]) + delta
    if lower_updates:
        bounds = bounds.with_lower(lower_updates)
    return bounds


def ref_blocked_exchange_pairs(base, psi):
    blocked = set()
    n = base.n
    for m in range(1, (1 << n) - 1):
        pz = base.p(m)
        if not is_finite(pz) or sum(psi[v] for v in range(n) if (m >> v) & 1) != pz:
            continue
        for t in range(n):
            for s in range(n):
                if (m >> t) & 1 and not (m >> s) & 1:
                    blocked.add((s, t))
    return blocked


def ref_cut_certificate(mg):
    for m in range(1, (1 << mg.node_count) - 1):
        def inside(v):
            return (m >> v) & 1
        rho = sum(1 for u, v in mg.arcs if inside(v) and not inside(u))
        delta = sum(1 for u, v in mg.arcs if inside(u) and not inside(v))
        cross = sum(1 for u, v in mg.edges if inside(u) != inside(v))
        if cross < max(0, mg.k - rho) + max(0, mg.k - delta):
            return m
    return None


def ref_brute_extremize(fn, n):
    best_val = best_mask = None
    for m in range(1 << n):
        v = fn(m)
        if best_val is None or v > best_val:
            best_val, best_mask = v, m
    return best_val, best_mask


def ref_newton_dinkelbach(h, b):
    for m in range(1 << b.n):
        bv = b(m)
        if not (is_finite(bv) and bv >= 0):
            raise ValueError("b must be finite and nonnegative")
        if bv == 0 and h(m) > 0:
            raise ValueError("no good mu exists: positive h on a zero of b")
    val, xmask = ref_brute_extremize(h, h.n)
    if not val > 0:
        raise ValueError("mu = 0 is already good")
    log = [(0, xmask)]
    mu = 0
    while True:
        mu_next = _ceil_div(h(xmask), b(xmask))
        if not mu_next > mu:
            raise CertificateError("ratio candidates failed to increase")
        mu = mu_next
        val, xmask = ref_brute_extremize(lambda m: h(m) - mu * b(m), h.n)
        log.append((mu, xmask))
        if val <= 0:
            return mu, log


def ref_exchange_capacity(base, y, s, t):
    if s == t:
        raise ValueError("exchange endpoints must differ")
    best = POS_INF
    p = base.p
    for m in range(1 << base.n):
        if not ((m >> s) & 1 and not (m >> t) & 1):
            continue
        pz = p(m)
        if not is_finite(pz):
            continue
        slack = sum(y[v] for v in range(base.n) if (m >> v) & 1) - pz
        if slack < best:
            best = slack
    return best


def outcome(fn, *args):
    """Result, or the exception type and its exact payload."""
    try:
        return ("ok", fn(*args))
    except Infeasible as exc:
        return ("infeasible", exc.violator, exc.deficit)
    except (CertificateError, ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


# --- random instances --------------------------------------------------------

finite = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(lambda v: v * HUGE + v))

# Base values, weighted toward -inf and small values so that about half
# of the instances are feasible and the fixing loop runs to the end.
BASE_VALUES = (NEG_INF, NEG_INF, NEG_INF, -2, -1, 0, 1, -HUGE - 1, -3 * HUGE, HUGE)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    lower, upper = [], []
    for _ in arcs:
        a, b = sorted((draw(finite), draw(finite)))
        lower.append(NEG_INF if draw(st.integers(0, 5)) == 0 else a)
        upper.append(POS_INF if draw(st.integers(0, 5)) == 0 else b)
    # one draw for the whole table keeps generation cheap at 2^6 entries
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    table = [0] * (1 << n)
    for m in range(1, (1 << n) - 1):
        table[m] = rng.choice(BASE_VALUES)
    return Instance(Digraph(n, tuple(arcs)), Bounds(tuple(lower), tuple(upper)),
                    BaseOracle.from_table(n, table))


def fresh(inst):
    """Same instance without the cached slack vector."""
    return Instance(inst.digraph, inst.bounds, inst.base, inst.focus)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instances(), st.randoms(use_true_random=False))
def test_scans_match_reference(inst, rng):
    assert outcome(find_violator, fresh(inst)) == outcome(ref_find_violator, inst)
    got = outcome(find_feasible, fresh(inst))
    assert got == outcome(ref_find_feasible, inst)
    m = inst.digraph.arc_count
    # lupmin's start on a subset of the arcs with finite bounds
    b = inst.bounds
    saturating = frozenset(e for e in range(m) if is_finite(b.lower[e])
                           and is_finite(b.upper[e]) and rng.random() < 0.5)
    assert (outcome(find_feasible, fresh(inst), saturating)
            == outcome(ref_find_feasible, inst, saturating))
    candidates = [tuple(rng.choice((-1, 0, 1, HUGE)) for _ in range(m))]
    if got[0] == "ok":
        x = got[1]
        candidates.append(x)
        for e in range(m):
            candidates.append(x[:e] + (x[e] + rng.choice((-1, 1)),) + x[e + 1:])
    for x in candidates:
        assert membership(inst, x) == ref_membership(inst, x)


def random_chain(rng, n):
    """Prefixes of a random node order, cut at random positions."""
    order = rng.sample(range(n), n)
    members, mask = [], 0
    for v in order[:-1]:
        mask |= 1 << v
        if rng.random() < 0.5:
            members.append(mask)
    return Chain(n, tuple(members))


def typed(values):
    return [(type(v), v) for v in values]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instances(), st.randoms(use_true_random=False))
def test_family_scans_match_reference(inst, rng):
    n, m = inst.digraph.node_count, inst.digraph.arc_count
    base = inst.base
    chain = random_chain(rng, n)
    got = outcome(lambda: typed(table_of(base.face_contract(chain).p)))
    assert got == outcome(lambda: typed(ref_face_table(base, chain)))
    assert build_jump_structure(inst).principal == ref_principal(inst)
    # finitization wants feasible instances with lower-unbounded focus
    # arcs: open some lower bounds and draw the base from values <= 0
    focus = frozenset(e for e in range(m) if rng.random() < 0.7)
    lower = tuple(NEG_INF if e in focus and rng.random() < 0.5 else lo
                  for e, lo in enumerate(inst.bounds.lower))
    table = [0] + [rng.choice((NEG_INF, NEG_INF, -1, -HUGE, 0))
                   for _ in range((1 << n) - 2)] + [0]
    focused = Instance(inst.digraph, Bounds(lower, inst.bounds.upper),
                       BaseOracle.from_table(n, table), focus)
    assert (outcome(lambda: finitize_bounds(fresh(focused)).bounds)
            == outcome(ref_finitize_bounds, focused))
    # a base with many sets tight at psi, so that pairs do get blocked
    psi = [rng.choice((-2, 0, 1, HUGE)) for _ in range(n)]
    psi[-1] -= sum(psi)
    sums = subset_sums(psi).tolist()
    table = [0] + [rng.choice((sums[z], sums[z], sums[z] - 1, NEG_INF))
                   for z in range(1, (1 << n) - 1)] + [0]
    tight_base = BaseOracle.from_table(n, table)
    blocked = ref_blocked_exchange_pairs(tight_base, psi)
    arc_free = Instance(Digraph(n, ()), Bounds((), ()), tight_base)
    assert _aux_arcs(arc_free, (), subset_sums(psi), ()) == [
        (s, t, 0, None) for s in range(n) for t in range(n)
        if s != t and (s, t) not in blocked]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_slacks_hold_no_neg_inf(inst):
    # a base holds no +inf, so a slack (cut table minus base) holds no -inf:
    # at the root, and on every copy a solve makes along its faces
    assert not inst.slack.neg.any()
    real = Instance.with_face
    made = []

    def recording(self, *args):
        made.append(real(self, *args))
        return made[-1]

    with mock.patch.object(Instance, "with_face", recording):
        focused = inst.with_focus(range(inst.digraph.arc_count))
        outcome(lambda: solve_decmin(finitize_bounds(focused)))
    assert not any(copy.slack.neg.any() for copy in made)


@settings(deadline=None)
@given(st.integers(1, 6), st.one_of(st.integers(1, 4), st.just(HUGE)),
       st.randoms(use_true_random=False))
def test_cut_certificate_matches_reference(n, k, rng):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = tuple(rng.choice(pairs) for _ in range(rng.randint(0, 6))) if pairs else ()
    edges = tuple(rng.choice(pairs) for _ in range(rng.randint(0, 8))) if pairs else ()
    mg = MixedGraph(n, arcs, edges, k)
    assert cut_certificate(mg) == ref_cut_certificate(mg)


H_VALUES = (-3, -2, -1, 0, 1, 2, 3, HUGE, -HUGE, 5 * HUGE, NEG_INF, POS_INF)
B_VALUES = (0, 1, 2, 3, HUGE)


def with_both_infinities(rng, n, table, share):
    """A SetFn over `table` where a share of the nonempty entries also
    holds infinities of both signs, as a cut sum can."""
    values = ExtArray.from_values(table)
    for m in range(1, 1 << n):
        if rng.random() < share:
            values.pos[m] = values.neg[m] = True
    return SetFn(n, values)


def ratio_outcome(fn, *args):
    """`outcome`, where a TypeError (the ceiled ratio at an infinite
    maximum) is a result too."""
    try:
        return outcome(fn, *args)
    except TypeError as exc:
        return ("TypeError", str(exc))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 6), st.sampled_from((0, 0, 0.02)), st.booleans(),
       st.booleans(), st.randoms(use_true_random=False))
def test_ratio_search_matches_reference(n, both_inf, with_inf, repair, rng):
    h_values = H_VALUES if with_inf else H_VALUES[:-2]
    # b: mostly valid, now and then a negative or infinite entry
    b_values = B_VALUES + ((-1, NEG_INF, POS_INF) if rng.random() < 0.2 else ())
    h = [0] + [rng.choice(h_values) for _ in range((1 << n) - 1)]
    b = [0] + [rng.choice(b_values) for _ in range((1 << n) - 1)]
    if repair:  # make h nonpositive on the zeros of b, so a good mu exists
        h = [rng.choice((0, -1, -HUGE)) if bv == 0 and rng.random() < 0.9 else hv
             for hv, bv in zip(h, b)]
        h[0] = 0
    h = with_both_infinities(rng, n, h, both_inf)
    b = with_both_infinities(rng, n, b, both_inf)
    for fn in (h, b):
        assert outcome(brute_extremize, fn) == outcome(ref_brute_extremize, fn, n)
    assert ratio_outcome(newton_dinkelbach, h, b) == ratio_outcome(ref_newton_dinkelbach, h, b)


@settings(deadline=None)
@given(st.integers(2, 6), st.randoms(use_true_random=False))
def test_exchange_capacity_matches_reference(n, rng):
    table = [0] + [rng.choice(BASE_VALUES) for _ in range((1 << n) - 2)] + [0]
    base = BaseOracle.from_table(n, table)
    y = [rng.choice((-2, 0, 1, HUGE, -3 * HUGE)) for _ in range(n)]
    s, t = rng.sample(range(n), 2)
    assert exchange_capacity(base, y, s, t) == ref_exchange_capacity(base, y, s, t)


# --- fixed cases ------------------------------------------------------------

def ring(n, lower, upper):
    d = Digraph(n, tuple((v, (v + 1) % n) for v in range(n)))
    return d, Bounds((lower,) * n, (upper,) * n)


class TestExactness:
    def test_huge_bounds_take_python_ints(self):
        d, b = ring(4, -HUGE, 3 * HUGE)
        inst = Instance(d, b, BaseOracle.from_table(4, [0] + [-HUGE] * 14 + [0]))
        assert inst.slack.fin.dtype == object
        assert find_violator(inst) is None
        x = find_feasible(inst)
        assert x == ref_find_feasible(inst)
        assert all(type(v) is int for v in x)

    def test_huge_base_values_match(self):
        d, b = ring(3, 0, 1)
        table = [0, HUGE, -HUGE, 0, 0, 5 * HUGE, 0, 0]
        inst = Instance(d, b, BaseOracle.from_table(3, table))
        assert find_violator(inst) == ref_find_violator(inst) == (0b001, 1 - HUGE)

    def test_small_values_stay_int64(self):
        d, b = ring(5, 0, 2)
        inst = Instance(d, b, BaseOracle.zero(5))
        assert inst.slack.fin.dtype == np.int64

    def test_fixing_promotes_when_values_grow(self):
        # the first fixed value is about -2^61, which pushes the bound on
        # the slack vector past int64 before the second arc is fixed
        a = HUGE >> 2
        d = Digraph(2, ((1, 0), (0, 1)))
        inst = Instance(d, Bounds((NEG_INF, 0), (POS_INF, 5)),
                        BaseOracle.from_table(2, [0, -a, a, 0]))
        assert inst.slack.fin.dtype == np.int64
        assert find_feasible(inst) == ref_find_feasible(inst) == (5 - a, 5)

    def test_face_contract_huge_and_infinite_values(self):
        table = [0, -HUGE, 3 * HUGE, NEG_INF, 2, -5 * HUGE, NEG_INF, 0]
        base = BaseOracle.from_table(3, table)
        chain = Chain(3, (0b001,))
        face = table_of(base.face_contract(chain).p)
        assert typed(face) == typed(ref_face_table(base, chain))
        assert face[0b100] == -4 * HUGE and face[0b110] == HUGE
        assert face[0b010] is NEG_INF

    def test_stacked_faces_stay_int64(self):
        # each face's bound is its own max |value|, so stacking faces does
        # not grow it; 2^58-sized modular values would leave int64 otherwise
        rng = random.Random(10)
        starts = [random_finite_supermodular(rng, 4) for _ in range(5)]
        a = 1 << 57
        starts.append(subset_sums((a, -a, a, -a)).tolist())
        for table in starts:
            base = BaseOracle.from_table(4, table)
            for _ in range(3):
                chain = random_chain(rng, 4)
                face = base.face_contract(chain)
                assert typed(table_of(face.p)) == typed(ref_face_table(base, chain))
                assert face.values.fin.dtype == np.int64
                base = face

    def test_base_rejects_pos_inf_naming_its_mask(self):
        # B(p) is empty when p takes +inf, so no base table holds one
        table = [0, -1, POS_INF, 0, NEG_INF, POS_INF, 0, 0]
        with pytest.raises(ValueError, match=r"^\+inf value at mask 2$"):
            BaseOracle.from_table(3, table)
        with pytest.raises(ValueError, match=r"^\+inf value at mask 2$"):
            BaseOracle(3, ExtArray.from_values(table))

    def test_extremize_raises_on_opposite_infinities(self):
        # mask 3 holds both infinities; +inf at mask 1 and -inf at mask 2
        # would win the scan if mask 3 were not read
        values = ExtArray.from_values([0, POS_INF, NEG_INF, 0])
        values.pos[3] = values.neg[3] = True
        fn = SetFn(2, values)
        with pytest.raises(ArithmeticError):
            ref_brute_extremize(fn, 2)
        with pytest.raises(ArithmeticError):
            brute_extremize(fn)


class TestTables:
    def test_subset_sums_match_loop(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(0, 6)
            vec = [rng.choice((-2, 0, 3, HUGE, -HUGE)) for _ in range(n)]
            assert subset_sums(vec).tolist() == [
                sum(vec[v] for v in range(n) if (m >> v) & 1) for m in range(1 << n)]

    def test_cut_difference_matches_sums(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(1, 5)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            arcs = tuple(rng.choice(pairs) for _ in range(rng.randint(0, 7))) if pairs else ()
            lower = tuple(rng.choice((NEG_INF, -1, 0, -HUGE)) for _ in arcs)
            upper = tuple(rng.choice((POS_INF, 1, 2, HUGE)) for _ in arcs)
            d = Digraph(n, arcs)
            fn = cut_difference(d, Bounds(lower, upper))
            for z in range(1 << n):
                want = cut_in_sum(d, upper, z) - cut_out_sum(d, lower, z)
                assert fn(z) == want and type(fn(z)) is type(want)

    def test_envelope_matches_pointwise_minimum(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 5)
            pts = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 6))]
            env = envelope_setfn(pts, n)
            assert all(env(m) == ref_envelope_value(pts, m) for m in range(1 << n))

    def test_newton_tables_match_scalar_definitions(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(2, 5)
            arcs = tuple((u, v) for u in range(n) for v in range(n) if u != v)
            lower = tuple(rng.randint(-2, 0) for _ in arcs)
            upper = tuple(rng.choice((1, 2, POS_INF)) for _ in arcs)
            table = [0] + [rng.choice((-1, 0, NEG_INF)) for _ in range((1 << n) - 2)] + [0]
            d = Digraph(n, arcs)
            probe = Instance(d, Bounds(lower, upper), BaseOracle.from_table(n, table))
            top = {e for e in range(len(arcs)) if rng.random() < 0.5}
            h, b = _nd_slack_fn(probe), _nd_entering_fn(probe, top)
            for m in range(1 << n):
                assert h(m) == -ref_cut_slack(probe, m)
                assert b(m) == sum(1 for e in top
                                   if (m >> arcs[e][1]) & 1 and not (m >> arcs[e][0]) & 1)

    def test_exchange_capacity_huge_values(self):
        base = BaseOracle.from_table(2, [0, -HUGE, -HUGE, 0])
        assert exchange_capacity(base, (HUGE, -HUGE), 0, 1) == 2 * HUGE

    def test_base_from_points_matches_envelope(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 5)
            pts = []
            for _ in range(rng.randint(1, 6)):
                pt = [rng.choice((-3, 0, 2, HUGE, -HUGE)) for _ in range(n - 1)]
                pts.append(tuple(pt + [-sum(pt)]))
            values = BaseOracle.from_points(pts, n).values
            for m in range(1 << n):
                want = ref_envelope_value(pts, m)
                assert values.value(m) == want and type(values.value(m)) is int

    @pytest.mark.parametrize("h, b", [
        ([0, POS_INF], [0, 0]),  # +inf on a zero of b: no good mu
        ([0, 1, 0, 0], [0, 1, NEG_INF, 0]),  # -inf in b, whose finite part is 0
        ([0, 3, POS_INF, 0], [0, 1, 2, 0]),  # an infinite maximum
        ([0, -HUGE, 5 * HUGE, 1], [0, 0, HUGE, 1]),  # Python-int gaps
        ([0, 7, 0, 9], [0, 3, 0, 2]),
        # mu = 2^61 + 1, so mu * b({1}) is past int64 although h and b are not
        ([0, (1 << 61) + 1, 0, 0], [0, 1, 6, 0]),
    ])
    def test_ratio_search_fixed_cases(self, h, b):
        n = len(h).bit_length() - 1
        h, b = SetFn(n, h), SetFn(n, b)
        assert ratio_outcome(newton_dinkelbach, h, b) == ratio_outcome(ref_newton_dinkelbach, h, b)

    def test_ratio_search_first_failing_mask_decides(self):
        # mask 1 holds both infinities on a zero of b, mask 2 a negative b:
        # reading mask 1 raises before mask 2 is checked
        h = ExtArray.from_values([0, 0, 0, 0])
        h.pos[1] = h.neg[1] = True
        b = SetFn(2, [0, 0, -1, 0])
        with pytest.raises(ArithmeticError):
            ref_newton_dinkelbach(SetFn(2, h), b)
        with pytest.raises(ArithmeticError):
            newton_dinkelbach(SetFn(2, h), b)

    def test_ratio_search_reads_tables_not_the_oracle(self, monkeypatch):
        calls = []
        scalar_call = SetFn.__call__

        def counted(fn, mask):
            calls.append(mask)
            return scalar_call(fn, mask)

        monkeypatch.setattr(SetFn, "__call__", counted)
        rng = random.Random(11)
        n = 10
        searched = 0
        while searched < 5:
            b = [0] + [rng.randint(0, 4) for _ in range((1 << n) - 1)]
            h = [0] + [rng.randint(-5, 7) if bv else rng.randint(-5, 0) for bv in b[1:]]
            if max(h) <= 0:
                continue
            h_fn, b_fn = SetFn(n, h), SetFn(n, b)
            calls.clear()
            got = newton_dinkelbach(h_fn, b_fn)
            assert len(calls) < 100
            assert got == ref_newton_dinkelbach(h_fn, b_fn)
            searched += 1
