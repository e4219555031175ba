"""Set-function oracles over the node set.

A SetFn is an evaluation oracle over bitmask subsets: a scalar view of one
dense `ExtArray` table.  This module provides the cut-difference function of
a bounded digraph, exhaustive maximization (the swap-ready stand-in for a
submodular-function-minimization routine), the pointwise-minimum envelope of
an enumerated base polyhedron, face contraction of a base oracle along a
chain, and `principal_sets`, the per-node meet of a mask family, which the
jump structure and the exchange arcs of the min-cost auxiliary digraph read
through `BaseOracle.meets`.

Numbers are integers and the two infinities, nothing else: a base table
lies in Z | {-inf} (`BaseOracle` rejects +inf, on which B(p) would be
empty), so a cut table, the upper in-cut minus the lower out-cut, and a
slack, a cut table minus a base table, lie in Z | {+inf}.  Vectors summed
over subsets are integer vectors (`subset_sums` rejects any other entry).

Whole-table computations (subset sums, cut values, slacks) run on numpy
arrays indexed by bitmask: see `subset_sums` and `ExtArray`.  The subsets
an arc crosses are a view on three free axes of such an array
(`core.crossing_views`), and one in-place step, `ExtArray._shift`, writes
the bound terms of every cut table, one view per changed side: in a copy
for `ExtArray.plus_cut` (every bound from 0) and `ExtArray.shift_cut`, and
in the `ExtArray.fixing` copy that `ExtArray.fix_arc` moves as coordinate
fixing pins each arc.
`ExtArray.swap_base` replaces the base table a slack subtracts, so a slack
derives from that of the instance it was copied from, on a face too.  A
`BaseOracle` owns its bounding function as one `ExtArray`, built once by
each constructor (`ExtArray.from_values` converts a dense list,
`ExtArray.scatter` the listed entries of a sparse table, read as one
int64 array unless a value needs Python ints, and `ExtArray.finite` a
table with no infinite entry, such as an envelope) and checked once, as
the oracle is made; slacks, membership, face contraction, jump
structures, exchange arcs, step capacities and `orient` read it, and
reference and certificate readers use its scalar view `BaseOracle.p`.
`brute_extremize` and the Newton ratio search `newton_dinkelbach` are
whole-table array scans behind the same contract (the maximum over all
subsets, lowest mask on ties), so that a submodular-function minimizer
can replace them.

This module alone picks how a table's values are stored, int64 below
2^62 and exact Python ints from there on, and reads `ExtArray.bound`.
It alone reads how an entry marks its infinite terms (the `pos` and
`neg` flags or counts) and moves cut terms (`_move_cut`, `_shift`).
Other modules build tables through `ExtArray`'s constructors
(`from_values`, `scatter`, `finite` and `zeros` all return through
`ExtArray.tight`), and ask for one entry (`ExtArray.value`), a slack's
lowest violating set (`ExtArray.first_negative`), an arc's fixing
interval and the fix itself (`ExtArray.arc_interval`, `ExtArray.fix_arc`
on an `ExtArray.fixing` copy), the Newton gap (`ExtArray.minus_times`),
the meets of the finite or tight sets (`BaseOracle.meets`) or the
largest step along a move that stays in the base
(`BaseOracle.step_capacity`).  So no value ever wraps;
`oracle`, the independent verifier, keeps its own rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    MAX_NODES,
    NEG_INF,
    POS_INF,
    Bounds,
    CertificateError,
    Chain,
    Digraph,
    ExtInt,
    is_finite,
)

# Arrays stay int64 while every intermediate is provably below this
# magnitude; otherwise the same code runs on Python ints (dtype=object).
_INT64_SAFE = 1 << 62


def int_dtype(bound: int):
    """int64 when values of magnitude up to `bound` cannot overflow it."""
    return np.int64 if bound < _INT64_SAFE else object


def subset_sums(vec) -> np.ndarray:
    """Sum of one vector over every subset, indexed by bitmask (bit v =
    vec[v]), its entries read as exact Python ints: any other entry, a
    bool included, raises ValueError."""
    vec = vec.tolist() if isinstance(vec, np.ndarray) else vec
    for v, x in enumerate(vec):
        if type(x) is not int:
            raise ValueError(f"entry {x!r} at {v} is not an integer")
    sums = np.zeros(1 << len(vec), dtype=int_dtype(sum(map(abs, vec))))
    for v, x in enumerate(vec):
        if x:
            sums.reshape(-1, 2, 1 << v)[:, 1] += x  # the subsets holding v
    return sums


def principal_sets(n: int, family: np.ndarray) -> list:
    """Per node v, the meet (bitwise AND) of the family's masks that hold v,
    or the full set when none does: the smallest member holding v when the
    family is closed under intersection.  `family` flags each of 2^n masks.

    A family of all 2^n masks holds every singleton, so its meets are the
    singletons, read without the scan: every set is tight at a zero base,
    and every set is finite for a base with finite values only."""
    if family.all():
        return [1 << v for v in range(n)]
    masks = np.flatnonzero(family)
    return [int(np.bitwise_and.reduce(masks[(masks >> v) & 1 == 1], initial=(1 << n) - 1))
            for v in range(n)]


class ExtArray:
    """Exact extended-integer values over all 2^n subsets.

    `fin` sums the finite terms of each entry, also where an infinity is
    present; `pos` and `neg` flag, or count, the +inf and -inf terms
    summed into each entry, so no Infinity object ever sits in an array.
    `bound` bounds |fin| and picks the dtype: int64 below 2^62, Python
    ints above.
    """

    __slots__ = ("fin", "pos", "neg", "bound")

    def __init__(self, fin: np.ndarray, pos: np.ndarray, neg: np.ndarray, bound: int):
        self.fin, self.pos, self.neg, self.bound = fin, pos, neg, bound

    @classmethod
    def from_values(cls, values: Sequence[ExtInt]) -> "ExtArray":
        for m, v in enumerate(values):
            if isinstance(v, bool) or not (is_finite(v) or v is POS_INF or v is NEG_INF):
                raise ValueError(f"value {v!r} at mask {m} is neither an integer nor an infinity")
        return cls.tight(np.array([v if is_finite(v) else 0 for v in values], dtype=object),
                         np.array([v is POS_INF for v in values]),
                         np.array([v is NEG_INF for v in values]))

    @classmethod
    def scatter(cls, n: int, masks: Sequence[int], fin: Sequence[int],
                minus: Sequence[int] = ()) -> "ExtArray":
        """A table over all 2^n masks from its listed entries: integer
        `fin[i]` at `masks[i]`, -inf at the masks in `minus` (their `fin`
        entries are 0) and at every mask not listed.  The masks must be
        distinct.

        `fin` is read as one int64 array, or as exact Python ints when a
        value does not fit int64; `tight` then picks the table's dtype."""
        try:
            listed = np.fromiter(fin, np.int64, len(fin))
        except OverflowError:
            listed = np.array(fin, dtype=object)
        values = np.zeros(1 << n, dtype=listed.dtype)
        values[masks] = listed
        neg = np.ones(1 << n, dtype=bool)
        neg[masks] = False
        neg[minus] = True
        return cls.tight(values, np.zeros(1 << n, dtype=bool), neg)

    @classmethod
    def tight(cls, fin: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> "ExtArray":
        """An array whose bound is max |fin|, in the dtype that bound picks,
        read as max and -min in Python ints (np.abs wraps an int64 -2^63)."""
        bound = max(int(fin.max()), -int(fin.min()))
        return cls(fin.astype(int_dtype(bound), copy=False), pos, neg, bound)

    @classmethod
    def finite(cls, fin: np.ndarray) -> "ExtArray":
        """A table with no infinite entry, in the dtype max |fin| picks."""
        no_inf = np.zeros(len(fin), dtype=bool)
        return cls.tight(fin, no_inf, no_inf)

    @classmethod
    def zeros(cls, n: int) -> "ExtArray":
        return cls.finite(np.zeros(1 << n, dtype=np.int64))

    @property
    def above(self) -> int:
        """An integer above every |finite entry|, held by the dtype."""
        return self.bound + 1

    def __neg__(self) -> "ExtArray":
        return ExtArray(-self.fin, self.neg, self.pos, self.bound)

    def minus_times(self, mu: int, other: "ExtArray") -> "ExtArray":
        """This array minus mu >= 0 times a table with no infinite entry."""
        bound = self.bound + mu * other.bound
        dtype = int_dtype(bound)
        fin = self.fin.astype(dtype, copy=False) - mu * other.fin.astype(dtype, copy=False)
        return ExtArray(fin, self.pos, self.neg, bound)

    def plus_cut(self, digraph: Digraph, upper: Sequence[ExtInt],
                 lower: Sequence[ExtInt]) -> "ExtArray":
        """This array plus Z -> (upper in-cut) - (lower out-cut): every
        bound moved from 0, so this array itself when all bounds are 0."""
        zero = (0,) * digraph.arc_count
        return self._move_cut(zip(digraph.arc_views, zero, upper, zero, lower))

    def shift_cut(self, digraph: Digraph, old: Bounds, new: Bounds) -> "ExtArray":
        """A `plus_cut` at the `old` bounds moved to the `new` ones: equal
        to a `plus_cut` at the new bounds, `fin` dtype included."""
        return self._move_cut(zip(digraph.arc_views, old.upper, new.upper,
                                  old.lower, new.lower))

    def _move_cut(self, arcs) -> "ExtArray":
        """Move the cut terms of each arc, given as (crossing views, old
        upper, new upper, old lower, new lower), from its old bounds to its
        new ones: a copy moved by `_shift`, or this array when no bound
        changes.  Each arc carries its own views, so no digraph is read.

        An upper bound is a term on the subsets its arc enters and a lower
        bound a negated term on those it leaves, each a strided view on
        three free axes (`Digraph.arc_views`): one move per changed side.
        `pos` is copied to int64 counts only when a +inf term moves, and
        shared otherwise.
        """
        moves = []  # (shape, subsets, old term, new term) of each changed side
        for (shape, enter, leave), was_hi, hi, was_lo, lo in arcs:
            if was_hi != hi:
                moves.append((shape, enter, was_hi, hi))
            if was_lo != lo:
                moves.append((shape, leave, -was_lo, -lo))
        if not moves:
            return self
        out = self.copy(any(a is POS_INF or b is POS_INF for _, _, a, b in moves))
        out._shift(moves)
        return out

    def copy(self, counts: bool) -> "ExtArray":
        """A copy that `_shift` may move: its own `fin`, and its own `pos`
        as int64 counts when `counts`, else this array's."""
        pos = self.pos.astype(np.int64) if counts else self.pos
        return ExtArray(self.fin.copy(), pos, self.neg, self.bound)

    def _shift(self, moves) -> None:
        """Move cut terms in place, each (shape, subsets, old term, new
        term), on an array whose `fin` is its own, and whose `pos` is its
        own int64 counts when a +inf term moves: a +inf term is a count.
        The bound moves by the change of the finite absolute values; the
        sums are taken in a dtype that also holds every partial result,
        which may exceed both bounds."""
        bound = partial = self.bound
        for _, _, a, b in moves:
            bound += (0 if b is POS_INF else abs(b)) - (0 if a is POS_INF else abs(a))
            partial += 0 if b is POS_INF else abs(b)
        fin = self.fin if partial < _INT64_SAFE else self.fin.astype(object, copy=False)
        for shape, index, a, b in moves:
            if a is POS_INF or b is POS_INF:
                self.pos.reshape(shape)[index] += (b is POS_INF) - (a is POS_INF)
                a, b = (0 if a is POS_INF else a), (0 if b is POS_INF else b)
            if a != b:
                fin.reshape(shape)[index] += b - a
        self.fin = fin.astype(int_dtype(bound), copy=False) if partial >= _INT64_SAFE else fin
        self.bound = bound

    def fixing(self) -> "ExtArray":
        """A copy for `arc_interval` and `fix_arc`, with `pos` as counts
        when some entry is +inf: a bool `pos` on it means none is."""
        return self.copy(bool(self.pos.any()))

    def arc_interval(self, views, f: ExtInt, g: ExtInt) -> tuple:
        """On a `fixing` copy of a slack, the values t in [f, g] of the arc
        with crossing `views` that keep it feasible: t >= g - slack(z) on
        each subset z it enters, t <= slack(z) + f on each it leaves, where
        the arc's own bound is z's only infinite term (p(z) = -inf is one)."""
        shape, enter, leave = views
        fin = self.fin.reshape(shape)
        pos = None if self.pos.dtype == bool else self.pos.reshape(shape)  # None: no +inf
        none = self.above  # exceeds every |entry|: no subset constrains t
        hi_inf, lo_inf = g is POS_INF, f is NEG_INF
        least = np.minimum.reduce(fin[enter], None, initial=none,
                                  where=pos is None or pos[enter] == hi_inf)
        lo = f if least == none else max(f, (0 if hi_inf else g) - int(least))
        least = np.minimum.reduce(fin[leave], None, initial=none,
                                  where=pos is None or pos[leave] == lo_inf)
        hi = g if least == none else min(g, (0 if lo_inf else f) + int(least))
        return lo, hi

    def fix_arc(self, views, f: ExtInt, g: ExtInt, t: int) -> None:
        """Move an arc's bounds [f, g] to [t, t] on a `fixing` copy."""
        shape, enter, leave = views
        self._shift([(shape, enter, g, t), (shape, leave, -f, -t)])

    def first_negative(self) -> Optional[int]:
        """The lowest mask of a negative entry of a table with no -inf
        entry, such as a slack, or None."""
        bad = (self.pos == 0) & (self.fin < 0)
        mask = int(bad.argmax())
        return mask if bad[mask] else None

    def swap_base(self, old: "ExtArray", new: "ExtArray") -> "ExtArray":
        """A slack, a cut table minus the table `old`, as the same cut
        table minus `new`: equal to a `plus_cut` of -new at the same
        bounds, `fin` dtype included.  A cut table holds no -inf term, so
        this array's -inf terms are those of -old; its +inf terms lose
        those of -old and gain those of -new."""
        bound = self.bound - old.bound + new.bound
        dtype = int_dtype(self.bound + old.bound + new.bound)  # every partial sum
        fin = self.fin.astype(dtype)
        fin += old.fin.astype(dtype, copy=False)
        fin -= new.fin.astype(dtype, copy=False)
        # bools when no +inf bound term moved in, so the +inf terms are old.neg
        pos = new.neg if self.pos.dtype == bool else self.pos - old.neg + new.neg
        return ExtArray(fin.astype(int_dtype(bound), copy=False), pos, new.pos, bound)

    def value(self, mask: int) -> ExtInt:
        """One entry as an exact extended integer.  Infinities of both signs
        in one entry raise, as the scalar arithmetic does."""
        pos, neg = self.pos[mask], self.neg[mask]
        if pos and neg:
            raise ArithmeticError("cannot add infinities of opposite sign")
        if pos:
            return POS_INF
        if neg:
            return NEG_INF
        return int(self.fin[mask])


class SetFn:
    """Subset -> extended-integer oracle with value 0 on the empty set: a
    scalar view of one dense table, given as an `ExtArray` or as a sequence
    of 2^n values."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, table: Union[ExtArray, Sequence[ExtInt]]):
        if not (0 < n <= MAX_NODES):
            raise ValueError(f"ground set size must be in 1..{MAX_NODES}")
        self.n = n
        self.values = table if isinstance(table, ExtArray) else ExtArray.from_values(table)
        if len(self.values.fin) != 1 << n:
            raise ValueError("dense table must have 2^n entries")
        if self(0) != 0:
            raise ValueError("empty set must map to 0")

    def __call__(self, mask: int) -> ExtInt:
        return self.values.value(mask)


def cut_difference(digraph: Digraph, bounds: Bounds) -> SetFn:
    """The fully submodular function Z -> (upper in-cut) - (lower out-cut)."""
    cut = ExtArray.zeros(digraph.node_count).plus_cut(digraph, bounds.upper, bounds.lower)
    return SetFn(digraph.node_count, cut)


def brute_extremize(fn: SetFn):
    """Exhaustive scan for the maximum of a set function over all subsets,
    ties to the smallest bitmask.

    One argmax over the table (numpy returns the first maximum): a +inf
    entry wins, -inf entries sit below every finite value, and an entry
    holding infinities of both signs raises, as reading it through the
    scalar oracle does.
    """
    a = fn.values
    pos, neg = a.pos != 0, a.neg != 0  # bools, or counts once a +inf term moved in
    if (pos & neg).any():
        raise ArithmeticError("cannot add infinities of opposite sign")
    if pos.any():
        mask = int(pos.argmax())
    else:
        mask = int(np.where(neg, -a.above, a.fin).argmax())
    return a.value(mask), mask


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def newton_dinkelbach(h: SetFn, b: SetFn) -> Tuple[int, List[tuple]]:
    """Smallest nonnegative integer mu with mu*b(X) >= h(X) for all X.

    Requires h(X) <= 0 wherever b(X) = 0 (some good mu exists) and some
    h(Y) > 0 (zero is bad).  Each round maximizes the gap h - mu*b, one
    array expression over the tables, exhaustively; candidate values are
    the ceiled ratios at the maximizers and strictly increase while bad.
    The iterate log records (mu, argmax) pairs.
    """
    if h.n != b.n:
        raise ValueError("ground set mismatch")
    hv, bv = h.values, b.values
    h_positive = (hv.pos != 0) | ((hv.neg == 0) & (hv.fin > 0))
    bad = (bv.pos != 0) | (bv.neg != 0) | (bv.fin < 0) | ((bv.fin == 0) & h_positive)
    if bad.any():
        m = int(bad.argmax())  # the first mask that fails a scalar check
        bm = b(m)
        if not (is_finite(bm) and bm >= 0):
            raise ValueError("b must be finite and nonnegative")
        if h(m) > 0:
            raise ValueError("no good mu exists: positive h on a zero of b")
    val, xmask = brute_extremize(h)
    if not val > 0:
        raise ValueError("mu = 0 is already good")
    log = [(0, xmask)]
    mu = 0
    while True:
        mu_next = _ceil_div(h(xmask), b(xmask))
        if not mu_next > mu:
            raise CertificateError("ratio candidates failed to increase")
        mu = mu_next
        val, xmask = brute_extremize(SetFn(h.n, hv.minus_times(mu, bv)))
        log.append((mu, xmask))
        if val <= 0:
            return mu, log


def _envelope(points: Sequence[Sequence[int]]) -> ExtArray:
    """The envelope of every subset, indexed by bitmask."""
    if not points:
        raise ValueError("empty point list")
    return ExtArray.finite(reduce(np.minimum, map(subset_sums, points)))


def envelope_setfn(points: Sequence[Sequence[int]], n: int) -> SetFn:
    """Dense envelope; the unique fully supermodular function of the integral
    base polyhedron whose integral points are exactly the ones given."""
    return SetFn(n, _envelope(points))


@dataclass(frozen=True)
class BaseOracle:
    """A zero-base polyhedron given by a fully supermodular function with
    value 0 on the full node set and no +inf value, plus the stack of face
    chains applied so far.  The one check of a base table: its scalar view
    `p` checks the shape and the empty set, then the full set and +inf.
    Supermodularity is asserted exhaustively in tests, not here."""

    n: int
    values: ExtArray
    face_chains: tuple = ()
    p: SetFn = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p", SetFn(self.n, self.values))
        if self.p((1 << self.n) - 1) != 0:
            raise ValueError("full set must map to 0")
        if self.values.pos.any():
            raise ValueError(f"+inf value at mask {int(self.values.pos.argmax())}")

    @classmethod
    def zero(cls, n: int) -> "BaseOracle":
        return cls(n, ExtArray.zeros(n))

    @classmethod
    def from_table(cls, n: int, table: Sequence[ExtInt]) -> "BaseOracle":
        return cls(n, ExtArray.from_values(table))

    @classmethod
    def from_points(cls, points: Sequence[Sequence[int]], n: int) -> "BaseOracle":
        return cls(n, _envelope(points))

    def contains(self, vec: Sequence[int]) -> bool:
        """Integral membership: zero total and every subset sum at or above
        the bounding function."""
        sums = subset_sums(vec)
        if sums[-1] != 0:  # the total
            return False
        p = self.values
        return bool(np.all((sums >= p.fin) | p.neg))

    def meets(self, sums: Optional[np.ndarray] = None) -> list:
        """`principal_sets` of the finite-valued sets or, given the subset
        sums of a vector, of the sets tight at it."""
        p = self.values
        return principal_sets(self.n, ~p.neg if sums is None else (sums == p.fin) & ~p.neg)

    def step_capacity(self, sums: np.ndarray, move: Sequence[int]) -> ExtInt:
        """Largest step a for which y + a*move stays in the base, read off
        the subset sums of y: with loss(Z) = -(sum of move over Z), the
        least floor(slack(Z) / loss(Z)) over the finite sets Z with
        loss(Z) > 0, +inf when a unit of move lowers no finite set."""
        p = self.values
        loss = -subset_sums(move)
        losing = (loss > 0) & ~p.neg
        if not losing.any():
            return POS_INF
        dtype = int_dtype(int(np.abs(sums).max()) + p.bound)
        slack = sums[losing].astype(dtype) - p.fin[losing].astype(dtype)
        return int((slack // loss[losing].astype(dtype)).min())

    def face_contract(self, chain: Chain) -> "BaseOracle":
        """Restrict to the face where every chain member is tight.

        The face of a base polyhedron along a chain decomposes as a direct
        sum over the difference blocks: with C_0 = empty and C_{r+1} = V,
        the new function is
            sum_i [ p(C_{i-1} | (Z & S_i)) - p(C_{i-1}) ],  S_i = C_i - C_{i-1}.
        Every chain member must have a finite value.
        """
        if chain.node_count != self.n:
            raise ValueError("chain ground size mismatch")
        if len(chain) == 0:
            return self
        p = self.values
        for c in chain.members:
            if p.neg[c]:
                raise ValueError("face chain member has infinite value")
        # r + 1 block terms, each of magnitude at most 2 * p.bound
        src = p.fin.astype(int_dtype(2 * (len(chain) + 1) * p.bound))
        masks = np.arange(1 << self.n)
        fin = np.zeros_like(src)
        neg = np.zeros(len(masks), dtype=bool)
        prev = 0
        for c in (*chain.members, (1 << self.n) - 1):
            idx = prev | (masks & (c & ~prev))  # C_{i-1} | (Z & S_i), every Z
            neg |= p.neg[idx]
            fin += src[idx] - src[prev]
            prev = c
        fin[neg] = 0
        return BaseOracle(self.n, ExtArray.tight(fin, np.zeros_like(neg), neg),
                          self.face_chains + (chain,))
