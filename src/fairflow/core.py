"""Ground types for integral base-flow computations.

Everything downstream works over a small digraph (parallel arcs allowed,
arc identity is positional), integer bounds extended with signed infinities,
node subsets as bitmasks, and strictly nested subset chains.  All arithmetic
is exact; infinities absorb in sums and adding infinities of opposite sign
is a programming error, not a saturation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property, total_ordering
from typing import Iterable, Iterator, Sequence, Union

MAX_NODES = 20


@total_ordering
class Infinity:
    """Signed infinity sentinel; compares with integers, absorbs in sums."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self) -> str:
        return "+inf" if self.sign > 0 else "-inf"

    def __neg__(self) -> "Infinity":
        return NEG_INF if self.sign > 0 else POS_INF

    def __add__(self, other):
        if isinstance(other, Infinity):
            if other.sign != self.sign:
                raise ArithmeticError("cannot add infinities of opposite sign")
            return self
        if isinstance(other, int):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Infinity, int)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (Infinity, int)):
            return (-self) + other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, (Infinity, int)):
            return self.sign < 0 and other is not NEG_INF
        return NotImplemented


POS_INF = Infinity(+1)
NEG_INF = Infinity(-1)

ExtInt = Union[int, Infinity]


class CertificateError(Exception):
    """An internal optimality certificate failed to verify; engine bug."""


def is_finite(v: ExtInt) -> bool:
    return isinstance(v, int)


def node_id(v) -> int:
    """A node endpoint as an int: integers only, so 0.7 is not node 0."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"node {v!r} is not an integer") from None


def mask_nodes(mask: int) -> Iterator[int]:
    """Yield node ids set in a bitmask, ascending."""
    v = 0
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


@cache
def crossing_views(n: int, inside: int, outside: int) -> tuple:
    """(shape, enter, leave) for two distinct nodes of an n-node ground
    set.  `shape` reshapes an all-subsets array to
    (2^(n-1-hi), 2, 2^(hi-1-lo), 2, 2^lo), where hi > lo are the two
    nodes; `enter` indexes the subsets that hold `inside` and avoid
    `outside`, `leave` those that hold `outside` and avoid `inside`.
    Either gives a view on three free axes, not a copy."""
    hi, lo = max(inside, outside), min(inside, outside)
    shape = (1 << (n - 1 - hi), 2, 1 << (hi - 1 - lo), 2, 1 << lo)
    up = int(inside == hi)  # bit hi of the subsets that hold `inside`
    every = slice(None)
    return (shape, (every, up, every, 1 - up, every), (every, 1 - up, every, up, every))


@dataclass(frozen=True)
class Digraph:
    """Loopless digraph with positional arc ids; parallel arcs are distinct."""

    node_count: int
    arcs: tuple

    def __post_init__(self):
        if not (1 <= self.node_count <= MAX_NODES):
            raise ValueError(f"node_count must be in 1..{MAX_NODES}")
        object.__setattr__(self, "arcs", tuple((node_id(t), node_id(h)) for t, h in self.arcs))
        for t, h in self.arcs:
            if not (0 <= t < self.node_count and 0 <= h < self.node_count):
                raise ValueError(f"arc ({t},{h}) out of node range")
            if t == h:
                raise ValueError(f"loop arc ({t},{h}) not allowed")

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def arc_ids(self) -> range:
        return range(len(self.arcs))

    @cached_property
    def arc_views(self) -> tuple:
        """Per arc (t, h), `crossing_views(node_count, h, t)`: the shape
        and the indices of the subsets it enters and of those it leaves."""
        return tuple(crossing_views(self.node_count, h, t) for t, h in self.arcs)


@dataclass(frozen=True)
class Bounds:
    """Per-arc lower/upper bounds, each a Python int (not a bool) or an
    infinity; lower never +inf, upper never -inf."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(self.lower))
        object.__setattr__(self, "upper", tuple(self.upper))
        if len(self.lower) != len(self.upper):
            raise ValueError("lower/upper length mismatch")
        for e, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if lo is POS_INF:
                raise ValueError(f"arc {e}: lower bound is +inf")
            if hi is NEG_INF:
                raise ValueError(f"arc {e}: upper bound is -inf")
            for side, v in (("lower", lo), ("upper", hi)):
                if type(v) is not int and v is not POS_INF and v is not NEG_INF:
                    raise ValueError(f"arc {e}: {side} bound {v!r} is not an integer")
            if not lo <= hi:
                raise ValueError(f"arc {e}: lower {lo} exceeds upper {hi}")

    def __len__(self) -> int:
        return len(self.lower)

    def is_tight(self, e: int) -> bool:
        return self.lower[e] == self.upper[e] and is_finite(self.lower[e])

    def with_upper(self, updates: dict) -> "Bounds":
        hi = list(self.upper)
        for e, v in updates.items():
            hi[e] = v
        return Bounds(self.lower, tuple(hi))

    def with_lower(self, updates: dict) -> "Bounds":
        lo = list(self.lower)
        for e, v in updates.items():
            lo[e] = v
        return Bounds(tuple(lo), self.upper)


@dataclass(frozen=True)
class Chain:
    """Strictly nested family of nonempty proper node subsets (bitmasks)."""

    node_count: int
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(int(m) for m in self.members))
        full = (1 << self.node_count) - 1
        prev = None
        for m in self.members:
            if not 0 < m < full:
                raise ValueError(f"chain member {m:b} not a nonempty proper subset")
            if prev is not None and not (prev & m == prev and prev != m):
                raise ValueError("chain members not strictly nested")
            prev = m

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def cut_in_sum(digraph: Digraph, values: Sequence[ExtInt], zmask: int) -> ExtInt:
    """Sum of values over arcs entering the set; infinities absorb."""
    total: ExtInt = 0
    for e, (t, h) in enumerate(digraph.arcs):
        if (zmask >> h) & 1 and not (zmask >> t) & 1:
            total = total + values[e]
    return total


def cut_out_sum(digraph: Digraph, values: Sequence[ExtInt], zmask: int) -> ExtInt:
    """Sum of values over arcs leaving the set; infinities absorb."""
    total: ExtInt = 0
    for e, (t, h) in enumerate(digraph.arcs):
        if (zmask >> t) & 1 and not (zmask >> h) & 1:
            total = total + values[e]
    return total


def cut_net(digraph: Digraph, values: Sequence[ExtInt], zmask: int) -> ExtInt:
    """Net in-flow of the set: in-sum minus out-sum.

    Raises ArithmeticError when the difference of two infinite sums of the
    same sign is requested.
    """
    return cut_in_sum(digraph, values, zmask) - cut_out_sum(digraph, values, zmask)


def node_net_inflow(digraph: Digraph, values: Sequence[int]) -> tuple:
    """Per-node net in-flow vector of a finite arc vector."""
    psi = [0] * digraph.node_count
    for e, (t, h) in enumerate(digraph.arcs):
        psi[h] += values[e]
        psi[t] -= values[e]
    return tuple(psi)


@dataclass(frozen=True)
class ArcChainRole:
    """Classification of one arc against a subset family."""

    kind: str  # "entering" | "leaving" | "neutral" | "mixed"
    enters: int
    leaves: int


def chain_classify(digraph: Digraph, members, arc_id: int) -> ArcChainRole:
    """Classify an arc against a chain (or any subset family).

    For a valid chain an arc never both enters one member and leaves
    another; such arcs are reported as "mixed", which tests assert is
    unreachable for Chain inputs.
    """
    if isinstance(members, Chain):
        members = members.members
    t, h = digraph.arcs[arc_id]
    enters = leaves = 0
    for m in members:
        hin = (m >> h) & 1
        tin = (m >> t) & 1
        if hin and not tin:
            enters += 1
        elif tin and not hin:
            leaves += 1
    if enters and leaves:
        return ArcChainRole("mixed", enters, leaves)
    if enters:
        return ArcChainRole("entering", enters, 0)
    if leaves:
        return ArcChainRole("leaving", 0, leaves)
    return ArcChainRole("neutral", 0, 0)


def chain_entering_count(digraph: Digraph, chain: Chain, arc_ids: Iterable[int]) -> int:
    """Number of listed arcs entering at least one chain member (each once)."""
    count = 0
    for e in arc_ids:
        if chain_classify(digraph, chain, e).kind == "entering":
            count += 1
    return count


def decmin_compare(u: Sequence[int], v: Sequence[int]) -> int:
    """Compare two equal-size multisets in decreasing-minimal order.

    Returns -1, 0, or 1 as the first profile (sorted non-increasing) is
    lexicographically smaller, equal, or greater than the second.
    """
    if len(u) != len(v):
        raise ValueError("profiles must have equal size")
    su = sorted(u, reverse=True)
    sv = sorted(v, reverse=True)
    if su < sv:
        return -1
    if su > sv:
        return 1
    return 0
