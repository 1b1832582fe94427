"""Finite posets on elements 0..n-1 with bitmask relation rows.

A poset stores only its strict order, as row masks: up[x] is the set
{y : x < y}.  Every other relation (down, covers, comparability,
incomparability) is a cached property derived from up on first use;
every decision procedure in the package works on these masks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cache, reduce
from operator import or_

from .bitset import bits, maximal_cliques
from .errors import CycleError, OrthoposetError, SizeLimitError

DEFAULT_MAX_ELEMENTS = 24


class cached:
    """functools.cached_property without the lock it takes on a first read
    before Python 3.12: the value goes into the instance __dict__, which
    later reads find first.  Racing first reads compute equal values."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.fn(obj)
        return value


@dataclass(frozen=True)
class Poset:
    """Immutable poset; construct via poset_from_covers or from_up_rows.

    Only up and labels are stored, compared and hashed; the derived rows
    are cached on first use.
    """

    up: tuple[int, ...]          # up[x] = {y : x < y}
    labels: tuple[str, ...]

    @cached
    def n(self) -> int:
        return len(self.up)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @cached
    def down(self) -> tuple[int, ...]:
        """down[x] = {y : y < x}."""
        return tuple(_transpose(self.up, self.n))

    @cached
    def cover_up(self) -> tuple[int, ...]:
        """cover_up[x] = {y : y covers x}."""
        return tuple(_covers_from_up(self.up, self.n))

    @cached
    def comparable(self) -> tuple[int, ...]:
        """comparable[x] = {y : x < y or y < x}."""
        return tuple(map(or_, self.up, self.down))

    @cached
    def incomp(self) -> tuple[int, ...]:
        """incomp[x] = {y != x : neither x < y nor y < x}."""
        full = self.full
        return tuple([full & ~(c | 1 << x)
                      for x, c in enumerate(self.comparable)])


@cache
def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def _covers_from_up(up: Sequence[int], n: int) -> list[int]:
    # y covers x iff y is minimal in up[x]: remove everything above some z in up[x]
    cov = []
    for x in range(n):
        rem = rest = up[x]
        while rest:
            low = rest & -rest
            rem &= ~up[low.bit_length() - 1]
            rest ^= low
        cov.append(rem)
    return cov


def _transpose(rows: Sequence[int], n: int) -> list[int]:
    """Rows of the converse relation: bit x of out[y] iff bit y of rows[x]."""
    out = [0] * n
    for x in range(n):
        for y in bits(rows[x]):
            out[y] |= 1 << x
    return out


def from_up_rows(up: Sequence[int], labels: Sequence[str] | None = None,
                 check: bool = True) -> Poset:
    """Build a Poset from strict-order rows.

    The rows must already describe a strict partial order (irreflexive,
    antisymmetric, transitive); validate_poset checks exactly that, and the
    labels.  Every builder in the package passes check=False, as its rows
    are an order by construction.
    """
    p = Poset(tuple(up),
              _default_labels(len(up)) if labels is None else tuple(labels))
    if check:
        validate_poset(p)
    return p


def poset_from_covers(
    n: int,
    covers: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> Poset:
    """Poset generated by the given (lower, upper) pairs.

    The strict order is the transitive closure of the pairs; a pair that turns
    out to be transitively implied is tolerated (covers are recomputed from
    the closed order).  The closure is an order by construction, so only the
    inputs are checked: OrthoposetError if n is negative and SizeLimitError
    past max_elements, before any pair is read; IndexError on an
    out-of-range element, CycleError on a cycle, ValueError on bad labels.
    """
    if n < 0:
        raise OrthoposetError(f"poset size must be non-negative, got {n}")
    if n > max_elements:
        raise SizeLimitError(
            f"poset has {n} elements, cap is {max_elements}; "
            "raise max_elements to allow this")
    up = [0] * n
    for a, b in covers:
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"cover pair ({a}, {b}) out of range for n={n}")
        if a == b:
            raise CycleError(f"cover pair ({a}, {a}) relates an element to itself")
        up[a] |= 1 << b
    # Warshall: after step k, up[v] holds every end of a path from v whose
    # inner vertices all lie in 0..k, so at the end up[v] is everything
    # reachable from v, and v is in up[v] exactly when v lies on a cycle
    for k, row in enumerate(up):
        bit = 1 << k
        for v, r in enumerate(up):
            if r & bit:
                up[v] = r | row
    # everything reachable from an element on a cycle, the cycle included
    stuck = reduce(or_, [r for x, r in enumerate(up) if r >> x & 1], 0)
    if stuck:
        raise CycleError(
            f"cover relation has a cycle through elements {list(bits(stuck))}")
    p = from_up_rows(up, labels, check=False)
    _check_labels(p)
    return p


def validate_poset(p: Poset) -> None:
    """Check the order axioms on up and the labels; raises ValueError on the
    first failure.  Every other row is derived from up, so cannot disagree."""
    n = p.n
    for x in range(n):
        if p.up[x] & ~p.full:
            raise ValueError(f"up[{x}] has bits outside 0..{n - 1}")
        if p.up[x] >> x & 1:
            raise ValueError(f"order is reflexive at {x}")
        for y in bits(p.up[x]):
            if p.up[y] >> x & 1:
                raise ValueError(f"antisymmetry fails on ({x}, {y})")
            if p.up[y] & ~p.up[x]:
                raise ValueError(f"transitivity fails at {x} < {y}")
    _check_labels(p)


def _check_labels(p: Poset) -> None:
    if len(p.labels) != p.n:
        raise ValueError(f"{len(p.labels)} labels for {p.n} elements")
    if len(set(p.labels)) != p.n:
        raise ValueError("labels are not unique")


def _check_index(p: Poset, *elements: int) -> None:
    for x in elements:
        if not 0 <= x < p.n:
            raise IndexError(f"element {x} out of range for n={p.n}")


def leq(p: Poset, x: int, y: int) -> bool:
    """x <= y in the reflexive order."""
    _check_index(p, x, y)
    return x == y or bool(p.up[x] >> y & 1)


def lt(p: Poset, x: int, y: int) -> bool:
    _check_index(p, x, y)
    return bool(p.up[x] >> y & 1)


def incomparable(p: Poset, x: int, y: int) -> bool:
    _check_index(p, x, y)
    return bool(p.incomp[x] >> y & 1)


def covers(p: Poset, x: int, y: int) -> bool:
    """True iff y covers x: x < y with nothing strictly between."""
    _check_index(p, x, y)
    return bool(p.cover_up[x] >> y & 1)


def dual(p: Poset) -> Poset:
    """Order-reversed poset on the same elements and labels."""
    return Poset(p.down, p.labels)


def maximal_chains(p: Poset) -> list[int]:
    """Maximal chains as subset masks, sorted by mask value.

    Chains are nonempty, so the empty poset has none.  A maximal chain is a
    maximal clique of the comparability graph.
    """
    if p.n == 0:
        return []
    return maximal_cliques(p.comparable, p.full)


def maximal_antichains(p: Poset) -> list[int]:
    """Maximal antichains as subset masks, sorted by mask value.

    Antichains are nonempty; a maximal antichain is a maximal clique of the
    incomparability graph.
    """
    if p.n == 0:
        return []
    return maximal_cliques(p.incomp, p.full)
