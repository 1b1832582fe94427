"""Orthosets: finite sets with an irreflexive symmetric orthogonality relation.

Stored as adjacency masks, so an orthoset is exactly a simple graph.  The perp
of a subset X is the set of elements orthogonal to all of X; X is orthoclosed
when X equals its double perp.  Orthoclosed sets ordered by inclusion form the
logic of the orthoset (see logic.py); the Dacey and compatibility tests below
decide which structural laws that logic satisfies.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .bitset import bits, is_clique, maximal_cliques
from .errors import OrthoposetError, SizeLimitError
from .poset import DEFAULT_MAX_ELEMENTS, cached

DEFAULT_MAX_FAMILY = 1 << 20


@dataclass(frozen=True)
class Orthoset:
    """Immutable orthoset; adj[x] is the mask of elements orthogonal to x.

    Only adj is stored, compared and hashed; n and the perp table are
    derived from it on first use.
    """

    adj: tuple[int, ...]

    @cached
    def n(self) -> int:
        return len(self.adj)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @cached
    def table(self) -> tuple[list[int], list[int]]:
        """perp_table(adj, n): every perp of this orthoset by two lookups."""
        return perp_table(self.adj, self.n)


def orthoset_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> Orthoset:
    """Orthoset with x orthogonal to y for each listed pair, symmetrized.

    Raises OrthoposetError if n is negative, SizeLimitError if n exceeds
    poset.DEFAULT_MAX_ELEMENTS, IndexError on an out-of-range element and
    ValueError on a reflexive pair.
    """
    if n < 0:
        raise OrthoposetError(f"orthoset size must be non-negative, got {n}")
    if n > DEFAULT_MAX_ELEMENTS:
        raise SizeLimitError(
            f"orthoset has {n} elements, cap is {DEFAULT_MAX_ELEMENTS}")
    adj = [0] * n
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"pair ({a}, {b}) out of range for n={n}")
        if a == b:
            raise ValueError(f"orthogonality is irreflexive, got ({a}, {a})")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return Orthoset(tuple(adj))


def validate_orthoset(o: Orthoset) -> None:
    """Check irreflexivity and symmetry; raises ValueError on failure."""
    full = o.full
    for x in range(o.n):
        if o.adj[x] & ~full:
            raise ValueError(f"adj[{x}] has bits outside 0..{o.n - 1}")
        if o.adj[x] >> x & 1:
            raise ValueError(f"orthogonality is reflexive at {x}")
        for y in bits(o.adj[x]):
            if not o.adj[y] >> x & 1:
                raise ValueError(f"orthogonality not symmetric on ({x}, {y})")


def perp_table(adj: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Subset-AND tables (lo, hi) giving every perp by two lookups.

    With h = n // 2, perp(x) == lo[x & (2**h - 1)] & hi[x >> h]: lo holds
    the perp of every subset of 0..h-1 and hi that of every subset of
    h..n-1, each built by doubling (the subsets with bit i are those
    without it, ANDed with adj[i]).  Together they have about 2**(n/2 + 1)
    entries, 8192 at n = 24.
    """
    h = n // 2
    lo = [(1 << n) - 1]
    for i in range(h):
        row = adj[i]
        lo += [t & row for t in lo]
    hi = [(1 << n) - 1]
    for i in range(h, n):
        row = adj[i]
        hi += [t & row for t in hi]
    return lo, hi


def perp(o: Orthoset, x: int) -> int:
    """Elements orthogonal to everything in x; the full set when x is empty."""
    lo, hi = o.table
    h = o.n // 2
    return lo[x & ((1 << h) - 1)] & hi[x >> h]


def double_perp(o: Orthoset, x: int) -> int:
    """Closure of x: the smallest orthoclosed superset."""
    return perp(o, perp(o, x))


def is_orthoclosed(o: Orthoset, x: int) -> bool:
    return double_perp(o, x) == x


def enumerate_orthoclosed(o: Orthoset) -> list[int]:
    """All orthoclosed subsets, sorted ascending by mask value.

    Intersections of point perps are closed under intersection and contain
    every orthoclosed set, so the family is built by a worklist closure
    instead of filtering all 2**n subsets.  Raises SizeLimitError when the
    family would exceed DEFAULT_MAX_FAMILY.
    """
    # close {full}, the empty intersection, under x -> x & adj[i]
    adj, full = o.adj, o.full
    seen = {full}
    stack = [full]
    while stack:
        s = stack.pop()
        for row in adj:
            t = s & row
            if t not in seen:
                if len(seen) >= DEFAULT_MAX_FAMILY:
                    raise SizeLimitError(
                        f"orthoclosed family exceeds cap {DEFAULT_MAX_FAMILY}")
                seen.add(t)
                stack.append(t)
    return sorted(seen)


def bases(o: Orthoset, x: int) -> list[int]:
    """Maximal pairwise-orthogonal subsets of x, sorted by mask value.

    These are the maximal cliques of the orthogonality graph induced on x.
    The empty set has the single basis at the empty mask.
    """
    return maximal_cliques(o.adj, x)


def _dacey(o: Orthoset, family: Sequence[int],
           ) -> tuple[bool, tuple[int, int] | None]:
    # is_dacey on a family already built, so a caller that also builds the
    # logic computes the family once
    adj, (lo, hi) = o.adj, o.table
    h = o.n // 2
    lm = (1 << h) - 1
    for x in family:
        if is_clique(adj, x):
            continue  # a clique is its own only basis, so it cannot fail
        px = lo[x & lm] & hi[x >> h]
        for b in maximal_cliques(adj, x):
            if lo[b & lm] & hi[b >> h] & ~px:
                return False, (x, b)
    return True, None


def is_dacey(o: Orthoset) -> tuple[bool, tuple[int, int] | None]:
    """Decide the Dacey property; witness is the first failing (x, basis) pair.

    Scans orthoclosed sets ascending by mask, bases ascending within each.
    Raises SizeLimitError past the family cap.
    """
    return _dacey(o, enumerate_orthoclosed(o))


def is_compatible(o: Orthoset) -> tuple[bool, tuple[int, int] | None]:
    """Decide compatibility; witness is the lex-least failing pair.

    A pair of non-orthogonal elements x, y is compatible when some z has
    perp(z) containing both perp(x) and perp(y); equivalently, when the
    closures of {x} and {y} intersect.  Both forms are computed for every
    pair and asserted to agree.
    """
    adj, n = o.adj, o.n
    # closure of {x} is the perp of adj[x]
    hulls = [perp(o, r) for r in adj]
    for x in range(n):
        for y in range(x + 1, n):
            if adj[x] >> y & 1:
                continue
            joined = adj[x] | adj[y]
            bound_exists = any(not joined & ~adj[z] for z in range(n))
            hulls_meet = bool(hulls[x] & hulls[y])
            # the two formulations agree pair by pair; a mismatch is a bug
            if bound_exists != hulls_meet:
                raise AssertionError(
                    f"compatibility formulations disagree on pair ({x}, {y})")
            if not bound_exists:
                return False, (x, y)
    return True, None

