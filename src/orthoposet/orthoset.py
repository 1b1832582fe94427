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
from .errors import NotOrthoclosedError, SizeLimitError

DEFAULT_MAX_ORTHO_ELEMENTS = 20
DEFAULT_MAX_FAMILY = 1 << 20


@dataclass(frozen=True)
class Orthoset:
    """Immutable orthoset; adj[x] is the mask of elements orthogonal to x."""

    n: int
    adj: tuple[int, ...]

    @property
    def full(self) -> int:
        return (1 << self.n) - 1


def orthoset_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> Orthoset:
    """Orthoset with x orthogonal to y for each listed pair, symmetrized.

    Raises IndexError on an out-of-range element and ValueError on a
    reflexive pair.
    """
    adj = [0] * n
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"pair ({a}, {b}) out of range for n={n}")
        if a == b:
            raise ValueError(f"orthogonality is irreflexive, got ({a}, {a})")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return Orthoset(n, tuple(adj))


def validate_orthoset(o: Orthoset) -> None:
    """Check irreflexivity and symmetry; raises ValueError on failure."""
    if len(o.adj) != o.n:
        raise ValueError(f"{len(o.adj)} adjacency rows for n={o.n}")
    full = (1 << o.n) - 1
    for x in range(o.n):
        if o.adj[x] & ~full:
            raise ValueError(f"adj[{x}] has bits outside 0..{o.n - 1}")
        if o.adj[x] >> x & 1:
            raise ValueError(f"orthogonality is reflexive at {x}")
        for y in bits(o.adj[x]):
            if not o.adj[y] >> x & 1:
                raise ValueError(f"orthogonality not symmetric on ({x}, {y})")


def _perp_rows(adj: Sequence[int], n: int, x: int) -> int:
    s = (1 << n) - 1
    while x:
        low = x & -x
        s &= adj[low.bit_length() - 1]
        x ^= low
    return s


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
    return _perp_rows(o.adj, o.n, x)


def double_perp(o: Orthoset, x: int) -> int:
    """Closure of x: the smallest orthoclosed superset."""
    return _perp_rows(o.adj, o.n, _perp_rows(o.adj, o.n, x))


def is_orthoclosed(o: Orthoset, x: int) -> bool:
    return double_perp(o, x) == x


def _closed_family(adj: Sequence[int], n: int, max_family: int) -> list[int]:
    # every orthoclosed set is an intersection of point perps (empty
    # intersection giving the full set), so close {full} under x -> x & adj[i]
    full = (1 << n) - 1
    seen = {full}
    stack = [full]
    while stack:
        s = stack.pop()
        for row in adj:
            t = s & row
            if t not in seen:
                if len(seen) >= max_family:
                    raise SizeLimitError(
                        f"orthoclosed family exceeds cap {max_family}")
                seen.add(t)
                stack.append(t)
    return sorted(seen)


def enumerate_orthoclosed(
    o: Orthoset,
    max_elements: int = DEFAULT_MAX_ORTHO_ELEMENTS,
    max_family: int = DEFAULT_MAX_FAMILY,
) -> list[int]:
    """All orthoclosed subsets, sorted ascending by mask value.

    Intersections of point perps are closed under intersection and contain
    every orthoclosed set, so the family is built by a worklist closure
    instead of filtering all 2**n subsets.  Raises SizeLimitError when n
    exceeds max_elements or the family would exceed max_family.
    """
    if o.n > max_elements:
        raise SizeLimitError(
            f"orthoset has {o.n} elements, cap is {max_elements}")
    return _closed_family(o.adj, o.n, max_family)


def bases(o: Orthoset, x: int) -> list[int]:
    """Maximal pairwise-orthogonal subsets of x, sorted by mask value.

    These are the maximal cliques of the orthogonality graph induced on x.
    The empty set has the single basis at the empty mask.
    """
    return maximal_cliques(o.adj, x)


def dacey_subset_checks(o: Orthoset, x: int) -> tuple[bool, bool, bool]:
    """The three equivalent basis criteria for an orthoclosed x, independently.

    For every basis B of x: (a) the closure of B recovers x, (b) B and x have
    equal perps, (c) the perp of B is contained in the perp of x.  All three
    always agree; tests rely on that.  Raises NotOrthoclosedError if x is not
    orthoclosed.
    """
    if not is_orthoclosed(o, x):
        raise NotOrthoclosedError(f"subset {x:#x} is not orthoclosed")
    px = perp(o, x)
    bs = bases(o, x)
    via_recovery = all(double_perp(o, b) == x for b in bs)
    via_perp_equality = all(perp(o, b) == px for b in bs)
    via_perp_containment = all(not perp(o, b) & ~px for b in bs)
    return via_recovery, via_perp_equality, via_perp_containment


def is_dacey_subset(o: Orthoset, x: int) -> bool:
    """True iff every basis B of the orthoclosed x has perp(B) inside perp(x).

    Raises NotOrthoclosedError if x is not orthoclosed.
    """
    if not is_orthoclosed(o, x):
        raise NotOrthoclosedError(f"subset {x:#x} is not orthoclosed")
    px = perp(o, x)
    return all(not perp(o, b) & ~px for b in bases(o, x))


def _dacey_rows(adj: Sequence[int], n: int,
                max_family: int = DEFAULT_MAX_FAMILY,
                family: Sequence[int] | None = None,
                table: tuple[list[int], list[int]] | None = None,
                ) -> tuple[bool, tuple[int, int] | None]:
    if family is None:
        family = _closed_family(adj, n, max_family)
    lo, hi = perp_table(adj, n) if table is None else table
    h = n // 2
    lm = (1 << h) - 1
    for x in family:
        if is_clique(adj, x):
            continue  # a clique is its own only basis, so it cannot fail
        px = lo[x & lm] & hi[x >> h]
        for b in maximal_cliques(adj, x):
            if lo[b & lm] & hi[b >> h] & ~px:
                return False, (x, b)
    return True, None


def is_dacey(
    o: Orthoset,
    max_elements: int = DEFAULT_MAX_ORTHO_ELEMENTS,
    max_family: int = DEFAULT_MAX_FAMILY,
) -> tuple[bool, tuple[int, int] | None]:
    """Decide the Dacey property; witness is the first failing (x, basis) pair.

    Scans orthoclosed sets ascending by mask, bases ascending within each.
    Raises SizeLimitError past the caps; pass larger ones to override.
    """
    if o.n > max_elements:
        raise SizeLimitError(
            f"orthoset has {o.n} elements, cap is {max_elements}")
    return _dacey_rows(o.adj, o.n, max_family)


def _compatible_rows(adj: Sequence[int], n: int,
                     table: tuple[list[int], list[int]] | None = None,
                     ) -> tuple[bool, tuple[int, int] | None]:
    lo, hi = perp_table(adj, n) if table is None else table
    h = n // 2
    lm = (1 << h) - 1
    # closure of {x} is the perp of adj[x]
    hulls = [lo[r & lm] & hi[r >> h] for r in adj]
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


def is_compatible(
    o: Orthoset,
    max_elements: int = DEFAULT_MAX_ORTHO_ELEMENTS,
) -> tuple[bool, tuple[int, int] | None]:
    """Decide compatibility; witness is the lex-least failing pair.

    A pair of non-orthogonal elements x, y is compatible when some z has
    perp(z) containing both perp(x) and perp(y); equivalently, when the
    closures of {x} and {y} intersect.  Both forms are computed for every
    pair and asserted to agree.
    """
    if o.n > max_elements:
        raise SizeLimitError(
            f"orthoset has {o.n} elements, cap is {max_elements}")
    return _compatible_rows(o.adj, o.n)


def orthocomplement_pair_check(o: Orthoset, x: int, y: int) -> bool:
    """True iff x and y are mutual perps, hence both orthoclosed."""
    return perp(o, x) == y and perp(o, y) == x
