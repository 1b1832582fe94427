"""Orthosets: finite sets with an irreflexive symmetric orthogonality relation.

Stored as adjacency masks, so an orthoset is exactly a simple graph.  The perp
of a subset X is the set of elements orthogonal to all of X; X is orthoclosed
when X equals its double perp.  Orthoclosed sets ordered by inclusion form the
logic of the orthoset (see logic.py); the Dacey and compatibility tests below
decide which structural laws that logic satisfies.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .bitset import bits, maximal_cliques
from .errors import OrthoposetError, SizeLimitError
from .poset import DEFAULT_MAX_ELEMENTS, cached

DEFAULT_MAX_FAMILY = 1 << 20


@dataclass(frozen=True)
class Orthoset:
    """Immutable orthoset; adj[x] is the mask of elements orthogonal to x.

    Only adj is stored, compared and hashed; n, the perp table, the point
    closures and the compatibility scan are derived from it on first use.
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

    @cached
    def _hulls(self) -> tuple[int, ...]:
        # the closure of {x} is the perp of adj[x]
        return tuple([perp(self, r) for r in self.adj])

    @cached
    def _compatible(self) -> tuple[bool, tuple[int, int] | None]:
        pair = next(_incompatible(self, range(self.n)), None)
        return pair is None, pair


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
    lo, hi = [(1 << n) - 1], [(1 << n) - 1]
    for i, row in enumerate(adj):
        half = lo if i < n // 2 else hi
        half += [t & row for t in half]
    return lo, hi


def perp(o: Orthoset, x: int) -> int:
    """Elements orthogonal to everything in x; the full set when x is empty.
    Unchecked, as the hot kernel: x must be a subset of 0..n-1."""
    lo, hi = o.table
    h = o.n // 2
    return lo[x & ((1 << h) - 1)] & hi[x >> h]


def double_perp(o: Orthoset, x: int) -> int:
    """Closure of x: the smallest orthoclosed superset; x as for perp."""
    return perp(o, perp(o, x))


def is_orthoclosed(o: Orthoset, x: int) -> bool:
    """x equals its closure; False for a mask that is no subset of 0..n-1."""
    return not x & ~o.full and double_perp(o, x) == x


def enumerate_orthoclosed(o: Orthoset, cap: int | None = None) -> list[int]:
    """All orthoclosed subsets, sorted ascending by mask value.

    The orthoclosed sets are the perps, that is the intersections of point
    rows, so the family is built by doubling, as perp_table is: after row i
    it holds every intersection of rows 0..i.  It only grows, so the step
    that takes it past the cap raises SizeLimitError before its new sets
    are merged, and at most 2 * cap masks are ever held.  The cap is
    min(cap, DEFAULT_MAX_FAMILY); None means DEFAULT_MAX_FAMILY, read at
    call time, so no argument lifts that ceiling.
    """
    cap = DEFAULT_MAX_FAMILY if cap is None else min(cap, DEFAULT_MAX_FAMILY)
    seen = {o.full}
    # no row: one step by full adds nothing but checks the start {full}
    for row in o.adj or (o.full,):
        new = {t & row for t in seen} - seen
        if len(seen) + len(new) > cap:
            raise SizeLimitError(f"orthoclosed family exceeds cap {cap}")
        seen |= new
    return sorted(seen)


def bases(o: Orthoset, x: int) -> list[int]:
    """Maximal pairwise-orthogonal subsets of x, sorted by mask value.

    These are the maximal cliques of the orthogonality graph induced on x.
    The empty set has the single basis at the empty mask.  Raises
    ValueError when x is no subset of 0..n-1.
    """
    return maximal_cliques(o.adj, x)


def _dacey(o: Orthoset, family: Sequence[int],
           ) -> tuple[bool, tuple[int, int] | None]:
    """is_dacey on the orthoclosed family, given in ascending mask order.

    A caller that also builds the logic computes the family once.  The
    scan rests on four facts about an orthoclosed x:

    1. A clique c inside x is a basis of x iff x & perp(c) is empty.
    2. So x fails iff some clique closure y = cl(c), a proper subset of
       x, has x & perp(y) empty (c is then a basis with cl(c) != x).
    3. Then for every v in x outside y, w = cl(y | {v}) lies inside x and
       fails too, with the same basis c.  So the least failing set is the
       least such w, and its first failing basis is the witness.
    4. A closed set that is no clique closure fails, so it is at or above
       the least failing set and the scan has found that set before it
       reaches it.  Every y the scan extends is thus a clique closure.

    So the scan takes each y below the least failing set found so far and
    each v outside y and perp(y), and w = perp(perp(y) & adj[v]) fails
    when it misses perp(y).  That costs O(|family| * n) perps, and
    maximal_cliques runs only once, on the least failing set.
    """
    adj, full = o.adj, o.full
    least = full + 1  # above every mask: nothing has failed yet
    for y in family:
        if y >= least:
            break
        py = perp(o, y)
        rest = full & ~(y | py)
        while rest:
            low = rest & -rest
            rest ^= low
            w = perp(o, py & adj[low.bit_length() - 1])
            if not w & py and w < least:
                least = w
    if least > full:
        return True, None
    pl = perp(o, least)
    return False, (least, next(b for b in maximal_cliques(adj, least)
                               if perp(o, b) & ~pl))


def is_dacey(o: Orthoset) -> tuple[bool, tuple[int, int] | None]:
    """Decide the Dacey property; witness is the first failing (x, basis) pair.

    Dacey's criterion: every basis of every orthoclosed x spans x, that is,
    its perp lies inside perp(x).  The witness is the least failing x by
    mask value with its least failing basis, found by extending clique
    closures one element at a time, as _dacey proves.  Raises
    SizeLimitError past the family cap.
    """
    return _dacey(o, enumerate_orthoclosed(o))


def is_compatible(o: Orthoset) -> tuple[bool, tuple[int, int] | None]:
    """Decide compatibility; witness is the lex-least failing pair.

    A pair of non-orthogonal elements x, y is compatible when the closures
    of {x} and {y} intersect; the O(n**2) scan runs once and is cached on
    o.  o is compatible iff its logic is Boolean.  In a Boolean logic,
    cl(x) meet cl(y) = 0 puts cl(y) below cl(x)' = adj[x], so x and y are
    orthogonal.  If o is compatible, disjoint closed A and B are
    orthogonal, as non-orthogonal a in A and b in B would share a point of
    cl(a) & cl(b), inside A & B.  So x <= y and x' meet y = 0 give y <= x,
    Kalmbach's form of orthomodularity.  Then c = a meet (a meet b)' meets
    b in 0, so c <= a meet b', and the law a = (a meet b) join c gives
    (a meet b) join (a meet b'): every pair commutes, so it is Boolean.  An
    incompatible (x, y) breaks distributivity on (cl x, cl y, adj[y]):
    cl x meet (cl y join adj[y]) is cl x, which holds x, but cl x meets
    cl y in 0 and adj[y] outside x.
    """
    return o._compatible


def _incompatible(o: Orthoset, xs: Iterable[int]) -> Iterator[tuple[int, int]]:
    # each pair (x, y), x from xs in turn and y ascending, not orthogonal and
    # with disjoint closures; from xs = 0..n-1 the first is the lex-least
    adj, full, hulls = o.adj, o.full, o._hulls
    return ((x, y) for x in xs for y in bits(full & ~adj[x])
            if not hulls[x] & hulls[y])
