"""The logic of an orthoset: its lattice of orthoclosed sets.

Orthoclosed sets ordered by inclusion form a complete lattice with
intersection as meet and double-perp of union as join; the perp is an
orthocomplementation.  A Logic holds only its orthoset and its elements,
the orthoclosed masks in ascending order, and is decided on those masks:
meet is &, the orthocomplement is the perp, and each join is taken by De
Morgan, as the perp of the meet of the perps.  Orthomodularity is decided
by the family's one Dacey scan (Dacey's theorem), in O(m * n) perps, and
Booleanness by Birkhoff's test, every join-irreducible element join-prime,
on the point closures alone, in O(n**2) perps; only a logic that fails is
scanned for its witness, over its comparable pairs or in one row of m**2
pairs.  The m x m tables of order, meet, join and orthocomplement are
built on first read, for the `logic` command and the DOT lattice.  The
second formulations (the double perp of the union, the distributive law
on every triple, the orthomodular law on every pair) are the test oracles.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

from .errors import SizeLimitError
from .orthoset import (Orthoset, _dacey, double_perp, enumerate_orthoclosed,
                       perp)
from .poset import cached

DEFAULT_MAX_LATTICE = 4096


@dataclass(frozen=True)
class Logic:
    """Finite ortholattice of the orthoclosed sets of an orthoset.

    Only the orthoset and the elements, orthoclosed masks in ascending
    order, are stored; the tables over element indices are built on first
    read, and the decision procedures never read them.
    """

    orthoset: Orthoset
    elements: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.elements)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.elements) - 1

    @cached
    def _index(self) -> dict[int, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @cached
    def _perp(self) -> dict[int, int]:
        # the perp of each element by its mask; meets of elements are
        # elements, so the decision procedures look their perps up here
        return {e: perp(self.orthoset, e) for e in self.elements}

    @cached
    def _dacey(self) -> tuple[bool, tuple[int, int] | None]:
        # the one Dacey scan of this family; is_orthomodular reads its verdict
        return _dacey(self.orthoset, self.elements)

    @cached
    def ocompl(self) -> tuple[int, ...]:
        """Index of the orthocomplement of each element."""
        index, perps = self._index, self._perp
        return tuple(index[perps[e]] for e in self.elements)

    @cached
    def leq(self) -> tuple[int, ...]:
        """leq[i] has bit j set iff element i <= element j."""
        pow2 = [1 << j for j in range(self.m)]
        return tuple(sum(compress(pow2, [t == e for t in
                                         map(e.__and__, self.elements)]))
                     for e in self.elements)

    @cached
    def meet(self) -> tuple[tuple[int, ...], ...]:
        """meet[i][j] is the index of the intersection."""
        get = self._index.__getitem__
        return tuple(tuple(map(get, map(e.__and__, self.elements)))
                     for e in self.elements)

    @cached
    def join(self) -> tuple[tuple[int, ...], ...]:
        """join[i][j] by De Morgan, the perp of the meet of the perps."""
        meet, ocompl = self.meet, self.ocompl
        return tuple(tuple([ocompl[meet[c][d]] for d in ocompl])
                     for c in ocompl)


def build_logic(o: Orthoset, max_lattice: int = DEFAULT_MAX_LATTICE) -> Logic:
    """The logic of o on its orthoclosed family; no table is built.

    The family is the closure of the full set under meets with point
    perps, which is exactly the set of orthoclosed sets, so it is taken as
    built; the tests hold it to the brute filter.  Raises SizeLimitError
    when the family is larger than max_lattice.
    """
    elements = enumerate_orthoclosed(o)
    m = len(elements)
    if m > max_lattice:
        raise SizeLimitError(f"logic has {m} elements, cap is {max_lattice}")
    return Logic(o, tuple(elements))


def is_orthomodular(l: Logic) -> tuple[bool, tuple[int, int] | None]:
    """Decide x <= y implies y = x join (y meet x-compl); lex-least witness.

    An ortholattice is orthomodular iff x <= y and x-compl meet y = 0
    imply x = y (Kalmbach, Orthomodular Lattices, 1983): the law gives
    y = x join 0; conversely z = x join (y meet x-compl) <= y has z-compl
    meet y = (y meet x-compl) meet (y meet x-compl)-compl = 0, so z = y.
    If x < y fails the form, a point v of y outside x is outside perp(x)
    too, and w = cl(x | {v}) = perp(perp(x) & adj[v]), inside y, misses
    perp(x): x < w fails as well.  So the logic is orthomodular iff no
    element has a failing one-point extension, and those are exactly the
    extensions _dacey tests: the verdict is the Dacey scan, which is
    Dacey's theorem.  Only a logic that is not orthomodular is scanned, by
    _oml_witness, for its witness.
    """
    if l._dacey[0]:
        return True, None
    return False, _oml_witness(l)


def _oml_witness(l: Logic) -> tuple[int, int]:
    # the lex-least pair x_i < x_j failing the law: x v (y & perp x) =
    # perp(perp x & perp(y & perp x)) is y iff perp x & perp(y & perp x) is
    # perp y, the perp being a bijection on closed sets
    elements, perps = l.elements, l._perp
    for i, x in enumerate(elements):
        px = perps[x]
        above = compress(range(i + 1, l.m),
                         map(x.__eq__, map(x.__and__, elements[i + 1:])))
        for j in above:
            y = elements[j]
            if px & perps[y & px] != perps[y]:
                return i, j
    raise AssertionError("no witness for a non-orthomodular logic")


def is_boolean(l: Logic) -> tuple[bool, tuple[int, int, int] | None]:
    """Decide distributivity; lex-least witness triple.

    The verdict is Birkhoff's: a finite lattice is distributive iff every
    join-irreducible element is join-prime.  Every orthoclosed set is the
    join of the point closures cl(x) = perp(adj[x]) of its points, so:

    - the join-irreducibles are point closures, and c = cl(x) is one iff c
      is not the join of the point closures strictly inside it;
    - c is join-prime iff c is not below the join of the point closures
      that do not contain it, since every element not above c is a join of
      such closures.

    That costs O(n**2) perps on an orthoset of n points.  The lex-least
    witness (i, j, k), x_i meet (x_j join x_k) unequal to (x_i meet x_j)
    join (x_i meet x_k), lies in the row i of the least join-irreducible c
    that is not join-prime, so only that row is scanned, m**2 pairs at
    most:

    - row i has a witness: c <= a join b with neither a nor b above c, and
      c is join-irreducible, so c meet (a join b) = c while (c meet a) join
      (c meet b) lies strictly below c;
    - no earlier row has one: if (i', j, k) fails, put d = x_i' meet (x_j
      join x_k), so (d, j, k) fails too.  Some join-irreducible below d is
      not below (x_i' meet x_j) join (x_i' meet x_k), and it is not
      join-prime, being below x_j join x_k but below neither.  It lies
      inside x_i', so c, the least such mask, is at most x_i' as a number
      and i is at most i'.

    The row skips each x_j and x_k above c, where both sides equal c, so
    no witness is lost.  The scan is asserted to find its witness.
    """
    elements = l.elements
    c = _first_non_prime(l.orthoset)
    if c is None:
        return True, None
    perps = l._perp
    row = [(j, perps[x], perps[c & x]) for j, x in enumerate(elements)
           if c & ~x]
    for j, pj, qj in row:
        for k, pk, qk in row:
            if c & perps[pj & pk] != perps[qj & qk]:
                return False, (bisect_left(elements, c), j, k)
    raise AssertionError("no witness for a non-distributive logic")


def _first_non_prime(o: Orthoset) -> int | None:
    # the least-mask join-irreducible that is not join-prime, or None when
    # every join-irreducible is join-prime; see is_boolean
    closures = sorted({perp(o, row) for row in o.adj})
    for c in closures:
        inside = away = 0
        for d in closures:
            if d != c and not d & ~c:
                inside |= d
            if c & ~d:
                away |= d
        if double_perp(o, inside) != c and not c & ~double_perp(o, away):
            return c
    return None
