"""The logic of an orthoset: its lattice of orthoclosed sets.

Orthoclosed sets ordered by inclusion form a complete lattice with
intersection as meet and double-perp of union as join; the perp is an
orthocomplementation.  A Logic holds only its orthoset and its elements,
the orthoclosed masks in ascending order, and is decided on those masks:
meet is &, the orthocomplement is the perp, and each join is taken by De
Morgan, as the perp of the meet of the perps.  Orthomodularity is decided
by the family's one Dacey scan (Dacey's theorem), in O(m * n) perps, and
Booleanness by the orthoset's one compatibility scan, in O(n**2) steps;
only a logic that fails is scanned for its witness, over its comparable
pairs or in one row of m**2 pairs, and names it by the masks of its closed
sets.  The m x m tables of order, meet, join and orthocomplement are
built on first read, for the `logic` command and the DOT lattice.  The
second formulations (the double perp of the union, the distributive law
on every triple, the orthomodular law on every pair) are the test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .orthoset import (Orthoset, _dacey, _incompatible, enumerate_orthoclosed,
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
    built; the tests hold it to the brute filter.  The build stops, raising
    SizeLimitError, as soon as the family passes max_lattice (or the
    family ceiling, if that is lower).
    """
    return Logic(o, tuple(enumerate_orthoclosed(o, max_lattice)))


def is_orthomodular(l: Logic) -> tuple[bool, tuple[int, int] | None]:
    """Decide x <= y implies y = x join (y meet x-compl); the witness is
    the lex-least failing pair (x, y) of masks.

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
    # the lex-least pair x < y failing the law: x v (y & perp x) =
    # perp(perp x & perp(y & perp x)) is y iff perp x & perp(y & perp x) is
    # perp y, the perp being a bijection on closed sets
    elements, perps = l.elements, l._perp
    for i, x in enumerate(elements):
        px, rest = perps[x], elements[i + 1:]
        for y in compress(rest, map(x.__eq__, map(x.__and__, rest))):
            if px & perps[y & px] != perps[y]:
                return x, y
    raise AssertionError("no witness for a non-orthomodular logic")


def is_boolean(l: Logic) -> tuple[bool, tuple[int, int, int] | None]:
    """Decide distributivity; the witness is the lex-least failing triple
    of masks.

    The verdict is the compatibility scan's, by is_compatible's proof.  The
    lex-least witness (x, y, z), x meet (y join z) unequal to (x meet y)
    join (x meet z), has x = c, the least join-irreducible that is not
    join-prime, so only c's row is scanned, m**2 pairs at most:

    - c's row has a witness: c <= a join b with neither a nor b above c,
      and c is join-irreducible, so c meet (a join b) = c while (c meet a)
      join (c meet b) lies strictly below c;
    - no smaller x has one: if (x', y, z) fails, put d = x' meet (y join
      z), so (d, y, z) fails too.  Some join-irreducible below d is not
      below (x' meet y) join (x' meet z), and it is not join-prime, being
      below y join z but below neither.  It lies inside x', so c, the
      least such mask, is at most x' as a number.

    By the second bullet c <= cl u when a point u has an incompatible
    partner t, one not orthogonal to u with cl t missing cl u, as (cl u,
    cl t, adj[t]) fails (see is_compatible).  And c is such a cl u, so the
    points are walked by closure to find it.  Every closed set is the join
    of its points' closures cl v = perp(adj[v]), so c = cl v for some v.
    If v has no incompatible partner, each closed set that misses c lies
    in adj[v] = perp(c).  The join I of the closed sets strictly below c
    misses v, so some w in perp(I) is not orthogonal to v, and cl w,
    inside perp(I), meets c in a point s.  As s is not in I, cl s = c and
    I lies in adj[s] = perp(c): I = 0, so c is an atom, every closed set
    not above c lies in perp(c), and c is join-prime, a contradiction.

    The row skips each y and z above c, where both sides equal c, so no
    witness is lost.  The scan is asserted to find its witness.
    """
    o = l.orthoset
    if o._compatible[0]:
        return True, None
    hulls = o._hulls
    v, _ = next(_incompatible(o, sorted(range(o.n), key=hulls.__getitem__)))
    c, elements, perps = hulls[v], l.elements, l._perp
    row = [(x, perps[x], perps[c & x]) for x in elements if c & ~x]
    for y, py, qy in row:
        for z, pz, qz in row:
            if c & perps[py & pz] != perps[qy & qz]:
                return False, (c, y, z)
    raise AssertionError("no witness for a non-distributive logic")
