"""The logic of an orthoset: its lattice of orthoclosed sets.

Orthoclosed sets ordered by inclusion form a complete lattice with
intersection as meet and double-perp of union as join; the perp is an
orthocomplementation.  Everything here is tabulated once at construction:
elements are masks in ascending order, all relations and operations are
stored by element index.  Each fact has one formula here: joins are
tabulated by De Morgan from the meets, in O(m**2), and Booleanness is
decided by Birkhoff's test, every join-irreducible element join-prime, in
at most O(m**2) join lookups; only a logic that is not Boolean pays the
m**3 scan for its witness.  The second formulations (the double perp of
the union, the distributive law on every triple) are the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .bitset import bits
from .errors import SizeLimitError
from .orthoset import Orthoset, enumerate_orthoclosed, perp

DEFAULT_MAX_LATTICE = 4096


@dataclass(frozen=True)
class Logic:
    """Finite ortholattice given by tables over element indices."""

    elements: tuple[int, ...]        # orthoclosed masks, ascending
    leq: tuple[int, ...]             # leq[i] bit j set iff element i <= element j
    ocompl: tuple[int, ...]          # index of the orthocomplement
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.elements)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.elements) - 1


def build_logic(o: Orthoset, max_lattice: int = DEFAULT_MAX_LATTICE) -> Logic:
    """Tabulate the logic of o.

    Orthocomplements and meets (intersections of closed sets are closed)
    must land back in the family.  Each join is taken by De Morgan, as the
    orthocomplement of the meet of the orthocomplements, so it is a table
    lookup and the whole tabulation costs O(m**2).  Raises SizeLimitError
    when the family is larger than max_lattice.
    """
    return _logic_from_family(o, enumerate_orthoclosed(o), max_lattice)


def _logic_from_family(o: Orthoset, elements: list[int],
                       max_lattice: int = DEFAULT_MAX_LATTICE) -> Logic:
    m = len(elements)
    if m > max_lattice:
        raise SizeLimitError(f"logic has {m} elements, cap is {max_lattice}")
    index = {e: i for i, e in enumerate(elements)}
    get = index.get
    pow2 = [1 << j for j in range(m)]

    ocompl = [get(perp(o, e)) for e in elements]
    if None in ocompl:
        raise AssertionError(
            f"perp of element {ocompl.index(None)} left the family")

    leq = []
    meet = []
    for i, ei in enumerate(elements):
        inter = [ei & ej for ej in elements]
        leq.append(sum(compress(pow2, [t == ei for t in inter])))
        mrow = tuple(map(get, inter))
        if None in mrow:
            raise AssertionError(f"meet of elements {i}, "
                                 f"{mrow.index(None)} is not orthoclosed")
        meet.append(mrow)

    # De Morgan: the join is the perp of the intersection of the perps
    join = []
    for c in ocompl:
        row = meet[c]
        join.append(tuple([ocompl[row[d]] for d in ocompl]))

    return Logic(tuple(elements), tuple(leq), tuple(ocompl),
                 tuple(meet), tuple(join))


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of verify_ortholattice: per-axiom pass/fail with witnesses."""

    ok: bool
    failures: tuple[tuple[str, tuple[int, ...]], ...]

    def failed_axioms(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.failures)


def verify_ortholattice(l: Logic) -> AxiomReport:
    """Check every ortholattice axiom, recording the first witness per axiom.

    Covers: complements of the bounds, involution, antitonicity, both
    De Morgan laws, meet and join with the complement, and agreement of the
    stored order with the meet table.
    """
    m = l.m
    bot, top = l.bottom, l.top
    failures: list[tuple[str, tuple[int, ...]]] = []

    if l.ocompl[bot] != top or l.ocompl[top] != bot:
        failures.append(("bounds_complement", ()))
    for i in range(m):
        if l.ocompl[l.ocompl[i]] != i:
            failures.append(("involution", (i,)))
            break
    for i in range(m):
        hit = None
        for j in bits(l.leq[i]):
            if not l.leq[l.ocompl[j]] >> l.ocompl[i] & 1:
                hit = (i, j)
                break
        if hit:
            failures.append(("antitone", hit))
            break

    def first_pair(bad) -> tuple[int, int] | None:
        for i in range(m):
            for j in range(m):
                if bad(i, j):
                    return i, j
        return None

    w = first_pair(lambda i, j:
                   l.ocompl[l.join[i][j]] != l.meet[l.ocompl[i]][l.ocompl[j]])
    if w:
        failures.append(("de_morgan_join", w))
    w = first_pair(lambda i, j:
                   l.ocompl[l.meet[i][j]] != l.join[l.ocompl[i]][l.ocompl[j]])
    if w:
        failures.append(("de_morgan_meet", w))
    for i in range(m):
        if l.meet[i][l.ocompl[i]] != bot:
            failures.append(("complement_meet", (i,)))
            break
    for i in range(m):
        if l.join[i][l.ocompl[i]] != top:
            failures.append(("complement_join", (i,)))
            break
    w = first_pair(lambda i, j:
                   (l.meet[i][j] == i) != bool(l.leq[i] >> j & 1))
    if w:
        failures.append(("order_matches_meet", w))

    return AxiomReport(not failures, tuple(failures))


def is_orthomodular(l: Logic) -> tuple[bool, tuple[int, int] | None]:
    """Decide x <= y implies y = x join (y meet x-compl); lex-least witness."""
    for i in range(l.m):
        ci = l.ocompl[i]
        for j in bits(l.leq[i]):
            if j == i:
                continue
            if l.join[i][l.meet[j][ci]] != j:
                return False, (i, j)
    return True, None


def is_boolean(l: Logic) -> tuple[bool, tuple[int, int, int] | None]:
    """Decide distributivity; lex-least witness triple.

    The verdict is Birkhoff's: a finite lattice is distributive iff every
    join-irreducible element is join-prime.  That takes O(m) join lookups
    per element, so at most O(m**2).  Only a non-distributive logic is
    scanned for its witness, and the scan, up to m**3 lookups, is asserted
    to find one.
    """
    if _join_irreducibles_are_prime(l):
        return True, None
    witness = _distributivity_witness(l)
    if witness is None:
        raise AssertionError("no witness for a non-distributive logic")
    return False, witness


def _join_irreducibles_are_prime(l: Logic) -> bool:
    # j is join-irreducible iff the join of the elements strictly below it
    # is not j, and join-prime iff the join of all x with j not <= x is
    # still not >= j.  below[j] is built by joining each x into every
    # element strictly above it
    join, leq = l.join, l.leq
    below = [l.bottom] * l.m
    for x, up in enumerate(leq):
        for j in bits(up & ~(1 << x)):
            below[j] = join[below[j]][x]
    everything = (1 << l.m) - 1
    for j, up in enumerate(leq):
        if below[j] == j:
            continue
        acc = l.bottom
        for x in bits(everything & ~up):
            acc = join[acc][x]
        if up >> acc & 1:
            return False
    return True


def _distributivity_witness(l: Logic) -> tuple[int, int, int] | None:
    # for each i and j, the row over k of i meet (j join k) is compared
    # whole against that of (i meet j) join (i meet k), at C speed; k is
    # scanned only in the first row that differs, to name the witness
    through_join = [itemgetter(*row) for row in l.join]
    for i, mi in enumerate(l.meet):
        over_meet = itemgetter(*mi)
        for j, mij in enumerate(mi):
            if through_join[j](mi) != over_meet(l.join[mij]):
                jj, jm = l.join[j], l.join[mij]
                k = next(k for k in range(l.m) if mi[jj[k]] != jm[mi[k]])
                return i, j, k
    return None
