"""The logic of an orthoset: its lattice of orthoclosed sets.

Orthoclosed sets ordered by inclusion form a complete lattice with
intersection as meet and double-perp of union as join; the perp is an
orthocomplementation.  Everything here is tabulated once at construction:
elements are masks in ascending order, all relations and operations are
stored by element index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .bitset import bits
from .errors import SizeLimitError
from .orthoset import (DEFAULT_MAX_FAMILY, DEFAULT_MAX_ORTHO_ELEMENTS,
                       Orthoset, enumerate_orthoclosed, perp_table)

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


def build_logic(
    o: Orthoset,
    max_elements: int = DEFAULT_MAX_ORTHO_ELEMENTS,
    max_lattice: int = DEFAULT_MAX_LATTICE,
    max_family: int = DEFAULT_MAX_FAMILY,
) -> Logic:
    """Tabulate the logic of o.

    Meets (intersections of closed sets are closed), joins and
    orthocomplements must land back in the family, and the two join
    formulas, perp of intersection of perps and double perp of the union,
    must agree; all of this is asserted during construction.  Raises
    SizeLimitError when the family is larger than max_lattice.
    """
    elements = enumerate_orthoclosed(o, max_elements, max_family)
    return _logic_from_family(o.adj, o.n, elements, max_lattice)


def _logic_from_family(adj, n: int, elements: list[int],
                       max_lattice: int = DEFAULT_MAX_LATTICE,
                       table: tuple[list[int], list[int]] | None = None,
                       ) -> Logic:
    m = len(elements)
    if m > max_lattice:
        raise SizeLimitError(f"logic has {m} elements, cap is {max_lattice}")
    lo, hi = perp_table(adj, n) if table is None else table
    h = n // 2
    lm = (1 << h) - 1
    index = {e: i for i, e in enumerate(elements)}
    get = index.get
    pow2 = [1 << j for j in range(m)]

    perps = [lo[e & lm] & hi[e >> h] for e in elements]
    ocompl = list(map(get, perps))
    if None in ocompl:
        raise AssertionError(
            f"perp of element {ocompl.index(None)} left the family")

    leq = []
    meet = []
    join = []
    for i, ei in enumerate(elements):
        inter = [ei & ej for ej in elements]
        leq.append(sum(compress(pow2, [t == ei for t in inter])))
        mrow = list(map(get, inter))
        pi = perps[i]
        # join as the perp of the intersection of perps, and as the double
        # perp of the union; the perp of the union is looked up, not taken
        # as pi & pj, so that the two formulas stay independent
        jv = [lo[(q := pi & pj) & lm] & hi[q >> h] for pj in perps]
        pu = [lo[(u := ei | ej) & lm] & hi[u >> h] for ej in elements]
        jv2 = [lo[q & lm] & hi[q >> h] for q in pu]
        jrow = list(map(get, jv))
        if None in mrow or jv != jv2 or None in jrow:
            _raise_first_bad_cell(i, mrow, jv, jv2, jrow)
        meet.append(tuple(mrow))
        join.append(tuple(jrow))

    return Logic(tuple(elements), tuple(leq), tuple(ocompl),
                 tuple(meet), tuple(join))


def _raise_first_bad_cell(i: int, mrow, jv, jv2, jrow) -> None:
    # checks in the order a cell-by-cell scan makes them, so the message
    # names the first failing cell of row i
    for j in range(len(mrow)):
        if mrow[j] is None:
            raise AssertionError(
                f"meet of elements {i}, {j} is not orthoclosed")
        if jv[j] != jv2[j]:
            raise AssertionError(
                f"join formulas disagree on elements {i}, {j}")
        if jrow[j] is None:
            raise AssertionError(
                f"join of elements {i}, {j} left the family")


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

    Cross-checked against the disjointness law (meet zero forces being under
    the complement), which holds exactly on the Boolean logics; the two
    verdicts are asserted to agree.
    """
    witness = _distributivity_witness(l)
    disjoint_law = not any(
        k == l.bottom and not l.leq[a] >> c & 1
        for a, row in enumerate(l.meet) for k, c in zip(row, l.ocompl))
    if (witness is None) != disjoint_law:
        raise AssertionError(
            "distributivity and the disjointness law disagree")
    return witness is None, witness


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
