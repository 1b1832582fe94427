"""Independent brute-force implementations used as test oracles.

Everything here recomputes results from first principles, by subset filtering
or direct quantifier loops, sharing no code with the package beyond plain
ints.  Oracles are deliberately slow and obvious; tests compare the package
against them on inputs small enough for 2**n or n**4 scans.  Where the
package decides a fact by one formula, the oracle is its second
formulation: joins as the double perp of the union (brute_join_table),
Booleanness as the distributive law on every triple
(brute_distributivity_witness), orthomodularity as the orthomodular law on
every comparable pair of closed sets (brute_orthomodular_witness), where
the package extends each closed set by one point, compatibility as a
common bound of the two perps (brute_compatible_pair), Dacey's criterion
as a check of every basis of every closed set (brute_dacey), where the
package extends clique closures instead, and the chain-antichain property
as every filtered maximal chain meeting every filtered maximal antichain
(brute_chain_antichain), where the package walks cover paths around each
maximal antichain.
The last two sections are the exceptions.  The three basis criteria of the
Dacey property and the mutual-perp check are stated on top of the
package's perp and bases, so that tests can check the formulations against
each other, against is_dacey and against mutual_perp_condition.  The
ortholattice axiom check reads the tables a Logic builds on first read, so
that tests can hold those tables to the axioms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from orthoposet.errors import NotOrthoclosedError
from orthoposet.orthoset import (Orthoset, bases, double_perp, is_orthoclosed,
                                 perp)


def members(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


# ---------------------------------------------------------------- posets

def relation_filter_posets(n: int) -> set[tuple[int, ...]]:
    """All strict orders on n elements as up-row tuples, by relation filter.

    Every unordered pair independently takes one of three states (unrelated,
    i<j, j<i), giving 3**C(n,2) candidate antisymmetric relations; keep the
    transitively closed ones.  Vectorized, practical for n <= 5.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    k = len(pairs)
    states = np.indices((3,) * k).reshape(k, -1).T if k else np.zeros((1, 0), int)
    rel = np.zeros((states.shape[0], n, n), dtype=bool)
    for idx, (i, j) in enumerate(pairs):
        rel[states[:, idx] == 1, i, j] = True
        rel[states[:, idx] == 2, j, i] = True
    comp = np.matmul(rel.astype(np.uint8), rel.astype(np.uint8)) > 0
    ok = ~(comp & ~rel).any(axis=(1, 2))
    out = set()
    for mat in rel[ok]:
        out.add(tuple(int(sum(1 << j for j in range(n) if mat[i, j]))
                      for i in range(n)))
    return out


def relation_filter_poset_count(n: int) -> int:
    return len(relation_filter_posets(n))


def brute_maximal_chains(n: int, up: tuple[int, ...]) -> list[int]:
    """Nonempty subsets with all pairs comparable, maximal under inclusion."""
    def comparable(x, y):
        return bool(up[x] >> y & 1 or up[y] >> x & 1)

    good = []
    for s in range(1, 1 << n):
        ms = members(s, n)
        if all(comparable(x, y) for i, x in enumerate(ms) for y in ms[i + 1:]):
            good.append(s)
    return sorted(s for s in good
                  if not any(t != s and t & s == s for t in good))


def brute_maximal_antichains(n: int, up: tuple[int, ...]) -> list[int]:
    def incomparable(x, y):
        return not (up[x] >> y & 1 or up[y] >> x & 1)

    good = []
    for s in range(1, 1 << n):
        ms = members(s, n)
        if all(incomparable(x, y) for i, x in enumerate(ms) for y in ms[i + 1:]):
            good.append(s)
    return sorted(s for s in good
                  if not any(t != s and t & s == s for t in good))


def brute_chain_antichain(n: int, up: tuple[int, ...]) -> bool:
    """Every maximal chain meets every maximal antichain, both found by
    filtering all subsets; the empty poset has neither, so it passes."""
    antichains = brute_maximal_antichains(n, up)
    return all(c & a for c in brute_maximal_chains(n, up) for a in antichains)


def brute_covers(n: int, up: tuple[int, ...]) -> set[tuple[int, int]]:
    """(x, y) pairs with x < y and nothing strictly between."""
    out = set()
    for x in range(n):
        for y in members(up[x], n):
            if not any(up[x] >> z & 1 and up[z] >> y & 1 for z in range(n)):
                out.add((x, y))
    return out


def incomparability_adj(n: int, up: tuple[int, ...]) -> tuple[int, ...]:
    """Rows of the incomparability relation, read off the strict up rows."""
    return tuple(
        sum(1 << y for y in range(n)
            if y != x and not (up[x] >> y & 1 or up[y] >> x & 1))
        for x in range(n))


def relabelings(n: int, up: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Up rows of every relabeling of a poset, one per distinct result."""
    out = set()
    for pi in itertools.permutations(range(n)):
        rows = [0] * n
        for x in range(n):
            rows[pi[x]] = sum(1 << pi[y] for y in members(up[x], n))
        out.add(tuple(rows))
    return out


def brute_n_quads(n: int, up: tuple[int, ...],
                  weak: bool = False, covering: bool = False) -> list[tuple]:
    """All N quadruples (a, b, c, d) by direct quantifier scan, sorted.

    An N has a < c, b covered by c, b < d, with b incomparable to a, d
    incomparable to a and c.  weak drops the a-d requirement; covering
    requires a < c and b < d to be covers as well.
    """
    covs = brute_covers(n, up)

    def lt(x, y):
        return bool(up[x] >> y & 1)

    def inc(x, y):
        return not lt(x, y) and not lt(y, x) and x != y

    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if len({a, b, c, d}) != 4:
                        continue
                    if (b, c) not in covs:
                        continue
                    if covering:
                        if (a, c) not in covs or (b, d) not in covs:
                            continue
                    elif not (lt(a, c) and lt(b, d)):
                        continue
                    if not (inc(a, b) and inc(c, d)):
                        continue
                    if not weak and not inc(a, d):
                        continue
                    out.append((a, b, c, d))
    return sorted(out)


def brute_hourglass(n: int, up: tuple[int, ...]) -> tuple | None:
    """The lex-least hourglass (m, a, b, c, d), or None, by direct scan.

    An hourglass is an element m with two incomparable elements a < b below
    it and two incomparable elements c < d above it: an induced copy of the
    five-element poset a, b < m < c, d.
    """
    def lt(x, y):
        return bool(up[x] >> y & 1)

    def inc(x, y):
        return not lt(x, y) and not lt(y, x) and x != y

    for m, a, b, c, d in itertools.product(range(n), repeat=5):
        if (a < b and c < d and lt(a, m) and lt(b, m) and lt(m, c)
                and lt(m, d) and inc(a, b) and inc(c, d)):
            return m, a, b, c, d
    return None


# ------------------------------------------------------------- orthosets

def brute_perp(adj: tuple[int, ...], n: int, x: int) -> int:
    out = 0
    for v in range(n):
        if not x & ~adj[v]:  # every member of x is orthogonal to v
            out |= 1 << v
    return out


def brute_closed_sets(adj: tuple[int, ...], n: int) -> list[int]:
    """Fixed points of double perp, by filtering all 2**n subsets."""
    return [x for x in range(1 << n)
            if brute_perp(adj, n, brute_perp(adj, n, x)) == x]


def brute_compatible(adj: tuple[int, ...], n: int) -> bool:
    """Every non-orthogonal pair has intersecting closures of singletons."""
    hulls = [brute_perp(adj, n, brute_perp(adj, n, 1 << x)) for x in range(n)]
    return all(hulls[x] & hulls[y] for x in range(n) for y in range(x + 1, n)
               if not adj[x] >> y & 1)


def brute_compatible_pair(adj: tuple[int, ...], n: int,
                          ) -> tuple[int, int] | None:
    """Lex-least non-orthogonal pair x < y with no z orthogonal to
    everything orthogonal to x or to y, or None when every pair has one.

    The perp of a singleton is its adjacency row, so z is such a bound
    exactly when adj[x] | adj[y] lies inside adj[z]; n**3 steps.
    """
    for x in range(n):
        for y in range(x + 1, n):
            joined = adj[x] | adj[y]
            if not adj[x] >> y & 1 and not any(not joined & ~adj[z]
                                               for z in range(n)):
                return x, y
    return None


def brute_distributivity_witness(adj: tuple[int, ...], n: int,
                                 ) -> tuple[int, int, int] | None:
    """Lex-least (i, j, k) with x_i meet (x_j join x_k) unequal to
    (x_i meet x_j) join (x_i meet x_k), or None when the logic is Boolean.

    Indices refer to the closed sets in ascending mask order; meet is
    intersection and join the double perp of the union, each evaluated
    directly on masks for every triple.  The double perp is remembered per
    union, so the scan costs m**3 lookups.
    """
    closed = brute_closed_sets(adj, n)

    @functools.cache
    def closure(u):
        return brute_perp(adj, n, brute_perp(adj, n, u))

    for i, x in enumerate(closed):
        for j, y in enumerate(closed):
            for k, z in enumerate(closed):
                if x & closure(y | z) != closure(x & y | x & z):
                    return i, j, k
    return None


def brute_orthomodular_witness(adj: tuple[int, ...], n: int,
                               ) -> tuple[int, int] | None:
    """Lex-least (i, j) with x_i a proper subset of x_j and the double perp
    of x_i | (x_j & perp x_i) unequal to x_j, or None when the logic is
    orthomodular.

    Indices refer to the closed sets in ascending mask order; every pair is
    evaluated directly on masks, m**2 pairs.
    """
    closed = brute_closed_sets(adj, n)
    for i, x in enumerate(closed):
        px = brute_perp(adj, n, x)
        for j, y in enumerate(closed):
            if x & ~y or x == y:
                continue
            if brute_perp(adj, n, brute_perp(adj, n, x | y & px)) != y:
                return i, j
    return None


def brute_join_table(adj: tuple[int, ...], n: int) -> list[list[int]]:
    """Join of every pair of closed sets, as masks: the double perp of the
    union, in ascending mask order of the closed sets."""
    closed = brute_closed_sets(adj, n)
    return [[brute_perp(adj, n, brute_perp(adj, n, x | y)) for y in closed]
            for x in closed]


def brute_maximal_cliques(adj: tuple[int, ...], n: int, sub: int) -> list[int]:
    good = []
    for s in range(1 << n):
        if s & ~sub:
            continue
        ms = members(s, n)
        if all(adj[x] >> y & 1 for i, x in enumerate(ms) for y in ms[i + 1:]):
            good.append(s)
    return sorted(s for s in good
                  if not any(t != s and t & s == s for t in good))


def brute_dacey(adj: tuple[int, ...], n: int,
                ) -> tuple[bool, tuple[int, int] | None]:
    """Dacey's criterion by filters: (True, None), or (False, (x, b)) for
    the first closed set x, ascending by mask, with a basis b, ascending
    by mask, whose perp is not inside the perp of x."""
    for x in brute_closed_sets(adj, n):
        px = brute_perp(adj, n, x)
        for b in brute_maximal_cliques(adj, n, x):
            if brute_perp(adj, n, b) & ~px:
                return False, (x, b)
    return True, None


def mutual_perp_condition(adj: tuple[int, ...], n: int, x: int, y: int) -> bool:
    """Elementwise characterization of x orthoclosed with y as its perp.

    Requires every element of x orthogonal to every element of y, and every
    z outside both to be non-orthogonal to something in x and to something
    in y.
    """
    mx = members(x, n)
    my = members(y, n)
    if not all(adj[u] >> v & 1 for u in mx for v in my):
        return False
    for z in range(n):
        if x >> z & 1 or y >> z & 1:
            continue
        if all(adj[z] >> u & 1 for u in mx):
            return False
        if all(adj[z] >> v & 1 for v in my):
            return False
    return True


# ------------------------------------------------- basis criteria (Dacey)

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
    return dacey_subset_checks(o, x)[2]


def orthocomplement_pair_check(o: Orthoset, x: int, y: int) -> bool:
    """True iff x and y are mutual perps, hence both orthoclosed."""
    return perp(o, x) == y and perp(o, y) == x


# ------------------------------------------------- ortholattice axioms

@dataclass(frozen=True)
class AxiomReport:
    """Outcome of verify_ortholattice: per-axiom pass/fail with witnesses."""

    ok: bool
    failures: tuple[tuple[str, tuple[int, ...]], ...]

    def failed_axioms(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.failures)


def verify_ortholattice(l) -> AxiomReport:
    """Check every ortholattice axiom on the tables of a Logic, recording
    the first witness per axiom.

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
        for j in members(l.leq[i], m):
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
