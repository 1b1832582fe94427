"""Independent brute-force implementations used as test oracles.

Everything here recomputes results from first principles, by subset filtering
or direct quantifier loops, sharing no code with the package beyond plain
ints.  Oracles are deliberately slow and obvious; tests compare the package
against them on inputs small enough for 2**n or n**4 scans.
"""

from __future__ import annotations

import itertools

import numpy as np


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


# ------------------------------------------------------------- orthosets

def brute_perp(adj: tuple[int, ...], n: int, x: int) -> int:
    out = 0
    for v in range(n):
        if all(adj[v] >> u & 1 for u in members(x, n)):
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


def brute_distributivity_witness(adj: tuple[int, ...], n: int,
                                 ) -> tuple[int, int, int] | None:
    """Lex-least (i, j, k) with x_i meet (x_j join x_k) unequal to
    (x_i meet x_j) join (x_i meet x_k), or None when the logic is Boolean.

    Indices refer to the closed sets in ascending mask order; meet is
    intersection and join the double perp of the union, each evaluated
    directly on masks for every triple.
    """
    closed = brute_closed_sets(adj, n)

    def join(x, y):
        return brute_perp(adj, n, brute_perp(adj, n, x | y))

    for i, x in enumerate(closed):
        for j, y in enumerate(closed):
            for k, z in enumerate(closed):
                if x & join(y, z) != join(x & y, x & z):
                    return i, j, k
    return None


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
