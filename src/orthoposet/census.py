"""Exhaustive and randomized verification of the structure theorems.

For every poset up to a size bound, the census tallies the verdicts and
violations of report.verify_theorems, the one decision pass; the random
generators and the search live here too.  Every predicate is invariant
under relabeling, so both decide one Poset per isomorphism class, on the
rows of the canonical form _canonical, built once by the class walk
_poset_classes, whose docstring proves that it reaches every class.  A
class stands for n!/|Aut| labeled posets (orbit-stabilizer) and is
tallied with that weight; a class that violates an equivalence is
expanded into its distinct labelings, as the labeled census would report
them.  Which representative the canonical form picks is internal: no
summary or search result depends on it.

Every verdict is invariant under order duality too, so the census decides
one class per dual pair.  Let P^op be the dual of P.  (1) P^op has the
incomparability rows of P, so the same orthoset, and the same dacey,
compatible, oml, boolean and lattice_size.  (2) (a, b, c, d) -> (d, c, b, a)
maps each N, covering N and weak N of P to one of the same shape in P^op:
a < c, c covering b and b < d become d < b, b covering c and c < a, and
the incomparable pairs stay.  (3) P^op has the maximal chains and maximal
antichains of P.  So the seven verdicts and covering-N-freeness agree,
each claim of report.CLAIMS is broken on both or on neither, and
|Aut(P^op)| = |Aut(P)|, as P and P^op have the same automorphisms.
"""

from __future__ import annotations

import os
import random
import signal
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from multiprocessing import Pool

from .bridges import strict_comparability_orthoset
from .errors import OrthoposetError, SizeLimitError
from .orthoset import Orthoset, is_dacey, orthoset_from_pairs
from .poset import (DEFAULT_MAX_ELEMENTS, Poset, _transpose, from_up_rows,
                    poset_from_covers)
from .report import _PREDICATES, verify_theorems

DEFAULT_CENSUS_CAP = 6


@dataclass(frozen=True)
class CensusSummary:
    """Counts for one size class; violations must be empty."""

    n: int
    total_posets: int
    n_free: int
    weak_n_free: int
    dacey: int
    compatible: int
    oml: int
    boolean: int
    chain_antichain: int
    violations: tuple[str, ...]


def _closed_sets(rows: Sequence[int]) -> list[int]:
    """The masks d with rows[x] inside d for every x in d, ascending.

    Down rows give the down-sets and up rows the up-sets.  closure[d] is d
    with the rows of its members added, built by doubling: the masks with
    top bit x are those without it, each joined with row x and bit x.
    """
    closure = [0]
    for x, row in enumerate(rows):
        closure += [c | row | 1 << x for c in closure]
    return [d for d, c in enumerate(closure) if c == d]


def _enumerate_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the up rows of every labeled poset on n elements.

    Element k is added to the poset on 0..k-1 with an up-set a above it
    and a down-set b below it, each in ascending mask order, so the posets
    come in ascending order of _enumeration_key.  The pair is kept when a
    and b are disjoint and everything in a is above everything in b.
    """
    def rec(up: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        k = len(up)
        if k == n:
            yield up
            return
        downs = _closed_sets(_transpose(up, k))
        for a in _closed_sets(up):
            # the elements below all of a; none is in a, as up rows are strict
            under = sum(1 << j for j, r in enumerate(up) if not a & ~r)
            for b in downs:
                if not b & ~under:
                    yield from rec(tuple([r | 1 << k if b >> j & 1 else r
                                          for j, r in enumerate(up)]) + (a,))

    return rec(())


def enumerate_labeled_posets(n: int, cap: int = DEFAULT_CENSUS_CAP) -> Iterator[Poset]:
    """Every labeled poset on n elements, each exactly once, in a fixed order.

    Raises OrthoposetError if n is negative and SizeLimitError when n
    exceeds cap, both at the call; pass a larger cap knowingly (the count
    grows superexponentially: 130023 at n=6, 6129859 at n=7).
    """
    _check_max_n("enumeration", n, cap)
    return (from_up_rows(up, check=False) for up in _enumerate_rows(n))


def _enumeration_key(up: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Position of a labeled poset in the order of _enumerate_rows."""
    n = len(up)
    down = _transpose(up, n)
    return tuple((up[k] & ((1 << k) - 1), down[k] & ((1 << k) - 1))
                 for k in range(n))


def _relabel(up: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Up rows of the poset whose element i is element order[i] of up."""
    pos = [0] * len(order)     # pos[x] is the bit of x's place in order
    for i, x in enumerate(order):
        pos[x] = 1 << i
    rows = []
    for x in order:
        r, row = up[x], 0
        while r:
            low = r & -r
            row |= pos[low.bit_length() - 1]
            r ^= low
        rows.append(row)
    return tuple(rows)


def _relabelings(p: Poset) -> set[tuple[int, ...]]:
    """Up rows of every labeling of a poset, each distinct one once.

    Twins, elements with equal up and down rows, can swap freely, so orders
    that put the same twin classes in the same places give the same rows,
    and one order per such sequence is relabeled.
    """
    keys = list(zip(p.up, p.down))
    orders = {}
    for order in permutations(range(p.n)):
        orders.setdefault(tuple([keys[x] for x in order]), order)
    return {_relabel(p.up, order) for order in orders.values()}


def _canonical(up: Sequence[int],
               down: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(canonical up rows, |Aut|) of a poset given by its up and down rows.

    Twins, elements with equal up and down rows, can swap freely, so each
    twin class stays together as one block, and the colouring runs on one
    representative per block.  The blocks are coloured by their up and
    down degree, then repeatedly by their colour and the number of their
    up-row and of their down-row members in each colour class, until the
    number of colours stops growing, so isomorphic posets get the same
    colours.  The canonical rows are the least _relabel over every order
    that lists the colours in ascending order and each colour's blocks in
    any order.  The orders reaching that minimum, times the orders inside
    the blocks, number |Aut|.
    """
    twins: dict[tuple[int, int], list[int]] = {}
    for x, key in enumerate(zip(up, down)):
        twins.setdefault(key, []).append(x)
    blocks = list(twins.values())
    sig = [(u.bit_count(), d.bit_count()) for u, d in twins]
    count = 0
    while True:
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        # a colouring with one block per colour cannot grow
        if len(rank) in (count, len(blocks)):
            break
        count = len(rank)
        classes = [0] * count
        for s, b in zip(sig, blocks):
            for x in b:
                classes[rank[s]] |= 1 << x
        sig = [(rank[s], *map(int.bit_count, map(u.__and__, classes)),
                *map(int.bit_count, map(d.__and__, classes)))
               for s, (u, d) in zip(sig, twins)]
    swaps = 1
    for b in blocks:
        swaps *= factorial(len(b))
    if len(rank) == len(blocks):
        # a discrete colouring admits one order: the blocks by colour
        return _relabel(up, [x for _, b in sorted(zip(sig, blocks))
                             for x in b]), swaps
    cells: list[list[list[int]]] = [[] for _ in rank]
    for s, b in zip(sig, blocks):
        cells[rank[s]].append(b)
    best, reached = None, 0
    for parts in product(*map(permutations, cells)):
        rows = _relabel(up, [x for part in parts for b in part for x in b])
        if best is None or rows < best:
            best, reached = rows, 1
        elif rows == best:
            reached += 1
    return best, reached * swaps


def _poset_classes(max_n: int,
                   keep: Callable[[Poset], Callable[[int], bool]] | None = None,
                   ) -> Iterator[tuple[int, list[tuple[Poset, int]]]]:
    """Yield (n, classes) for n = 1..max_n, one (Poset, |Aut|) per
    isomorphism class of posets on n elements, the Poset on the canonical
    up rows, sorted by rows.  Each class is built once, and its cached
    rows serve the walk, keep and whatever decides the class.

    Removing a maximal element leaves a poset on n-1 elements with the
    removed element's below-set as a down-set, so adding a new maximal
    element t above a down-set d of every class on n-1 elements reaches
    every class on n.  Only the extensions where no other maximal element
    has a below-set larger than d are canonicalized.  That loses no class:
    take a maximal element t* of the class whose below-set is largest
    among its maximal elements.  The other maximal elements of the class
    are those of the class minus t* outside t*'s below-set, none with a
    larger below-set, so the extension of the class minus t* that
    restores t* passes.

    keep(p) is called once per class p on n-1 elements and returns a test
    of its down-sets d: true keeps the extension above d.  Only the classes
    it keeps are extended.  keep must be hereditary under deleting a
    maximal element, so that the smaller class of the argument above is
    kept too; then every class keep accepts is reached.  _nfree_extensions
    is one.
    """
    level = [(from_up_rows((), check=False), 1)]
    for n in range(1, max_n + 1):
        top = 1 << (n - 1)
        found = {}
        for p, _ in level:
            up, down = p.up, p.down
            # larger[k]: the maximal elements with more than k below them
            larger = [sum(1 << x for x, r in enumerate(up)
                          if not r and down[x].bit_count() > k)
                      for k in range(n)]
            test = keep and keep(p)
            for d in _closed_sets(down):
                if larger[d.bit_count()] & ~d or test and not test(d):
                    continue
                # t is above d and below nothing: only its own down row is new
                rows, aut = _canonical([r | top if d >> x & 1 else r
                                        for x, r in enumerate(up)] + [0],
                                       down + (d,))
                found[rows] = aut
        level = [(from_up_rows(rows, check=False), aut)
                 for rows, aut in sorted(found.items())]
        yield n, level


def _nfree_extensions(p: Poset) -> Callable[[int], bool]:
    """The keep of the N-free walk: given an N-free poset, a test of its
    down-sets d that is true when adding a new maximal element t above d
    leaves the poset N-free.

    An N (a, b, c, d') has a < c, c covering b, b < d', and a incomparable
    to b and to d', and c to d'.  t is maximal, so it is c or d', and no
    cover among the old elements changes.  As c, t covers b, a maximal
    element of d; a is in d and incomparable to b and to some d' above b
    outside d.  As d', b is in d, and some cover c of b outside d has an a
    below it outside d that is incomparable to b.  The test reads the
    rows p has cached and builds no Poset.
    """
    up, down, cover, incomp = p.up, p.down, p.cover_up, p.incomp

    def test(d: int) -> bool:
        rest = d
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            if not up[b] & d:       # t covers b
                outside = up[b] & ~d
                if outside:
                    a_s = d & incomp[b]
                    while a_s:
                        low = a_s & -a_s
                        a_s ^= low
                        if incomp[low.bit_length() - 1] & outside:
                            return False
            cs = cover[b] & ~d
            while cs:
                low = cs & -cs
                cs ^= low
                if down[low.bit_length() - 1] & incomp[b] & ~d:
                    return False
        return True

    return test


def _check_edge_prob(edge_prob: float) -> None:
    if not 0 <= edge_prob <= 1:  # also rejects NaN
        raise OrthoposetError(
            f"edge probability must be in [0, 1], got {edge_prob}")


def random_poset(n: int, seed: int, edge_prob: float = 0.5,
                 max_elements: int = DEFAULT_MAX_ELEMENTS) -> Poset:
    """Seeded random poset: random linear order, random edges, closure.

    Algorithm, fixed for reproducibility: draw a permutation of 0..n-1 with
    random.Random(seed).sample, then for each position pair i < j in
    row-major order keep the edge perm[i] < perm[j] with probability
    edge_prob (one rng.random() call per pair, in that order), and close
    transitively.  Raises the size errors of poset_from_covers, and
    OrthoposetError if edge_prob is outside [0, 1].
    """
    def pairs() -> Iterator[tuple[int, int]]:
        # lazy, so poset_from_covers checks n before edge_prob is checked
        _check_edge_prob(edge_prob)
        rng = random.Random(seed)
        perm = rng.sample(range(n), n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < edge_prob:
                    yield perm[i], perm[j]

    return poset_from_covers(n, pairs(), max_elements=max_elements)


def random_orthoset(n: int, seed: int, edge_prob: float = 0.5) -> Orthoset:
    """Seeded random orthoset: each pair i < j orthogonal with edge_prob.

    Pairs are drawn in row-major order with random.Random(seed), one
    rng.random() call per pair.  Raises OrthoposetError if edge_prob is
    outside [0, 1], and the size errors of orthoset_from_pairs.
    """
    _check_edge_prob(edge_prob)
    rng = random.Random(seed)
    # lazy, so orthoset_from_pairs checks n before any pair is drawn
    return orthoset_from_pairs(n, ((i, j) for i in range(n)
                                   for j in range(i + 1, n)
                                   if rng.random() < edge_prob))


def _check_max_n(what: str, max_n: int, cap: int) -> None:
    if max_n < 0:
        raise OrthoposetError(f"poset size must be non-negative, got {max_n}")
    if max_n > cap:
        raise SizeLimitError(f"{what} to n={max_n} exceeds cap {cap}")


def census_run(max_n: int, workers: int = 1,
               cap: int = DEFAULT_CENSUS_CAP) -> list[CensusSummary]:
    """Census for every size 1..max_n; identical output for any worker count.

    The classes are generated serially.  Of each dual pair, the class with
    the smaller canonical rows is decided, in class order, by one pool when
    workers exceeds 1 (pool.map keeps that order); its partner takes its
    report, which the module docstring proves is the partner's own.  The
    weights, counts and violation strings are computed in the parent: a
    class counts n!/|Aut| times, and a violating class is expanded into its
    own labelings, with violations sorted.  The pool never has more
    processes than decided classes or CPUs.  Raises OrthoposetError when
    max_n is negative or workers is below 1, and SizeLimitError when max_n
    exceeds cap.
    """
    _check_max_n("census", max_n, cap)
    if workers < 1:
        raise OrthoposetError(f"worker count must be at least 1, got {workers}")
    levels = list(_poset_classes(max_n))
    every = [p for _, classes in levels for p, _ in classes]
    index = {p.up: i for i, p in enumerate(every)}
    # first[i]: the class decided for class i, the lesser of i and its
    # dual's index; the classes of a size are sorted by rows, so the dual
    # of a class not yet paired is that class or a later one
    first = [-1] * len(every)
    for i, p in enumerate(every):
        if first[i] < 0:
            first[i] = first[index[_canonical(p.down, p.up)[0]]] = i
    chosen = [i for i, j in enumerate(first) if i == j]
    posets = [every[i] for i in chosen]
    if workers == 1 or len(posets) <= 1:
        reports = list(map(verify_theorems, posets))
    else:
        # workers ignore Ctrl-C; the parent stops them on its way out
        with Pool(min(workers, len(posets), os.cpu_count() or 1),
                  initializer=signal.signal,
                  initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            reports = pool.map(verify_theorems, posets)
    report_of = dict(zip(chosen, reports))
    it = iter(first)
    out = []
    for n, classes in levels:
        total, counts, violations = 0, [0] * len(_PREDICATES), []
        for p, aut in classes:
            rep = report_of[next(it)]
            weight = factorial(n) // aut
            total += weight
            for i, name in enumerate(_PREDICATES):
                counts[i] += weight * getattr(rep, name)
            if rep.violations:
                violations += (f"n={n} up={list(rows)}: {v}"
                               for rows in _relabelings(p)
                               for v in rep.violations)
        out.append(CensusSummary(n, total, *counts, tuple(sorted(violations))))
    return out


def _pred_strict_dacey(p: Poset) -> bool:
    return is_dacey(strict_comparability_orthoset(p))[0]


# name: (keep of the class walk, test of each class it yields); the N-free
# search walks only the N-free classes, so its test needs no N scan
_SEARCHES = {
    "nfree_but_strict_not_dacey": (_nfree_extensions,
                                   lambda p: not _pred_strict_dacey(p)),
    "strict_dacey": (None, _pred_strict_dacey),
}


def search_counterexample(predicate: str, max_n: int,
                          cap: int = DEFAULT_CENSUS_CAP + 1) -> Poset | None:
    """First poset satisfying the named predicate, scanning sizes 1..max_n.

    Deterministic: sizes ascending, and at the first size with a hit the
    labeling enumerate_labeled_posets would reach first, although only one
    poset per isomorphism class is tested.  Returns None when no poset up
    to max_n qualifies.  Known predicates:
    nfree_but_strict_not_dacey (no poset on fewer than 8 elements satisfies
    it; the smallest witness is catalog.nfree_strict_non_dacey) and
    strict_dacey.  Raises ValueError on an unknown predicate,
    OrthoposetError when max_n is negative and SizeLimitError when max_n
    exceeds cap.
    """
    try:
        keep, test = _SEARCHES[predicate]
    except KeyError:
        raise ValueError(
            f"unknown predicate {predicate!r}; known: "
            f"{sorted(_SEARCHES)}") from None
    _check_max_n("search", max_n, cap)
    for n, classes in _poset_classes(max_n, keep):
        hits = [p for p, _ in classes if test(p)]
        if hits:
            return from_up_rows(min(
                (rows for p in hits for rows in _relabelings(p)),
                key=_enumeration_key), check=False)
    return None
