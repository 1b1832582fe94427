"""Exhaustive and randomized verification of the structure theorems.

For every poset up to a size bound, one per isomorphism class, the census
decides seven predicates (N-free, weak-N-free, Dacey, compatible,
orthomodular, Boolean, chain-antichain) in one pass, verify_theorems, and
records any violation of the equivalences claimed to tie them together:

  N-free  ==  incomparability orthoset Dacey  ==  logic orthomodular
          ==  every maximal chain meets every maximal antichain
          ==  no covering N
  weak-N-free  ==  incomparability orthoset compatible  ==  logic Boolean

plus the one-way facts that weak-N-free implies N-free and Boolean implies
orthomodular.  The first cluster and all one-way facts verify clean at
every size this census can reach.  The second cluster is genuinely false
in the weak-N-free direction: catalog.weak_nfree_incompatible has no weak
N yet fails compatibility, and its 30 labelings are exactly the violations
the census reports at n=5.  Having a weak N does imply incompatible, so
every compatible poset still counts as weak-N-free.

Every predicate is invariant under relabeling, so the census and the
search decide one canonical representative per isomorphism class.  The
classes on n elements are grown from those on n-1 by adding one new maximal
element above each down-set, and deduplicated by a canonical form: the
lex-least relabeled up rows over the relabelings that respect an
iso-invariant colouring.  The relabelings reaching that minimum number
|Aut|, so a class stands for n!/|Aut| labeled posets (orbit-stabilizer)
and the census tallies it with that weight.  A class that violates an
equivalence is expanded into its distinct labelings, each reported as the
labeled census would report it.  Shards are contiguous chunks of each
size's class list, so any worker count gives identical summaries.

The labeled enumeration, one-element extension in a fixed order, is the
public enumerate_labeled_posets.  The search returns, among the labelings
of its hits, the one this enumeration reaches first.
"""

from __future__ import annotations

import os
import random
import signal
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from multiprocessing import Pool

from .bitset import bits
from .bridges import incomparability_orthoset, strict_comparability_orthoset
from .errors import OrthoposetError, SizeLimitError
from .logic import (DEFAULT_MAX_LATTICE, _logic_from_family, is_boolean,
                    is_orthomodular)
from .npatterns import (chain_antichain_property, find_covering_n, find_n,
                        find_weak_n, is_n_free)
from .orthoset import (Orthoset, _dacey, enumerate_orthoclosed,
                       is_compatible, is_dacey, orthoset_from_pairs)
from .poset import (DEFAULT_MAX_ELEMENTS, Poset, _closure, _transpose,
                    from_up_rows)

DEFAULT_CENSUS_CAP = 6
# the seven predicates, in the order CensusSummary counts them
_PREDICATES = ("n_free", "weak_n_free", "dacey", "compatible", "oml",
               "boolean", "chain_antichain")


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


@dataclass(frozen=True)
class TheoremReport:
    """What verify_theorems decides for one poset: the seven verdicts, the
    size of the logic, the equivalences violated, and the witnesses.

    witnesses maps each failing predicate to the raw witness its standalone
    procedure names: element indices for the N quads and the incompatible
    pair, masks for the Dacey pair and the oml and boolean logic elements.
    The census tallies these reports and build_report puts them in labels.
    """

    n_free: bool
    weak_n_free: bool
    dacey: bool
    compatible: bool
    oml: bool
    boolean: bool
    chain_antichain: bool
    lattice_size: int
    violations: tuple[str, ...]
    witnesses: dict[str, tuple[int, ...]]


def _enumerate_rows(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (up, down) row tuples for every labeled poset on n elements.

    Element k is added with its above-set and then its below-set among
    0..k-1, each in ascending mask order, so the posets come in ascending
    order of _enumeration_key.
    """
    up = [0] * n
    dn = [0] * n

    def rec(k: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        if k == n:
            yield tuple(up), tuple(dn)
            return
        fullk = (1 << k) - 1
        aboves = [a for a in range(fullk + 1)
                  if all(not (a >> j & 1 and up[j] & ~a) for j in range(k))]
        belows = [b for b in range(fullk + 1)
                  if all(not (b >> j & 1 and dn[j] & ~b) for j in range(k))]
        for a in aboves:
            for b in belows:
                if a & b:
                    continue
                # order through the new element: everything below it must
                # already be under everything above it
                ok = True
                for j in bits(b):
                    if a & ~up[j]:
                        ok = False
                        break
                if not ok:
                    continue
                up[k] = a
                dn[k] = b
                for x in bits(a):
                    dn[x] |= 1 << k
                for x in bits(b):
                    up[x] |= 1 << k
                yield from rec(k + 1)
                for x in bits(a):
                    dn[x] &= ~(1 << k)
                for x in bits(b):
                    up[x] &= ~(1 << k)
                up[k] = 0
                dn[k] = 0

    yield from rec(0)


def enumerate_labeled_posets(n: int, cap: int = DEFAULT_CENSUS_CAP) -> Iterator[Poset]:
    """Every labeled poset on n elements, each exactly once, in a fixed order.

    Raises OrthoposetError if n is negative and SizeLimitError when n
    exceeds cap; pass a larger cap knowingly (the count grows
    superexponentially: 130023 at n=6, 6129859 at n=7).
    """
    if n < 0:
        raise OrthoposetError(f"poset size must be non-negative, got {n}")
    if n > cap:
        raise SizeLimitError(
            f"enumerating posets on {n} elements exceeds cap {cap}")
    for up, _dn in _enumerate_rows(n):
        yield from_up_rows(up, check=False)


def _enumeration_key(up: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Position of a labeled poset in the order of _enumerate_rows."""
    n = len(up)
    down = _transpose(up, n)
    return tuple((up[k] & ((1 << k) - 1), down[k] & ((1 << k) - 1))
                 for k in range(n))


def _relabel(up: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Up rows of the poset whose element i is element order[i] of up."""
    pos = [0] * len(order)
    for i, x in enumerate(order):
        pos[x] = i
    return tuple(sum(1 << pos[y] for y in bits(up[x])) for x in order)


def _relabelings(up: Sequence[int]) -> set[tuple[int, ...]]:
    """Up rows of every labeling of a poset, each distinct one once."""
    return {_relabel(up, order) for order in permutations(range(len(up)))}


def _canonical(up: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(canonical up rows, |Aut|) of a poset.

    Each element is coloured by its up and down degree, then repeatedly by
    the colours of its upper and lower neighbours until the number of
    colours stops growing, so isomorphic posets get the same colours.
    Twins, elements with equal up and down rows, can swap freely, so each
    twin class stays together as one block.  The canonical rows are the
    least _relabel over every order that lists the colours in ascending
    order and each colour's blocks in any order.  The orders reaching that
    minimum, times the orders inside the blocks, number |Aut|.
    """
    n = len(up)
    down = _transpose(up, n)
    above = [list(bits(r)) for r in up]
    below = [list(bits(r)) for r in down]
    colour = [(len(a), len(b)) for a, b in zip(above, below)]
    count = len(set(colour))
    while True:
        sig = [(c, tuple(sorted([colour[y] for y in a])),
                tuple(sorted([colour[y] for y in b])))
               for c, a, b in zip(colour, above, below)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        if len(rank) == count:
            break
        count = len(rank)
    blocks: dict[tuple[int, int], list[int]] = {}
    for x in range(n):
        blocks.setdefault((up[x], down[x]), []).append(x)
    swaps = 1
    for b in blocks.values():
        swaps *= factorial(len(b))
    cells = [[b for b in blocks.values() if colour[b[0]] == c]
             for c in range(count)]
    best, reached = None, 0
    for parts in product(*map(permutations, cells)):
        rows = _relabel(up, [x for part in parts for b in part for x in b])
        if best is None or rows < best:
            best, reached = rows, 1
        elif rows == best:
            reached += 1
    return best, reached * swaps


def _poset_classes(max_n: int,
                   ) -> Iterator[tuple[int, list[tuple[tuple[int, ...], int]]]]:
    """Yield (n, classes) for n = 1..max_n, one (canonical up rows, |Aut|)
    per isomorphism class of posets on n elements, sorted by rows.

    Removing a maximal element leaves a poset on n-1 elements with the
    removed element's below-set as a down-set, so adding a new maximal
    element above every down-set of every class on n-1 elements reaches
    every class on n.
    """
    level = [((), 1)]
    for n in range(1, max_n + 1):
        top = 1 << (n - 1)
        found = {}
        for up, _ in level:
            # closure[d] is the down-closure of d, built by doubling
            closure = [0]
            for x, row in enumerate(_transpose(up, n - 1)):
                closure += [c | row | 1 << x for c in closure]
            for d in range(top):
                if closure[d] != d:
                    continue  # not a down-set
                rows, aut = _canonical(
                    [r | top if d >> x & 1 else r for x, r in enumerate(up)]
                    + [0])
                found[rows] = aut
        level = sorted(found.items())
        yield n, level


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
    transitively.  Raises OrthoposetError if n is negative or edge_prob is
    outside [0, 1], and SizeLimitError if n exceeds max_elements.
    """
    if n < 0:
        raise OrthoposetError(f"poset size must be non-negative, got {n}")
    if n > max_elements:
        raise SizeLimitError(f"poset has {n} elements, cap is {max_elements}")
    _check_edge_prob(edge_prob)
    rng = random.Random(seed)
    perm = rng.sample(range(n), n)
    succ = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                succ[perm[i]] |= 1 << perm[j]
    return from_up_rows(_closure(succ), check=False)


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


def verify_theorems(p: Poset,
                    max_lattice: int = DEFAULT_MAX_LATTICE) -> TheoremReport:
    """The one decision pass: all seven predicates of one poset, the
    equivalence checks and the witness of every failing predicate.  The
    Dacey test and the logic share one orthoclosed family and perp table."""
    found = {w.kind: w.quad for w in (find_n(p), find_covering_n(p),
                                      find_weak_n(p)) if w is not None}
    o = incomparability_orthoset(p)
    family = enumerate_orthoclosed(o)
    found["dacey"] = _dacey(o, family)[1]
    found["compatible"] = is_compatible(o)[1]
    logic = _logic_from_family(p.n, family, o.table, max_lattice)
    # the logic names its elements by index; witnesses carry their masks
    for name, (_, idx) in (("oml", is_orthomodular(logic)),
                           ("boolean", is_boolean(logic))):
        if idx is not None:
            found[name] = tuple(family[i] for i in idx)
    witnesses = {k: w for k, w in found.items() if w is not None}

    n_free, cov_n_free, weak_free, dacey, compatible, oml, boolean = (
        kind not in witnesses for kind in
        ("n", "covering_n", "weak_n", "dacey", "compatible", "oml", "boolean"))
    chain_antichain = chain_antichain_property(p)

    violations = [name for name, lhs, rhs in (
        ("n_free vs dacey", n_free, dacey),
        ("n_free vs oml", n_free, oml),
        ("n_free vs chain_antichain", n_free, chain_antichain),
        ("n_free vs covering_n_free", n_free, cov_n_free),
        ("weak_n_free vs compatible", weak_free, compatible),
        ("weak_n_free vs boolean", weak_free, boolean),
    ) if lhs != rhs]
    if weak_free and not n_free:
        violations.append("weak_n_free without n_free")
    if boolean and not oml:
        violations.append("boolean without oml")

    return TheoremReport(n_free, weak_free, dacey, compatible, oml, boolean,
                         chain_antichain, len(family), tuple(violations),
                         witnesses)


def _check_max_n(what: str, max_n: int, cap: int) -> None:
    if max_n < 0:
        raise OrthoposetError(f"poset size must be non-negative, got {max_n}")
    if max_n > cap:
        raise SizeLimitError(f"{what} to n={max_n} exceeds cap {cap}")


def _census_shard(args: tuple[int, list]) -> tuple[int, list[int], list[str]]:
    """Tally a chunk of classes; args is (n, [(up, |Aut|), ...]), and each
    class counts once for each of its n!/|Aut| labelings."""
    n, classes = args
    total = 0
    counts = [0] * 7
    violations: list[str] = []
    for up, aut in classes:
        weight = factorial(n) // aut
        total += weight
        rep = verify_theorems(from_up_rows(up, check=False))
        for i, name in enumerate(_PREDICATES):
            counts[i] += weight * getattr(rep, name)
        if rep.violations:
            for rows in _relabelings(up):
                violations += (f"n={n} up={list(rows)}: {v}"
                               for v in rep.violations)
    return total, counts, violations


def census_run(max_n: int, workers: int = 1,
               cap: int = DEFAULT_CENSUS_CAP) -> list[CensusSummary]:
    """Census for every size 1..max_n; identical output for any worker count.

    The classes are generated serially; each size's class list is cut into
    at most `workers` contiguous shards, and one pool tallies the shards of
    every size.  Summaries merge by addition with violations sorted.  The
    pool never has more processes than shards or CPUs.  Raises
    OrthoposetError when max_n is negative or workers is below 1, and
    SizeLimitError when max_n exceeds cap.
    """
    _check_max_n("census", max_n, cap)
    if workers < 1:
        raise OrthoposetError(f"worker count must be at least 1, got {workers}")
    shards = []
    for n, classes in _poset_classes(max_n):
        step = -(-len(classes) // workers)
        shards += [(n, classes[i:i + step])
                   for i in range(0, len(classes), step)]
    if workers == 1 or len(shards) <= 1:
        results = list(map(_census_shard, shards))
    else:
        # workers ignore Ctrl-C; the parent stops them on its way out
        with Pool(min(workers, len(shards), os.cpu_count() or 1),
                  initializer=signal.signal,
                  initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            results = pool.map(_census_shard, shards)
    out = []
    for n in range(1, max_n + 1):
        mine = [r for (size, _), r in zip(shards, results) if size == n]
        total = sum(r[0] for r in mine)
        counts = [sum(r[1][i] for r in mine) for i in range(7)]
        violations = sorted(v for r in mine for v in r[2])
        out.append(CensusSummary(n, total, *counts, tuple(violations)))
    return out


def _pred_strict_dacey(p: Poset) -> bool:
    return is_dacey(strict_comparability_orthoset(p))[0]


def _pred_nfree_strict_not_dacey(p: Poset) -> bool:
    return is_n_free(p) and not _pred_strict_dacey(p)


_SEARCH_PREDICATES = {
    "nfree_but_strict_not_dacey": _pred_nfree_strict_not_dacey,
    "strict_dacey": _pred_strict_dacey,
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
        pred = _SEARCH_PREDICATES[predicate]
    except KeyError:
        raise ValueError(
            f"unknown predicate {predicate!r}; known: "
            f"{sorted(_SEARCH_PREDICATES)}") from None
    _check_max_n("search", max_n, cap)
    for n, classes in _poset_classes(max_n):
        hits = [up for up, _ in classes if pred(from_up_rows(up, check=False))]
        if hits:
            return from_up_rows(min(
                (rows for up in hits for rows in _relabelings(up)),
                key=_enumeration_key))
    return None
