"""Exhaustive and randomized verification of the structure theorems.

For every labeled poset up to a size bound, the census decides seven
predicates (N-free, weak-N-free, Dacey, compatible, orthomodular, Boolean,
chain-antichain) and records any violation of the equivalences claimed to
tie them together:

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

Posets are enumerated by one-element extension: a poset on k+1 elements is a
poset on k plus a choice of up-closed above-set A and down-closed below-set B
with every member of B under every member of A.  Each labeled poset arises
exactly once, extensions are tried in ascending (A, B) mask order, and the
enumeration restricted to the first k elements is the enumeration at size k.
That restriction compatibility is what makes sharding by prefix exact: any
worker count partitions the same poset stream and the merged summary is
identical.
"""

from __future__ import annotations

import random
import signal
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from multiprocessing import Pool

from .bitset import bits
from .errors import OrthoposetError, SizeLimitError
from .logic import (DEFAULT_MAX_LATTICE, _logic_from_family, is_boolean,
                    is_orthomodular)
from .npatterns import _chain_antichain_rows, _find_quad
from .orthoset import (DEFAULT_MAX_FAMILY, Orthoset, _closed_family,
                       _compatible_rows, _dacey_rows, orthoset_from_pairs,
                       perp_table)
from .poset import (DEFAULT_MAX_ELEMENTS, Poset, _covers_from_up,
                    _incomparability, from_up_rows)

DEFAULT_CENSUS_CAP = 6
_SHARD_PREFIX_SIZE = 4
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
    """Per-poset predicate verdicts, equivalence violations and witnesses.

    witnesses maps each failing predicate to the raw witness its standalone
    procedure names: element indices for the N quads and the incompatible
    pair, masks for the Dacey pair and the oml and boolean logic elements.
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


def _enumerate_rows(n: int, prefix: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
                    ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (up, down) row tuples for every labeled poset on n elements.

    With a prefix (rows of a poset on k elements), yields only the posets
    whose restriction to 0..k-1 is that prefix.
    """
    if prefix is None:
        up = [0] * n
        dn = [0] * n
        k0 = 0
    else:
        pu, pd = prefix
        k0 = len(pu)
        up = list(pu) + [0] * (n - k0)
        dn = list(pd) + [0] * (n - k0)

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

    yield from rec(k0)


def enumerate_labeled_posets(n: int, cap: int = DEFAULT_CENSUS_CAP) -> Iterator[Poset]:
    """Every labeled poset on n elements, each exactly once, in a fixed order.

    Raises SizeLimitError when n exceeds cap; pass a larger cap knowingly
    (the count grows superexponentially: 130023 at n=6, 6129859 at n=7).
    """
    if n > cap:
        raise SizeLimitError(
            f"enumerating posets on {n} elements exceeds cap {cap}")
    for up, _dn in _enumerate_rows(n):
        yield from_up_rows(up, check=False)


def random_poset(n: int, seed: int, edge_prob: float = 0.5,
                 max_elements: int = DEFAULT_MAX_ELEMENTS) -> Poset:
    """Seeded random poset: random linear order, random edges, closure.

    Algorithm, fixed for reproducibility: draw a permutation of 0..n-1 with
    random.Random(seed).sample, then for each position pair i < j in
    row-major order keep the edge perm[i] < perm[j] with probability
    edge_prob (one rng.random() call per pair, in that order), and close
    transitively.  Raises OrthoposetError if n is negative and
    SizeLimitError if it exceeds max_elements.
    """
    if n < 0:
        raise OrthoposetError(f"poset size must be non-negative, got {n}")
    if n > max_elements:
        raise SizeLimitError(f"poset has {n} elements, cap is {max_elements}")
    rng = random.Random(seed)
    perm = rng.sample(range(n), n)
    succ = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                succ[perm[i]] |= 1 << perm[j]
    up = [0] * n
    for i in reversed(range(n)):
        v = perm[i]
        acc = 0
        for w in bits(succ[v]):
            acc |= (1 << w) | up[w]
        up[v] = acc
    return from_up_rows(up, check=False)


def random_orthoset(n: int, seed: int, edge_prob: float = 0.5) -> Orthoset:
    """Seeded random orthoset: each pair i < j orthogonal with edge_prob.

    Pairs are drawn in row-major order with random.Random(seed), one
    rng.random() call per pair.
    """
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                pairs.append((i, j))
    return orthoset_from_pairs(n, pairs)


def _pipeline(n: int, up: Sequence[int], down: Sequence[int],
              cover_up: Sequence[int], incomp: Sequence[int],
              max_lattice: int = DEFAULT_MAX_LATTICE) -> TheoremReport:
    """The one decision pass: all seven predicates, the equivalence checks
    and the witness of every failing predicate, on raw relation rows."""
    found = {
        "n": _find_quad(n, up, up, incomp, cover_up, incomp),
        "covering_n": _find_quad(n, cover_up, cover_up, incomp, cover_up,
                                 incomp),
        "weak_n": _find_quad(n, up, up, [(1 << n) - 1] * n, cover_up, incomp),
    }
    family = _closed_family(incomp, n, DEFAULT_MAX_FAMILY)
    table = perp_table(incomp, n)
    _, found["dacey"] = _dacey_rows(incomp, n, family=family, table=table)
    _, found["compatible"] = _compatible_rows(incomp, n, table)
    logic = _logic_from_family(incomp, n, family, max_lattice, table)
    # the logic names its elements by index; witnesses carry their masks
    for name, (_, idx) in (("oml", is_orthomodular(logic)),
                           ("boolean", is_boolean(logic))):
        if idx is not None:
            found[name] = tuple(family[i] for i in idx)
    witnesses = {k: w for k, w in found.items() if w is not None}

    n_free, cov_n_free, weak_free, dacey, compatible, oml, boolean = (
        kind not in witnesses for kind in
        ("n", "covering_n", "weak_n", "dacey", "compatible", "oml", "boolean"))
    chain_antichain = _chain_antichain_rows(
        n, [up[x] | down[x] for x in range(n)], incomp)

    violations = []
    for name, lhs, rhs in (
        ("n_free vs dacey", n_free, dacey),
        ("n_free vs oml", n_free, oml),
        ("n_free vs chain_antichain", n_free, chain_antichain),
        ("n_free vs covering_n_free", n_free, cov_n_free),
        ("weak_n_free vs compatible", weak_free, compatible),
        ("weak_n_free vs boolean", weak_free, boolean),
    ):
        if lhs != rhs:
            violations.append(name)
    if weak_free and not n_free:
        violations.append("weak_n_free without n_free")
    if boolean and not oml:
        violations.append("boolean without oml")

    return TheoremReport(n_free, weak_free, dacey, compatible, oml, boolean,
                         chain_antichain, len(family), tuple(violations),
                         witnesses)


def verify_theorems(p: Poset,
                    max_lattice: int = DEFAULT_MAX_LATTICE) -> TheoremReport:
    """Decide all predicates for one poset, cross-check the equivalences and
    name the witness of every failing predicate, in one pass."""
    return _pipeline(p.n, p.up, p.down, p.cover_up, p.incomp, max_lattice)


def _census_shard(args: tuple[int, list | None]) -> tuple[int, list[int], list[str]]:
    """Tally one stream of posets; args is (n, prefixes or None).

    With prefixes, only the posets extending one of them are tallied.
    """
    n, prefixes = args
    total = 0
    counts = [0] * 7
    violations: list[str] = []
    for prefix in [None] if prefixes is None else prefixes:
        for up, dn in _enumerate_rows(n, prefix):
            total += 1
            rep = _pipeline(n, up, dn, _covers_from_up(up, n),
                            _incomparability(up, dn, n))
            for i, name in enumerate(_PREDICATES):
                counts[i] += getattr(rep, name)
            for v in rep.violations:
                violations.append(f"n={n} up={list(up)}: {v}")
    return total, counts, violations


def census_run(max_n: int, workers: int = 1,
               cap: int = DEFAULT_CENSUS_CAP) -> list[CensusSummary]:
    """Census for every size 1..max_n; identical output for any worker count.

    Work is split by the poset on the first few elements (the top-left block
    of the relation matrix); restriction compatibility of the enumeration
    makes the shards an exact partition, and summaries merge by addition
    with violations sorted.
    """
    if max_n > cap:
        raise SizeLimitError(f"census to n={max_n} exceeds cap {cap}")
    out = []
    for n in range(1, max_n + 1):
        if n <= _SHARD_PREFIX_SIZE or workers <= 1:
            shards = [(n, None)]
        else:
            prefixes = list(_enumerate_rows(_SHARD_PREFIX_SIZE))
            step = max(1, -(-len(prefixes) // workers))
            shards = [(n, prefixes[i:i + step])
                      for i in range(0, len(prefixes), step)]
        if len(shards) == 1:
            results = [_census_shard(shards[0])]
        else:
            # workers ignore Ctrl-C; the parent stops them on its way out
            with Pool(workers, initializer=signal.signal,
                      initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
                results = pool.map(_census_shard, shards)
        total = sum(r[0] for r in results)
        counts = [sum(r[1][i] for r in results) for i in range(7)]
        violations = sorted(v for r in results for v in r[2])
        out.append(CensusSummary(n, total, *counts, tuple(violations)))
    return out


def _pred_strict_dacey(n, up, dn, cov, incomp) -> bool:
    ok, _ = _dacey_rows([up[x] | dn[x] for x in range(n)], n)
    return ok


def _pred_nfree_strict_not_dacey(n, up, dn, cov, incomp) -> bool:
    return (_find_quad(n, up, up, incomp, cov, incomp) is None
            and not _pred_strict_dacey(n, up, dn, cov, incomp))


_SEARCH_PREDICATES = {
    "nfree_but_strict_not_dacey": _pred_nfree_strict_not_dacey,
    "strict_dacey": _pred_strict_dacey,
}


def search_counterexample(predicate: str, max_n: int,
                          cap: int = DEFAULT_CENSUS_CAP + 1) -> Poset | None:
    """First poset satisfying the named predicate, scanning sizes 1..max_n.

    Deterministic: sizes ascending, posets in enumeration order.  Returns
    None when no poset up to max_n qualifies.  Known predicates:
    nfree_but_strict_not_dacey (no poset on fewer than 8 elements satisfies
    it; the smallest witness is catalog.nfree_strict_non_dacey) and
    strict_dacey.
    """
    try:
        pred = _SEARCH_PREDICATES[predicate]
    except KeyError:
        raise ValueError(
            f"unknown predicate {predicate!r}; known: "
            f"{sorted(_SEARCH_PREDICATES)}") from None
    if max_n > cap:
        raise SizeLimitError(f"search to n={max_n} exceeds cap {cap}")
    for n in range(1, max_n + 1):
        for up, dn in _enumerate_rows(n):
            if pred(n, up, dn, _covers_from_up(up, n),
                    _incomparability(up, dn, n)):
                return from_up_rows(up)
    return None
