"""Finite posets on elements 0..n-1 with bitmask relation rows.

The strict order is stored as row masks: up[x] is the set {y : x < y} and
down[x] the set {y : y < x}.  Cover rows and incomparability rows are
precomputed once at construction; every decision procedure in the package
works on these masks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

from .bitset import bits, maximal_cliques
from .errors import CycleError, OrthoposetError, SizeLimitError

DEFAULT_MAX_ELEMENTS = 24


@dataclass(frozen=True)
class Poset:
    """Immutable poset; construct via poset_from_covers or from_up_rows."""

    n: int
    up: tuple[int, ...]          # up[x] = {y : x < y}
    down: tuple[int, ...]        # down[x] = {y : y < x}
    cover_up: tuple[int, ...]    # cover_up[x] = {y : y covers x}
    cover_down: tuple[int, ...]  # cover_down[x] = {y : x covers y}
    incomp: tuple[int, ...]      # incomp[x] = {y != x : neither x < y nor y < x}
    labels: tuple[str, ...]

    @property
    def full(self) -> int:
        return (1 << self.n) - 1


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def _covers_from_up(up: Sequence[int], n: int) -> list[int]:
    # y covers x iff y is minimal in up[x]: remove everything above some z in up[x]
    cov = []
    for x in range(n):
        rem = rest = up[x]
        while rest:
            low = rest & -rest
            rem &= ~up[low.bit_length() - 1]
            rest ^= low
        cov.append(rem)
    return cov


def _transpose(rows: Sequence[int], n: int) -> list[int]:
    """Rows of the converse relation: bit x of out[y] iff bit y of rows[x]."""
    out = [0] * n
    for x in range(n):
        for y in bits(rows[x]):
            out[y] |= 1 << x
    return out


def _incomparability(up: Sequence[int], down: Sequence[int],
                     n: int) -> list[int]:
    """Rows of the incomparability relation: y != x with neither x < y nor y < x."""
    full = (1 << n) - 1
    return [full & ~(up[x] | down[x] | (1 << x)) for x in range(n)]


def from_up_rows(up: Sequence[int], labels: Sequence[str] | None = None,
                 check: bool = True) -> Poset:
    """Build a Poset from strict-order rows, deriving all other rows.

    The rows must already describe a strict partial order (irreflexive,
    antisymmetric, transitive); validate_poset checks exactly that.  Internal
    bulk enumeration passes check=False for rows correct by construction.
    """
    n = len(up)
    up_t = tuple(up)
    down = _transpose(up_t, n)
    cover_up = _covers_from_up(up_t, n)
    cover_down = _transpose(cover_up, n)
    incomp = _incomparability(up_t, down, n)
    lab = _default_labels(n) if labels is None else tuple(labels)
    p = Poset(n, up_t, tuple(down), tuple(cover_up), tuple(cover_down),
              tuple(incomp), lab)
    if check:
        validate_poset(p)
    return p


def poset_from_covers(
    n: int,
    covers: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> Poset:
    """Poset generated by the given (lower, upper) pairs.

    The strict order is the transitive closure of the pairs; a pair that turns
    out to be transitively implied is tolerated (covers are recomputed from
    the closed order).  Raises CycleError if the pairs admit a directed cycle,
    SizeLimitError if n exceeds max_elements, OrthoposetError if n is
    negative, IndexError on an out-of-range element.
    """
    if n < 0:
        raise OrthoposetError(f"poset size must be non-negative, got {n}")
    if n > max_elements:
        raise SizeLimitError(
            f"poset has {n} elements, cap is {max_elements}; "
            "raise max_elements to allow this")
    succ = [0] * n
    for a, b in covers:
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"cover pair ({a}, {b}) out of range for n={n}")
        if a == b:
            raise CycleError(f"cover pair ({a}, {a}) relates an element to itself")
        succ[a] |= 1 << b

    # Kahn ordering over the generator edges; leftovers mean a cycle
    indeg = [0] * n
    for a in range(n):
        for b in bits(succ[a]):
            indeg[b] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    topo = []
    while queue:
        v = queue.pop()
        topo.append(v)
        for w in bits(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(topo) != n:
        stuck = sorted(set(range(n)) - set(topo))
        raise CycleError(f"cover relation has a cycle through elements {stuck}")

    up = [0] * n
    for v in reversed(topo):
        acc = 0
        for w in bits(succ[v]):
            acc |= (1 << w) | up[w]
        up[v] = acc
    return from_up_rows(up, labels)


def validate_poset(p: Poset) -> None:
    """Check every structural invariant; raises ValueError on the first failure."""
    n = p.n
    full = (1 << n) - 1
    for name in ("up", "down", "cover_up", "cover_down", "incomp"):
        rows = getattr(p, name)
        if len(rows) != n:
            raise ValueError(f"{name} has {len(rows)} rows, expected {n}")
        for x, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"{name}[{x}] has bits outside 0..{n - 1}")
    for x in range(n):
        if p.up[x] >> x & 1:
            raise ValueError(f"order is reflexive at {x}")
        for y in bits(p.up[x]):
            if p.up[y] >> x & 1:
                raise ValueError(f"antisymmetry fails on ({x}, {y})")
            if p.up[y] & ~p.up[x]:
                raise ValueError(f"transitivity fails at {x} < {y}")
    if list(p.down) != _transpose(p.up, n):
        raise ValueError("down rows are not the transpose of the up rows")
    expect_cov = _covers_from_up(p.up, n)
    if list(p.cover_up) != expect_cov:
        raise ValueError("cover_up rows disagree with the order")
    if list(p.cover_down) != _transpose(expect_cov, n):
        raise ValueError("cover_down rows are not the transpose of cover_up")
    for x in range(n):
        if p.incomp[x] != full & ~(p.up[x] | p.down[x] | (1 << x)):
            raise ValueError(f"incomp[{x}] disagrees with the order")
    if len(p.labels) != n:
        raise ValueError(f"{len(p.labels)} labels for {n} elements")
    if len(set(p.labels)) != n:
        raise ValueError("labels are not unique")


def _check_index(p: Poset, x: int) -> None:
    if not 0 <= x < p.n:
        raise IndexError(f"element {x} out of range for n={p.n}")


def leq(p: Poset, x: int, y: int) -> bool:
    """x <= y in the reflexive order."""
    _check_index(p, x)
    _check_index(p, y)
    return x == y or bool(p.up[x] >> y & 1)


def lt(p: Poset, x: int, y: int) -> bool:
    _check_index(p, x)
    _check_index(p, y)
    return bool(p.up[x] >> y & 1)


def incomparable(p: Poset, x: int, y: int) -> bool:
    _check_index(p, x)
    _check_index(p, y)
    return bool(p.incomp[x] >> y & 1)


def covers(p: Poset, x: int, y: int) -> bool:
    """True iff y covers x: x < y with nothing strictly between."""
    _check_index(p, x)
    _check_index(p, y)
    return bool(p.cover_up[x] >> y & 1)


def dual(p: Poset) -> Poset:
    """Order-reversed poset on the same elements and labels."""
    return replace(p, up=p.down, down=p.up,
                   cover_up=p.cover_down, cover_down=p.cover_up)


def comparability_rows(p: Poset) -> list[int]:
    """Adjacency of the comparability graph: x ~ y iff x < y or y < x."""
    return [p.up[x] | p.down[x] for x in range(p.n)]


def maximal_chains(p: Poset) -> list[int]:
    """Maximal chains as subset masks, sorted by mask value.

    Chains are nonempty, so the empty poset has none.  A maximal chain is a
    maximal clique of the comparability graph.
    """
    if p.n == 0:
        return []
    return maximal_cliques(comparability_rows(p), p.full)


def maximal_antichains(p: Poset) -> list[int]:
    """Maximal antichains as subset masks, sorted by mask value.

    Antichains are nonempty; a maximal antichain is a maximal clique of the
    incomparability graph.
    """
    if p.n == 0:
        return []
    return maximal_cliques(p.incomp, p.full)
