"""Subsets of {0..n-1} as int bitmasks, plus clique enumeration over mask adjacency.

Bit i set means element i is in the subset.  All subset-valued results in this
package are masks; use bits() to walk members in ascending index order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def subset_labels(mask: int, labels: Sequence[str]) -> list[str]:
    """Members of mask as labels, ascending by index."""
    return [labels[i] for i in bits(mask)]


def format_subset(mask: int, labels: Sequence[str]) -> str:
    return "{" + ",".join(subset_labels(mask, labels)) + "}"


def maximal_cliques(adj: Sequence[int], sub: int) -> list[int]:
    """All maximal cliques of the graph induced on the vertex set sub.

    adj[v] is the neighborhood mask of v; the graph must be simple (irreflexive,
    symmetric).  Bron-Kerbosch with greedy pivoting; cliques of the induced
    subgraph only, i.e. maximality is relative to sub.  Sorted by mask value.
    The empty graph on sub=0 has the single maximal clique 0.  Raises
    ValueError when sub is no subset of 0..len(adj)-1.
    """
    if sub & ~((1 << len(adj)) - 1):
        raise ValueError(f"mask {sub:#x} is not a subset of 0..{len(adj) - 1}")
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot: vertex of p|x with most neighbors in p, shrinking the branch set
        pivot = -1
        best = -1
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            deg = (adj[u] & p).bit_count()
            if deg > best:
                best = deg
                pivot = u
        rest = p & ~adj[pivot]
        while rest:
            vb = rest & -rest
            rest ^= vb
            av = adj[vb.bit_length() - 1] & sub
            expand(r | vb, p & av, x & av)
            p ^= vb
            x |= vb

    expand(0, sub, 0)
    out.sort()
    return out
