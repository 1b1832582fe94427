"""Detectors for the N shape and its covering and weak variants.

An N is a quadruple (a, b, c, d) with a < c, b covered by c, b < d, and
a incomparable to b, a incomparable to d, c incomparable to d.  The covering
variant requires all three order relations to be covers; the weak variant
drops the a-d incomparability requirement.  One row-level finder returns the
lexicographically least quadruple of each shape; the shape is the choice of
rows it walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .poset import Poset, maximal_antichains, maximal_chains

NKind = Literal["n", "covering_n", "weak_n"]


@dataclass(frozen=True)
class NWitness:
    kind: NKind
    quad: tuple[int, int, int, int]  # (a, b, c, d)


def _find_quad(n: int, above_a: Sequence[int], above_b: Sequence[int],
               beside_a: Sequence[int], cover_up: Sequence[int],
               incomp: Sequence[int]) -> tuple[int, int, int, int] | None:
    """Lex-least (a, b, c, d) with a, b and c, d incomparable, c covering b,
    c in above_a[a], and d in above_b[b] & beside_a[a], or None.

    The rows pick the shape: (up, up, incomp) an N, (cover_up, cover_up,
    incomp) a covering N, (up, up, all-ones) a weak N.
    """
    for a in range(n):
        ca = above_a[a]
        da = beside_a[a]
        rest = incomp[a]
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            cs = ca & cover_up[b]
            if not cs:
                continue
            ds = above_b[b] & da
            if not ds:
                continue
            while cs:
                low = cs & -cs
                cs ^= low
                tails = ds & incomp[low.bit_length() - 1]
                if tails:
                    return (a, b, low.bit_length() - 1,
                            (tails & -tails).bit_length() - 1)
    return None


def _witness(kind: NKind, quad: tuple[int, int, int, int] | None,
             ) -> NWitness | None:
    return None if quad is None else NWitness(kind, quad)


def is_n_free(p: Poset) -> bool:
    """True iff no quadruple of p forms an N."""
    return find_n(p) is None


def find_n(p: Poset) -> NWitness | None:
    """Lexicographically least N quadruple, or None."""
    return _witness("n", _find_quad(p.n, p.up, p.up, p.incomp,
                                    p.cover_up, p.incomp))


def find_covering_n(p: Poset) -> NWitness | None:
    """Lexicographically least N whose three order relations are all covers."""
    return _witness("covering_n", _find_quad(p.n, p.cover_up, p.cover_up,
                                             p.incomp, p.cover_up, p.incomp))


def find_weak_n(p: Poset) -> NWitness | None:
    """Lexicographically least weak N (a and d may be comparable), or None."""
    return _witness("weak_n", _find_quad(p.n, p.up, p.up, [p.full] * p.n,
                                         p.cover_up, p.incomp))


def chain_antichain_property(p: Poset) -> bool:
    """True iff every maximal chain meets every maximal antichain.

    Chains and antichains are nonempty subsets, so the empty poset satisfies
    this vacuously.
    """
    antichains = maximal_antichains(p)
    return all(c & a for c in maximal_chains(p) for a in antichains)
