"""Bridges from posets to orthosets.

Two orthogonality relations are induced by a poset: incomparability (the one
whose logic reflects N-freeness) and strict comparability (its graph
complement within distinct pairs).  The U/D decomposition splits everything
outside an orthoclosed set and its perp by whether it sits above or below
both sides.
"""

from __future__ import annotations

from .bitset import bits
from .errors import NotOrthoclosedError
from .orthoset import Orthoset, is_orthoclosed, perp
from .poset import Poset


def incomparability_orthoset(p: Poset) -> Orthoset:
    """Orthoset on the same elements with x orthogonal to y iff incomparable."""
    return Orthoset(p.incomp)


def strict_comparability_orthoset(p: Poset) -> Orthoset:
    """Orthoset with x orthogonal to y iff x < y or y < x."""
    return Orthoset(p.comparable)


def ud_decomposition(p: Poset, x: int) -> tuple[int, int]:
    """Split the complement of x and its perp into upper and lower parts.

    x must be an orthoclosed subset of 0..n-1 in the incomparability
    orthoset of p (checked first, raising NotOrthoclosedError).  It returns
    (u, d): u holds the elements above some member of x and above some
    member of perp(x), and d the elements below some member of each.  For
    orthoclosed x these two sets partition everything outside x and perp(x);
    that is asserted here and verified independently in the tests.
    """
    o = incomparability_orthoset(p)
    if not is_orthoclosed(o, x):
        raise NotOrthoclosedError(
            f"subset {x:#x} is not orthoclosed in the incomparability orthoset")
    px = perp(o, x)
    rest = p.full & ~(x | px)
    u = d = 0
    for z in bits(rest):
        if p.down[z] & x and p.down[z] & px:
            u |= 1 << z
        if p.up[z] & x and p.up[z] & px:
            d |= 1 << z
    if (u | d) != rest or u & d:
        raise AssertionError("upper/lower split failed to partition the rest")
    return u, d
