"""Named small structures used by the CLI generator and throughout the tests."""

from __future__ import annotations

from .orthoset import Orthoset, orthoset_from_pairs
from .poset import DEFAULT_MAX_ELEMENTS, Poset, poset_from_covers


def chain(k: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Poset:
    """Total order 0 < 1 < ... < k-1."""
    return poset_from_covers(k, [(i, i + 1) for i in range(k - 1)],
                             max_elements=max_elements)


def antichain(k: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Poset:
    """k pairwise incomparable elements."""
    return poset_from_covers(k, [], max_elements=max_elements)


def n_poset() -> Poset:
    """The four-element N: a < c, b < c, b < d with a, d incomparable."""
    return poset_from_covers(4, [(0, 2), (1, 2), (1, 3)],
                             labels=("a", "b", "c", "d"))


def diamond22() -> Poset:
    """Two minimal elements each below two maximal ones (complete bipartite)."""
    return poset_from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)],
                             labels=("a", "b", "c", "d"))


def path_orthoset(k: int = 4) -> Orthoset:
    """Orthoset on 1..k with i orthogonal to j iff they differ by one."""
    return orthoset_from_pairs(k, [(i, i + 1) for i in range(k - 1)])


def weak_nfree_incompatible() -> Poset:
    """Smallest poset with no weak N whose incomparability orthoset is not
    compatible.

    Two minimal elements covered by one middle element covered by two
    maximal ones.  Every weak N needs a cover b of c with something
    incomparable to b below c and something incomparable to c above b, and
    the single middle element blocks both.  Yet the pair (a1, c1) is
    incompatible: the closures of {a1} and {c1} are the singletons
    themselves, which are disjoint although a1 and c1 are comparable.  So
    the absence of weak Ns does not force compatibility: this poset refutes
    the claims weak_n_free vs compatible and weak_n_free vs boolean of
    report.CLAIMS, and the census finds exactly its 30 labelings as
    violations at size 5.  A weak N does always destroy compatibility.
    """
    labels = ("a1", "a2", "m", "c1", "c2")
    return poset_from_covers(5, [(0, 2), (1, 2), (2, 3), (2, 4)],
                             labels=labels)


def nfree_strict_non_dacey() -> Poset:
    """Smallest N-free poset whose strict-comparability orthoset is not Dacey.

    Two minimal elements a1, a2 and two maximal c1, c2, each a_i < c_j
    through its own midpoint b.  In the strict-comparability orthoset the
    set {a1, a2} is orthoclosed with perp {c1, c2}, yet its basis {a1} has
    the midpoints of a1 in its perp as well, so the basis does not recover
    the set.  No poset on seven or fewer elements does this: with fewer
    midpoints two covering chains share one and an N appears in the order.
    On eight elements the witness is unique up to isomorphism: it is the
    only one of the 16999 classes of posets that qualifies.
    """
    labels = ("a1", "a2", "b1", "b2", "b3", "b4", "c1", "c2")
    covers = [
        (0, 2), (2, 6),   # a1 < b1 < c1
        (0, 3), (3, 7),   # a1 < b2 < c2
        (1, 4), (4, 6),   # a2 < b3 < c1
        (1, 5), (5, 7),   # a2 < b4 < c2
    ]
    return poset_from_covers(8, covers, labels=labels)
