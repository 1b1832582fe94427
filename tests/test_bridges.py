"""Poset-to-orthoset bridges and the upper/lower decomposition."""

import pytest

from orthoposet.bridges import (incomparability_orthoset,
                                strict_comparability_orthoset,
                                ud_decomposition)
from orthoposet.catalog import (chain, diamond22, n_poset,
                                nfree_strict_non_dacey,
                                weak_nfree_incompatible)
from orthoposet.census import enumerate_labeled_posets, random_poset
from orthoposet.errors import NotOrthoclosedError
from orthoposet.npatterns import is_n_free
from orthoposet.orthoset import (enumerate_orthoclosed, is_dacey, perp,
                                 validate_orthoset)
from orthoposet.poset import dual


def test_two_orthosets_partition_pairs():
    for seed in range(20):
        p = random_poset(7, seed)
        inc = incomparability_orthoset(p)
        strict = strict_comparability_orthoset(p)
        validate_orthoset(inc)
        validate_orthoset(strict)
        for x in range(p.n):
            assert inc.adj[x] & strict.adj[x] == 0
            assert inc.adj[x] | strict.adj[x] | (1 << x) == p.full


def test_incomparability_is_self_dual():
    for seed in range(10):
        p = random_poset(6, seed + 50)
        assert incomparability_orthoset(dual(p)) == incomparability_orthoset(p)
        assert strict_comparability_orthoset(dual(p)) == \
            strict_comparability_orthoset(p)


def test_ud_fixtures():
    p = n_poset()
    # x = {a}: perp is {b,d}, the leftover c is above one element of each
    assert ud_decomposition(p, 0b0001) == (0b0100, 0)
    # x = {d}: perp is {a,c}, the leftover b is below one element of each
    assert ud_decomposition(p, 0b1000) == (0, 0b0010)
    full = chain(3)
    assert ud_decomposition(full, full.full) == (0, 0)


def test_ud_requires_orthoclosed():
    # a set that is not orthoclosed, and masks with bits outside 0..n-1
    for x in (0b00011, -1, 1 << 8):
        with pytest.raises(NotOrthoclosedError):
            ud_decomposition(weak_nfree_incompatible(), x)


def test_ud_partitions_exhaustively():
    for n in range(5):
        for p in enumerate_labeled_posets(n):
            o = incomparability_orthoset(p)
            for x in enumerate_orthoclosed(o):
                px = perp(o, x)
                u, d = ud_decomposition(p, x)
                assert u | d == p.full & ~(x | px)
                assert u & d == 0
                for z in range(p.n):
                    above_both = bool(p.down[z] & x) and bool(p.down[z] & px)
                    below_both = bool(p.up[z] & x) and bool(p.up[z] & px)
                    if u >> z & 1:
                        assert above_both and not below_both
                    elif d >> z & 1:
                        assert below_both and not above_both


def test_strict_orthoset_witness_poset():
    p = nfree_strict_non_dacey()
    assert p.n == 8
    assert is_n_free(p)
    strict = strict_comparability_orthoset(p)
    ok, witness = is_dacey(strict)
    assert not ok
    # the two minimal elements form a closed set whose basis {a1} leaks
    assert witness == (0b00000011, 0b00000001)
    inc = incomparability_orthoset(p)
    assert is_dacey(inc)[0]
