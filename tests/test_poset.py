"""Poset construction, validation, duality, chains and antichains."""

import dataclasses

import pytest

from orthoposet.catalog import antichain, chain, diamond22, n_poset
from orthoposet.census import enumerate_labeled_posets, random_poset
from orthoposet.errors import CycleError, SizeLimitError
from orthoposet.poset import (Poset, covers, dual, from_up_rows, incomparable,
                              leq, lt, maximal_antichains, maximal_chains,
                              poset_from_covers, validate_poset)

from oracles import (brute_covers, brute_maximal_antichains,
                     brute_maximal_chains, members)


def test_chain_rows():
    p = chain(4)
    assert p.up == (0b1110, 0b1100, 0b1000, 0)
    assert p.down == (0, 0b0001, 0b0011, 0b0111)
    assert p.cover_up == (0b0010, 0b0100, 0b1000, 0)
    assert p.incomp == (0, 0, 0, 0)
    validate_poset(p)


def test_antichain_rows():
    p = antichain(3)
    assert p.up == (0, 0, 0)
    assert p.incomp == (0b110, 0b101, 0b011)
    validate_poset(p)


def test_n_poset_rows():
    p = n_poset()
    assert p.labels == ("a", "b", "c", "d")
    assert p.up == (0b0100, 0b1100, 0, 0)
    assert p.cover_up == (0b0100, 0b1100, 0, 0)
    assert p.incomp == (0b1010, 0b0001, 0b1000, 0b0101)
    validate_poset(p)


def test_order_queries():
    p = n_poset()
    assert lt(p, 0, 2) and not lt(p, 2, 0)
    assert leq(p, 0, 0) and leq(p, 1, 3)
    assert incomparable(p, 0, 3) and not incomparable(p, 1, 2)
    assert covers(p, 1, 3) and not covers(p, 3, 1)
    with pytest.raises(IndexError):
        leq(p, 0, 4)
    with pytest.raises(IndexError):
        lt(p, -1, 0)


def test_redundant_cover_pair_tolerated():
    # 0 < 2 is implied by 0 < 1 < 2; listing it anyway must not change covers
    p = poset_from_covers(3, [(0, 1), (1, 2), (0, 2)])
    q = chain(3)
    assert p.up == q.up and p.cover_up == q.cover_up


def test_cycle_rejected():
    with pytest.raises(CycleError):
        poset_from_covers(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleError):
        poset_from_covers(2, [(0, 0)])


def test_out_of_range_cover():
    with pytest.raises(IndexError):
        poset_from_covers(2, [(0, 2)])


def test_size_cap():
    with pytest.raises(SizeLimitError):
        poset_from_covers(25, [])
    p = poset_from_covers(25, [], max_elements=32)
    assert p.n == 25


def test_validate_catches_corruption():
    p = n_poset()
    bad = dataclasses.replace(p, up=(0b0100, 0b1100, 0b0001, 0))
    with pytest.raises(ValueError):
        validate_poset(bad)
    bad = dataclasses.replace(p, cover_up=(0b0100, 0b1000, 0, 0))
    with pytest.raises(ValueError):
        validate_poset(bad)
    bad = dataclasses.replace(p, labels=("a", "a", "c", "d"))
    with pytest.raises(ValueError):
        validate_poset(bad)


def test_validate_rejects_down_rows_that_are_not_the_transpose():
    # up says 0 and 1 are incomparable, down says 1 < 0; the stored
    # incomparability rows are consistent with both, yet asymmetric
    bad = Poset(2, up=(0, 0), down=(0b10, 0), cover_up=(0, 0),
                cover_down=(0, 0), incomp=(0, 0b01), labels=("0", "1"))
    with pytest.raises(ValueError, match="transpose"):
        validate_poset(bad)
    p = n_poset()
    bad = dataclasses.replace(p, cover_down=(0, 0, 0b0001, 0b0010))
    with pytest.raises(ValueError, match="cover_down"):
        validate_poset(bad)
    validate_poset(p)


def test_dual_involution_and_swap():
    for p in (chain(4), n_poset(), diamond22(), random_poset(7, 3)):
        d = dual(p)
        assert dual(d) == p
        assert d.up == p.down and d.cover_down == p.cover_up
        assert d.incomp == p.incomp
        # comparability is direction-blind, so chains and antichains survive
        assert maximal_chains(d) == maximal_chains(p)
        assert maximal_antichains(d) == maximal_antichains(p)


def test_chains_antichains_fixtures():
    p = n_poset()
    assert maximal_chains(p) == [0b0101, 0b0110, 0b1010]
    assert maximal_antichains(p) == [0b0011, 0b1001, 0b1100]
    assert maximal_chains(chain(3)) == [0b111]
    assert maximal_antichains(antichain(3)) == [0b111]
    empty = poset_from_covers(0, [])
    assert maximal_chains(empty) == []
    assert maximal_antichains(empty) == []


def test_chains_antichains_against_filter():
    for n in range(1, 5):
        for p in enumerate_labeled_posets(n):
            assert maximal_chains(p) == brute_maximal_chains(n, p.up)
            assert maximal_antichains(p) == brute_maximal_antichains(n, p.up)
    for seed in range(20):
        p = random_poset(7, seed)
        assert maximal_chains(p) == brute_maximal_chains(p.n, p.up)
        assert maximal_antichains(p) == brute_maximal_antichains(p.n, p.up)


def test_cover_rows_against_filter():
    for seed in range(20):
        p = random_poset(8, seed + 100)
        expect = brute_covers(p.n, p.up)
        got = {(x, y) for x in range(p.n) for y in members(p.cover_up[x], p.n)}
        assert got == expect


def test_from_up_rows_rejects_non_order():
    with pytest.raises(ValueError):
        from_up_rows((0b10, 0b01))  # 0 < 1 and 1 < 0
    with pytest.raises(ValueError):
        from_up_rows((0b010, 0b100, 0))  # missing 0 < 2
