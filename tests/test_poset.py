"""Poset construction, validation, duality, chains and antichains."""

import dataclasses
import importlib
import pickle
import random

import pytest

from orthoposet.catalog import antichain, chain, diamond22, n_poset
from orthoposet.census import enumerate_labeled_posets, random_poset
from orthoposet.errors import CycleError, SizeLimitError
from orthoposet.poset import (Poset, covers, dual, from_up_rows, incomparable,
                              leq, lt, maximal_antichains, maximal_chains,
                              poset_from_covers, validate_poset)

from oracles import (brute_covers, brute_maximal_antichains,
                     brute_maximal_chains, brute_reachability, members)


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


def test_cycle_error_names_the_cycle_and_everything_above_it():
    # 2 sits above the cycle 0 <-> 1; 3 sits below it and is not named
    with pytest.raises(CycleError, match=r"elements \[0, 1, 2\]$"):
        poset_from_covers(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(CycleError, match=r"elements \[0, 1\]$"):
        poset_from_covers(4, [(3, 0), (0, 1), (1, 0)])


def test_out_of_range_cover():
    with pytest.raises(IndexError):
        poset_from_covers(2, [(0, 2)])


def test_from_covers_against_brute_reachability():
    # poset_from_covers runs no order-axiom scan on the rows it closes, so
    # its closure is held here to a path search: equal rows, CycleError
    # exactly when some element reaches itself, and rows validate_poset
    # accepts.  Pairs follow a random order, and half the lists get one
    # pair against it, which closes a cycle on 44 of the 300
    rng = random.Random(2900)
    outcomes = []
    for _ in range(300):
        n = rng.randrange(10)
        order = rng.sample(range(n), n)
        pairs = [(order[i], order[j]) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.3]
        if n > 1 and rng.random() < 0.5:
            i, j = sorted(rng.sample(range(n), 2))
            pairs.insert(rng.randrange(len(pairs) + 1), (order[j], order[i]))
        reach = brute_reachability(n, pairs)
        cyclic = any(reach[v] >> v & 1 for v in range(n))
        outcomes.append(cyclic)
        if cyclic:
            with pytest.raises(CycleError):
                poset_from_covers(n, pairs)
            continue
        p = poset_from_covers(n, pairs)
        assert list(p.up) == reach, pairs
        validate_poset(p)
    assert outcomes.count(True) == 44


def test_from_covers_checks_labels():
    with pytest.raises(ValueError, match="^1 labels for 2 elements$"):
        poset_from_covers(2, [], labels=["a"])
    with pytest.raises(ValueError, match="^labels are not unique$"):
        poset_from_covers(2, [], labels=["a", "a"])
    assert poset_from_covers(2, [], labels=["a", "b"]).labels == ("a", "b")


def test_size_cap():
    with pytest.raises(SizeLimitError):
        poset_from_covers(25, [])
    p = poset_from_covers(25, [], max_elements=32)
    assert p.n == 25


def test_poset_stores_only_its_order():
    # every other row is derived from up, so no two stored rows can disagree
    assert [f.name for f in dataclasses.fields(Poset)] == ["up", "labels"]


DERIVED = ("n", "down", "cover_up", "comparable", "incomp")


def test_derived_rows_are_cached_and_invisible():
    # a touched poset equals, hashes and pickles like an untouched copy,
    # and each derived row is computed once, on first use.  The class is
    # looked up now, as pickle looks it up, in case the package was
    # re-imported since this module was
    current = importlib.import_module("orthoposet.poset").Poset
    for q in (chain(4), antichain(3), n_poset(), diamond22()):
        p, untouched = current(q.up, q.labels), current(q.up, q.labels)
        rows = {name: getattr(p, name) for name in DERIVED}
        assert set(vars(p)) == {"up", "labels", *DERIVED}
        assert all(getattr(p, name) is row for name, row in rows.items())
        assert vars(untouched) == {"up": p.up, "labels": p.labels}
        assert p == untouched and hash(p) == hash(untouched)
        copy = pickle.loads(pickle.dumps(p))
        assert copy == untouched and hash(copy) == hash(untouched)
        assert all(getattr(copy, name) == getattr(untouched, name)
                   for name in DERIVED)


def test_default_labels_are_shared_per_size():
    # every poset of one size built without labels holds the same tuple,
    # which changes nothing a caller can compare, hash or pickle
    p, q = from_up_rows((0b10, 0)), from_up_rows((0, 0))
    assert p.labels is q.labels and p.labels == ("0", "1")
    assert from_up_rows((0, 0, 0)).labels == ("0", "1", "2")
    fresh = Poset(p.up, ("0", "1"))
    assert p == fresh and hash(p) == hash(fresh)
    assert pickle.loads(pickle.dumps(p)) == fresh


def test_validate_catches_corruption():
    p = n_poset()
    bad = dataclasses.replace(p, up=(0b0100, 0b1100, 0b0001, 0))
    with pytest.raises(ValueError):
        validate_poset(bad)
    bad = dataclasses.replace(p, labels=("a", "a", "c", "d"))
    with pytest.raises(ValueError):
        validate_poset(bad)


def test_dual_involution_and_swap():
    for p in (chain(4), n_poset(), diamond22(), random_poset(7, 3)):
        d = dual(p)
        assert dual(d) == p
        assert d.up == p.down
        assert all(covers(d, y, x) == covers(p, x, y)
                   for x in range(p.n) for y in range(p.n))
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
