"""Poset enumeration, random generators, theorem census, counterexample search."""

import ast

import pytest

from orthoposet.bridges import incomparability_orthoset
from orthoposet.catalog import (diamond22, n_poset, nfree_strict_non_dacey,
                                weak_nfree_incompatible)
from orthoposet.census import (census_run, enumerate_labeled_posets,
                               random_orthoset, random_poset,
                               search_counterexample, verify_theorems)
from orthoposet.errors import SizeLimitError
from orthoposet.npatterns import find_weak_n
from orthoposet.orthoset import is_compatible, validate_orthoset
from orthoposet.poset import from_up_rows, validate_poset

from oracles import relation_filter_posets

# labeled poset counts by size; the enumerator and the relation filter
# oracle must both produce them
POSET_COUNTS = [1, 1, 3, 19, 219, 4231, 130023]


def test_enumeration_matches_relation_filter():
    for n in range(5):
        got = {p.up for p in enumerate_labeled_posets(n)}
        assert got == relation_filter_posets(n)
        assert len(got) == POSET_COUNTS[n]


def test_enumeration_count_n5():
    seen = set()
    for p in enumerate_labeled_posets(5):
        seen.add(p.up)
    assert len(seen) == POSET_COUNTS[5]


def test_enumerated_posets_are_valid():
    for p in enumerate_labeled_posets(4):
        validate_poset(p)


def test_enumeration_cap():
    with pytest.raises(SizeLimitError):
        list(enumerate_labeled_posets(7))


def test_random_generators_are_seeded():
    assert random_poset(8, 4).up == random_poset(8, 4).up
    assert random_poset(8, 4).up != random_poset(8, 5).up
    assert random_orthoset(8, 4) == random_orthoset(8, 4)
    for seed in range(30):
        validate_poset(from_up_rows(random_poset(9, seed).up))
        validate_orthoset(random_orthoset(9, seed))


def test_verify_theorems_fixtures():
    rep = verify_theorems(n_poset())
    assert not rep.n_free and not rep.dacey and not rep.oml
    assert not rep.weak_n_free and not rep.compatible and not rep.boolean
    assert not rep.chain_antichain
    assert rep.lattice_size == 6
    assert rep.violations == ()
    # raw witnesses: element indices for quads and pairs, masks for subsets
    assert rep.witnesses == {
        "n": (0, 1, 2, 3), "covering_n": (0, 1, 2, 3), "weak_n": (0, 1, 2, 3),
        "dacey": (0b0101, 0b0001), "compatible": (1, 2),
        "oml": (0b0001, 0b0101), "boolean": (0b0101, 0b0001, 0b1000)}

    rep = verify_theorems(diamond22())
    assert rep.n_free and rep.dacey and rep.oml and rep.chain_antichain
    # has a weak N through the comparable corner pair, hence no violation
    # even though it is incompatible
    assert not rep.weak_n_free and not rep.compatible and not rep.boolean
    assert rep.violations == ()
    assert rep.witnesses.keys() == {"weak_n", "compatible", "boolean"}


def test_weak_n_free_incompatible_counterexample():
    p = weak_nfree_incompatible()
    assert find_weak_n(p) is None
    rep = verify_theorems(p)
    assert rep.n_free and rep.dacey and rep.oml
    assert rep.weak_n_free and not rep.compatible and not rep.boolean
    assert rep.violations == ("weak_n_free vs compatible",
                              "weak_n_free vs boolean")


def test_census_small_counts():
    summaries = census_run(4)
    rows = [(s.n, s.total_posets, s.n_free, s.weak_n_free, s.dacey,
             s.compatible, s.oml, s.boolean, s.chain_antichain)
            for s in summaries]
    assert rows == [
        (1, 1, 1, 1, 1, 1, 1, 1, 1),
        (2, 3, 3, 3, 3, 3, 3, 3, 3),
        (3, 19, 19, 19, 19, 19, 19, 19, 19),
        (4, 219, 195, 189, 195, 189, 195, 189, 195),
    ]
    assert all(s.violations == () for s in summaries)


def test_census_n5_counts_and_violations():
    s = census_run(5)[-1]
    assert (s.total_posets, s.n_free, s.weak_n_free, s.dacey, s.compatible,
            s.oml, s.boolean, s.chain_antichain) == \
        (4231, 2911, 2681, 2911, 2651, 2911, 2651, 2911)
    # the one genuinely failing equivalence: no weak N does not force
    # compatibility; all violations come in compatible/boolean pairs
    assert len(s.violations) == 60
    ups = set()
    for line in s.violations:
        head, kind = line.split(": ")
        assert kind in ("weak_n_free vs compatible", "weak_n_free vs boolean")
        up = tuple(ast.literal_eval(head.split("up=")[1]))
        ups.add(up)
    assert len(ups) == 30
    for up in ups:
        p = from_up_rows(up)
        assert find_weak_n(p) is None
        assert not is_compatible(incomparability_orthoset(p))[0]
    # the canonical labeling of the five-element counterexample is present
    w = weak_nfree_incompatible()
    assert w.up in ups
    assert f"n=5 up={list(w.up)}: weak_n_free vs compatible" in s.violations


def test_census_worker_invariance():
    single = census_run(5, workers=1)
    duo = census_run(5, workers=2)
    trio = census_run(5, workers=3)
    assert single == duo == trio


def test_search_finds_dacey_immediately():
    p = search_counterexample("strict_dacey", 3)
    assert p is not None and p.n == 1


def test_search_unknown_predicate():
    with pytest.raises(ValueError):
        search_counterexample("no_such_thing", 3)


def test_search_strict_non_dacey_empty_below_six():
    assert search_counterexample("nfree_but_strict_not_dacey", 5) is None


def test_strict_non_dacey_witness_revalidates():
    # search below eight elements cannot find one, but the catalog witness
    # satisfies the predicate (checked in test_bridges); here its size note
    p = nfree_strict_non_dacey()
    assert p.n == 8
    rep = verify_theorems(p)
    assert rep.n_free and rep.dacey and rep.oml
    assert rep.violations == ()
