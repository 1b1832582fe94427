"""Isomorphism classes of posets against the labeled enumeration.

The census and the search decide one canonical poset per isomorphism class;
these tests hold the class generator to the labeled enumeration, to the
relabeling oracle and to the OEIS counts.
"""

import random
from math import factorial

import pytest

from orthoposet import census
from orthoposet.census import (_enumerate_rows, _enumeration_key,
                               _poset_classes, census_run,
                               search_counterexample, verify_theorems)
from orthoposet.npatterns import is_n_free
from orthoposet.poset import from_up_rows

from oracles import relabelings

# OEIS A000112 (unlabeled) and A001035 (labeled) posets on 1..7 elements
UNLABELED = [1, 2, 5, 16, 63, 318, 2045]
LABELED = [1, 3, 19, 219, 4231, 130023, 6129859]


@pytest.fixture(scope="module")
def classes7():
    return list(_poset_classes(7))


def test_class_counts_match_oeis(classes7):
    assert [n for n, _ in classes7] == list(range(1, 8))
    assert [len(classes) for _, classes in classes7] == UNLABELED
    assert [sum(factorial(n) // aut for _, aut in classes)
            for n, classes in classes7] == LABELED


def test_classes_partition_the_labeled_posets(classes7):
    # every orbit has n!/|Aut| members, no two orbits meet, and together
    # they are exactly the labeled enumeration
    for n, classes in classes7[:5]:
        seen = set()
        for up, aut in classes:
            orbit = relabelings(n, up)
            assert len(orbit) == factorial(n) // aut, f"n={n} up={up}"
            assert not orbit & seen, f"n={n} up={up} meets an earlier class"
            seen |= orbit
        assert seen == {up for up, _ in _enumerate_rows(n)}


def test_canonical_form_ignores_labels():
    rng = random.Random(11)
    for seed in range(40):
        n = 6 + seed % 3
        p = census.random_poset(n, seed)
        order = rng.sample(range(n), n)
        assert census._canonical(census._relabel(p.up, order)) == \
            census._canonical(p.up)


def test_unlabeled_n_free_counts():
    # the package's N needs the middle pair to be a cover, so these counts
    # are not OEIS A003430 (series-parallel posets, 48 at n=5)
    got = [sum(is_n_free(from_up_rows(up)) for up, _ in classes)
           for _, classes in _poset_classes(5)]
    assert got == [1, 2, 5, 15, 49]


def test_labeled_tally_equals_census():
    # the census of every labeled poset, one verify_theorems call each
    out = []
    for n in range(1, 6):
        total, counts, violations = 0, [0] * 7, []
        for up, _dn in _enumerate_rows(n):
            rep = verify_theorems(from_up_rows(up, check=False))
            total += 1
            for i, name in enumerate(census._PREDICATES):
                counts[i] += getattr(rep, name)
            violations += (f"n={n} up={list(up)}: {v}"
                           for v in rep.violations)
        out.append(census.CensusSummary(n, total, *counts,
                                        tuple(sorted(violations))))
    assert census_run(5) == out


def test_enumeration_order_is_the_search_key():
    for n in range(6):
        keys = [_enumeration_key(up) for up, _dn in _enumerate_rows(n)]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def _labeled_first_hit(pred, max_n):
    for n in range(1, max_n + 1):
        for up, _dn in _enumerate_rows(n):
            if pred(from_up_rows(up, check=False)):
                return up
    return None


def _has_n(p):
    return not is_n_free(p)


def _weak_n_free_incompatible(p):
    rep = verify_theorems(p)
    return rep.weak_n_free and not rep.compatible


def _n_free_not_boolean(p):
    rep = verify_theorems(p)
    return rep.n_free and not rep.boolean


@pytest.mark.parametrize("name, pred", [
    ("nfree_but_strict_not_dacey", None),
    ("strict_dacey", None),
    ("has_n", _has_n),
    ("weak_n_free_incompatible", _weak_n_free_incompatible),
    ("n_free_not_boolean", _n_free_not_boolean),
])
def test_search_returns_the_labeled_first_hit(name, pred, monkeypatch):
    # the search tests one poset per class but returns the labeling the
    # labeled scan meets first; the last three predicates first hold at
    # n = 4, 5 and 4, where that labeling is not the canonical one
    if pred is None:
        pred = census._SEARCH_PREDICATES[name]
    else:
        monkeypatch.setitem(census._SEARCH_PREDICATES, name, pred)
    for max_n in range(1, 6):
        expect = _labeled_first_hit(pred, max_n)
        found = search_counterexample(name, max_n)
        assert (None if found is None else found.up) == expect, \
            f"{name} to n={max_n}"
