"""Isomorphism classes of posets against the labeled enumeration.

The census and the search decide one canonical poset per isomorphism class;
these tests hold the class generator to the labeled enumeration, to the
relabeling oracle and to the OEIS counts.
"""

import random
from math import factorial

import pytest

from orthoposet import census, npatterns
from orthoposet.census import (_enumerate_rows, _enumeration_key,
                               _poset_classes, census_run,
                               search_counterexample, verify_theorems)
from orthoposet.catalog import antichain
from orthoposet.npatterns import find_covering_n, is_n_free
from orthoposet.poset import (_transpose, dual, from_up_rows,
                              poset_from_covers)

from oracles import brute_hourglass, brute_n_quads, relabelings

# OEIS A000112 (unlabeled) and A001035 (labeled) posets on 1..7 elements
UNLABELED = [1, 2, 5, 16, 63, 318, 2045]
LABELED = [1, 3, 19, 219, 4231, 130023, 6129859]
# N-free classes on 1..8 elements
N_FREE = [1, 2, 5, 15, 49, 180, 715, 3081]


@pytest.fixture(scope="module")
def classes7():
    return list(_poset_classes(7))


def test_class_counts_match_oeis(classes7):
    assert [n for n, _ in classes7] == list(range(1, 8))
    assert [len(classes) for _, classes in classes7] == UNLABELED
    assert [sum(factorial(n) // aut for _, aut in classes)
            for n, classes in classes7] == LABELED


def test_classes_partition_the_labeled_posets(classes7):
    # every orbit has n!/|Aut| members and is what census._relabelings
    # lists, no two orbits meet, and together they are exactly the labeled
    # enumeration
    for n, classes in classes7[:6]:
        seen = set()
        for p, aut in classes:
            up = p.up
            orbit = relabelings(n, up)
            assert len(orbit) == factorial(n) // aut, f"n={n} up={up}"
            assert census._relabelings(p) == orbit, f"n={n} up={up}"
            assert not orbit & seen, f"n={n} up={up} meets an earlier class"
            seen |= orbit
        assert seen == set(_enumerate_rows(n))


def _disjoint_chains(k, length):
    return poset_from_covers(k * length, [(c * length + i, c * length + i + 1)
                                          for c in range(k)
                                          for i in range(length - 1)])


def _canonical(up):
    return census._canonical(up, _transpose(up, len(up)))


def test_canonical_form_ignores_labels():
    rng = random.Random(11)
    for seed in range(40):
        n = 6 + seed % 3
        p = census.random_poset(n, seed)
        order = rng.sample(range(n), n)
        assert _canonical(census._relabel(p.up, order)) == \
            _canonical(p.up)
    # sparse and dense posets on 1..9 elements, and twins and large
    # automorphism groups: antichains (one block of n twins) and disjoint
    # equal chains (k! automorphisms, none of them swapping twins)
    cases = [(census.random_poset(n, seed, edge_prob), None)
             for n in range(1, 10) for seed in range(8)
             for edge_prob in (0.2, 0.5)]
    cases += [(antichain(n), factorial(n)) for n in range(1, 10)]
    cases += [(_disjoint_chains(k, length), factorial(k))
              for k, length in ((2, 2), (3, 2), (2, 3), (4, 2), (2, 4),
                                (3, 3))]
    for p, aut in cases:
        rows, got = _canonical(p.up)
        if aut is not None:
            assert got == aut, f"up={p.up}"
        for _ in range(3):
            order = rng.sample(range(p.n), p.n)
            assert _canonical(census._relabel(p.up, order)) == \
                (rows, got), f"up={p.up} order={order}"


def test_unlabeled_n_free_counts():
    # the package's N needs the middle pair to be a cover, so these counts
    # are not OEIS A003430 (series-parallel posets, 48 at n=5)
    got = [len(classes) for _, classes
           in _poset_classes(8, keep=census._nfree_extensions)]
    assert got == N_FREE


def test_hereditary_walk_is_the_filtered_walk(classes7):
    # deleting a maximal element keeps every cover among the rest, so the
    # walk that extends only N-free classes reaches every N-free class
    kept = list(_poset_classes(7, keep=census._nfree_extensions))
    assert [n for n, _ in kept] == list(range(1, 8))
    for (n, classes), (_, mine) in zip(classes7, kept):
        assert mine == [(p, aut) for p, aut in classes
                        if is_n_free(p)], f"n={n}"


def test_nfree_extensions_is_the_n_scan():
    # on every down-set of every N-free class to n=6, the incremental test
    # agrees with a full N scan of the extended poset; the new element t is
    # c in every N of some rejected extensions and d in every N of others
    roles = set()
    for n, classes in _poset_classes(6, keep=census._nfree_extensions):
        for p, _ in classes:
            up = p.up
            test = census._nfree_extensions(p)
            for d in census._closed_sets(p.down):
                ext = tuple(r | 1 << n if d >> x & 1 else r
                            for x, r in enumerate(up)) + (0,)
                kept = test(d)
                assert kept == is_n_free(from_up_rows(ext)), f"up={up} d={d}"
                if not kept:
                    roles.add(frozenset(q.index(n)
                                        for q in brute_n_quads(n + 1, ext)))
    assert {frozenset({2}), frozenset({3})} <= roles


@pytest.mark.parametrize("max_n, keep, calls", [
    (6, None, 583),
    (7, census._nfree_extensions, 1502),
])
def test_walk_canonicalizes_only_the_candidates(max_n, keep, calls,
                                                monkeypatch):
    # an extension whose new element has a smaller below-set than another
    # maximal element is never canonicalized; the full walk to n=6 would
    # canonicalize 939 extensions and the N-free walk to n=7 2191; the down
    # rows the walk builds for each extension are the transposed up rows
    seen = []
    canonical = census._canonical

    def counted(up, down):
        assert list(down) == _transpose(up, len(up)), f"up={up}"
        seen.append(up)
        return canonical(up, down)

    monkeypatch.setattr(census, "_canonical", counted)
    list(_poset_classes(max_n, keep))
    assert len(seen) == calls


def test_nfree_search_runs_no_n_scan(monkeypatch):
    # the N-free walk yields only N-free classes, so the search scans none
    # of them for an N and tests each of the 252 classes to n=6 once for a
    # Dacey strict-comparability orthoset
    scans, dacey = [], []
    find_quad, is_dacey = npatterns._find_quad, census.is_dacey
    monkeypatch.setattr(npatterns, "_find_quad",
                        lambda *args: scans.append(args) or find_quad(*args))
    monkeypatch.setattr(census, "is_dacey",
                        lambda o: dacey.append(o) or is_dacey(o))
    assert search_counterexample("nfree_but_strict_not_dacey", 6) is None
    assert len(scans) == 0
    assert len(dacey) == sum(N_FREE[:6]) == 252


def test_labeled_tally_equals_census():
    # the census of every labeled poset, one verify_theorems call each
    out = []
    for n in range(1, 6):
        total, counts, violations = 0, [0] * 7, []
        for up in _enumerate_rows(n):
            rep = verify_theorems(from_up_rows(up, check=False))
            total += 1
            for i, name in enumerate(census._PREDICATES):
                counts[i] += getattr(rep, name)
            violations += (f"n={n} up={list(up)}: {v}"
                           for v in rep.violations)
        out.append(census.CensusSummary(n, total, *counts,
                                        tuple(sorted(violations))))
    assert census_run(5) == out


def test_compatible_is_weak_n_free_and_hourglass_free(classes7):
    # on every class to n=6, the incomparability orthoset is compatible
    # exactly when the poset has no weak N and no hourglass; the weak-N-free
    # but incompatible classes, all with an hourglass, number 1 and 8
    incompatible = []
    for n, classes in classes7[:6]:
        count = 0
        for p, _ in classes:
            rep = verify_theorems(p)
            hourglass_free = brute_hourglass(n, p.up) is None
            assert rep.compatible == (rep.weak_n_free and hourglass_free), \
                f"n={n} up={p.up}"
            count += rep.weak_n_free and not rep.compatible
        incompatible.append(count)
    assert incompatible == [0, 0, 0, 0, 1, 8]


def test_dual_classes_get_the_same_report(classes7):
    # the census decides one class per dual pair: on every class to n=7,
    # the class and its dual get the same verdicts, violations and logic
    # size, are covering-N-free together and have as many automorphisms
    names = census._PREDICATES + ("violations", "lattice_size")
    for n, classes in classes7:
        for p, aut in classes:
            q = dual(p)
            rep, dual_rep = verify_theorems(p), verify_theorems(q)
            assert [getattr(rep, k) for k in names] == \
                [getattr(dual_rep, k) for k in names], f"n={n} up={p.up}"
            assert (find_covering_n(p) is None) == \
                (find_covering_n(q) is None), f"n={n} up={p.up}"
            assert census._canonical(q.up, q.down)[1] == aut, \
                f"n={n} up={p.up}"


def test_enumeration_order_is_the_search_key():
    for n in range(6):
        keys = [_enumeration_key(up) for up in _enumerate_rows(n)]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def _labeled_first_hit(pred, max_n):
    for n in range(1, max_n + 1):
        for up in _enumerate_rows(n):
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
    # n = 4, 5 and 4, where that labeling is not the canonical one; the
    # N-free search's test assumes the N-free walk, so the labeled scan
    # applies the N scan itself
    if pred is None:
        keep, test = census._SEARCHES[name]
        pred = test if keep is None else (lambda p: is_n_free(p) and test(p))
    else:
        monkeypatch.setitem(census._SEARCHES, name, (None, pred))
    for max_n in range(1, 6):
        expect = _labeled_first_hit(pred, max_n)
        found = search_counterexample(name, max_n)
        assert (None if found is None else found.up) == expect, \
            f"{name} to n={max_n}"
