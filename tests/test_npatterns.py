"""N, covering-N and weak-N detection against direct quantifier scans."""

from orthoposet.catalog import (antichain, chain, diamond22, n_poset,
                                nfree_strict_non_dacey,
                                weak_nfree_incompatible)
from orthoposet.census import (_poset_classes, enumerate_labeled_posets,
                               random_poset)
from orthoposet.npatterns import (chain_antichain_property, find_covering_n,
                                  find_n, find_weak_n, is_n_free)
from orthoposet.poset import dual

from oracles import brute_chain_antichain, brute_n_quads


def test_n_poset_witnesses():
    p = n_poset()
    w = find_n(p)
    assert w.kind == "n" and w.quad == (0, 1, 2, 3)
    # every order relation of the N is already a cover
    assert find_covering_n(p).quad == (0, 1, 2, 3)
    assert find_weak_n(p).quad == (0, 1, 2, 3)
    assert not is_n_free(p)


def test_n_free_fixtures():
    for p in (chain(5), antichain(5), diamond22(), weak_nfree_incompatible()):
        assert is_n_free(p)
        assert find_n(p) is None
        assert find_covering_n(p) is None
    assert find_weak_n(chain(5)) is None
    assert find_weak_n(weak_nfree_incompatible()) is None
    # the diamond is N-free yet has a weak N: its a, d pair is comparable
    assert find_weak_n(diamond22()).quad == (0, 1, 2, 3)


def test_chain_antichain_fixtures():
    assert not chain_antichain_property(n_poset())
    assert chain_antichain_property(diamond22())
    assert chain_antichain_property(chain(4))
    assert chain_antichain_property(antichain(4))


def test_chain_antichain_against_subset_filter():
    # every class to n = 6, the catalog and random posets on 1 to 12
    # elements, against maximal chains and antichains found by filtering
    posets = [p for _n, classes in _poset_classes(6) for p, _aut in classes]
    posets += [n_poset(), diamond22(), weak_nfree_incompatible(),
               nfree_strict_non_dacey(), chain(4), antichain(4)]
    posets += [random_poset(seed % 12 + 1, seed + 3100, (seed % 5 + 1) / 10)
               for seed in range(200)]
    verdicts = set()
    for p in posets:
        verdict = chain_antichain_property(p)
        assert verdict == brute_chain_antichain(p.n, p.up)
        verdicts.add(verdict)
    assert verdicts == {False, True}


def test_detectors_against_quad_scan_exhaustive():
    for n in range(1, 5):
        for p in enumerate_labeled_posets(n):
            plain = brute_n_quads(n, p.up)
            weak = brute_n_quads(n, p.up, weak=True)
            cov = brute_n_quads(n, p.up, covering=True)
            w = find_n(p)
            assert (w.quad if w else None) == (plain[0] if plain else None)
            w = find_weak_n(p)
            assert (w.quad if w else None) == (weak[0] if weak else None)
            w = find_covering_n(p)
            assert (w.quad if w else None) == (cov[0] if cov else None)
            assert is_n_free(p) == (not plain)


def test_detectors_against_quad_scan_random():
    for seed in range(40):
        p = random_poset(7, seed)
        plain = brute_n_quads(p.n, p.up)
        weak = brute_n_quads(p.n, p.up, weak=True)
        cov = brute_n_quads(p.n, p.up, covering=True)
        w = find_n(p)
        assert (w.quad if w else None) == (plain[0] if plain else None)
        w = find_weak_n(p)
        assert (w.quad if w else None) == (weak[0] if weak else None)
        w = find_covering_n(p)
        assert (w.quad if w else None) == (cov[0] if cov else None)


def test_pattern_presence_is_self_dual():
    for seed in range(30):
        p = random_poset(6, seed + 500)
        d = dual(p)
        assert is_n_free(p) == is_n_free(d)
        assert (find_weak_n(p) is None) == (find_weak_n(d) is None)
        assert (find_covering_n(p) is None) == (find_covering_n(d) is None)


def test_weak_n_implies_n_when_a_d_incomparable():
    # a weak N that is not an N must come from a comparable a, d pair;
    # on every small poset, having an N implies having a weak N
    for n in range(1, 5):
        for p in enumerate_labeled_posets(n):
            if not is_n_free(p):
                assert find_weak_n(p) is not None
