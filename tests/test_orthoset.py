"""Perp operators, closed families, Dacey and compatibility decisions."""

import dataclasses
import importlib
import itertools
import pickle
import random

import pytest

from orthoposet import orthoset
from orthoposet.bridges import (incomparability_orthoset,
                                strict_comparability_orthoset)
from orthoposet.catalog import (antichain, chain, diamond22, n_poset,
                                nfree_strict_non_dacey, path_orthoset,
                                weak_nfree_incompatible)
from orthoposet.census import _poset_classes, random_orthoset, random_poset
from orthoposet.errors import (NotOrthoclosedError, OrthoposetError,
                               SizeLimitError)
from orthoposet.logic import build_logic, is_boolean, is_orthomodular
from orthoposet.orthoset import (Orthoset, bases, double_perp,
                                 enumerate_orthoclosed, is_compatible,
                                 is_dacey, is_orthoclosed, orthoset_from_pairs,
                                 perp, perp_table, validate_orthoset)
from orthoposet.poset import poset_from_covers

from oracles import (brute_closed_sets, brute_compatible_pair, brute_dacey,
                     brute_distributivity_witness, brute_maximal_cliques,
                     brute_orthomodular_witness, brute_perp,
                     dacey_subset_checks, incomparability_adj,
                     is_dacey_subset, mutual_perp_condition,
                     orthocomplement_pair_check)


def test_path_worked_example():
    # elements 1..4 at bits 0..3, orthogonal iff adjacent on the path
    o = path_orthoset(4)
    assert o.adj == (0b0010, 0b0101, 0b1010, 0b0100)
    assert perp(o, 0b0100) == 0b1010           # {3}ᗮ = {2,4}
    assert double_perp(o, 0b0101) == 0b0101    # {1,3} is orthoclosed
    assert is_orthoclosed(o, 0b0101)
    assert not is_orthoclosed(o, 0b0001)
    assert enumerate_orthoclosed(o) == [0b0000, 0b0010, 0b0100,
                                        0b0101, 0b1010, 0b1111]
    assert bases(o, o.full) == [0b0011, 0b0110, 0b1100]
    # the basis {3} of {1,3} has perp {2,4}, not inside {1,3}ᗮ = {2}
    assert bases(o, 0b0101) == [0b0001, 0b0100]
    assert dacey_subset_checks(o, 0b0101) == (False, False, False)
    assert not is_dacey_subset(o, 0b0101)
    assert is_dacey_subset(o, o.full)
    assert is_dacey(o) == (False, (0b0101, 0b0100))
    assert is_compatible(o) == (False, (0, 3))
    # a mask with bits outside 0..3 is no subset: not closed, and no bases
    for bad in (1 << 4, -1):
        assert not is_orthoclosed(o, bad)
        with pytest.raises(ValueError, match=f"mask {bad:#x} is not a subset"):
            bases(o, bad)


def test_from_pairs_validation():
    with pytest.raises(IndexError):
        orthoset_from_pairs(3, [(0, 3)])
    with pytest.raises(ValueError):
        orthoset_from_pairs(3, [(1, 1)])
    o = orthoset_from_pairs(3, [(0, 1), (1, 0)])
    assert o.adj == (0b010, 0b001, 0)
    validate_orthoset(o)


def test_validate_catches_corruption():
    with pytest.raises(ValueError):
        validate_orthoset(Orthoset((0b01, 0b01)))   # reflexive
    with pytest.raises(ValueError):
        validate_orthoset(Orthoset((0b10, 0b00)))   # not symmetric
    with pytest.raises(ValueError):
        validate_orthoset(Orthoset((0b100, 0b00)))  # out of range


def test_orthoset_stores_only_its_adjacency():
    # n and the perp table are derived from adj, so they cannot disagree
    assert [f.name for f in dataclasses.fields(Orthoset)] == ["adj"]
    o = Orthoset((0b10, 0b01, 0b000))
    assert o.n == 3 and o.table == perp_table(o.adj, 3)


def test_derived_table_is_cached_and_invisible():
    # a touched orthoset equals, hashes and pickles like an untouched
    # copy, and its size and perp table are computed once, on first use.
    # The class is looked up now, as pickle looks it up, in case the
    # package was re-imported since this module was
    current = importlib.import_module("orthoposet.orthoset").Orthoset
    adj = path_orthoset(4).adj
    o, untouched = current(adj), current(adj)
    table = o.table
    assert set(vars(o)) == {"adj", "n", "table"}
    assert o.table is table and table == perp_table(o.adj, 4)
    assert vars(untouched) == {"adj": o.adj}
    assert o == untouched and hash(o) == hash(untouched)
    copy = pickle.loads(pickle.dumps(o))
    assert copy == untouched and hash(copy) == hash(untouched)
    assert copy.n == untouched.n and copy.table == untouched.table


def test_perp_edge_cases():
    o = orthoset_from_pairs(3, [])
    assert perp(o, 0) == 0b111
    assert perp(o, 0b111) == 0
    assert enumerate_orthoclosed(o) == [0, 0b111]
    empty = orthoset_from_pairs(0, [])
    assert perp(empty, 0) == 0
    assert enumerate_orthoclosed(empty) == [0]


def test_bases_of_empty_set():
    o = path_orthoset(4)
    assert bases(o, 0) == [0]
    # the empty set is orthoclosed only when no point perp is everything;
    # here dperp of {} is {} and its one basis recovers it
    assert dacey_subset_checks(o, 0) == (True, True, True)


def test_not_orthoclosed_raises():
    o = path_orthoset(4)
    with pytest.raises(NotOrthoclosedError):
        is_dacey_subset(o, 0b0001)
    with pytest.raises(NotOrthoclosedError):
        dacey_subset_checks(o, 0b0001)


def test_size_caps(monkeypatch):
    # raw orthosets and random posets are checked once, on entry, against
    # the poset element cap; random_poset's lazy pairs check the edge
    # probability only after poset_from_covers has checked the size
    for make in (lambda n: orthoset_from_pairs(n, []),
                 lambda n: random_orthoset(n, 0),
                 lambda n: random_poset(n, 0),
                 lambda n: random_poset(n, 0, 2.0)):
        with pytest.raises(SizeLimitError, match="25 elements, cap is 24"):
            make(25)
        with pytest.raises(OrthoposetError, match="non-negative"):
            make(-1)
    with pytest.raises(SizeLimitError, match="; raise max_elements"):
        random_poset(25, 0)
    assert random_poset(25, 0, max_elements=25).n == 25
    big = orthoset_from_pairs(24, [])
    assert enumerate_orthoclosed(big) == [0, big.full]
    assert is_dacey(big) == (True, None)
    assert is_compatible(big) == (True, None)
    assert build_logic(big).elements == (0, big.full)
    monkeypatch.setattr(orthoset, "DEFAULT_MAX_FAMILY", 8)
    with pytest.raises(SizeLimitError, match="exceeds cap 8"):
        enumerate_orthoclosed(random_orthoset(16, 1))


def test_family_cap_is_exact(monkeypatch):
    # the incomparability orthoset of a 3-antichain has all 8 subsets
    # closed: a cap of 8 admits them, a cap of 7 raises
    o = incomparability_orthoset(antichain(3))
    monkeypatch.setattr(orthoset, "DEFAULT_MAX_FAMILY", 8)
    assert enumerate_orthoclosed(o) == list(range(8))
    monkeypatch.setattr(orthoset, "DEFAULT_MAX_FAMILY", 7)
    with pytest.raises(SizeLimitError,
                       match=r"^orthoclosed family exceeds cap 7$"):
        enumerate_orthoclosed(o)


def _poset_orthosets():
    """Both orthosets of every class to n = 6 and of the catalog posets:
    the census reads the incomparability one, the search's strict Dacey
    test the strict-comparability one."""
    posets = [p for _n, classes in _poset_classes(6) for p, _aut in classes]
    posets += [n_poset(), diamond22(), weak_nfree_incompatible(),
               nfree_strict_non_dacey(), chain(4), antichain(4)]
    return [make(p) for p in posets
            for make in (incomparability_orthoset,
                         strict_comparability_orthoset)]


def test_closed_family_against_filter():
    orthosets = [random_orthoset(seed % 9 + 1, seed) for seed in range(60)]
    for o in orthosets + _poset_orthosets():
        assert enumerate_orthoclosed(o) == brute_closed_sets(o.adj, o.n)


def test_perp_against_filter():
    for seed in range(30):
        o = random_orthoset(seed % 8 + 1, seed + 60)
        for x in range(1 << o.n):
            assert perp(o, x) == brute_perp(o.adj, o.n, x)


def _table_perp(table, n, x):
    lo, hi = table
    h = n // 2
    return lo[x & ((1 << h) - 1)] & hi[x >> h]


def test_perp_table_against_filter():
    for n in (0, 1, 2, 3, 7, 12, 13):
        for seed in range(3):
            o = random_orthoset(n, seed + 90 * n)
            table = perp_table(o.adj, o.n)
            for x in range(1 << n):
                assert _table_perp(table, n, x) == brute_perp(o.adj, n, x)


def test_perp_table_sampled_at_cap():
    rng = random.Random(24)
    for seed in range(3):
        o = random_orthoset(24, seed + 2400, edge_prob=0.8)
        table = perp_table(o.adj, o.n)
        for x in [0, o.full] + [rng.getrandbits(24) >> rng.randrange(24)
                                for _ in range(300)]:
            assert _table_perp(table, 24, x) == brute_perp(o.adj, 24, x)


def test_perp_is_antitone_galois():
    for seed in range(40):
        o = random_orthoset(seed % 10 + 1, seed + 200)
        rng = random.Random(seed)
        for _ in range(12):
            x = rng.getrandbits(o.n)
            y = x | rng.getrandbits(o.n)
            assert not perp(o, y) & ~perp(o, x)       # antitone
            assert not x & ~double_perp(o, x)         # extensive
            assert double_perp(o, double_perp(o, x)) == double_perp(o, x)
            assert not double_perp(o, x) & ~double_perp(o, y)
            z = rng.getrandbits(o.n)
            # adjunction: x inside perp(z) iff z inside perp(x)
            assert (not x & ~perp(o, z)) == (not z & ~perp(o, x))


def test_bases_against_clique_filter():
    for seed in range(30):
        o = random_orthoset(seed % 8 + 1, seed + 300)
        for x in enumerate_orthoclosed(o):
            assert bases(o, x) == brute_maximal_cliques(o.adj, o.n, x)


def test_basis_criteria_always_agree():
    for seed in range(60):
        o = random_orthoset(seed % 9 + 1, seed + 400)
        for x in enumerate_orthoclosed(o):
            a, b, c = dacey_subset_checks(o, x)
            assert a == b == c


def test_dacey_scan_matches_subset_checks():
    for seed in range(60):
        o = random_orthoset(seed % 9 + 1, seed + 500)
        ok, witness = is_dacey(o)
        assert ok == all(is_dacey_subset(o, x)
                         for x in enumerate_orthoclosed(o))
        if not ok:
            x, b = witness
            assert b in bases(o, x)
            assert perp(o, b) & ~perp(o, x)


def _dacey_orthosets():
    """The path, both orthosets of the classes and the catalog, and random
    orthosets on up to 10 points."""
    return [path_orthoset(4)] + _poset_orthosets() + [
        random_orthoset(seed % 10 + 1, seed + 2600) for seed in range(200)]


def test_dacey_against_brute_oracle():
    # verdict and witness
    for o in _dacey_orthosets():
        assert is_dacey(o) == brute_dacey(o.adj, o.n)


def test_dacey_theorem_between_the_oracles():
    # Dacey's theorem, one brute oracle against the other: an orthoset is
    # Dacey iff its logic is orthomodular.  The kernel takes both verdicts
    # from one scan, so each is held here to its own oracle.
    kinds = set()
    for o in _dacey_orthosets():
        oml = brute_orthomodular_witness(o.adj, o.n) is None
        assert brute_dacey(o.adj, o.n)[0] == oml
        assert is_orthomodular(build_logic(o))[0] == oml
        kinds.add(oml)
    assert kinds == {False, True}


def _graphs_to_five():
    """Every labeled graph on at most five points, as an orthoset."""
    out = []
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        out += [orthoset_from_pairs(n, itertools.compress(pairs, keep))
                for keep in itertools.product((0, 1), repeat=len(pairs))]
    return out


def test_compatible_iff_boolean():
    # is_compatible's proof: an orthoset is compatible iff its logic is
    # Boolean, and an incompatible pair (x, y) maps to the triple
    # (cl x, cl y, adj[y]), which the brute join shows breaks
    # distributivity.  is_boolean's proof: its witness lies in the row of
    # the least closure of a point with an incompatible partner, which the
    # brute triple scan confirms on every graph to five points.
    def cl(o, u):
        return brute_perp(o.adj, o.n, brute_perp(o.adj, o.n, u))

    kinds = set()
    for o in _dacey_orthosets() + _graphs_to_five():
        ok, pair = is_compatible(o)
        witness = brute_distributivity_witness(o.adj, o.n)
        assert is_boolean(build_logic(o)) == (witness is None, witness)
        assert ok == (witness is None)
        kinds.add(ok)
        if not ok:
            x, y = pair
            a, b, c = cl(o, 1 << x), cl(o, 1 << y), o.adj[y]
            assert cl(o, c) == c
            assert a & cl(o, b | c) != cl(o, a & b | a & c)
    assert kinds == {False, True}


def test_dacey_runs_clique_enumeration_only_on_the_failing_set(monkeypatch):
    calls = []
    cliques = orthoset.maximal_cliques
    monkeypatch.setattr(orthoset, "maximal_cliques",
                        lambda adj, sub: calls.append(sub) or cliques(adj, sub))
    two_chains = poset_from_covers(20, [(2 * i, 2 * i + 1) for i in range(10)])
    for p in (antichain(8), two_chains, nfree_strict_non_dacey()):
        assert is_dacey(incomparability_orthoset(p)) == (True, None)
    assert calls == []
    # the README's N: closed set {a, c}, basis {a}
    assert is_dacey(incomparability_orthoset(n_poset())) == (
        False, (0b0101, 0b0001))
    assert calls == [0b0101]


def test_compatible_witness_is_least():
    o = path_orthoset(4)
    ok, pair = is_compatible(o)
    assert not ok and pair == (0, 3)
    # every complete orthoset is compatible, vacuously
    comp = orthoset_from_pairs(4, [(i, j) for i in range(4)
                                   for j in range(i + 1, 4)])
    assert is_compatible(comp) == (True, None)


def test_compatible_against_bound_oracle():
    # every poset class to n = 6, then random orthosets beyond posets
    orthosets = [Orthoset(incomparability_adj(n, p.up))
                 for n, classes in _poset_classes(6) for p, _ in classes]
    orthosets += [random_orthoset(seed % 9 + 1, seed + 1100)
                  for seed in range(80)]
    verdicts = set()
    for o in orthosets:
        pair = brute_compatible_pair(o.adj, o.n)
        assert is_compatible(o) == (pair is None, pair)
        verdicts.add(pair is None)
    assert verdicts == {False, True}


def test_mutual_perp_characterization():
    for seed in range(50):
        o = random_orthoset(seed % 8 + 1, seed + 600)
        rng = random.Random(seed)
        for x in enumerate_orthoclosed(o):
            assert orthocomplement_pair_check(o, x, perp(o, x))
            assert mutual_perp_condition(o.adj, o.n, x, perp(o, x))
        for _ in range(20):
            x = rng.getrandbits(o.n)
            y = rng.getrandbits(o.n)
            assert orthocomplement_pair_check(o, x, y) == \
                mutual_perp_condition(o.adj, o.n, x, y)
