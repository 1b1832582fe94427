"""Poset enumeration, random generators, theorem census, counterexample search."""

import ast
import os

import pytest

from orthoposet.bridges import incomparability_orthoset
from orthoposet.catalog import (antichain, chain, diamond22, n_poset,
                                nfree_strict_non_dacey,
                                weak_nfree_incompatible)
from orthoposet.census import (census_run, enumerate_labeled_posets,
                               random_orthoset, random_poset,
                               search_counterexample, verify_theorems)
from orthoposet import census, report
from orthoposet import logic as logic_module
from orthoposet.errors import OrthoposetError, SizeLimitError
from orthoposet.logic import is_orthomodular
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


def test_enumeration_rejects_negative_size():
    with pytest.raises(OrthoposetError,
                       match="poset size must be non-negative, got -1"):
        list(enumerate_labeled_posets(-1))


def test_enumeration_refuses_bad_sizes_at_the_call():
    # the generator is never iterated: the size is checked before it exists
    with pytest.raises(SizeLimitError, match="enumeration to n=7 exceeds cap 6"):
        enumerate_labeled_posets(7)
    with pytest.raises(OrthoposetError,
                       match="poset size must be non-negative, got -1"):
        enumerate_labeled_posets(-1)


def test_random_generators_are_seeded():
    assert random_poset(8, 4).up == random_poset(8, 4).up
    assert random_poset(8, 4).up != random_poset(8, 5).up
    assert random_orthoset(8, 4) == random_orthoset(8, 4)
    for seed in range(30):
        validate_poset(from_up_rows(random_poset(9, seed).up))
        validate_orthoset(random_orthoset(9, seed))


@pytest.mark.parametrize("edge_prob", [-1, 1.5, 2, float("nan")])
def test_random_generators_reject_bad_edge_prob(edge_prob):
    with pytest.raises(OrthoposetError, match="edge probability"):
        random_poset(4, 0, edge_prob)
    with pytest.raises(OrthoposetError, match="edge probability"):
        random_orthoset(4, 0, edge_prob)
    # both bounds are accepted: no edges, or a total order
    assert random_poset(4, 0, 0).up == (0, 0, 0, 0)
    assert sum(row.bit_count() for row in random_poset(4, 0, 1).up) == 6


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


@pytest.mark.parametrize("p, patched, expected", [
    (chain(3), (False, (0, 0, 0)),
     ("weak_n_free vs boolean", "compatible vs boolean")),
    (n_poset(), (True, None),
     ("weak_n_free vs boolean", "compatible vs boolean",
      "boolean without oml")),
])
def test_wrong_boolean_verdict_is_a_violation(p, patched, expected,
                                              monkeypatch):
    # compatibility is decided without the logic, so it checks the Boolean
    # verdict on every poset the census visits
    monkeypatch.setattr(report, "is_boolean", lambda logic: patched)
    assert verify_theorems(p).violations == expected


def test_lattice_cap_is_checked_before_the_dacey_scan(monkeypatch):
    # the logic of diamond22 has 6 elements; past the cap nothing walks
    # the family for Dacey before the error
    calls = []
    dacey = logic_module._dacey
    monkeypatch.setattr(logic_module, "_dacey",
                        lambda *args: calls.append(args) or dacey(*args))
    with pytest.raises(SizeLimitError,
                       match=r"^orthoclosed family exceeds cap 4$"):
        verify_theorems(diamond22(), max_lattice=4)
    assert calls == []
    # one scan decides Dacey and orthomodularity: is_orthomodular on the
    # logic verify_theorems built, run afterwards, scans nothing more
    logics = []
    build = report.build_logic
    monkeypatch.setattr(
        report, "build_logic",
        lambda *args: logics.append(build(*args)) or logics[-1])
    for p in (diamond22(), n_poset(), antichain(8),
              nfree_strict_non_dacey()):
        calls.clear()
        rep = verify_theorems(p)
        assert len(calls) == 1
        assert is_orthomodular(logics[-1])[0] == rep.oml == rep.dacey
        assert len(calls) == 1


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


@pytest.mark.parametrize("workers", [0, -2])
def test_census_rejects_a_worker_count_below_one(workers):
    with pytest.raises(OrthoposetError, match="at least 1"):
        census_run(3, workers=workers)


def test_census_pool_is_no_larger_than_the_decided_classes(monkeypatch):
    # a stand-in Pool that records its size and maps serially, so a huge
    # worker count starts no process
    sizes = []

    class SerialPool:
        def __init__(self, processes, **kwargs):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    expect = census_run(5)
    monkeypatch.setattr(census, "Pool", SerialPool)
    assert census_run(5, workers=1000) == expect
    # one pool for the whole run, no larger than the 1 + 2 + 4 + 12 + 39 = 58
    # classes it decides, one per dual pair, nor than the CPU count
    assert sizes == [min(58, os.cpu_count() or 1)]


def test_census_decides_each_class_once(monkeypatch):
    # one verify_theorems call per dual pair of classes, 1 + 2 + 4 + 12 + 39
    # = 58 to n=5 of the 87 classes, and one expansion into labelings for
    # the one violating class, which is its own dual
    decided, expanded = [], []
    verify, relabelings = census.verify_theorems, census._relabelings
    monkeypatch.setattr(census, "verify_theorems",
                        lambda p: decided.append(p) or verify(p))
    monkeypatch.setattr(census, "_relabelings",
                        lambda p: expanded.append(p) or relabelings(p))
    census_run(5)
    assert len(decided) == len({p.up for p in decided}) == 58
    assert [sum(p.n == n for p in decided) for n in range(1, 6)] == \
        [1, 2, 4, 12, 39]
    # of each pair, the class with the smaller canonical rows
    assert all(p.up <= census._canonical(p.down, p.up)[0] for p in decided)
    assert len(expanded) == 1
    w = weak_nfree_incompatible()
    assert census._canonical(expanded[0].up, expanded[0].down) == \
        census._canonical(w.up, w.down)


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
