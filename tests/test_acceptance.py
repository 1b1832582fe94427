"""End-to-end acceptance checks, one test per shipped guarantee.

Run with -v to get one PASSED/FAILED line per criterion; each test also
prints one ACCEPTANCE summary line (visible with -s, or in failure output).

Criteria 4 and 7 pin the package's two documented negative results, so a
change to either shows up as a failure:

* criterion 4: the exhaustive census verifies the N-free cluster and the
  compatible/Boolean pairing clean, and refutes weak-N-free == compatible.
  It asserts the refutation exactly: 30 labeled posets on five elements
  and 1560 on six have no weak N yet are incompatible, each reported once
  as weak_n_free vs compatible and once as weak_n_free vs boolean, and the
  30 are the relabelings of catalog.weak_nfree_incompatible.  Every
  refuting poset is re-checked by the brute-force oracles.
* criterion 7: an exhaustive scan of every labeled poset on up to seven
  elements finds no N-free poset whose strict-comparability orthoset fails
  the Dacey property, and the eight-element witness
  catalog.nfree_strict_non_dacey does fail it, so eight is the smallest
  size of such a failure.  The test after it (7b) scans the 16999
  isomorphism classes on eight elements and finds that witness, and only
  it, up to isomorphism.  The next (7c) walks only the N-free classes, to
  nine elements, and finds 11 such classes on nine.
"""

import ast
import random
import time

from orthoposet.bridges import (incomparability_orthoset,
                                strict_comparability_orthoset,
                                ud_decomposition)
from orthoposet.catalog import (diamond22, n_poset, nfree_strict_non_dacey,
                                path_orthoset, weak_nfree_incompatible)
from orthoposet.census import (_SEARCHES, _nfree_extensions,
                               _poset_classes, census_run,
                               enumerate_labeled_posets, random_orthoset,
                               search_counterexample, verify_theorems)
from orthoposet.logic import build_logic, is_boolean, is_orthomodular
from orthoposet.npatterns import find_n, find_weak_n, is_n_free
from orthoposet.orthoset import (double_perp, enumerate_orthoclosed,
                                 is_compatible, is_dacey, perp)

from oracles import (brute_closed_sets, brute_compatible, brute_n_quads,
                     dacey_subset_checks, incomparability_adj,
                     mutual_perp_condition, orthocomplement_pair_check,
                     relabelings, relation_filter_poset_count)


def test_criterion_1_path_worked_example():
    o = path_orthoset(4)
    is_dacey(o)  # warm-up, so timing measures the algorithms
    t0 = time.perf_counter()
    p3 = perp(o, 0b0100)
    closed = double_perp(o, 0b0101)
    checks = dacey_subset_checks(o, 0b0101)
    ok, witness = is_dacey(o)
    elapsed = time.perf_counter() - t0
    assert p3 == 0b1010                     # {3}ᗮ = {2,4}
    assert closed == 0b0101                 # {1,3} is orthoclosed
    assert checks == (False, False, False)  # basis {3} breaks all criteria
    assert not ok and witness == (0b0101, 0b0100)
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    print(f"ACCEPTANCE 1: PASS - 4-path worked example bit-for-bit, "
          f"{elapsed * 1000:.3f} ms")


def test_criterion_2_n_poset_analysis():
    p = n_poset()
    verify_theorems(p)  # warm-up
    t0 = time.perf_counter()
    w = find_n(p)
    inc = incomparability_orthoset(p)
    rep = verify_theorems(p)
    elapsed = time.perf_counter() - t0
    assert w == (0, 1, 2, 3)
    # relabeling along the zigzag b-a-d-c maps incomparability onto the path
    pi = (1, 0, 3, 2)
    remapped = [0] * 4
    for x in range(4):
        row = 0
        for y in range(4):
            if inc.adj[x] >> y & 1:
                row |= 1 << pi[y]
        remapped[pi[x]] = row
    assert tuple(remapped) == path_orthoset(4).adj
    assert not rep.n_free and not rep.dacey and not rep.oml
    assert rep.violations == ()
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    print(f"ACCEPTANCE 2: PASS - N poset: witness {w}, "
          f"incomparability = 4-path, consistent verdicts, "
          f"{elapsed * 1000:.3f} ms")


def test_criterion_3_diamond_lattice():
    p = diamond22()
    build_logic(incomparability_orthoset(p))  # warm-up
    t0 = time.perf_counter()
    rep = verify_theorems(p)
    w = find_weak_n(p)
    logic = build_logic(incomparability_orthoset(p))
    oml = is_orthomodular(logic)
    boolean = is_boolean(logic)
    elapsed = time.perf_counter() - t0
    assert rep.n_free
    assert w == (0, 1, 2, 3)
    assert logic.m == 6
    assert oml == (True, None)
    assert not boolean[0]
    assert elapsed < 0.010, f"took {elapsed * 1000:.3f} ms"
    print(f"ACCEPTANCE 3: PASS - diamond: N-free, weak-N witness, "
          f"6-element orthomodular non-Boolean logic, "
          f"{elapsed * 1000:.3f} ms")


def test_criterion_4_exhaustive_census():
    t0 = time.perf_counter()
    small = census_run(5, workers=1)
    small_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    big = census_run(6, workers=8)
    big_elapsed = time.perf_counter() - t0

    assert [s.total_posets for s in small] == [1, 3, 19, 219, 4231]
    assert small[-1].total_posets == relation_filter_poset_count(5)
    assert small_elapsed < 60, f"n<=5 census took {small_elapsed:.1f}s"
    assert [s.total_posets for s in big] == [1, 3, 19, 219, 4231, 130023]
    assert big_elapsed < 900, f"n<=6 census took {big_elapsed:.1f}s"
    # identical summaries at any worker count
    assert big[:5] == small
    assert census_run(5, workers=2) == small

    # three of the four claimed equivalence clusters verify clean
    for s in big:
        assert s.n_free == s.dacey == s.oml == s.chain_antichain, \
            f"N-free cluster diverges at n={s.n}"
        assert s.compatible == s.boolean, \
            f"compatible/Boolean diverge at n={s.n}"
        sound = [v for v in s.violations if "weak_n_free vs" not in v]
        assert sound == [], f"unexpected violations at n={s.n}: {sound[:4]}"

    # the fourth, weak-N-free == compatible == Boolean, is refuted: each
    # refuting poset has no weak N yet is incompatible, and is reported once
    # per predicate it fails
    kinds = ["weak_n_free vs boolean", "weak_n_free vs compatible"]
    refuting_counts = []
    for s in big:
        refuting = {}
        for line in s.violations:
            head, kind = line.split(": ")
            up = tuple(ast.literal_eval(head.split("up=")[1]))
            refuting.setdefault(up, []).append(kind)
        for up, got in refuting.items():
            assert sorted(got) == kinds, f"n={s.n} up={list(up)}: {got}"
            assert brute_n_quads(s.n, up, weak=True) == [], \
                f"refuting poset has a weak N: n={s.n} up={list(up)}"
            assert not brute_compatible(incomparability_adj(s.n, up), s.n), \
                f"refuting poset is compatible: n={s.n} up={list(up)}"
        assert len(refuting) == s.weak_n_free - s.compatible, \
            f"weak-N-free minus compatible at n={s.n}"
        if s.n == 5:
            w = weak_nfree_incompatible()
            assert set(refuting) == relabelings(w.n, w.up)
        refuting_counts.append(len(refuting))
    assert refuting_counts == [0, 0, 0, 0, 30, 1560]
    print(f"ACCEPTANCE 4: PASS - census to n=6 in {big_elapsed:.1f}s: "
          f"N-free cluster and compatible == Boolean clean; weak-N-free == "
          f"compatible refuted by exactly {refuting_counts[4]} posets at n=5 "
          f"(the relabelings of catalog.weak_nfree_incompatible) and "
          f"{refuting_counts[5]} at n=6, all confirmed by the oracles")


def test_criterion_5_random_orthoset_battery():
    t0 = time.perf_counter()
    failures = []
    for seed in range(1000):
        n = seed % 10 + 1
        o = random_orthoset(n, seed)
        rng = random.Random(seed * 7919 + 1)
        family = enumerate_orthoclosed(o)
        logic = build_logic(o)

        for _ in range(6):
            x = rng.getrandbits(n)
            y = x | rng.getrandbits(n)
            cx = double_perp(o, x)
            if x & ~cx or double_perp(o, cx) != cx:
                failures.append((seed, "closure"))
            if perp(o, y) & ~perp(o, x):
                failures.append((seed, "antitone"))
            if cx & ~double_perp(o, y):
                failures.append((seed, "closure monotone"))
            a = rng.choice(family)
            b = rng.choice(family)
            if perp(o, perp(o, a) & perp(o, b)) != double_perp(o, a | b):
                failures.append((seed, "join formulas"))
            u = rng.getrandbits(n)
            v = rng.getrandbits(n)
            if orthocomplement_pair_check(o, u, v) != \
                    mutual_perp_condition(o.adj, n, u, v):
                failures.append((seed, "mutual perp characterization"))

        for x in family:
            ca, cb, cc = dacey_subset_checks(o, x)
            if not ca == cb == cc:
                failures.append((seed, "basis criteria"))
            if not orthocomplement_pair_check(o, x, perp(o, x)):
                failures.append((seed, "perp pairing"))

        dacey = is_dacey(o)[0]
        compatible = is_compatible(o)[0]
        oml = is_orthomodular(logic)[0]
        boolean = is_boolean(logic)[0]
        if dacey != oml:
            failures.append((seed, "dacey vs orthomodular"))
        if compatible != boolean:
            failures.append((seed, "compatible vs boolean"))
        if compatible and not dacey:
            failures.append((seed, "compatible implies dacey"))
    elapsed = time.perf_counter() - t0
    assert failures == [], failures[:10]
    assert elapsed < 120, f"battery took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5: PASS - 1000 random orthosets, zero property "
          f"failures, {elapsed:.1f}s")


def test_criterion_6_ud_decomposition_exact():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        for p in enumerate_labeled_posets(n):
            o = incomparability_orthoset(p)
            for x in enumerate_orthoclosed(o):
                px = perp(o, x)
                u, d = ud_decomposition(p, x)
                rest = p.full & ~(x | px)
                assert u | d == rest and not u & d, \
                    f"split not exact for up={p.up}, x={x:#x}"
                for z in range(n):
                    above = bool(p.down[z] & x) and bool(p.down[z] & px)
                    below = bool(p.up[z] & x) and bool(p.up[z] & px)
                    if rest >> z & 1:
                        assert above != below
                        assert bool(u >> z & 1) == above
                    else:
                        assert not (u >> z & 1 or d >> z & 1)
                checked += 1
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 6: PASS - upper/lower split exact on {checked} "
          f"orthoclosed sets over all posets to n=5, {elapsed:.1f}s")


def test_criterion_7_strict_counterexample_search():
    t0 = time.perf_counter()
    found = search_counterexample("nfree_but_strict_not_dacey", 7, cap=7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"search took {elapsed:.1f}s"
    assert found is None, (
        f"N-free poset with a non-Dacey strict-comparability orthoset on "
        f"{found.n} elements: up={list(found.up)}")
    w = nfree_strict_non_dacey()
    assert w.n == 8
    assert is_n_free(w)
    assert not is_dacey(strict_comparability_orthoset(w))[0]
    print(f"ACCEPTANCE 7: PASS - no N-free poset on up to 7 elements has a "
          f"non-Dacey strict-comparability orthoset ({elapsed:.1f}s); the "
          f"8-element catalog witness does")


def test_strict_non_dacey_witness_is_unique_at_eight():
    # among the 16999 isomorphism classes of posets on eight elements,
    # exactly one is N-free with a non-Dacey strict-comparability orthoset,
    # and it is the catalog witness; the search returns one of its labelings
    t0 = time.perf_counter()
    _, test = _SEARCHES["nfree_but_strict_not_dacey"]
    n, classes = list(_poset_classes(8))[-1]
    # this walk is not filtered, so the N scan the search's walk stands
    # in for is made here
    hits = [p.up for p, _ in classes if is_n_free(p) and test(p)]
    w = nfree_strict_non_dacey()
    witness_labelings = relabelings(w.n, w.up)
    assert len(classes) == 16999
    assert len(hits) == 1 and hits[0] in witness_labelings
    found = search_counterexample("nfree_but_strict_not_dacey", 8, cap=8)
    assert found is not None and found.up in witness_labelings
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 7b: PASS - the strict non-Dacey witness is the only "
          f"N-free class on eight elements ({elapsed:.1f}s)")


def test_strict_non_dacey_classes_at_nine():
    # the hereditary walk extends only N-free classes; on nine elements
    # 11 of the 14217 N-free classes have a non-Dacey strict-comparability
    # orthoset
    t0 = time.perf_counter()
    _, test = _SEARCHES["nfree_but_strict_not_dacey"]
    n, classes = list(_poset_classes(9, keep=_nfree_extensions))[-1]
    hits = [p for p, _ in classes if test(p)]
    assert n == 9 and len(classes) == 14217
    assert len(hits) == 11
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 7c: PASS - 11 of the 14217 N-free classes on nine "
          f"elements have a non-Dacey strict-comparability orthoset "
          f"({elapsed:.1f}s)")


def test_criterion_8_closure_enumeration_oracle():
    t0 = time.perf_counter()
    for seed in range(200):
        n = seed % 12 + 1
        o = random_orthoset(n, seed)
        assert enumerate_orthoclosed(o) == brute_closed_sets(o.adj, o.n), \
            f"closed families differ for seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"oracle comparison took {elapsed:.1f}s"
    print(f"ACCEPTANCE 8: PASS - closure enumeration matches the subset "
          f"filter on 200 random orthosets to n=12, {elapsed:.1f}s")
