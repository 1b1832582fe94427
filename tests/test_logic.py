"""Logic construction, ortholattice axioms, orthomodularity, Booleanness."""

import pytest

from orthoposet.bridges import incomparability_orthoset
from orthoposet.catalog import (antichain, chain, diamond22, n_poset,
                                nfree_strict_non_dacey, path_orthoset,
                                weak_nfree_incompatible)
from orthoposet.census import (_enumerate_rows, _poset_classes,
                               random_orthoset)
from orthoposet.errors import SizeLimitError
from orthoposet import logic as logic_module, orthoset as orthoset_module
from orthoposet.logic import build_logic, is_boolean, is_orthomodular
from orthoposet.orthoset import Orthoset, is_compatible
from orthoposet.report import verify_theorems

from oracles import (brute_distributivity_witness, brute_join_table,
                     brute_orthomodular_witness, incomparability_adj,
                     verify_ortholattice)


def test_hexagon_logic():
    # the N poset's incomparability orthoset yields the six-element hexagon
    logic = build_logic(incomparability_orthoset(n_poset()))
    assert logic.elements == (0b0000, 0b0001, 0b0101, 0b1000, 0b1010, 0b1111)
    assert logic.m == 6
    assert logic.ocompl == (5, 4, 3, 2, 1, 0)
    assert verify_ortholattice(logic).ok
    ok, witness = is_orthomodular(logic)
    assert not ok and witness == (1, 2)
    ok, witness = is_boolean(logic)
    assert not ok and witness == (2, 1, 3)


def test_mo2_logic():
    # two orthogonal pairs: orthomodular but not distributive
    logic = build_logic(incomparability_orthoset(diamond22()))
    assert logic.elements == (0b0000, 0b0001, 0b0010, 0b0100, 0b1000, 0b1111)
    assert verify_ortholattice(logic).ok
    assert is_orthomodular(logic) == (True, None)
    ok, witness = is_boolean(logic)
    assert not ok and witness == (1, 2, 3)


def test_boolean_extremes():
    # a chain has closed sets {} and everything: the two-element algebra
    two = build_logic(incomparability_orthoset(chain(4)))
    assert two.m == 2
    assert is_boolean(two) == (True, None)
    # an antichain's incomparability orthoset is complete: full powerset
    power = build_logic(incomparability_orthoset(antichain(3)))
    assert power.m == 8
    assert is_orthomodular(power) == (True, None)
    assert is_boolean(power) == (True, None)
    assert verify_ortholattice(power).ok


def test_path_logic_not_orthomodular():
    logic = build_logic(path_orthoset(4))
    assert logic.m == 6
    assert verify_ortholattice(logic).ok
    assert not is_orthomodular(logic)[0]


def test_meet_join_are_lattice_operations():
    for seed in range(40):
        logic = build_logic(random_orthoset(seed % 8 + 1, seed + 700))
        m = logic.m
        assert logic.elements[0] == 0
        for i in range(m):
            assert logic.leq[0] >> i & 1 and logic.leq[i] >> (m - 1) & 1
            for j in range(m):
                k = logic.meet[i][j]
                # greatest lower bound per the stored order
                assert logic.leq[k] >> i & 1 and logic.leq[k] >> j & 1
                for w in range(m):
                    if logic.leq[w] >> i & 1 and logic.leq[w] >> j & 1:
                        assert logic.leq[w] >> k & 1
                k = logic.join[i][j]
                assert logic.leq[i] >> k & 1 and logic.leq[j] >> k & 1
                for w in range(m):
                    if logic.leq[i] >> w & 1 and logic.leq[j] >> w & 1:
                        assert logic.leq[k] >> w & 1


def test_axioms_hold_on_random_logics():
    for seed in range(60):
        logic = build_logic(random_orthoset(seed % 9 + 1, seed + 800))
        report = verify_ortholattice(logic)
        assert report.ok and report.failures == ()


def test_axiom_report_flags_tampering():
    logic = build_logic(incomparability_orthoset(diamond22()))
    # swap the complements of the two atoms of the first pair.  The tables
    # are cached in the instance dict, so the tampered one planted there
    # is read; meet and join are built first, from the true complements
    assert logic.join and logic.meet
    oc = list(logic.ocompl)
    oc[1], oc[2] = oc[2], oc[1]
    logic.__dict__["ocompl"] = tuple(oc)
    report = verify_ortholattice(logic)
    assert not report.ok
    assert "complement_meet" in report.failed_axioms()


def test_orthomodular_witness_is_violation():
    for seed in range(40):
        logic = build_logic(random_orthoset(seed % 9 + 1, seed + 900))
        ok, witness = is_orthomodular(logic)
        if ok:
            assert witness is None
            continue
        i, j = witness
        assert logic.leq[i] >> j & 1 and i != j
        ci = logic.ocompl[i]
        assert logic.join[i][logic.meet[j][ci]] != j


def test_boolean_implies_orthomodular():
    for seed in range(40):
        logic = build_logic(random_orthoset(seed % 9 + 1, seed + 1000))
        if is_boolean(logic)[0]:
            assert is_orthomodular(logic)[0]


def test_lattice_size_cap(monkeypatch):
    o = incomparability_orthoset(diamond22())
    with pytest.raises(SizeLimitError):
        build_logic(o, max_lattice=4)
    # the cap admits a logic of exactly cap elements and no more
    assert build_logic(o, max_lattice=6).m == 6
    with pytest.raises(SizeLimitError,
                       match=r"^orthoclosed family exceeds cap 5$"):
        build_logic(o, max_lattice=5)
    # the start {full} counts too: the empty orthoset's one-element logic
    with pytest.raises(SizeLimitError):
        build_logic(Orthoset(()), max_lattice=0)
    assert build_logic(Orthoset(()), max_lattice=1).m == 1
    # the lattice cap stops the build, long before the 2^20 family cap
    with pytest.raises(SizeLimitError,
                       match=r"^orthoclosed family exceeds cap 4096$"):
        build_logic(incomparability_orthoset(antichain(21)))
    # no max_lattice lifts the family ceiling
    monkeypatch.setattr(orthoset_module, "DEFAULT_MAX_FAMILY", 7)
    with pytest.raises(SizeLimitError,
                       match=r"^orthoclosed family exceeds cap 7$"):
        build_logic(incomparability_orthoset(antichain(3)), max_lattice=100)


def _assert_logic_matches_oracles(o: Orthoset):
    """Orthomodularity, Booleanness and the join table of o's logic against
    the oracles; returns the logic and the oracle's distributivity
    witness."""
    logic = build_logic(o)
    oml = brute_orthomodular_witness(o.adj, o.n)
    assert is_orthomodular(logic) == (oml is None, oml)
    witness = brute_distributivity_witness(o.adj, o.n)
    assert is_boolean(logic) == (witness is None, witness)
    assert [[logic.elements[k] for k in row] for row in logic.join] \
        == brute_join_table(o.adj, o.n)
    return logic, witness


def test_boolean_against_triple_oracle_small_posets():
    for n in range(5):
        for up in _enumerate_rows(n):
            _assert_logic_matches_oracles(
                Orthoset(incomparability_adj(n, up)))


def test_boolean_against_triple_oracle_all_classes_to_six():
    for n, classes in _poset_classes(6):
        for p, _aut in classes:
            _assert_logic_matches_oracles(
                Orthoset(incomparability_adj(n, p.up)))


def test_boolean_and_join_against_oracles_random_orthosets():
    # random orthosets reach ortholattices that are not orthomodular, so
    # the walk to the row of the witness is exercised beyond the logics of
    # posets
    kinds = set()
    for seed in range(80):
        logic, witness = _assert_logic_matches_oracles(
            random_orthoset(seed % 9 + 1, seed + 1100))
        kinds.add((is_orthomodular(logic)[0], witness is None))
    assert kinds == {(False, False), (True, False), (True, True)}


def test_boolean_against_triple_oracle_catalog():
    for p in (n_poset(), diamond22(), weak_nfree_incompatible(),
              nfree_strict_non_dacey(), chain(4), antichain(4)):
        _assert_logic_matches_oracles(incomparability_orthoset(p))
    _assert_logic_matches_oracles(path_orthoset(4))


def test_boolean_rejects_non_distributive_verdict_without_witness(
        monkeypatch):
    # the incompatibility test patched to pair the two points of a
    # two-element antichain's complete orthoset: the verdict is then not
    # Boolean, but the row is that of cl(0), an atom of the four-element
    # Boolean algebra, which is join-prime, so the row has no witness triple
    o = incomparability_orthoset(antichain(2))
    assert build_logic(o).elements == (0b00, 0b01, 0b10, 0b11)
    assert is_boolean(build_logic(o)) == (True, None)

    def paired(o, xs):
        return iter([(0, 1)])

    monkeypatch.setattr(orthoset_module, "_incompatible", paired)
    monkeypatch.setattr(logic_module, "_incompatible", paired)
    logic = build_logic(Orthoset(o.adj))
    with pytest.raises(AssertionError,
                       match=r"no witness for a non-distributive logic"):
        is_boolean(logic)


def test_one_compatibility_scan_decides_compatible_and_boolean(monkeypatch):
    # one verify_theorems makes one compatibility scan, and is_boolean
    # walks the point closures only on an orthoset that the scan finds
    # incompatible, to name its row
    scans, walks = [], []
    scan = orthoset_module._incompatible
    monkeypatch.setattr(orthoset_module, "_incompatible",
                        lambda o, xs: scans.append(o.n) or scan(o, xs))
    monkeypatch.setattr(logic_module, "_incompatible",
                        lambda o, xs: walks.append(o.n) or scan(o, xs))
    for p in (antichain(8), chain(4), weak_nfree_incompatible(), n_poset()):
        scans.clear()
        verify_theorems(p)
        assert scans == [p.n]
    assert walks == [5, 4]
    walks.clear()
    for p in (antichain(8), chain(4), nfree_strict_non_dacey()):
        scans.clear()
        logic = build_logic(incomparability_orthoset(p))
        # the second call, and is_compatible, read the cached verdict
        assert is_boolean(logic) == is_boolean(logic) == (True, None)
        assert is_compatible(logic.orthoset) == (True, None)
        assert scans == [p.n] and walks == []


def test_orthomodular_scans_pairs_only_for_the_witness(monkeypatch):
    # the verdict comes from the Dacey scan; the pair scan runs only on a
    # logic that is not orthomodular, to name its witness
    calls = []
    scan = logic_module._oml_witness
    monkeypatch.setattr(logic_module, "_oml_witness",
                        lambda l: calls.append(l.m) or scan(l))
    for p in (antichain(8), diamond22(), nfree_strict_non_dacey()):
        assert is_orthomodular(
            build_logic(incomparability_orthoset(p))) == (True, None)
    assert calls == []
    assert is_orthomodular(
        build_logic(incomparability_orthoset(n_poset()))) == (False, (1, 2))
    assert calls == [6]


def test_orthomodular_witness_scan_asserts_its_witness():
    # the pair scan, given an orthomodular logic, finds no failing pair
    logic = build_logic(incomparability_orthoset(diamond22()))
    with pytest.raises(AssertionError,
                       match=r"^no witness for a non-orthomodular logic$"):
        logic_module._oml_witness(logic)


@pytest.mark.parametrize("p", [antichain(4), n_poset()],
                         ids=["antichain4", "n_poset"])
def test_decisions_build_no_tables(p):
    # orthomodularity and Booleanness run on the masks; the tables stay
    # unbuilt until something reads them
    logic = build_logic(incomparability_orthoset(p))
    # building runs no self-check: not even the element perps are read
    assert "_perp" not in logic.__dict__
    is_orthomodular(logic)
    is_boolean(logic)
    assert not {"ocompl", "leq", "meet", "join"} & logic.__dict__.keys()
    assert logic.meet and "meet" in logic.__dict__
