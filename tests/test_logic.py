"""Logic construction, ortholattice axioms, orthomodularity, Booleanness."""

import dataclasses

import pytest

from orthoposet.bridges import incomparability_orthoset
from orthoposet.catalog import (antichain, chain, diamond22, n_poset,
                                nfree_strict_non_dacey, path_orthoset,
                                weak_nfree_incompatible)
from orthoposet.census import _enumerate_rows, random_orthoset
from orthoposet.errors import SizeLimitError
from orthoposet.logic import (_logic_from_family, build_logic, is_boolean,
                              is_orthomodular, verify_ortholattice)
from orthoposet.orthoset import Orthoset

from oracles import brute_distributivity_witness, incomparability_adj


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
    # swap the complements of the two atoms of the first pair
    oc = list(logic.ocompl)
    oc[1], oc[2] = oc[2], oc[1]
    bad = dataclasses.replace(logic, ocompl=tuple(oc))
    report = verify_ortholattice(bad)
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


def test_lattice_size_cap():
    with pytest.raises(SizeLimitError):
        build_logic(incomparability_orthoset(diamond22()), max_lattice=4)


def _assert_boolean_matches_oracle(o: Orthoset) -> None:
    witness = brute_distributivity_witness(o.adj, o.n)
    assert is_boolean(build_logic(o)) == (witness is None, witness)


def test_boolean_against_triple_oracle_small_posets():
    for n in range(5):
        for up, _dn in _enumerate_rows(n):
            _assert_boolean_matches_oracle(
                Orthoset(n, incomparability_adj(n, up)))


def test_boolean_against_triple_oracle_catalog():
    for p in (n_poset(), diamond22(), weak_nfree_incompatible(),
              nfree_strict_non_dacey(), chain(4), antichain(4)):
        _assert_boolean_matches_oracle(incomparability_orthoset(p))
    _assert_boolean_matches_oracle(path_orthoset(4))


def test_logic_rejects_family_not_closed_under_meet():
    # no orthogonality on 3 elements: the closed sets are only {} and all.
    # {0,1} and {1,2} have perp {} like every nonempty set, so the
    # orthocomplement check passes and their meet {1} is the first failure
    with pytest.raises(AssertionError,
                       match=r"meet of elements 1, 2 is not orthoclosed"):
        _logic_from_family((0, 0, 0), 3, [0b000, 0b011, 0b110, 0b111])
