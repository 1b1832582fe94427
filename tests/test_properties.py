"""Property tests over seeded random posets on at most seven elements.

Every derived row of a Poset equals its brute-force oracle; dual is an
involution that swaps the cover rows; the seven verdicts of
verify_theorems survive relabeling and dual; the poset file format and the
JSON report round-trip.  Hypothesis runs derandomized, so every run draws
the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from orthoposet.bitset import bits
from orthoposet.census import random_poset, verify_theorems
from orthoposet.ioformats import parse_poset_file, serialize_poset_file
from orthoposet.poset import Poset, dual
from orthoposet.report import build_report, emit_json_report

from oracles import brute_covers, incomparability_adj

VERDICTS = ("n_free", "weak_n_free", "dacey", "compatible", "oml", "boolean",
            "chain_antichain")

deterministic = settings(derandomize=True, database=None, max_examples=100,
                         deadline=None)


@st.composite
def posets(draw) -> Poset:
    return random_poset(draw(st.integers(0, 7)),
                        draw(st.integers(0, 2**32 - 1)),
                        draw(st.floats(0, 1)))


def _converse(rows: tuple[int, ...]) -> tuple[int, ...]:
    n = len(rows)
    return tuple(sum(1 << y for y in range(n) if rows[y] >> x & 1)
                 for x in range(n))


def _relabel(p: Poset, pi: list[int]) -> Poset:
    """The same poset with element x renamed pi[x]; labels travel along."""
    up = [0] * p.n
    labels = [""] * p.n
    for x in range(p.n):
        up[pi[x]] = sum(1 << pi[y] for y in bits(p.up[x]))
        labels[pi[x]] = p.labels[x]
    return Poset(tuple(up), tuple(labels))


def _verdicts(p: Poset) -> tuple:
    rep = verify_theorems(p)
    return tuple(getattr(rep, name) for name in VERDICTS) + (rep.lattice_size,)


@deterministic
@given(posets())
def test_derived_rows_match_their_oracles(p):
    n = p.n
    assert n == len(p.up) == len(p.labels)
    assert p.down == _converse(p.up)
    assert {(x, y) for x in range(n)
            for y in bits(p.cover_up[x])} == brute_covers(n, p.up)
    assert p.comparable == tuple(
        sum(1 << y for y in range(n) if p.up[x] >> y & 1 or p.up[y] >> x & 1)
        for x in range(n))
    assert p.incomp == incomparability_adj(n, p.up)


@deterministic
@given(posets())
def test_dual_is_an_involution_swapping_covers(p):
    d = dual(p)
    assert dual(d) == p
    assert d.cover_up == _converse(p.cover_up)
    assert d.labels == p.labels


@deterministic
@given(posets(), st.randoms(use_true_random=False))
def test_verdicts_survive_relabeling_and_dual(p, rng):
    pi = rng.sample(range(p.n), p.n)
    expect = _verdicts(p)
    assert _verdicts(_relabel(p, pi)) == expect
    assert _verdicts(dual(p)) == expect


@deterministic
@given(posets())
def test_file_and_report_round_trip(p):
    q = parse_poset_file(serialize_poset_file(p))
    assert q.up == p.up and q.labels == p.labels
    assert (emit_json_report(build_report(q, source="x"))
            == emit_json_report(build_report(p, source="x")))
