"""Poset file grammar and DOT output."""

import re

import pytest

from orthoposet.catalog import diamond22, n_poset, weak_nfree_incompatible
from orthoposet.census import random_poset
from orthoposet.errors import (CycleError, PosetSyntaxError, SizeLimitError,
                               UnknownElementError)
from orthoposet.ioformats import (emit_dot_hasse, emit_dot_lattice,
                                  parse_poset_file, serialize_poset_file)
from orthoposet.bridges import incomparability_orthoset
from orthoposet.logic import build_logic
from orthoposet.poset import poset_from_covers

N_FILE = """\
# the four-element N
element a
element b
element c
element d
cover a c
cover b c   # middle edge
cover b d
"""


def test_parse_basic():
    p = parse_poset_file(N_FILE)
    assert p == n_poset()


def test_parse_blank_and_comment_lines():
    p = parse_poset_file("\n# nothing\n\nelement x\n  \nelement y\ncover x y\n")
    assert p.labels == ("x", "y")
    assert p.up == (0b10, 0)


def test_roundtrip_fixtures():
    for p in (n_poset(), diamond22(), weak_nfree_incompatible()):
        assert parse_poset_file(serialize_poset_file(p)) == p


def test_roundtrip_random():
    for seed in range(20):
        p = random_poset(8, seed)
        assert parse_poset_file(serialize_poset_file(p)).up == p.up


def test_serialize_empty():
    assert serialize_poset_file(parse_poset_file("")) == ""


@pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a#b", "a\x1cb"])
def test_serialize_refuses_labels_that_do_not_parse_back(bad):
    # "\x1c" is whitespace to str.isspace and a line break to splitlines
    p = poset_from_covers(2, [(0, 1)], labels=["x", bad])
    with pytest.raises(ValueError, match=re.escape(f"label {bad!r} cannot")):
        serialize_poset_file(p)


def test_parse_error_line_numbers():
    with pytest.raises(PosetSyntaxError) as err:
        parse_poset_file("element a\nelement a\n")
    assert err.value.line == 2
    with pytest.raises(PosetSyntaxError) as err:
        parse_poset_file("element a\nconnect a a\n")
    assert err.value.line == 2
    with pytest.raises(PosetSyntaxError) as err:
        parse_poset_file("element a b\n")
    assert err.value.line == 1
    with pytest.raises(PosetSyntaxError) as err:
        parse_poset_file("element a\nelement b\ncover a\n")
    assert err.value.line == 3
    with pytest.raises(UnknownElementError) as err:
        parse_poset_file("element a\ncover a z\n")
    assert err.value.line == 2 and err.value.name == "z"


def test_parse_cycle_and_cap():
    with pytest.raises(CycleError):
        parse_poset_file("element a\nelement b\ncover a b\ncover b a\n")
    text = "".join(f"element e{i}\n" for i in range(25))
    with pytest.raises(SizeLimitError):
        parse_poset_file(text)
    assert parse_poset_file(text, max_elements=25).n == 25


def test_dot_hasse_frozen():
    assert emit_dot_hasse(n_poset()) == (
        "digraph hasse {\n"
        "  rankdir=BT;\n"
        '  "a";\n'
        '  "b";\n'
        '  "c";\n'
        '  "d";\n'
        '  "a" -> "c";\n'
        '  "b" -> "c";\n'
        '  "b" -> "d";\n'
        "}\n"
    )


def test_dot_quoting():
    p = parse_poset_file('element x"y\nelement z\\w\ncover x"y z\\w\n')
    out = emit_dot_hasse(p)
    assert '"x\\"y"' in out and '"z\\\\w"' in out


def test_dot_lattice_frozen():
    p = n_poset()
    logic = build_logic(incomparability_orthoset(p))
    assert emit_dot_lattice(logic, p.labels) == (
        "digraph logic {\n"
        "  rankdir=BT;\n"
        '  "{}";\n'
        '  "{a}";\n'
        '  "{a,c}";\n'
        '  "{d}";\n'
        '  "{b,d}";\n'
        '  "{a,b,c,d}";\n'
        '  "{}" -> "{a}";\n'
        '  "{}" -> "{d}";\n'
        '  "{a}" -> "{a,c}";\n'
        '  "{a,c}" -> "{a,b,c,d}";\n'
        '  "{d}" -> "{b,d}";\n'
        '  "{b,d}" -> "{a,b,c,d}";\n'
        "}\n"
    )


def test_dot_is_deterministic():
    p = random_poset(9, 17)
    assert emit_dot_hasse(p) == emit_dot_hasse(p)
