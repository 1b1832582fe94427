"""Poset text files and DOT renderings.

File grammar, one directive per line, # starts a comment:

    element NAME
    cover LOWER UPPER

Elements must be declared before use; the order is generated by the cover
pairs.  Parse errors carry 1-based line numbers.
"""

from __future__ import annotations

from .bitset import bits, format_subset
from .errors import PosetSyntaxError, UnknownElementError
from .logic import Logic
from .poset import (DEFAULT_MAX_ELEMENTS, Poset, _covers_from_up,
                    poset_from_covers)


def parse_poset_file(text: str,
                     max_elements: int = DEFAULT_MAX_ELEMENTS) -> Poset:
    """Parse the element/cover grammar into a Poset.

    Raises PosetSyntaxError or UnknownElementError with the offending line
    number, CycleError if the covers loop, SizeLimitError past max_elements.
    """
    names: list[str] = []
    index: dict[str, int] = {}
    covers: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "element":
            if len(tokens) != 2:
                raise PosetSyntaxError(
                    f"element takes one name, got {len(tokens) - 1}", lineno)
            name = tokens[1]
            if name in index:
                raise PosetSyntaxError(f"duplicate element {name!r}", lineno)
            index[name] = len(names)
            names.append(name)
        elif tokens[0] == "cover":
            if len(tokens) != 3:
                raise PosetSyntaxError(
                    f"cover takes two names, got {len(tokens) - 1}", lineno)
            for name in tokens[1:]:
                if name not in index:
                    raise UnknownElementError(name, lineno)
            covers.append((index[tokens[1]], index[tokens[2]]))
        else:
            raise PosetSyntaxError(
                f"unknown directive {tokens[0]!r}", lineno)
    return poset_from_covers(len(names), covers, labels=names,
                             max_elements=max_elements)


def serialize_poset_file(p: Poset) -> str:
    """Round-trippable text for p: element lines, then cover lines.

    Raises ValueError on the first label the grammar cannot carry: one
    that is empty or holds whitespace or '#'.
    """
    for name in p.labels:
        if not name or "#" in name or any(map(str.isspace, name)):
            raise ValueError(
                f"label {name!r} cannot be written: names must be non-empty, "
                f"without whitespace or '#'")
    out = [f"element {name}" for name in p.labels]
    out += [f"cover {p.labels[x]} {p.labels[y]}"
            for x in range(p.n) for y in bits(p.cover_up[x])]
    return "\n".join(out) + "\n" if out else ""


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot_hasse(p: Poset) -> str:
    """Hasse diagram as DOT, edges pointing up, deterministic line order."""
    names = list(map(_dot_quote, p.labels))
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines += [f"  {name};" for name in names]
    lines += [f"  {names[x]} -> {names[y]};"
              for x in range(p.n) for y in bits(p.cover_up[x])]
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot_lattice(l: Logic, labels: tuple[str, ...]) -> str:
    """Cover graph of the logic as DOT; nodes are the orthoclosed sets."""
    def node(i: int) -> str:
        return _dot_quote(format_subset(l.elements[i], labels))

    lines = ["digraph logic {", "  rankdir=BT;"]
    lines += [f"  {node(i)};" for i in range(l.m)]
    cov = _covers_from_up([l.leq[i] & ~(1 << i) for i in range(l.m)], l.m)
    lines += [f"  {node(i)} -> {node(j)};"
              for i in range(l.m) for j in bits(cov[i])]
    lines.append("}")
    return "\n".join(lines) + "\n"
