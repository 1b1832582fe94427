"""Exception types shared across the package."""

from __future__ import annotations


class OrthoposetError(Exception):
    """Base class for all errors raised by this package."""


class PosetSyntaxError(OrthoposetError):
    """Malformed line in a poset file."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownElementError(OrthoposetError):
    """A cover line references a name with no prior element line."""

    def __init__(self, name: str, line: int):
        super().__init__(f"line {line}: unknown element {name!r}")
        self.name = name
        self.line = line


class CycleError(OrthoposetError):
    """The declared cover relation is not acyclic."""


class SizeLimitError(OrthoposetError):
    """An input exceeds a size cap; no argument lifts the family ceiling."""


class NotOrthoclosedError(OrthoposetError):
    """An operation that needs an orthoclosed subset got an unclosed one."""
