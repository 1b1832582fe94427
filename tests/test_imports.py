"""Every module of the package imports only names it reads.

No linter runs on the source, so this stands in for the unused-import
check: a name imported at module level and never read there is dead code,
or a binding kept for some reader outside the module.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orthoposet"

# (module, name): why the binding stays although the module never reads it
ALLOWED = {
    ("report", "is_dacey"): "the benchmark's traced analyze wraps "
                            "report.is_dacey; verify_theorems reads the "
                            "logic's one Dacey scan, logic._dacey",
}


def _unread_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_imported_name_is_read():
    unread = {(path.stem, name)
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for name in _unread_imports(ast.parse(path.read_text()))}
    assert unread == set(ALLOWED)
