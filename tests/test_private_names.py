"""No private name in the package is dead.

A module-level private function, class or constant (``_name``) of
``src/bagkit`` must be read somewhere in the package outside its own
definition: in another top-level statement of its module, or in a module
that imports it. Tests do not count, so a helper only tests call is dead.
"""

import ast
from pathlib import Path

import bagkit

PACKAGE = Path(bagkit.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt: ast.stmt) -> list[str]:
    """The private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if _is_private(name)]


def _read(stmt: ast.stmt) -> set[str]:
    """Every name a statement reads, attributes included."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def dead_private_names(package: Path = PACKAGE) -> list[str]:
    """``module.name`` of each private top-level name nothing else in the package reads."""
    defs, imports, reads = {}, {}, []
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for at, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            for name in _defined(stmt):
                defs[module, name] = at
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module:
                for alias in stmt.names:
                    imports[module, alias.asname or alias.name] = (stmt.module, alias.name)
            else:
                reads.append((module, at, _read(stmt)))
    live = set()
    for module, at, names in reads:
        for name in names:
            if defs.get((module, name), at) != at:
                live.add((module, name))
            elif (module, name) in imports:
                live.add(imports[module, name])
            else:  # an attribute: whichever module defines it
                live.update(key for key in defs if key[1] == name and key[0] != module)
    return sorted(f"{module}.{name}" for module, name in set(defs) - live)


def test_no_private_name_is_dead():
    assert dead_private_names() == []


def test_the_guard_sees_a_dead_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_USED = 1\n_DEAD = 2\n\n\ndef _self_only(n):\n    return _self_only(n - 1)\n\n\n"
        "def _imported():\n    return _USED\n"
    )
    (tmp_path / "b.py").write_text("from .a import _imported\n\nVALUE = _imported()\n")
    assert dead_private_names(tmp_path) == ["a._DEAD", "a._self_only"]
