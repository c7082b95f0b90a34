"""Source hygiene checks on the package itself."""

import ast
from pathlib import Path

import genfilter

PACKAGE = Path(genfilter.__file__).parent


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds by import, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _reexports() -> dict[str, set[str]]:
    """Names that ``__init__.py`` imports from each submodule, which count as used there."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    out: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def test_every_import_is_referenced():
    reexports = _reexports()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= reexports.get(path.stem, set())
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert not unused, "imports that nothing references:\n" + "\n".join(unused)


def test_every_private_function_and_class_is_referenced():
    """A module-level private function or class that no other statement of the package names."""
    statements = []  # (module, statement, the names it reads)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            statements.append((path.name, stmt, names))
    dead = [f"{module}:{stmt.lineno}: {stmt.name}" for module, stmt, _ in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and not any(stmt.name in names for _, other, names in statements if other is not stmt)]
    assert not dead, "private functions and classes that nothing references:\n" + "\n".join(dead)
