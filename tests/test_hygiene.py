"""Source hygiene checks that need no linter."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hafx"


def unused_imports(source):
    """Names a module imports and never reads, as (line, name) pairs."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_finds_a_name_never_read():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x.y)\n"
    assert unused_imports(source) == [(1, "os"), (2, "e")]


def test_no_module_imports_a_name_it_never_uses():
    """`__init__.py` files are skipped: their imports are re-exports."""
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
