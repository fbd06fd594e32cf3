"""Source hygiene checks that need no linter."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hafx"
PERFBENCH = ROOT / "perfbench"
# called only from the acceptance suite: criterion 5 merges LoRA into the
# base weights, criterion 7 reads the scaling benchmark's doubling ratios
CALLED_ONLY_BY_TESTS = {"Model.lora_merge", "BenchReport.ratios"}
LOCATION = re.compile(r"hafx(?:\.\w+)*:([\w.]+)")  # perfbench's "module:Class.attr"


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


def definitions(tree, prefix=""):
    """(qualified name, name) of every function, method and class defined
    in `tree`, nested ones too; dunders, which Python calls, are left out."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node.name
            yield from definitions(node, prefix + node.name + ".")
        else:
            yield from definitions(node, prefix)


def references(tree):
    """Names that `tree` reads: a bare name, an attribute not taken on
    `np`, or a part of a "hafx.module:Class.attr" location string."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id == "np"):
                refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if match := LOCATION.fullmatch(node.value):
                refs.update(match.group(1).split("."))
    return refs


def test_definitions_and_references_of_a_module():
    tree = ast.parse(
        "class A:\n    def __init__(self): pass\n    def f(self): return np.g()\n"
        "def g(): return A().f\n"
        "def h():\n    def inner(): pass\n    return 'hafx.m:A.k'\n"
    )
    assert list(definitions(tree)) == [("A", "A"), ("A.f", "f"), ("g", "g"), ("h", "h"),
                                       ("h.inner", "inner")]
    assert references(tree) - {"self"} == {"np", "A", "f", "k"}


def test_every_definition_has_a_caller():
    """Each function, method and class under src/hafx is read somewhere in
    src/hafx or perfbench/, which imports and wraps it by name."""
    paths = [*SRC.rglob("*.py"), *PERFBENCH.glob("*.py")]
    refs = set().union(*(references(ast.parse(p.read_text(encoding="utf-8"))) for p in paths))
    uncalled = [
        f"{path.relative_to(SRC)}:{qualified}"
        for path in sorted(SRC.rglob("*.py"))
        for qualified, name in definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in refs and qualified not in CALLED_ONLY_BY_TESTS
    ]
    assert uncalled == []


def unused_parameters(tree):
    """(function, parameter) for every parameter of a def in `tree` that its
    body, nested functions included, never reads; `self`, `cls` and
    `_`-prefixed names are left out."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found += [(node.name, p.arg) for p in params
                      if p and p.arg not in read and p.arg not in ("self", "cls")
                      and not p.arg.startswith("_")]
    return found


def test_unused_parameters_of_a_module():
    tree = ast.parse(
        "def f(self, a, b=1, *c, _d, **e):\n    def g(x): return a\n    return e\n"
        "class K:\n    def h(cls, y, z): return lambda w: y\n"
    )
    assert unused_parameters(tree) == [("f", "b"), ("f", "c"), ("g", "x"), ("h", "z")]


def test_every_parameter_is_read():
    """Each parameter of a function under src/hafx is read by its body."""
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if (unused := unused_parameters(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
