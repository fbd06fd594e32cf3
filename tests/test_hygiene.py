"""Source hygiene checks that need no linter."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hafx"
PERFBENCH = ROOT / "perfbench"
TOOLS = ROOT / "tools"
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


def defaulted_parameters(tree):
    """(call name, qualified def, parameter, position) for every parameter
    with a default of a def in `tree`. A method's first parameter takes no
    position, a keyword-only parameter has position None, and an `__init__`
    is called by its class's name."""
    found = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [*a.posonlyargs, *a.args][1 if cls else 0:]
                name = cls if child.name == "__init__" else child.name
                qualified = prefix + child.name
                found.extend((name, qualified, p.arg, i)
                             for i, p in enumerate(positional)
                             if i >= len(positional) - len(a.defaults))
                found.extend((name, qualified, p.arg, None)
                             for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child, qualified + ".", None)
            else:
                visit(child, prefix, cls)

    visit(tree, "", None)
    return found


def call_arguments(tree):
    """(callee name, positions passed, keywords passed) of every call in
    `tree` to a name or an attribute. `*args` passes every position and
    `**kwargs` every keyword, shown as None."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.append((name, None if starred else len(node.args),
                          None if None in keywords else keywords))
    return calls


def unset_defaults(def_tree, call_trees):
    """"qualified(parameter)" for every defaulted parameter of a def in
    `def_tree` that no call in `call_trees` passes."""
    calls = [c for tree in call_trees for c in call_arguments(tree)]
    return [f"{qualified}({param})"
            for name, qualified, param, pos in defaulted_parameters(def_tree)
            if not any(callee == name
                       and (n is None or (pos is not None and pos < n)
                            or kws is None or param in kws)
                       for callee, n, kws in calls)]


def test_unset_defaults_of_a_module():
    tree = ast.parse(
        "class K:\n    def __init__(self, a, b=1, c=2): pass\n"
        "    def m(self, d=3, *, e=4): pass\n"
        "def f(x, y=0, *, z=0):\n    def g(w=1): pass\n"
        "K(0, c=1).m(5)\nf(1, 2)\n"
    )
    assert unset_defaults(tree, [tree]) == ["K.__init__(b)", "K.m(e)", "f(z)", "f.g(w)"]
    assert unset_defaults(tree, [tree, ast.parse("g(*a)\nf(**k)\n")]) == ["K.__init__(b)",
                                                                          "K.m(e)"]


# defaulted parameters that no program call passes, each kept for a reason
UNSET_DEFAULTS = {
    # the console script calls main() with no argv; the CLI tests pass one
    "main(argv)",
    # perfbench's StepClock binds the eval batch size by name to count rows
    "evaluate_lm(batch_size)",
    "evaluate_task(batch_size)",
    # mirrors numpy's Generator.uniform; the SSD coin draws on its default range
    "SeededRng.uniform(high)",
    # the RoPE position offset that step-by-step decoding will pass
    "apply_rope(pos_offset)",
    # the masked LA reference counts clamps as the kernel it is held to does
    "linear_attention_masked(clamps)",
    # the per-branch outputs that per-step branch telemetry will read
    "hybrid_attention(return_branches)",
}


def test_every_default_is_passed_by_a_program_call():
    """Each defaulted parameter of a def under src/hafx is passed, by
    position or by keyword, in some call under src/hafx, perfbench/ or
    tools/, or is a named exception: a default that only tests override is
    a constant in disguise. A stale exception fails too.

    Calls are matched by the callee's name alone, so a call to another
    function of the same name can hide a parameter. A numpy
    `rng.normal(0.0, 0.1, shape)` in perfbench passes three positions of a
    `normal`, enough to hide a `mean` of `SeededRng.normal`, and
    `self._gen.uniform(low, high, size=shape)` makes `shape` and `low` of
    `SeededRng.uniform` read as passed."""
    call_trees = [ast.parse(p.read_text(encoding="utf-8"))
                  for p in [*SRC.rglob("*.py"), *PERFBENCH.glob("*.py"), *TOOLS.glob("*.py")]]
    unset = {u for path in SRC.rglob("*.py")
             for u in unset_defaults(ast.parse(path.read_text(encoding="utf-8")), call_trees)}
    assert unset == UNSET_DEFAULTS
