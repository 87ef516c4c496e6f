"""The package's import structure, read from its source with ``ast``.

Every module imports at module level only, the relative imports between
modules run one way (``errors`` under all, ``poset`` -> ``reduction``,
then ``maps``, ``homotopy`` and ``simplicial`` side by side on
``reduction`` and ``poset``, and ``topology`` on ``poset``; ``homotopy``
imports nothing from ``maps``),
no module but ``__init__`` imports a name it never uses, and no check in
the package is an ``assert`` or a ``__debug__`` test that ``python -O``
would strip or change.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finspace"


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _module_level_imports(tree):
    """The import statements of a module outside every function body."""
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    inside = {id(node) for f in functions for node in ast.walk(f)}
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in inside]


def test_no_import_inside_a_function():
    found = set()
    for name, tree in _modules().items():
        for f in ast.walk(tree):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(node, (ast.Import, ast.ImportFrom))
                       for node in ast.walk(f)):
                    found.add(f"{name}.{f.name} imports inside its body")
    assert not found, sorted(found)


def _relative_deps(tree):
    """The package modules a module imports from at module level."""
    deps = set()
    for node in _module_level_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:  # from . import a, b
                deps.update(alias.name for alias in node.names)
            else:
                deps.add(node.module.split(".")[0])
    return deps


def test_homotopy_does_not_import_maps():
    assert "maps" not in _relative_deps(_modules()["homotopy"])


def test_relative_imports_are_acyclic():
    graph = {name: _relative_deps(tree) for name, tree in _modules().items()}
    # depth-first search; a module met again while still open closes a cycle
    state = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph.get(name, ())):
            if state.get(dep) == "open":
                raise AssertionError(f"import cycle: {' -> '.join(path + [name, dep])}")
            if dep not in state:
                visit(dep, path + [name])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [])


def test_no_unused_imports():
    found = {}
    for name, tree in _modules().items():
        if name == "__init__":  # re-exports are its purpose
            continue
        bound = set()
        for node in _module_level_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(bound - used)
        if unused:
            found[name] = unused
    assert not found, [f"{name} imports {unused} unused" for name, unused in found.items()]


def test_no_assert_and_no_assertion_error():
    # every check in the package raises a FinspaceError or is a test, and
    # nothing reads __debug__, so python -O runs the same package
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{name}:{node.lineno} assert")
            elif isinstance(node, ast.Name) and node.id in ("AssertionError", "__debug__"):
                found.append(f"{name}:{node.lineno} {node.id}")
    assert not found, found
