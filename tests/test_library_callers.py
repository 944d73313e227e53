"""Every top-level function and class of the library has a caller outside
the tests: code that only tests use belongs in tests/oracles.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "hcchar"

EXEMPT = {
    # The benchmark's per-layer tracer wraps straighten by name; moving it
    # would turn that layer's metrics from unused into missing.
    ("vertex", "straighten"),
}


def _loads(nodes) -> tuple[set[str], set[tuple[str, str]]]:
    """The names loaded in nodes, and their module.name attribute pairs."""
    names, attributes = set(), set()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                attributes.add((node.value.id, node.attr))
    return names, attributes


def _imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(library module, name) for every name the file imports from the library."""
    return {
        (node.module.removeprefix("hcchar."), alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


def test_every_library_definition_has_a_caller_outside_the_tests():
    # A caller is another top-level statement of the same module, another
    # library module or a demo.  Re-exports in __init__.py do not count, and
    # neither does recursion inside the definition itself.
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(LIBRARY.glob("*.py"))
        if path.stem != "__init__"
    }
    callers = list(modules.items()) + [
        (None, ast.parse(path.read_text())) for path in sorted((ROOT / "demos").glob("*.py"))
    ]
    uses = [(name, _imports(tree), _loads([tree])) for name, tree in callers]
    uncalled = []
    for module, tree in modules.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            key = (module, definition.name)
            own = _loads(node for node in tree.body if node is not definition)
            called = definition.name in own[0] or any(
                other != module
                and (key in imported and definition.name in names or key in attributes)
                for other, imported, (names, attributes) in uses
            )
            if not called and key not in EXEMPT:
                uncalled.append(".".join(key))
    assert uncalled == [], f"no caller outside the tests: {uncalled}"
