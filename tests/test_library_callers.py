"""Every top-level function and class of the library, and every method of a
library class, has a caller outside the tests: code that only tests use
belongs in tests/oracles.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "hcchar"

EXEMPT = {
    # The benchmark's per-layer tracer wraps straighten by name; moving it
    # would turn that layer's metrics from unused into missing.
    ("vertex", "straighten"),
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(LIBRARY.glob("*.py"))
        if path.stem != "__init__"
    }


def _demos() -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted((ROOT / "demos").glob("*.py"))]


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


def _attribute_reads(tree, skip=None) -> set[str]:
    """Every attribute name read in tree, outside the node skip."""
    reads, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return reads


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
    modules = _modules()
    callers = list(modules.items()) + [(None, tree) for tree in _demos()]
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


def test_every_library_method_is_read_outside_the_tests():
    # A method is read when a library module, outside the method itself, or
    # a demo reads its name as an attribute.  The check goes by name only, so
    # a method that shares its name with a used one passes unseen.  Dunder
    # methods are called by the language.
    modules = _modules()
    demo_reads = set().union(*map(_attribute_reads, _demos()))
    unread = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("__"):
                    continue
                read = method.name in demo_reads or any(
                    method.name in _attribute_reads(other, skip=method)
                    for other in modules.values()
                )
                if not read:
                    unread.append(f"{module}.{cls.name}.{method.name}")
    assert unread == [], f"no reader outside the tests: {unread}"
