"""Every module-level function and class in ``src/nilquiver`` has a user:
the package exports it, code in ``src`` outside its own body refers to it,
or the benchmark's tracer wraps it by name.  Code that only the tests call
belongs in the tests' own oracle modules."""

import ast
from pathlib import Path

import nilquiver
from test_traced_names import load_traced

SRC = Path(nilquiver.__file__).resolve().parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(node):
    """Every name a ``Name`` or ``Attribute`` node under node refers to."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unused_definitions():
    """Module-level definitions in ``src`` that are not exported, not
    traced, and not referred to by any other top-level statement."""
    statements = [
        (path.stem, node, names_in(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    traced = {(module, attr.split(".")[0]) for _, module, attr in load_traced()}
    exported = set(nilquiver.__all__)
    unused = []
    for module, node, _ in statements:
        if not isinstance(node, DEFINITIONS):
            continue
        if node.name in exported or (module, node.name) in traced:
            continue
        if not any(node.name in names for _, other, names in statements if other is not node):
            unused.append(f"{module}.{node.name}")
    return unused


def test_every_src_definition_has_a_user():
    assert unused_definitions() == []
