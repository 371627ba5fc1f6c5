"""Every module-level function and class in ``src/nilquiver`` has a user:
the package exports it, code in ``src`` outside its own body refers to it,
or the benchmark's tracer wraps it by name.  Every exported name has a user
outside the tests: code in ``src`` refers to it, or the README, a demo or
the benchmark names it.  Code that only the tests call belongs in the
tests' own oracle modules."""

import ast
import re
from pathlib import Path

import nilquiver
from test_traced_names import load_traced

SRC = Path(nilquiver.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
#: Files outside ``src`` whose whole-word mention of an exported name is a use.
USER_FILES = ("README.md", "demos/*.py", "perfbench/*.py")
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


def src_statements():
    """(module, top-level statement, the names it refers to) across ``src``."""
    return [
        (path.stem, node, names_in(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]


def unused_definitions():
    """Module-level definitions in ``src`` that are not exported, not
    traced, and not referred to by any other top-level statement."""
    statements = src_statements()
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


def unused_exports(exported):
    """The names among exported that no top-level statement of ``src``
    refers to, its own definition and the package's re-export aside, and
    that no whole word of the README, the demos or the benchmark names."""
    statements = [(node, names) for module, node, names in src_statements() if module != "__init__"]
    texts = [path.read_text() for pattern in USER_FILES for path in sorted(ROOT.glob(pattern))]

    def used(name):
        if any(name in names for node, names in statements if getattr(node, "name", None) != name):
            return True
        return any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)

    return [name for name in exported if not used(name)]


def test_every_src_definition_has_a_user():
    assert unused_definitions() == []


def test_every_export_has_a_user_outside_the_tests():
    assert unused_exports(nilquiver.__all__) == []


def test_an_export_only_the_tests_use_is_caught():
    # chain_allowed lives in the tests' enumeration oracle: were it exported,
    # nothing outside the tests would use it
    assert unused_exports(["chain_allowed", "to_dot", "residues"]) == ["chain_allowed"]
