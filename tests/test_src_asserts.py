"""The certificate checks in ``src/nilquiver`` raise ``AssertionError``
explicitly: an ``assert`` statement is stripped under ``python -O``, and a
stripped certificate lets an unchecked answer through."""

import ast
from pathlib import Path

import nilquiver

SRC = Path(nilquiver.__file__).resolve().parent


def test_src_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
