"""Checks on the package source itself."""

import ast
from pathlib import Path

import fflab

PACKAGE = Path(fflab.__file__).parent


def test_package_has_no_assert_statements():
    # invariants raise real exceptions: ``python -O`` strips assert statements
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
