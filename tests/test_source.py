"""Checks on the package source itself."""

import ast
from pathlib import Path

import mvcodes


def test_no_assert_statements_in_the_package():
    # invariants must be real checks: python -O strips assert statements
    found = []
    for path in sorted(Path(mvcodes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
