"""Properties of the package source itself."""

import ast
from pathlib import Path

import wilsonprod

SRC = Path(wilsonprod.__file__).parent


def test_no_assert_statements():
    # invariants raise InvariantViolation, which still fires under python -O
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
