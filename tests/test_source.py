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


def test_every_mutant_applies_once():
    # the committed mutant list fails loudly when the code it mutates moves
    from mutants import MUTANTS

    for m in MUTANTS:
        assert (SRC / m.file).read_text().count(m.old) == 1, (m.file, m.old)
        assert m.new != m.old and m.why, m.old
