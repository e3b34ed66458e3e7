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


def test_every_error_type_is_raised():
    # an error type nothing raises is dead code, and it suggests a check that
    # is not there: each WilsonError subclass of errors.py is raised
    # somewhere else in src/
    errors = ast.parse((SRC / "errors.py").read_text())
    types = {node.name for node in errors.body
             if isinstance(node, ast.ClassDef) and node.name != "WilsonError"}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert types and sorted(types - raised) == []
