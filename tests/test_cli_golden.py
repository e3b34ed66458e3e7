"""A fixed corpus of CLI invocations must keep its exact output.

``cli_golden.json`` holds, for each invocation, the argv, the exit code and
the full stdout, text and JSON modes of all six subcommands and typed
errors among them.  An entry with a ``note`` was edited on purpose; the
note says why.
"""

import json
from pathlib import Path

import pytest

from wilsonprod.cli import main

CORPUS = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"])
                                              for c in CORPUS])
def test_cli_output_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.delenv("WILSON_CAP", raising=False)
    code = main(list(case["argv"]))
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
