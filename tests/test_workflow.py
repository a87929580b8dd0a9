"""Every stressdraw command line in the CI workflow parses, so a removed
option cannot linger in a step that has not run."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from stressdraw.cli import build_parser

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
# the entry point or the module, then its arguments up to a ; or a pipe
COMMAND = re.compile(r"(?:^|\s)(?:stressdraw|python -m stressdraw\.cli)\s+([^;|]*)")


def _workflow_commands() -> list[list[str]]:
    """The stressdraw commands of the workflow, continuations joined, each
    split into its arguments."""
    lines = WORKFLOW.read_text(encoding="utf-8").replace("\\\n", " ").splitlines()
    return [shlex.split(m.group(1)) for line in lines if not line.lstrip().startswith("#")
            for m in COMMAND.finditer(line)]


def test_workflow_commands_parse():
    commands = _workflow_commands()
    assert len(commands) == 15
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"stressdraw {shlex.join(argv)} does not parse")
