"""Every stressdraw command line in the CI workflow parses, so a removed
option cannot linger in a step that has not run."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from stressdraw.cli import build_parser

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
# the entry point or the module where a shell command starts (at the line's
# start, after ;, &&, || or |, past a `timeout N`), then its arguments up to
# the next of those
COMMAND = re.compile(
    r"(?:^|;|&&|\|\|?)\s*(?:timeout\s+\d+\s+)?(?:stressdraw|python -m stressdraw\.cli)\s+([^;|&]*)"
)


def _commands(text: str) -> list[list[str]]:
    """The stressdraw commands of a shell script, continuations joined,
    each split into its arguments."""
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(m.group(1)) for line in lines if not line.lstrip().startswith("#")
            for m in COMMAND.finditer(line)]


@pytest.mark.parametrize("line, commands", [
    ('python -c "from stressdraw.graph import load_graph; from stressdraw import tutte; print(1)"', []),
    ("  timeout 120 python -m stressdraw.cli generate --n 8 --m 18 --seed 1",
     [["generate", "--n", "8", "--m", "18", "--seed", "1"]]),
    ("rc=0; stressdraw draw g.json --method tutte || rc=$?", [["draw", "g.json", "--method", "tutte"]]),
    ("mkdir out && stressdraw gallery g.json | tee log", [["gallery", "g.json"]]),
    ("echo stressdraw draw g.json", []),
])
def test_commands_start_where_a_shell_command_does(line, commands):
    assert _commands(line) == commands


def test_workflow_commands_parse():
    commands = _commands(WORKFLOW.read_text(encoding="utf-8"))
    assert len(commands) == 15
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"stressdraw {shlex.join(argv)} does not parse")
