"""The README's library example and command-line block run as written."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from stressdraw.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    """The python block under "Library quick start" runs without error and
    prints the two ratios and the metrics JSON it shows."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    ratios, metrics = capsys.readouterr().out.splitlines()
    assert all(float(r) >= 1.0 for r in ratios.split())
    assert metrics.startswith('{"edge_length_ratio": ')


def _cli_commands() -> list[list[str]]:
    """The `stressdraw ...` lines of the sh block under "Command line",
    continuations joined, each split into its arguments."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("stressdraw ")]


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Each command of the command-line block, run in order in one
    directory, exits 0 and writes nothing to stderr."""
    commands = _cli_commands()
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv
    assert (tmp_path / "gallery" / "summary.csv").is_file()
