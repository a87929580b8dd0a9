"""The README's library example runs as written."""
from __future__ import annotations

import re
from pathlib import Path

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
