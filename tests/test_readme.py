"""The README's quick start runs as written and prints what its comments
say."""

import re
from pathlib import Path

from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_prints_what_its_comments_say():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    # Each print's comment starts with the exact text it prints.
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    run = run_python("-c", block)
    assert run.returncode == 0, run.stderr
    printed = run.stdout.splitlines()
    assert len(printed) == len(expected)
    for got, comment in zip(printed, expected):
        assert comment.startswith(got), (got, comment)
