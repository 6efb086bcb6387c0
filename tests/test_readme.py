"""The README's code: every python block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_python_blocks_run(tmp_path, monkeypatch):
    assert BLOCKS
    monkeypatch.chdir(tmp_path)
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})
