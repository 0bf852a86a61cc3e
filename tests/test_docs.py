"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(block, "README quick start", "exec"), names)
    assert names["state"].depth == names["coarse"].depth == 1
    assert names["fine"].scanned <= names["book"].code_at_depth(4).length
    assert names["exact"].scanned == len(names["train"])
