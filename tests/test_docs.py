"""The README's library quick start runs as written, and its commands parse."""

import re
import shlex
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


def test_readme_commands_parse():
    """Every ``elastic-mine`` command in the README's shell blocks parses, so its
    flags cannot drift away from the parser."""
    from elastic_mine.cli import build_parser

    text = README.read_text(encoding="utf-8")
    shell = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in shell.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["elastic-mine"]]
    assert len(commands) == 10
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            raise AssertionError(f"the README command elastic-mine {' '.join(argv)} does not parse") from None
