"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "the Library section holds one python block"
    return blocks[0]


def test_library_example_runs(capsys):
    code = _library_example()
    exec(compile(code, f"{README}:Library", "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == code.count("print(")
    assert all(line.strip() for line in printed)
