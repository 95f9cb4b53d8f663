"""The README's library example runs as written, and its config shape is the CLI's."""

import json
import re
from pathlib import Path

import pytest

from ncmink import cli

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


def _readme_config():
    section = README.read_text(encoding="utf-8").split("Config file shape", 1)[1]
    return re.findall(r"```json\n(.*?)```", section, re.S)[0]


def _cli_doc_config():
    return cli.__doc__.split("Config file (JSON)::\n\n", 1)[1].split("\n\n", 1)[0]


@pytest.mark.parametrize("block", [_readme_config, _cli_doc_config], ids=["readme", "cli-docstring"])
def test_documented_config_shape_is_the_defaults(block):
    assert json.loads(block()) == cli.DEFAULTS
