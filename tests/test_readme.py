"""The README's library example runs as written, its config shape is the CLI's, and its claims table names what exists."""

import ast
import json
import re
from pathlib import Path

import pytest

from ncmink import QuadratureConfig, cli, verify

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


CLAIMS = (
    "Lorentz invariance",
    "The Weyl algebra",
    "The GNS state",
    "Minimal length",
    "Classical Minkowski distances",
    "Quantum corrections proportional to l²",
    "The light cone in the classical limit",
    "Vanishing for spacelike separations",
    "A time orientation for timelike intervals",
)


def _claim_rows():
    """(claim, status, references) per row of the README's claims table."""
    section = README.read_text(encoding="utf-8").split("\n## The abstract's claims, one per row\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    assert lines[:2] == ["| Claim | Status | Checked by |", "|---|---|---|"]
    rows = []
    for line in lines[2:]:
        claim, status, checked_by = (cell.strip() for cell in line.strip("|").split("|"))
        references = re.findall(r"`([^`]+)`", checked_by)
        assert checked_by == ("none" if not references else ", ".join(f"`{r}`" for r in references)), line
        rows.append((claim, status, references))
    return rows


def test_the_claims_table_names_only_tests_and_rows_that_exist():
    """One row per claim of the abstract; each names a status and, unless it
    is open, the tests and ``verify`` rows that check it, all of which exist."""
    rows = _claim_rows()
    assert tuple(claim for claim, _, _ in rows) == CLAIMS
    tests_dir = README.parent / "tests"
    functions, suites = {}, {}
    for claim, status, references in rows:
        assert re.fullmatch(r"(checked|red \(criterion (1|4b)\)|open \(item \d+\))([;:] .+)?", status), (claim, status)
        assert references or status.startswith("open"), claim
        for reference in references:
            test = re.fullmatch(r"tests/(\w+\.py)::(\w+)", reference)
            if test:
                path = tests_dir / test[1]
                if path not in functions:
                    tree = ast.parse(path.read_text(encoding="utf-8"))
                    functions[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
                assert test[2] in functions[path], reference
                continue
            row = re.fullmatch(r"verify ([\w-]+): (.+)", reference)
            assert row, f"neither a test nor a verify row: {reference}"
            suite, name = row[1], row[2]
            if suite not in suites:
                suites[suite] = {check["name"] for check in verify.SUITES[suite](QuadratureConfig())["checks"]}
            assert name in suites[suite], reference
