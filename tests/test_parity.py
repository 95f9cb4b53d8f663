"""bench/parity.py digests a checkout's benchmark results and CLI outputs and compares two digests."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
# parity.py reads the CLI commands from collect.py next to it
sys.path.insert(0, str(BENCH))
_SPEC = importlib.util.spec_from_file_location("parity", BENCH / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

# A checkout in miniature: one workload of three ops, the second raising, and
# a CLI that echoes its arguments and exits 3 for `verify`.
WORKLOADS = '''
from types import SimpleNamespace

import numpy as np


class RunContext:
    def __init__(self, workers):
        pass


class Report:
    def __init__(self, matrix):
        self.matrix = matrix


def op(ctx, case):
    if case == 1:
        raise ValueError("odd")
    return Report(np.eye(2) * case), complex(case, -0.0)


WORKLOADS = {"toy": SimpleNamespace(ops=3, make_input=lambda seed, i: i, op=op, result=lambda out: (out[1], 0.5))}
'''
CLI = '''
import sys
print(" ".join(sys.argv[1:]))
sys.exit(3 if "verify" in sys.argv else 0)
'''


def _checkout(root):
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(WORKLOADS)
    (root / "src" / "ncmink").mkdir(parents=True)
    (root / "src" / "ncmink" / "__init__.py").write_text("")
    (root / "src" / "ncmink" / "cli.py").write_text(CLI)
    return root


def test_digest_of_a_checkout(tmp_path):
    doc = parity.digest(_checkout(tmp_path))
    assert doc["seeds"] == [101, 102, 105]
    zeros = hashlib.sha256(np.zeros((2, 2)).tobytes()).hexdigest()
    twos = hashlib.sha256((2.0 * np.eye(2)).tobytes()).hexdigest()
    expected = [
        {"result": [[0.0, -0.0], 0.5], "sha256": [zeros]},
        {"raised": "ValueError('odd')"},
        {"result": [[2.0, -0.0], 0.5], "sha256": [twos]},
    ]
    assert doc["ops"] == {"toy": {str(seed): expected for seed in (101, 102, 105)}}
    assert len(doc["cli"]) == 2 * len(parity.CLI_COMMANDS)
    assert doc["cli"]["verify gram (json)"] == {"exit": 3, "stdout": "--format json verify gram\n"}
    assert doc["cli"]["causal (text)"]["exit"] == 0
    # a digest survives its JSON round trip and matches itself
    lines, moved = parity.compare(doc, json.loads(json.dumps(doc)))
    assert moved == 0
    assert lines == ["toy: 0 of 9 ops moved", "cli: 0 of 16 commands changed"]


def _digest(*ops):
    return {"ops": {"state": {"101": list(ops)}}, "cli": {"distance (text)": {"exit": 0, "stdout": "1\n"}}}


def test_compare_counts_every_moved_bit():
    old = _digest(
        {"result": [1.0, [2.0, 0.0]], "sha256": ["a"]},
        {"result": [3.0, [0.0, 0.0]], "sha256": ["b"]},
        {"result": [4.0], "sha256": ["c"]},
        {"result": [200.0], "sha256": []},
    )
    new = _digest(
        {"result": [1.0, [2.0, 0.0]], "sha256": ["a"]},
        {"result": [3.0, [0.0, -0.0]], "sha256": ["b"]},  # the sign of a zero
        {"result": [4.0], "sha256": ["d"]},  # a matrix
        {"result": [200.0 + 2.0**-44], "sha256": []},  # the worst relative move
    )
    lines, moved = parity.compare(new, old)
    assert moved == 3
    assert lines[0] == f"state: 3 of 4 ops moved, worst |delta|/max(1, |v|) = {2.0**-44 / 200.0:.3g}"
    assert lines[1] == "cli: 0 of 1 commands changed"


def test_compare_reports_raised_and_missing_ops_and_changed_cli_output():
    old = _digest({"result": [1.0], "sha256": []}, {"result": [2.0], "sha256": []})
    new = _digest({"raised": "PositivityError('x')"})
    new["cli"]["distance (text)"]["exit"] = 2
    lines, moved = parity.compare(new, old)
    assert moved == 3
    assert lines == [
        "state: 2 of 2 ops moved, worst |delta|/max(1, |v|) = inf",
        "cli: 1 of 1 commands changed",
        "  changed: distance (text)",
    ]
