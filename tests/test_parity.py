"""bench/parity.py digests a checkout's benchmark results and CLI outputs and compares two digests."""

import hashlib
import importlib.util
import json
import math
import sys
import types
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
    (root / "src" / "ncmink" / "__init__.py").write_text('__all__ = ["b", "a"]\n')
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
    # no state workload, so no boosted section
    assert doc["ops"] == {"toy": {str(seed): expected for seed in (101, 102, 105)}}
    assert len(doc["cli"]) == 2 * len(parity.CLI_COMMANDS)
    assert doc["cli"]["verify gram (json)"] == {"exit": 3, "stdout": "--format json verify gram\n"}
    assert doc["cli"]["causal (text)"]["exit"] == 0
    assert doc["api"] == ["a", "b"]
    # a digest survives its JSON round trip and matches itself
    lines, moved = parity.compare(doc, json.loads(json.dumps(doc)))
    assert moved == 0
    assert lines == ["toy: 0 of 9 ops moved", "cli: 0 of 16 commands changed", "api: 0 names removed, 0 added"]


# A state workload in miniature, on a package whose Gram matrices are u and
# 2 u, whose product is the element squared and whose omega(x) is x + i u_1.
STATE_WORKLOADS = '''
from dataclasses import dataclass
from types import SimpleNamespace


@dataclass(frozen=True)
class Params:
    constants: object = None
    u: tuple = (1.0, 0.0, 0.0, 0.0)


STATE_PARAMS = Params()
CFG = None


def cold_start():
    pass


class RunContext:
    def __init__(self, workers):
        pass


def make_input(seed, index):
    return SimpleNamespace(family=[seed, index], element=float(index - 1))


WORKLOADS = {"state": SimpleNamespace(ops=2, make_input=make_input, op=lambda ctx, case: (), result=lambda out: ())}
'''
STATE_PACKAGE = '''
from types import SimpleNamespace

import numpy as np

__all__ = ["gram_check", "WeylCalculus"]


def gram_check(family, params, cfg):
    return [SimpleNamespace(matrix=np.array(params.u) * k) for k in (1.0, 2.0)]


class WeylCalculus:
    def __init__(self, constants, cfg, u, pairing):
        assert pairing == "krein"
        self.u = u

    def star(self, a):
        return a

    def mul(self, a, b):
        if a == 0.0:
            raise ZeroDivisionError("zero element")
        return a * b

    def eval_omega(self, a, params):
        return SimpleNamespace(value=complex(a, self.u[1]))
'''


def test_digest_of_a_boosted_frame(tmp_path):
    """A checkout with a state workload is digested again with the tests' boosted u."""
    root = _checkout(tmp_path)
    (root / "perfbench" / "workloads.py").write_text(STATE_WORKLOADS)
    (root / "src" / "ncmink" / "__init__.py").write_text(STATE_PACKAGE)
    boost = np.array(parity.BOOST)
    u = np.concatenate([[math.sqrt(1 + boost @ boost)], boost])
    assert u[1:].tolist() == [0.4, -0.2, 0.1]
    hashes = [hashlib.sha256((u * k).tobytes()).hexdigest() for k in (1.0, 2.0)]
    expected = [{"result": [[1.0, 0.4]], "sha256": hashes}, {"raised": "ZeroDivisionError('zero element')"}]
    ops = parity.digest(root)["ops"]
    assert ops["state (boosted)"] == {str(seed): expected for seed in (101, 102, 105)}
    assert ops["state"] == {str(seed): [{"result": [], "sha256": []}] * 2 for seed in (101, 102, 105)}


# The state workload with an oracle workload beside it, whose op 1 is the
# momentum route, on a package whose mc_oracle reports its arguments and
# raises when f is g.
MIXTURE_WORKLOADS = STATE_WORKLOADS + '''
from ncmink import KernelKind


def oracle_input(seed, index):
    kind = None if index == 1 else KernelKind.LOGABS
    return SimpleNamespace(kind=kind, f=-seed, g=0 if index == 0 else -seed, mc_seed=7 + index)


WORKLOADS["oracle"] = SimpleNamespace(ops=3, make_input=oracle_input, op=lambda ctx, case: (), result=lambda out: ())
'''
MIXTURE_PACKAGE = STATE_PACKAGE + '''
from enum import Enum


class KernelKind(Enum):
    LIGHTCONE = "lightcone"
    LOGABS = "logabs"
    CONSTANT = "constant"


IDENTITY = "identity"


class QuadratureConfig:
    def __init__(self, mc_samples, seed):
        self.mc_samples, self.seed = mc_samples, seed


def mc_oracle(kind, f, g, contraction, cfg):
    assert contraction == IDENTITY and cfg.mc_samples == 10_001
    if f == g:
        raise ArithmeticError("one bump")
    return SimpleNamespace(value=f"{kind.name} {f} {g}", error_estimate=cfg.seed)
'''


def test_digest_of_monte_carlo_mixtures(tmp_path):
    """Two members of each of 20 state families and the oracle's Monte Carlo
    inputs go through mc_oracle at 10_001 samples; the momentum op is skipped."""
    root = _checkout(tmp_path)
    (root / "perfbench" / "workloads.py").write_text(MIXTURE_WORKLOADS)
    (root / "src" / "ncmink" / "__init__.py").write_text(MIXTURE_PACKAGE)
    kinds = ["LIGHTCONE", "LOGABS", "CONSTANT"]
    ops = parity.digest(root)["ops"]
    for seed in (101, 102, 105):
        expected = [
            {"result": [f"{kinds[index % 3]} {seed} {index}", 1000 * seed + index], "sha256": []}
            for index in range(20)
        ]
        expected += [{"result": [f"LOGABS {-seed} 0", 7], "sha256": []}, {"raised": "ArithmeticError('one bump')"}]
        assert ops["oracle (mixtures)"][str(seed)] == expected
    assert sorted(ops) == ["oracle", "oracle (mixtures)", "state", "state (boosted)"]


def _digest(*ops):
    return {"ops": {"state": {"101": list(ops)}}, "cli": {"distance (text)": {"exit": 0, "stdout": "1\n"}}, "api": []}


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
        "api: 0 names removed, 0 added",
    ]


def test_compare_reports_removed_and_added_public_names():
    """Each name removed from or added to the public API counts as one change,
    like a changed CLI output; an older digest without the API is reported."""
    old, new = _digest(), _digest()
    old["api"], new["api"] = ["Frame", "causal", "distance", "DEFAULT_FRAME"], ["causal", "distance", "sigma"]
    lines, moved = parity.compare(new, old)
    assert moved == 3
    assert lines[-4:] == [
        "api: 2 names removed, 1 added",
        "  removed: DEFAULT_FRAME",
        "  removed: Frame",
        "  added: sigma",
    ]
    del old["api"]
    lines, moved = parity.compare(new, old)
    assert moved == 0
    assert lines[-1] == "api: not compared, the old digest records no public API"


def test_the_public_names_are_no_submodules():
    """``ncmink.__all__``, the digest's ``api``, leaves out the submodules the
    package's imports bind, so ``from ncmink import *`` binds no module."""
    namespace = {}
    exec("from ncmink import *", namespace)
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType) and name != "__builtins__"]
    assert modules == []
    assert "bilinear_form" in namespace
