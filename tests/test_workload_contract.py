"""The benchmark's workloads still run against the package.

``perfbench/workloads.py`` reads result fields off the public functions
(``.value``, ``.error_estimate``, ``.converged``, the Gram reports).  Its
own self-check compares two passes with each other, so an op that raises
on every input would still pass it.  Here a few seeded inputs of every
workload go through ``op``, ``check`` and ``result`` exactly as a
benchmark pass runs them, and no check may return an exact failure: an
exact failure means the program, not the input, is wrong.  Inexact
failures (state positivity once a clipped-log cutoff activates, a
statistical oracle miss) are allowed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

#: (seed, input indices) per workload.  State seed 102 input 70 is a family
#: whose N matrix is not PSD: an inexact failure the contract must allow.
CASES = {
    "observables": [(101, range(30)), (102, range(30))],
    "state": [(101, range(6)), (102, [70])],
    "oracle": [(101, range(8))],
}


def _failure(workload, ctx, case):
    """What a benchmark pass records for one op: None or (message, exact)."""
    try:
        out = workload.op(ctx, case)
    except Exception as exc:  # a raising op is a failed op, as in a pass
        return workloads.exception_failure(exc)
    failure = workload.check(ctx, case, out)
    workload.result(out)
    return failure


def test_every_workload_is_covered():
    assert set(CASES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_op_fails_exactly(name):
    workload = workloads.WORKLOADS[name]
    ctx = workloads.RunContext(workers=1)
    for seed, indices in CASES[name]:
        for index in indices:
            failure = _failure(workload, ctx, workload.make_input(seed, index))
            assert failure is None or not failure[1], (seed, index, failure)
