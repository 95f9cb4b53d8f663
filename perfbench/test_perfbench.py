"""Determinism self-check of the benchmark.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import ncmink  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Few ops per workload, but a whole stratum period where a workload has one.
SMALL = {"observables": 6, "state": 4, "oracle": 8}


def traced_pass(name, seed):
    workload = workloads.WORKLOADS[name]
    cases = [workload.make_input(seed, index) for index in range(SMALL[name])]
    tracer = Tracer().install()
    try:
        done = run.run_pass(workloads, workload, cases, run.MC_WORKERS, tracer)
    finally:
        tracer.uninstall()
    counts = {key: value for key, value in tracer.counts.items() if not key.endswith("_s")}
    calls = {key: span.calls for key, span in tracer.spans.items()}
    return done, counts, calls


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_counts_and_results(name):
    first, counts, calls = traced_pass(name, 7)
    again, counts_again, calls_again = traced_pass(name, 7)
    assert first.results == again.results
    assert first.failures == again.failures
    assert counts == counts_again
    assert calls == calls_again
    assert counts["integrate.pair.misses"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_gives_other_inputs(name):
    make = workloads.WORKLOADS[name].make_input
    assert [repr(make(7, i)) for i in range(4)] == [repr(make(7, i)) for i in range(4)]
    assert [repr(make(7, i)) for i in range(4)] != [repr(make(8, i)) for i in range(4)]


def test_state_shapes_are_every_combination():
    shapes = workloads.FAMILY_SHAPES
    assert len(shapes) == len(set(shapes)) == 3**2 + 3**3 + 3**4 + 3**5
    assert workloads.FAMILY_SHAPE_CDF[-1] == pytest.approx(1.0)
    assert shapes[0] == (1, 1) and shapes[-1] == (3, 3, 3, 3, 3)


def test_scaled_time_is_relative_to_the_reference_task():
    assert hostspeed.reference_task() > 0.0
    slow_host = (2.0 * hostspeed.NOMINAL_S, 2.0 * hostspeed.NOMINAL_S)
    assert hostspeed.scaled(0.5, slow_host) == pytest.approx(0.25)


def test_uninstall_restores_every_function():
    before = {
        (module, attr): value
        for module in (ncmink, ncmink.integrate, ncmink.state, ncmink.weyl, ncmink.geometry)
        for attr, value in vars(module).items()
    }
    methods = (ncmink.WeylCalculus.mul, ncmink.VectorSmearing.__init__)
    Tracer().install().uninstall()
    after = {
        (module, attr): value
        for module in (ncmink, ncmink.integrate, ncmink.state, ncmink.weyl, ncmink.geometry)
        for attr, value in vars(module).items()
    }
    assert after == before
    assert (ncmink.WeylCalculus.mul, ncmink.VectorSmearing.__init__) == methods


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
