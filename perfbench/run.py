#!/usr/bin/env python3
"""Benchmark of ncmink: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload observables --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory, in this one
process.  A pass runs the workload's fixed list of seeded inputs once, from
a cold start.  With ``--trace 0`` passes repeat for ``--seconds`` and the
end-to-end metrics are reported.  With ``--trace 1`` untraced and traced
passes alternate for ``--seconds``, and the per-layer metrics come from the
traced ones.  Set-up time is taken in fresh interpreters either way.
Times are in reference seconds (see ``hostspeed.py``), which cancels most
of a shared host's changes in speed.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment and the failures.
README.md next to this file says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS is pinned before numpy loads, here and in the set-up interpreters,
# so every op computes on one thread, as the reference task does.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (loads numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60.0
# One Monte Carlo worker: with two on a 2-vCPU shared host, an op's time
# follows the load on the second vCPU, which the reference task cannot see.
MC_WORKERS = 1

# What a CLI invocation pays before its first integral: interpreter start,
# importing the package and its CLI, parsing flags and building the configs.
# Reference tasks after the timed part give the host speed of that moment;
# the parent subtracts the time they took.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ncmink, ncmink.cli
t1 = time.perf_counter()
args = ncmink.cli.build_parser().parse_args(
    ["distance", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e4"])
config = ncmink.cli.build_run_config(args)
ncmink.QuadratureConfig(**config["quadrature"])
constants = ncmink.PhysicalConstants(config["constants"]["planck_length"])
psi = config["state"]["psi"]
ncmink.DMStateParams(config["state"]["alpha"],
                     ncmink.GaussianBump(psi["center"], psi["width"]), constants)
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import hostspeed
hostspeed.reference_task()
ref = [hostspeed.reference_task() for _ in range(5)]
print(json.dumps([t1 - t0, time.perf_counter() - t2, ref]))
"""

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_frac": "ratio",
    "rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "integrate.pair.calls": "calls/op",
    "integrate.pair.cache_hit_ratio": "ratio",
    "integrate.pair.miss_s": "s/op",
    "integrate.pair.hit_s": "s/op",
    "integrate.reduce.s": "s/op",
    "integrate.reduce.share": "ratio",
    "integrate.reduce.evals_per_call.logabs": "evals/call",
    "integrate.reduce.evals_per_call.lightcone": "evals/call",
    "integrate.reduce.nonconverged": "count/op",
    "integrate.bilinear_form.calls": "calls/op",
    "integrate.bilinear_form.self_s": "s/op",
    "integrate.mc_oracle.s": "s/op",
    "integrate.mc_oracle.samples_per_s": "1/s",
    "integrate.momentum_form.s": "s/op",
    "integrate.momentum_form.evals": "evals/op",
    "integrate.momentum_form.nonconverged": "count/op",
    "state.gram_check.s": "s/op",
    "state.mu2.calls": "calls/op",
    "state.dm_bilinear.self_s": "s/op",
    "state.log_minus_form.self_s": "s/op",
    "state.sigma_indexed.calls": "calls/op",
    "testfn.project_psi.s": "s/op",
    "testfn.smearing_constructions": "calls/op",
    "testfn.smearing.s": "s/op",
    "weyl.mul.s": "s/op",
    "weyl.eval_omega.s": "s/op",
    "geometry.distance.self_s": "s/op",
    "geometry.causal.self_s": "s/op",
    "setup.import_s": "s",
    "trace.overhead_frac": "ratio",
}


def nproc():
    return len(os.sched_getaffinity(0))


def git_sha(root):
    """Commit of the checkout from .git without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workers):
    import numpy as np

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "mc_workers": workers,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def measure_setup(repeats):
    """Median set-up time of fresh CLI-like interpreters, and of its import part.

    Both are in reference seconds, each start scaled by the reference tasks
    it ran after its timed part.
    """
    setups, imports = [], []
    for k in range(repeats + 1):  # the first start may compile bytecode
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        wall = perf_counter() - t0
        import_s, ref_section_s, ref = json.loads(done.stdout.strip().splitlines()[-1])
        if k:
            setups.append(hostspeed.scaled(wall - ref_section_s, ref))
            imports.append(hostspeed.scaled(import_s, ref))
    return statistics.median(setups), statistics.median(imports)


@dataclass
class Pass:
    """Outcome of one cold-start, closed-loop pass over a workload's inputs."""

    latencies: list = field(default_factory=list)  # reference seconds
    walls: list = field(default_factory=list)  # wall seconds
    results: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (op index, message, exact)
    rss_mb: float = 0.0  # resident memory at the end, with the pass's caches alive

    @property
    def correct(self):
        return not any(exact for _, _, exact in self.failures)


def run_pass(workloads, workload, cases, workers, tracer=None):
    """Run every case once, each op starting when the previous one returned.

    A reference task runs before the first op and after every op, and each
    op's latency is scaled by the two that bracket it.
    """
    ctx = workloads.RunContext(workers)
    done = Pass()
    ref_before = hostspeed.reference_task()
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            out = workload.op(ctx, case)
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            out, failure = None, workloads.exception_failure(exc)
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        ref_after = hostspeed.reference_task()
        done.walls.append(wall)
        done.latencies.append(hostspeed.scaled(wall, (ref_before, ref_after)))
        ref_before = ref_after
        if out is not None:
            failure = workload.check(ctx, case, out)
            done.results.append(workload.result(out))
        else:
            done.results.append(None)
        if failure is not None:
            done.failures.append((index, *failure))
    done.rss_mb = resident_mb()  # `ctx` still holds the WeylCalculus caches here
    return done


def timed_passes(workloads, workload, cases, workers, seconds):
    """Repeat passes while the next one is expected to end within `seconds`."""
    start = perf_counter()
    passes = []
    while True:
        t0 = perf_counter()
        passes.append(run_pass(workloads, workload, cases, workers))
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def traced_passes(workloads, workload, cases, workers, seconds):
    """Alternate untraced and traced passes; at least one of each, then while time lasts."""
    from tracer import Tracer

    tracer = Tracer().install()
    start = perf_counter()
    passes = []
    try:
        while True:
            t0 = perf_counter()
            passes.append(run_pass(workloads, workload, cases, workers))
            passes.append(run_pass(workloads, workload, cases, workers, tracer))
            now = perf_counter()
            if now - start + (now - t0) > seconds:
                return passes, tracer
    finally:
        tracer.uninstall()


def per_op_median(passes, attr="latencies"):
    """Each op's median latency over the passes, in reference or wall seconds."""
    return [statistics.median(times) for times in zip(*(getattr(p, attr) for p in passes))]


def resident_mb():
    """Resident set size now: the interpreter, numpy and the caches still held."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_resident_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(values, q):
    import numpy as np

    return float(np.percentile(values, q)) * 1e3


def timing(best, ok):
    """Throughput and latency percentiles of per-op latencies `best`."""
    return {
        "ops_per_s": ok / sum(best),
        "op_ms_p50": percentile_ms(best, 50),
        "op_ms_p90": percentile_ms(best, 90),
    }


def end_to_end(passes, setup_s):
    """Each op's latency is its median over the passes, all from a cold start.

    Latencies are in reference seconds, which cancels most of the host's
    changes in speed.  The median over passes does not depend on how many
    passes a run made, as the fastest repeat would.
    """
    best = per_op_median(passes)
    ok = len(best) - len(passes[0].failures)
    return {
        **timing(best, ok),
        "ok_frac": ok / len(best),
        "rss_mb": statistics.median(p.rss_mb for p in passes),
        "setup_s": setup_s,
    }


def per_layer(tracer, passes, import_s):
    """Per-op layer figures over all traced passes.

    The tracing overhead compares each op's median traced and untraced
    latency, both in reference seconds.
    """
    from tracer import Span

    plain, traced = passes[0::2], passes[1::2]
    counts = tracer.counts
    n = sum(len(p.latencies) for p in traced)
    op_wall = sum(sum(p.walls) for p in traced)
    scale = sum(sum(p.latencies) for p in traced) / op_wall  # reference s per wall s
    spans = defaultdict(Span)
    for name, span in tracer.spans.items():
        spans[name] = Span(span.calls, span.total * scale, span.own * scale)

    def ratio(num, den):
        return num / den if den else 0.0

    pair_calls = counts["integrate.pair.hits"] + counts["integrate.pair.misses"]
    mc_time = spans["integrate.mc_oracle"].total
    return {
        "integrate.pair.calls": pair_calls / n,
        "integrate.pair.cache_hit_ratio": ratio(counts["integrate.pair.hits"], pair_calls),
        "integrate.pair.miss_s": counts["integrate.pair.miss_s"] * scale / n,
        "integrate.pair.hit_s": counts["integrate.pair.hit_s"] * scale / n,
        "integrate.reduce.s": spans["integrate.reduce"].total / n,
        "integrate.reduce.share": tracer.spans["integrate.reduce"].total / op_wall,
        "integrate.reduce.evals_per_call.logabs": ratio(
            counts["integrate.reduce.evals.logabs"], counts["integrate.reduce.calls.logabs"]
        ),
        "integrate.reduce.evals_per_call.lightcone": ratio(
            counts["integrate.reduce.evals.lightcone"], counts["integrate.reduce.calls.lightcone"]
        ),
        "integrate.reduce.nonconverged": counts["integrate.reduce.nonconverged"] / n,
        "integrate.bilinear_form.calls": spans["integrate.bilinear_form"].calls / n,
        "integrate.bilinear_form.self_s": spans["integrate.bilinear_form"].own / n,
        "integrate.mc_oracle.s": mc_time / n,
        "integrate.mc_oracle.samples_per_s": ratio(counts["integrate.mc_oracle.evals"], mc_time),
        "integrate.momentum_form.s": spans["integrate.momentum_form"].total / n,
        "integrate.momentum_form.evals": counts["integrate.momentum_form.evals"] / n,
        "integrate.momentum_form.nonconverged": counts["integrate.momentum_form.nonconverged"] / n,
        "state.gram_check.s": spans["state.gram_check"].total / n,
        "state.mu2.calls": spans["state.mu2"].calls / n,
        "state.dm_bilinear.self_s": spans["state.dm_bilinear"].own / n,
        "state.log_minus_form.self_s": spans["state.log_minus_form"].own / n,
        "state.sigma_indexed.calls": spans["state.sigma_indexed"].calls / n,
        "testfn.project_psi.s": spans["testfn.project_psi"].total / n,
        "testfn.smearing_constructions": spans["testfn.smearing"].calls / n,
        "testfn.smearing.s": spans["testfn.smearing"].total / n,
        "weyl.mul.s": spans["weyl.mul"].total / n,
        "weyl.eval_omega.s": spans["weyl.eval_omega"].total / n,
        "geometry.distance.self_s": spans["geometry.distance"].own / n,
        "geometry.causal.self_s": spans["geometry.causal"].own / n,
        "setup.import_s": import_s,
        "trace.overhead_frac": 1.0 - sum(per_op_median(plain)) / sum(per_op_median(traced)),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("observables", "state", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ncmink" / "__init__.py").is_file():
        print(f"error: no ncmink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    setup_s, import_s = measure_setup(SETUP_REPEATS)

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workers = MC_WORKERS
    cases = [workload.make_input(args.seed, index) for index in range(workload.ops)]
    if args.trace:
        passes, tracer = traced_passes(workloads, workload, cases, workers, args.seconds)
        metrics, units = per_layer(tracer, passes, import_s), PER_LAYER_UNITS
    else:
        passes = timed_passes(workloads, workload, cases, workers, args.seconds)
        metrics, units = end_to_end(passes, setup_s), END_TO_END_UNITS
    first = passes[0]
    # Every pass starts cold on the same inputs, so every result must repeat.
    correct = all(
        p.correct and p.results == first.results and p.failures == first.failures for p in passes
    )
    failed = len(first.failures)
    attempted = len(cases)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(workers),
        "passes": len(passes),
        "wall": timing(per_op_median(passes, "walls"), len(cases) - failed),
        "peak_rss_mb": peak_resident_mb(),
        "latency_samples": len(cases),
        "failed_frac": failed / attempted,
        "failures": [
            {"op": index, "message": message, "exact": exact}
            for index, message, exact in first.failures
        ],
    }
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
