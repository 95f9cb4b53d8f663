#!/usr/bin/env python3
"""Collect one BENCH_<label>.json: the benchmark, cold CLI runs and Tier-1.

Run from the repository root:

    python3 bench/collect.py --label NAME [--root CHECKOUT]

``--root`` names the checkout to measure (default: the one holding this
script), so a parent commit is measured with this script from its own
clone.  For that checkout the script

* runs ``perfbench/run.py`` for every workload at each of ``SEEDS`` for
  ``SECONDS``, once with ``--trace 0`` (end-to-end metrics) and once with
  ``--trace 1`` (per-layer metrics), and keeps each run's last JSON line
  and its failures;
* times each CLI command below as a cold subprocess, ``REPEATS`` times,
  and keeps every wall time with the exit code;
* times the Tier-1 test suite once and keeps its pytest summary line;

and writes ``BENCH_<label>.json`` into the current directory with the git
commit of the checkout, whether its tree differs from that commit, the
Python and numpy versions and ``nproc``.  Runs are sequential, so they do
not compete for the host's cores.  Wall times include interpreter
start-up; perfbench's own figures are in its reference seconds (see
``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import numpy as np

WORKLOADS = ("observables", "state", "oracle")
SEEDS = (101, 102)
SECONDS = 8.0
REPEATS = 3

CLI_COMMANDS = {
    "verify gram": ["verify", "gram"],
    "verify weyl": ["verify", "weyl"],
    "verify fourier": ["verify", "fourier"],
    "verify minvar": ["verify", "minvar"],
    "verify alpha-limit": ["verify", "alpha-limit"],
    "distance": ["distance", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e4"],
    "causal": ["causal", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e4"],
    "sweep": ["sweep", "--axis", "separation", "--range", "0.1:2:20"],
}

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def _git(root, *args):
    done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _env(root):
    """Environment of a subprocess that imports the package from root/src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def _timed(cmd, root):
    t0 = perf_counter()
    done = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True)
    return perf_counter() - t0, done


def perfbench(root, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    wall, done = _timed(cmd, root)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "exit": done.returncode, "stderr": done.stderr[-2000:]}
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "exit": 0, "wall_s": wall, "passes": report["passes"],
            "failures": report["failures"], **result}


def cli(root, args):
    runs = [_timed([sys.executable, "-m", "ncmink.cli", *args], root) for _ in range(REPEATS)]
    walls = [wall for wall, _ in runs]
    return {"args": args, "exit": runs[0][1].returncode, "wall_s": walls,
            "median_s": statistics.median(walls)}


def tier1(root):
    wall, done = _timed([sys.executable, *TIER1], root)
    lines = done.stdout.strip().splitlines()
    return {"exit": done.returncode, "wall_s": wall, "summary": lines[-1] if lines else ""}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()

    doc = {
        "label": args.label,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": bool(_git(root, "status", "--porcelain", "--", "src", "tests", "perfbench")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "settings": {"seeds": SEEDS, "seconds": SECONDS, "repeats": REPEATS},
        "perfbench": {
            workload: {
                f"trace{trace}": [perfbench(root, workload, seed, trace) for seed in SEEDS]
                for trace in (0, 1)
            }
            for workload in WORKLOADS
        },
        "cli": {name: cli(root, cmd) for name, cmd in CLI_COMMANDS.items()},
        "tier1": tier1(root),
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
