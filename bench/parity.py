#!/usr/bin/env python3
"""Digest every benchmark result and CLI output of a checkout, or compare two digests.

Run from the repository root:

    python3 bench/parity.py --root CHECKOUT > base.json
    python3 bench/parity.py --against base.json

``--root`` names the checkout to digest (default: the one holding this
script), so a parent commit is digested with this script from its own
clone.  The digest holds

* the result tuple of every op of every benchmark workload at each of
  ``SEEDS``, one cold-start pass per workload and seed, computed in a
  subprocess that imports ``src`` and ``perfbench`` of the checkout;
* the sha256 of the matrix bytes of every op output that has a matrix
  (the N and M Gram reports of a ``state`` op);
* the stdout and exit code of every CLI command of ``bench/collect.py``,
  in text and in JSON format.

Without ``--against`` the digest goes to stdout as JSON.  With ``--against
FILE`` the checkout's digest is compared with the one in FILE: the script
prints how many ops moved per workload, with the worst
|delta| / max(1, |v|) over their numbers, and every CLI command whose
stdout or exit code changed.  An op moves when any bit of its results or
matrices changes, the sign of a zero included.  The exit code is 1 when
anything moved, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from collect import CLI_COMMANDS, _git

HERE = Path(__file__).resolve().parent
SEEDS = (101, 102, 105)
FORMATS = {"text": [], "json": ["--format", "json"]}
# one BLAS thread, as perfbench/run.py pins it, so eigenvalues do not
# depend on how the host splits the work
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _numbers(value):
    """A result entry as JSON numbers: a complex number is [real, imag]."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    return float(value)


def workload_digest():
    """Every op's results and matrix hashes, by workload and seed.

    Runs inside the subprocess, where ``workloads`` and ``ncmink`` are the
    checkout's.  An op that raises is recorded by its exception.
    """
    import workloads

    ops = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            ctx = workloads.RunContext(1)
            records = ops.setdefault(name, {}).setdefault(str(seed), [])
            for index in range(workload.ops):
                try:
                    out = workload.op(ctx, workload.make_input(seed, index))
                except Exception as exc:  # a raising op is recorded, the pass goes on
                    records.append({"raised": repr(exc)})
                    continue
                records.append({
                    "result": [_numbers(v) for v in workload.result(out)],
                    "sha256": [hashlib.sha256(x.matrix.tobytes()).hexdigest() for x in out if hasattr(x, "matrix")],
                })
    return ops


def digest(root):
    """The digest of the checkout at root (see the module docstring)."""
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "perfbench"), str(HERE), env.get("PYTHONPATH")])
    )
    code = "import json, parity; print(json.dumps(parity.workload_digest()))"
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"workload digest of {root} failed:\n{done.stderr[-2000:]}")
    cli = {}
    for name, args in CLI_COMMANDS.items():
        for fmt, flags in FORMATS.items():
            run = subprocess.run(
                [sys.executable, "-m", "ncmink.cli", *flags, *args], cwd=root, env=env, capture_output=True, text=True
            )
            cli[f"{name} ({fmt})"] = {"exit": run.returncode, "stdout": run.stdout}
    return {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "seeds": list(SEEDS),
        "ops": json.loads(done.stdout.splitlines()[-1]),
        "cli": cli,
    }


def _delta(new, old):
    """Worst |new - old| / max(1, |old|) over matching numbers; inf where the shapes differ."""
    if isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        return max((_delta(a, b) for a, b in zip(new, old)), default=0.0)
    if isinstance(new, float) and isinstance(old, float):
        if new == old or (math.isnan(new) and math.isnan(old)):
            return 0.0
        delta = abs(new - old) / max(1.0, abs(old))
        return delta if math.isfinite(delta) else math.inf
    return 0.0 if new == old else math.inf


def compare(new, old):
    """Report lines on what moved from digest old to digest new, and how many things moved."""
    lines, moved_total = [], 0
    for name in sorted(new["ops"].keys() | old["ops"].keys()):
        new_seeds, old_seeds = new["ops"].get(name, {}), old["ops"].get(name, {})
        moved = total = 0
        worst = 0.0
        for seed in sorted(new_seeds.keys() | old_seeds.keys()):
            new_ops, old_ops = new_seeds.get(seed, []), old_seeds.get(seed, [])
            total += max(len(new_ops), len(old_ops))
            for index in range(max(len(new_ops), len(old_ops))):
                a = new_ops[index] if index < len(new_ops) else None
                b = old_ops[index] if index < len(old_ops) else None
                # the JSON text keeps every bit, the sign of a zero included
                if json.dumps(a) == json.dumps(b):
                    continue
                moved += 1
                if a is None or b is None or "result" not in a or "result" not in b:
                    worst = math.inf
                else:
                    worst = max(worst, _delta(a["result"], b["result"]))
        line = f"{name}: {moved} of {total} ops moved"
        lines.append(line + (f", worst |delta|/max(1, |v|) = {worst:.3g}" if moved else ""))
        moved_total += moved
    changed = [key for key in sorted(new["cli"].keys() | old["cli"].keys()) if new["cli"].get(key) != old["cli"].get(key)]
    lines.append(f"cli: {len(changed)} of {len(new['cli'].keys() | old['cli'].keys())} commands changed")
    lines += [f"  changed: {key}" for key in changed]
    return lines, moved_total + len(changed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE.parent)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    doc = digest(args.root.resolve())
    if args.against is None:
        print(json.dumps(doc, indent=1))
        return 0
    lines, moved = compare(doc, json.loads(args.against.read_text()))
    print("\n".join(lines))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
