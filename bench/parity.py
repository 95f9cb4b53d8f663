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
* the ``state`` inputs of each seed once more in a boosted frame, u with
  spatial part ``BOOST``, under the key ``state (boosted)``: the sha256 of
  the ``gram_check`` N and M bytes and ``eval_omega(a* a)`` under a Krein
  calculus at that u, so the digest also covers a Krein matrix that is not
  diagonal (skipped when the checkout has no ``state`` workload);
* the same inputs under the key ``state (untwisted)``: ``eval_tau(a* a)``
  under a plain calculus and the untwisted second moments
  ``state.diagonal_moments`` of each family with its negations, so the
  digest also covers the state without the Krein twist (skipped with
  the boosted frame);
* the same inputs under the key ``state (zero coefficients)``, each family
  with three members whose products have exact-zero coefficients: a
  mean-free member, whose psi row is zeros, and members on e0 and on e1,
  orthogonal under eta and the Krein matrix of the rest frame, on psi's
  bump and on ``ZERO_BUMP``; each record holds ``eval_omega(a* a)`` of
  the element with their generators added and the sha256 of the
  ``gram_check`` N and M bytes (skipped with the boosted frame);
* Monte Carlo estimates on both branches of its sampler, under the key
  ``oracle (mixtures)``: ``mc_oracle`` with ``MIXTURE_SAMPLES`` samples,
  whose last block is partial, on the first two members of the first
  ``MIXTURE_FAMILIES`` ``state`` families (1-3 terms each, so the pair
  table has several pairs) and on the one-pair inputs of the ``oracle``
  workload, cycling through the three kernels (skipped when the checkout
  lacks either workload);
* the stdout and exit code of every CLI command of ``bench/collect.py``,
  in text and in JSON format;
* the public API under the key ``api``: the names of ``ncmink.__all__``
  and ``Class.attr`` for every public attribute and dataclass field of
  each public class, sorted, so a removed method, property or field shows
  as well as a removed name.

Without ``--against`` the digest goes to stdout as JSON.  With ``--against
FILE`` the checkout's digest is compared with the one in FILE: the script
prints how many ops moved per workload, with the worst
|delta| / max(1, |v|) over their numbers, every CLI command whose
stdout or exit code changed, and the public names removed and added.  An
op moves when any bit of its results or matrices changes, the sign of a
zero included.  An older digest without ``api`` is reported as such.  The
exit code is 1 when anything moved, changed or was removed or added,
else 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from collect import CLI_COMMANDS, _git

HERE = Path(__file__).resolve().parent
SEEDS = (101, 102, 105)
#: Spatial part of the boosted frame's u, the boost of the state tests.
BOOST = (0.4, -0.2, 0.1)
#: One full Monte Carlo block of 8192 samples and a last block of 1809.
MIXTURE_SAMPLES = 10_001
MIXTURE_FAMILIES = 20
#: The second bump of the zero-coefficient members, next to psi's.
ZERO_BUMP = ((0.3, -0.2, 0.1, 0.0), 15.0)
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
    checkout's.  An op that raises is recorded by its exception.  A
    checkout with a ``state`` workload adds its boosted frame and its
    untwisted state.
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
    if "state" in workloads.WORKLOADS:
        ops["state (boosted)"] = boosted_digest()
        ops["state (untwisted)"] = untwisted_digest()
        ops["state (zero coefficients)"] = zero_coefficient_digest()
        if "oracle" in workloads.WORKLOADS:
            ops["oracle (mixtures)"] = mixtures_digest()
    return ops


def public_api():
    """The sorted public names of ``ncmink`` (see the module docstring).

    Runs inside the subprocess, where ``ncmink`` is the checkout's.  A
    name of ``__all__`` that the package does not bind is listed alone.
    """
    import ncmink

    names = set(ncmink.__all__)
    for name in ncmink.__all__:
        value = getattr(ncmink, name, None)
        if isinstance(value, type):
            fields = [field.name for field in dataclasses.fields(value)] if dataclasses.is_dataclass(value) else []
            names.update(f"{name}.{attr}" for attr in [*dir(value), *fields] if not attr.startswith("_"))
    return sorted(names)


def _state_digest(evaluate):
    """evaluate(case) on the ``state`` inputs of every seed, from a cold start per seed.

    Each record is what evaluate returns, or the exception an input raised.
    """
    import workloads

    state = workloads.WORKLOADS["state"]
    seeds = {}
    for seed in SEEDS:
        workloads.cold_start()
        records = seeds[str(seed)] = []
        for index in range(state.ops):
            case = state.make_input(seed, index)
            try:
                records.append(evaluate(case))
            except Exception as exc:  # a raising input is recorded, the pass goes on
                records.append({"raised": repr(exc)})
    return seeds


def boosted_digest():
    """The ``state`` inputs of every seed evaluated with u boosted by ``BOOST``.

    Each record holds omega(a* a) and the sha256 of the N and M matrices.
    """
    import ncmink
    import workloads

    boost = np.array(BOOST)
    # the tests' u, bit for bit
    u = tuple(np.concatenate([[math.sqrt(1 + boost @ boost)], boost]))
    params = dataclasses.replace(workloads.STATE_PARAMS, u=u)
    calc = ncmink.WeylCalculus(params.constants, workloads.CFG, u=u, pairing="krein")

    def evaluate(case):
        reports = ncmink.gram_check(list(case.family), params, workloads.CFG)
        omega = calc.eval_omega(calc.mul(calc.star(case.element), case.element), params)
        return {
            "result": [_numbers(omega.value)],
            "sha256": [hashlib.sha256(report.matrix.tobytes()).hexdigest() for report in reports],
        }

    return _state_digest(evaluate)


def untwisted_digest():
    """The ``state`` inputs of every seed evaluated without the Krein twist.

    Each record holds tau(a* a) under the plain pairing and then the
    untwisted diagonal moments of the family followed by its negations.
    """
    import ncmink
    import workloads

    params = workloads.STATE_PARAMS
    calc = ncmink.WeylCalculus(params.constants, workloads.CFG, pairing="plain")

    def evaluate(case):
        tau = calc.eval_tau(calc.mul(calc.star(case.element), case.element), params)
        family = list(case.family)
        moments = ncmink.state.diagonal_moments(family + [-f for f in family], params, twisted=False)
        return {"result": [_numbers(tau.value), *map(_numbers, moments)], "sha256": []}

    return _state_digest(evaluate)


def zero_coefficient_digest():
    """The ``state`` inputs of every seed with three members of exact-zero coefficients added.

    The members are e0 on psi's bump, e1 on ``ZERO_BUMP`` and the mean-free
    (1, 0.5, 0, 0) on psi's bump minus the same on ``ZERO_BUMP``, so psi
    also shares its bump with terms, and the element gains their
    generators with coefficients 1, i and -0.5.  Each record holds
    omega(a* a) and the sha256 of the N and M matrices.
    """
    import ncmink
    import workloads

    params = workloads.STATE_PARAMS
    calc = ncmink.WeylCalculus(params.constants, workloads.CFG, u=params.u, pairing="krein")
    psi, bump = params.psi, ncmink.GaussianBump(*ZERO_BUMP)
    covector = (1.0, 0.5, 0.0, 0.0)
    members = [
        ncmink.single_term((1.0, 0.0, 0.0, 0.0), psi),
        ncmink.single_term((0.0, 1.0, 0.0, 0.0), bump),
        ncmink.single_term(covector, psi) - ncmink.single_term(covector, bump),
    ]
    added = ncmink.WeylElement.from_dict(dict(zip(members, (1.0, 1j, -0.5))))

    def evaluate(case):
        reports = ncmink.gram_check([*case.family, *members], params, workloads.CFG)
        element = case.element + added
        omega = calc.eval_omega(calc.mul(calc.star(element), element), params)
        return {
            "result": [_numbers(omega.value)],
            "sha256": [hashlib.sha256(report.matrix.tobytes()).hexdigest() for report in reports],
        }

    return _state_digest(evaluate)


def mixtures_digest():
    """``mc_oracle`` on multi-pair and one-pair tables, with a partial last block.

    For every seed: the first two members of each of the first
    ``MIXTURE_FAMILIES`` ``state`` families, with Monte Carlo seed
    1000 seed + index and the kernels in turn, then the Monte Carlo
    inputs of the ``oracle`` workload with their own kernel and seed.
    Each record holds the value and the error estimate, or the exception.
    """
    import ncmink
    import workloads

    kinds = list(ncmink.KernelKind)
    state, oracle = workloads.WORKLOADS["state"], workloads.WORKLOADS["oracle"]
    seeds = {}
    for seed in SEEDS:
        cases = []
        for index in range(MIXTURE_FAMILIES):
            f, g = state.make_input(seed, index).family[:2]
            cases.append((kinds[index % len(kinds)], f, g, 1000 * seed + index))
        for index in range(oracle.ops):
            case = oracle.make_input(seed, index)
            if case.kind is not None:
                cases.append((case.kind, case.f, case.g, case.mc_seed))
        records = seeds[str(seed)] = []
        for kind, f, g, mc_seed in cases:
            cfg = ncmink.QuadratureConfig(mc_samples=MIXTURE_SAMPLES, seed=mc_seed)
            try:
                result = ncmink.mc_oracle(kind, f, g, ncmink.IDENTITY, cfg)
            except Exception as exc:  # a raising input is recorded, the pass goes on
                records.append({"raised": repr(exc)})
                continue
            records.append({"result": [result.value, result.error_estimate], "sha256": []})
    return seeds


def digest(root):
    """The digest of the checkout at root (see the module docstring)."""
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "perfbench"), str(HERE), env.get("PYTHONPATH")])
    )
    code = "import json, parity; print(json.dumps([parity.workload_digest(), parity.public_api()]))"
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
    ops, api = json.loads(done.stdout.splitlines()[-1])
    return {"git_sha": _git(root, "rev-parse", "HEAD"), "seeds": list(SEEDS), "ops": ops, "cli": cli, "api": api}


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
    if "api" not in old:
        lines.append("api: not compared, the old digest records no public API")
        return lines, moved_total + len(changed)
    old_api, new_api = set(old["api"]), set(new["api"])
    removed, added = sorted(old_api - new_api), sorted(new_api - old_api)
    lines.append(f"api: {len(removed)} names removed, {len(added)} added")
    lines += [f"  removed: {name}" for name in removed] + [f"  added: {name}" for name in added]
    return lines, moved_total + len(changed) + len(removed) + len(added)


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
