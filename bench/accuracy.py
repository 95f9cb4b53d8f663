#!/usr/bin/env python3
"""Measure the accuracy of a checkout's pair integrals against mpmath, per kernel and regime.

Run from the repository root (needs mpmath):

    python3 bench/accuracy.py [--root CHECKOUT] [--json --label NAME]

``--root`` names the checkout to measure (default: the one holding this
script); its ``src`` is imported, so a parent commit is measured with this
script from its own clone.  For each regime below the script draws
``PAIRS`` seeded pairs (b, delta, R), evaluates them with the checkout's
``_pair_integral`` for the LIGHTCONE and the LOGABS kernel, and compares
each value v with the high-precision value of ``highprec.py`` (the
closed forms in s = sqrt(b/2), x = s delta, h = s R, at ``highprec.digits``
working digits).  It prints, per kernel and regime, the worst relative
error, the worst |delta| / max(1, |v|), the count of pairs above 1e-12
relative, the sign flips (computed value and reference of opposite signs)
and the worst pair; then the same for the named ``PROBES``.  With
``--json`` it writes ``ACCURACY_<label>.json`` into the current directory.

The regimes, with b the combined width and scale = 1/sqrt(b):

* wide: b log-uniform on [1e-4, 1], delta = scale |N| 10^U(-1, 1),
  R = scale 10^U(-2, 1);
* narrow: the same on b in [1e4, 1e8];
* near-null: b on [1e-2, 1e8], delta = scale 10^U(-1, 1),
  R = delta (1 + 1e-3 N);
* far-spacelike: b on [1e-2, 1e8], sqrt(b) R uniform on [12, 20],
  delta = R 10^U(-8, -0.5);
* timelike: b on [1e-2, 1e8], R = scale 10^U(-2, 1),
  delta = R + scale 10^U(-1, 1);
* self: delta = R = 0, b on [5e-151, 5e149], the width range;
* small s(R + delta): b on [1e-4, 1], s (R + delta) = 10^U(-8, -1), a
  uniform share of it delta;
* wide bumps: b on [5e-151, 0.5], equal widths down to 1e-150, and
  delta, R = |N| at unit scale, the separations of the CLI's examples;
* on-cone: b on [1e-2, 1e8], delta = scale 10^U(-1, 1) and R = delta
  exactly, so the log moment at delta - R is taken at 0.

Each regime draws from its own seed, (SEED, its index), so a regime added
last leaves the pairs of the others as they were.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

try:
    import mpmath as mp
except ImportError:
    sys.exit("bench/accuracy.py needs mpmath, the high-precision reference; it is not a dependency of ncmink")

import numpy as np
from highprec import digits, lightcone_pair, logabs_pair

HERE = Path(__file__).resolve().parent
SEED = 2026
PAIRS = 1000
THRESHOLD = 1e-12
#: Pairs (b, delta, R) named in the package's documentation and tests.
PROBES = {
    "far-tail docstring pair": (1.07e6, 1.09e-6, 0.023),
    "far-tail sign flip": (2710.230972814475, 1.6285976550496414e-4, 0.7386089742100702),
    "small s(R + delta)": (0.0322, 3.47e-7, 2.77e-3),
    "width 1e-150, p = (1, 0.5, 0, 0)": (5e-151, 1.0, 0.5),
    "width 1e-28, p = (1, 0, 0, 0)": (5e-29, 1.0, 0.0),
}


def _log_uniform(rng, low, high, n):
    return 10.0 ** rng.uniform(low, high, n)


def _spread(low, high):
    """Draw b log-uniform on [10^low, 10^high] and delta, R spread about 1/sqrt(b)."""

    def draw(rng, n):
        b = _log_uniform(rng, low, high, n)
        scale = 1.0 / np.sqrt(b)
        return b, scale * np.abs(rng.normal(size=n)) * _log_uniform(rng, -1, 1, n), scale * _log_uniform(rng, -2, 1, n)

    return draw


def _far_spacelike(rng, n):
    b = _log_uniform(rng, -2, 8, n)
    R = rng.uniform(12.0, 20.0, n) / np.sqrt(b)
    return b, R * _log_uniform(rng, -8, -0.5, n), R


def _near_null(rng, n):
    b = _log_uniform(rng, -2, 8, n)
    delta = _log_uniform(rng, -1, 1, n) / np.sqrt(b)
    return b, delta, delta * (1.0 + 1e-3 * rng.normal(size=n))


def _on_cone(rng, n):
    b = _log_uniform(rng, -2, 8, n)
    delta = _log_uniform(rng, -1, 1, n) / np.sqrt(b)
    return b, delta, delta.copy()


def _timelike(rng, n):
    b = _log_uniform(rng, -2, 8, n)
    R = _log_uniform(rng, -2, 1, n) / np.sqrt(b)
    return b, R + _log_uniform(rng, -1, 1, n) / np.sqrt(b), R


def _small_sum(rng, n):
    b = _log_uniform(rng, -4, 0, n)
    total = _log_uniform(rng, -8, -1, n) / np.sqrt(0.5 * b)
    delta = total * rng.uniform(0.0, 1.0, n)
    return b, delta, total - delta


REGIMES = {
    "wide": _spread(-4, 0),
    "narrow": _spread(4, 8),
    "near-null": _near_null,
    "far-spacelike": _far_spacelike,
    "timelike": _timelike,
    "self": lambda rng, n: (_log_uniform(rng, math.log10(5e-151), math.log10(5e149), n), np.zeros(n), np.zeros(n)),
    "small s(R+delta)": _small_sum,
    "wide bumps": lambda rng, n: (_log_uniform(rng, math.log10(5e-151), math.log10(0.5), n), np.abs(rng.normal(size=n)), np.abs(rng.normal(size=n))),
    "on-cone": _on_cone,
}
REFERENCES = {"lightcone": lightcone_pair, "logabs": logabs_pair}


def _reference(kernel, b, delta, R):
    with mp.workdps(digits(b)):
        return REFERENCES[kernel](b, delta, R)


def _errors(value, reference):
    """(relative error, |delta| / max(1, |v|), sign flip) of one value."""
    error = abs(mp.mpf(value) - reference)
    relative = float(error / abs(reference)) if reference else (0.0 if value == 0.0 else math.inf)
    return relative, float(error / max(1, abs(reference))), bool(value * reference < 0)


def _summary(rows):
    worst = max(rows, key=lambda row: row["relative"])
    return {
        "pairs": len(rows),
        "worst_relative": worst["relative"],
        "worst_abs": max(row["abs"] for row in rows),
        "above_threshold": sum(row["relative"] > THRESHOLD for row in rows),
        "sign_flips": sum(row["flip"] for row in rows),
        "worst_pair": worst,
    }


def _row(kernel, b, delta, R, value):
    reference = _reference(kernel, b, delta, R)
    relative, absolute, flip = _errors(value, reference)
    return {"b": b, "delta": delta, "R": R, "value": value, "reference": float(reference), "relative": relative, "abs": absolute, "flip": flip}


def measure(pair_integral, kinds, n):
    """Per kernel and regime, the summary of n seeded pairs; and each probe's row per kernel.

    ``pair_integral(kind, b, delta, R)`` evaluates one pair on Python
    floats.  ``worst_abs`` in a summary is the worst |delta| / max(1, |v|).
    """
    results = {}
    for kernel, kind in kinds.items():
        results[kernel] = {}
        for index, (regime, draw) in enumerate(REGIMES.items()):
            b, delta, R = draw(np.random.default_rng([SEED, index]), n)
            pairs = zip(b.tolist(), delta.tolist(), R.tolist())
            results[kernel][regime] = _summary([_row(kernel, *pair, pair_integral(kind, *pair)) for pair in pairs])
    probes = {}
    for name, pair in PROBES.items():
        probes[name] = {kernel: _row(kernel, *pair, pair_integral(kind, *pair)) for kernel, kind in kinds.items()}
    return results, probes


def _print(results, probes):
    print(f"{'kernel':10s} {'regime':18s} {'pairs':>5s} {'worst rel':>10s} {'worst abs':>10s} {'>1e-12':>6s} {'flips':>5s}  worst pair (b, delta, R)")
    for kernel, regimes in results.items():
        for regime, s in regimes.items():
            w = s["worst_pair"]
            print(
                f"{kernel:10s} {regime:18s} {s['pairs']:5d} {s['worst_relative']:10.2e} {s['worst_abs']:10.2e} "
                f"{s['above_threshold']:6d} {s['sign_flips']:5d}  ({w['b']:.6g}, {w['delta']:.6g}, {w['R']:.6g})"
            )
    for name, rows in probes.items():
        for kernel, row in rows.items():
            print(f"probe {name!r} {kernel}: value {row['value']!r}, reference {row['reference']:.16g}, relative error {row['relative']:.2e}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE.parent)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    if args.json and not args.label:
        parser.error("--json needs --label")
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from ncmink.integrate import KernelKind, _pair_integral

    kinds = {"lightcone": KernelKind.LIGHTCONE, "logabs": KernelKind.LOGABS}
    results, probes = measure(_pair_integral, kinds, PAIRS)
    _print(results, probes)
    if args.json:
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"], capture_output=True, text=True).stdout.strip())
        record = {
            "label": args.label,
            "commit": commit,
            "src_differs_from_commit": dirty,
            "mpmath": mp.__version__,
            "numpy": np.__version__,
            "seed": SEED,
            "threshold": THRESHOLD,
            "results": results,
            "probes": probes,
        }
        path = Path(f"ACCURACY_{args.label}.json")
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
