"""Command-line front door: distances, causal relations, verification, sweeps.

Config precedence is flags > config file > built-in defaults, and the
effective configuration is echoed into every JSON output so a run can be
reproduced from its own artifact.  Data goes to stdout, logs to stderr.
The environment variable NCMINK_WORKERS fans sweep rows out over a process
pool; output rows stay ordered by input index regardless of pool size.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
non-convergence.

File formats
------------
Config file (JSON)::

    {"constants":  {"planck_length": 1.0, "u": [1, 0, 0, 0]},
     "state":      {"alpha": 1e6, "psi": {"center": [0, 0, 0, 0], "width": 25.0}},
     "quadrature": {"rel_tol": 1e-3, "abs_tol": 1e-10, "max_evals": 20000000,
                    "mc_samples": 20000, "seed": 20260809}}

Smearing families (JSON, see :func:`ncmink.testfn.smearing_from_json`)::

    [{"v": [v0, v1, v2, v3], "center": [t, x, y, z], "width": a, "weight": w}, ...]
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

from .geometry import causal, classify_causal, distance, distance_alpha
from .integrate import QuadratureConfig, worker_count
from .minkowski import PhysicalConstants
from .state import DMStateParams
from .testfn import GaussianBump
from .verify import SUITES

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3

DEFAULTS = {
    "constants": {"planck_length": 1.0, "u": [1.0, 0.0, 0.0, 0.0]},
    "state": {"alpha": 1.0e6, "psi": {"center": [0.0, 0.0, 0.0, 0.0], "width": 25.0}},
    "quadrature": {
        "rel_tol": 1e-3,
        "abs_tol": 1e-10,
        "max_evals": 20_000_000,
        "mc_samples": 20_000,
        "seed": 20260809,
    },
}


def _four_vector(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected 4 comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _range_spec(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must be start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if count <= 0:
        raise argparse.ArgumentTypeError("count must be positive")
    return start, stop, count


def _merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def build_run_config(args):
    """Resolve flags > config file > defaults into one config document."""
    config = DEFAULTS
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as handle:
            config = _merge(config, json.load(handle))
    flat = {}
    if getattr(args, "planck_length", None) is not None:
        flat.setdefault("constants", {})["planck_length"] = args.planck_length
    if getattr(args, "kappa_sq", None) is not None:
        flat.setdefault("constants", {})["planck_length"] = math.sqrt(
            args.kappa_sq / (16.0 * math.pi)
        )
    if getattr(args, "state_alpha", None) is not None:
        flat.setdefault("state", {})["alpha"] = args.state_alpha
    for field in ("rel_tol", "abs_tol", "mc_samples", "seed"):
        value = getattr(args, field, None)
        if value is not None:
            flat.setdefault("quadrature", {})[field] = value
    return _merge(config, flat)


def _instantiate(config):
    constants = PhysicalConstants(planck_length=config["constants"]["planck_length"])
    psi_doc = config["state"]["psi"]
    params = DMStateParams(
        state_alpha=config["state"]["alpha"],
        psi=GaussianBump(tuple(psi_doc["center"]), psi_doc["width"]),
        constants=constants,
        u=tuple(config["constants"]["u"]),
    )
    quad = config["quadrature"]
    cfg = QuadratureConfig(
        rel_tol=quad["rel_tol"],
        abs_tol=quad["abs_tol"],
        max_evals=quad["max_evals"],
        mc_samples=quad["mc_samples"],
        seed=quad["seed"],
    )
    return constants, params, cfg


def _emit(doc, rows, fmt, row_fields):
    """Render one result document; rows are the tabular part."""
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(row_fields)
        for row in rows:
            writer.writerow([row[field] for field in row_fields])
    else:
        for row in rows:
            print("  ".join(f"{field}={row[field]!r}" for field in row_fields))


def cmd_distance(args):
    config = build_run_config(args)
    constants, _, cfg = _instantiate(config)
    chi_p = GaussianBump(args.p, args.width)
    chi_q = GaussianBump(args.q, args.width)
    result = distance(chi_p, chi_q, constants, cfg)
    row = {
        "classical": result.classical,
        "quantum": result.quantum,
        "total": result.total,
        "error": result.error,
        "converged": result.converged,
    }
    doc = {"command": "distance", "config": config, "p": list(args.p), "q": list(args.q), "width": args.width, "result": row}
    _emit(doc, [row], args.format, list(row))
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_causal(args):
    config = build_run_config(args)
    _, _, cfg = _instantiate(config)
    chi_p = GaussianBump(args.p, args.width)
    chi_q = GaussianBump(args.q, args.width)
    result = causal(chi_p, chi_q, cfg)
    row = {
        "value": result.value,
        "error": result.error_estimate,
        "classification": classify_causal(result.value, result.error_estimate),
        "converged": result.converged,
    }
    doc = {"command": "causal", "config": config, "p": list(args.p), "q": list(args.q), "width": args.width, "result": row}
    _emit(doc, [row], args.format, list(row))
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_verify(args):
    config = build_run_config(args)
    _, _, cfg = _instantiate(config)
    report = SUITES[args.suite](cfg)
    rows = [
        {
            "check": c["name"],
            "expected": c["expected"],
            "computed": c["computed"],
            "tolerance": c["tolerance"],
            "passed": c["passed"],
        }
        for c in report["checks"]
    ]
    doc = {"command": "verify", "config": config, "report": report}
    _emit(doc, rows, args.format, ["check", "expected", "computed", "tolerance", "passed"])
    if args.format == "text":
        print(f"suite {report['suite']}: {'PASS' if report['passed'] else 'FAIL'}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def _sweep_point(task):
    """One sweep row; top-level so process pools can pickle it."""
    config, axis, value, direction, width, separation = task
    constants, params, cfg = _instantiate(config)
    width_here = value if axis == "width" else width
    alpha = value if axis == "state-alpha" else params.state_alpha
    shift = value if axis == "separation" else separation
    offset = (shift, 0.0, 0.0, 0.0) if direction == "time" else (0.0, shift, 0.0, 0.0)
    chi_p = GaussianBump(offset, width_here)
    chi_q = GaussianBump((0.0, 0.0, 0.0, 0.0), width_here)
    if axis == "state-alpha":
        params_here = DMStateParams(alpha, params.psi, constants, params.u)
        dist = distance_alpha(chi_p, chi_q, params_here, cfg)
    else:
        dist = distance(chi_p, chi_q, constants, cfg)
    caus = causal(chi_p, chi_q, cfg)
    return {
        "axis": axis,
        "value": value,
        "width": width_here,
        "state_alpha": alpha,
        "classical": dist.classical,
        "quantum": dist.quantum,
        "total": dist.total,
        "distance_error": dist.error,
        "causal": caus.value,
        "causal_error": caus.error_estimate,
        "converged": dist.converged and caus.converged,
    }


def cmd_sweep(args):
    config = build_run_config(args)
    start, stop, count = args.range
    if args.log_scale:
        if start <= 0 or stop <= 0:
            print("log-scale sweeps need positive bounds", file=sys.stderr)
            return EXIT_USAGE
        values = [
            start * (stop / start) ** (k / max(count - 1, 1)) for k in range(count)
        ]
    else:
        values = [start + (stop - start) * k / max(count - 1, 1) for k in range(count)]
    tasks = [
        (config, args.axis, v, args.direction, args.width, args.separation)
        for v in values
    ]
    nworkers = worker_count()
    if nworkers > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]
    fields = list(rows[0])
    doc = {"command": "sweep", "config": config, "rows": rows}
    _emit(doc, rows, args.format, fields)
    if not all(r["converged"] for r in rows):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _add_common(parser, suppress):
    """Shared flags, valid both before and after the subcommand."""
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default, help="JSON config file")
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default=argparse.SUPPRESS if suppress else "text",
    )
    for flag, dest, kind in (
        ("--planck-length", "planck_length", float),
        ("--kappa-sq", "kappa_sq", float),
        ("--state-alpha", "state_alpha", float),
        ("--rel-tol", "rel_tol", float),
        ("--abs-tol", "abs_tol", float),
        ("--mc-samples", "mc_samples", int),
        ("--seed", "seed", int),
    ):
        parser.add_argument(flag, type=kind, dest=dest, default=default)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncmink",
        description="Distance and fuzzy causality numerics on noncommutative Minkowski spacetime",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, suppress=True)
        return p

    p_dist = subparser("distance", "noncommutative distance between two localized points")
    p_dist.add_argument("--p", type=_four_vector, required=True)
    p_dist.add_argument("--q", type=_four_vector, required=True)
    p_dist.add_argument("--width", type=float, required=True)
    p_dist.set_defaults(func=cmd_distance)

    p_caus = subparser("causal", "fuzzy causal functional and classification")
    p_caus.add_argument("--p", type=_four_vector, required=True)
    p_caus.add_argument("--q", type=_four_vector, required=True)
    p_caus.add_argument("--width", type=float, required=True)
    p_caus.set_defaults(func=cmd_causal)

    p_ver = subparser("verify", "run a closed-form verification suite")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = subparser("sweep", "emit a table over separation, width or state-alpha")
    p_sweep.add_argument("--axis", choices=("separation", "width", "state-alpha"), required=True)
    p_sweep.add_argument("--range", type=_range_spec, required=True, help="start:stop:count")
    p_sweep.add_argument("--direction", choices=("time", "space"), default="time")
    p_sweep.add_argument("--width", type=float, default=1e4)
    p_sweep.add_argument("--separation", type=float, default=1.0)
    p_sweep.add_argument("--log", dest="log_scale", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
